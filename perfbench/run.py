"""qnoise benchmark harness.

Usage (from the root of a qnoise checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs the workload's qnoise CLI commands again and again, each iteration
in a fresh child process, until S seconds have passed; then checks the
outputs and prints one `metric NAME VALUE UNIT ...` line per metric, one
`check` line per failed check, and, as the last line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 times the unmodified package and reports the end-to-end
metrics. --trace 1 alternates untraced and traced iterations and reports
the per-layer metrics of the traced ones, plus the tracing overhead.
--smoke shrinks every workload to a few seconds. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread per process: the engine's own thread pool is
# the only parallelism, so threads never outnumber the engine's count.
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
MIN_ITERATIONS = 3            # per kind (untraced, traced) in one run
CHILD_TIMEOUT_S = 150

COUNT_UNITS = {"engine.noise_bytes": "bytes"}


def _environment(engine_threads: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "engine_threads": engine_threads,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("QNOISE_OUT", None)
    return env


def run_iteration(plan, work: Path, k: int, traced: bool, run_id: str) -> dict:
    out = work / f"it{k}"
    out.mkdir()
    commands = [[a.format(work=work, out=out) for a in argv] for argv in plan.commands]
    spec = {"src": str(SRC), "commands": commands, "trace": traced, "run_id": run_id,
            "result": str(out / "result.json")}
    (out / "spec.json").write_text(json.dumps(spec))
    with (out / "child.log").open("w") as log:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(out / "spec.json"), repr(spawn)],
                cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        wall = time.monotonic() - spawn
    sample = {"k": k, "traced": traced, "wall_s": wall, "out": out, "ok": False}
    if rc != 0 or not (out / "result.json").is_file():
        sample["error"] = f"child exited with {rc}: " + (out / "child.log").read_text()[-2000:]
        return sample
    sample.update(json.loads((out / "result.json").read_text()))
    bad = [c for c in sample["commands"] if c["rc"] != 0]
    sample["ok"] = not bad
    if bad:
        sample["error"] = f"{' '.join(bad[0]['argv'])} exited with {bad[0]['rc']}: {bad[0]['error']}"
    return sample


def _summary(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "qnoise" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no qnoise source tree at {ROOT} (need src/qnoise and configs/)",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"perfbench: unknown workload {args.workload!r}, choose from "
              f"{sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload](args.seed, args.smoke, ROOT)
    run_id = f"{plan.name}-seed{args.seed}-pid{os.getpid()}"
    work = HERE / ".work" / run_id
    work.mkdir(parents=True)
    try:
        return _run(plan, args, work, run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(plan, args, work: Path, run_id: str) -> int:
    import spans
    import workloads

    for name, doc in plan.configs.items():
        (work / name).write_text(json.dumps(doc, indent=2))
    # Untimed warm-up: compiles the package's bytecode and fills the page
    # cache, which a user running the CLI twice already has.
    subprocess.run([sys.executable, "-c", "import qnoise.cli"], cwd=ROOT, env=_child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)

    kinds = (False, True) if args.trace else (False,)
    deadline = time.monotonic() + args.seconds
    samples, first = [], None
    attempted = failed = 0
    failures: list[str] = []
    while True:
        traced = kinds[len(samples) % len(kinds)]
        sample = run_iteration(plan, work, len(samples), traced, run_id)
        samples.append(sample)
        attempted += len(plan.commands)
        if not sample["ok"]:
            failed += len(plan.commands)
            failures.append(f"iteration {sample['k']}: {sample.get('error', '')}")
        elif first is None:
            first = sample
        else:
            # Fixed seed, so every iteration must write the same bytes.
            for f in plan.data_files:
                attempted += 1
                if (sample["out"] / f).read_bytes() != (first["out"] / f).read_bytes():
                    failed += 1
                    failures.append(f"iteration {sample['k']}: {f} differs from iteration "
                                    f"{first['k']}")
            shutil.rmtree(sample["out"])
        done = all(sum(s["traced"] == kind for s in samples) >= MIN_ITERATIONS for kind in kinds)
        if done and time.monotonic() >= deadline:
            break

    if first is None:
        for f in failures:
            print(f"check FAIL {f}", file=sys.stderr)
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    try:
        checks = plan.check(first["out"])
    except (OSError, KeyError, ValueError) as exc:
        checks = [("outputs readable", False, repr(exc))]
    for name, ok, detail in checks:
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"{name}: {detail}")

    good = [s for s in samples if s["ok"]]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: every iteration of one kind failed:\n" + "\n".join(failures),
              file=sys.stderr)
        return 1
    lines: list[tuple[str, float, str, str]] = []

    def add(name, values, unit, note=""):
        lines.append((name, statistics.median(values), unit, note or _summary(values)))

    add("wall_s", [s["wall_s"] for s in untraced], "s")
    add("setup_s", [s["setup_s"] for s in untraced], "s")
    add("cpu_s", [s["cpu_s"] for s in untraced], "s")
    for name, (idx, items, unit) in plan.rates.items():
        add(name, [items / s["commands"][idx]["seconds"] for s in untraced], unit)
    add("items_per_s",
        [plan.items / sum(c["seconds"] for c in s["commands"]) for s in untraced], "1/s")
    if plan.parallel_pair:
        one, two = plan.parallel_pair
        add("parallel_eff",
            [s["commands"][one]["seconds"] / (2 * s["commands"][two]["seconds"])
             for s in untraced], "ratio")
    add("peak_rss_mb", [s["peak_rss_mb"] for s in untraced], "MB")

    if args.trace:
        per_iter = [spans.layer_metrics(s["spans"]) for s in traced]
        observed = [spans.traced_counts(s["spans"]) for s in traced]
        for name in per_iter[0]:
            unit = "count" if name.endswith(("_calls", "_applies")) else "s"
            add(name, [m[name] for m in per_iter], unit)
        for name, value in plan.counts.items():
            note = "computed from the inputs"
            if name in observed[0]:
                note += f"; traced {observed[0][name]}"
            lines.append((name, value, COUNT_UNITS.get(name, "count"), note))
        # Call counts and traced matrix counts must repeat exactly.
        repeated = [(n, [m[n] for m in per_iter]) for n in per_iter[0]
                    if n.endswith(("_calls", "_applies"))]
        repeated += [(n, [m[n] for m in observed]) for n in observed[0]]
        for name, values in repeated:
            attempted += 1
            if len(set(values)) != 1:
                failed += 1
                failures.append(f"{name} differs between traced iterations: {values}")
        add("trace.wall_s", [s["wall_s"] for s in traced], "s")
        overhead = (statistics.median([s["wall_s"] for s in traced])
                    - statistics.median([s["wall_s"] for s in untraced]))
        lines.append(("trace.overhead_s", overhead, "s",
                      "traced wall_s minus untraced wall_s, medians"))
        missing = sorted({m for s in traced for m in s["hooks_missing"]})
        lines.append(("trace.hooks_missing", len(missing), "count", ", ".join(missing) or "none"))
        trace_file = HERE / ".out" / f"{run_id}-spans.json"
        trace_file.parent.mkdir(exist_ok=True)
        trace_file.write_text(json.dumps([sp for s in traced for sp in s["spans"]]))
    lines.append(("fail_frac", failed / attempted, "ratio", f"{failed} of {attempted} failed"))

    env = _environment(workloads.ENGINE_THREADS)
    print(f"perfbench workload={plan.name} seed={args.seed} trace={args.trace} "
          f"iterations={len(samples)} smoke={args.smoke}")
    print("env " + json.dumps(env))
    print(f"tolerance z={workloads.Z_TOL} (see workloads.py)")
    for name, value, unit, note in lines:
        print(f"metric {name} {value!r} {unit} {note}")
    for f in failures[:20]:
        print(f"check FAIL {f}")

    wanted = _declared_metrics("per_layer" if args.trace else "end_to_end")
    by_name = {name: (value, unit) for name, value, unit, _ in lines}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": by_name[n][0], "unit": by_name[n][1]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


def _declared_metrics(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


if __name__ == "__main__":
    sys.exit(main())
