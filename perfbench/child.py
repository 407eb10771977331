"""One benchmark iteration, run in a fresh process.

Usage: python3 child.py SPEC.json SPAWN_TIME

SPEC names the source tree, the qnoise argv lists to run, whether to
trace, and where to write the result. SPAWN_TIME is the parent's
`time.monotonic()` just before it started this process (the clock is
system-wide), so set-up time covers interpreter start, the qnoise import,
and reading the first config and building its model the way the CLI does.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spawn = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import qnoise.cli as cli

    doc = json.loads(Path(spec["commands"][0][1]).read_text())
    cli.PRESETS[doc["model"]["preset"]]()
    setup_end = time.monotonic()

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()

    commands = []
    for argv in spec["commands"]:
        start = time.monotonic()
        error = None
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, (argv,), {})
        except SystemExit as exc:
            rc, error = (exc.code if isinstance(exc.code, int) else 1), str(exc.code)
        except Exception:
            # Keep going: the parent counts the failed command and its checks.
            rc, error = 1, traceback.format_exc()
        commands.append({"argv": argv, "rc": rc, "error": error,
                         "seconds": time.monotonic() - start})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_end - spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "commands": commands,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "spans": tracer.export() if tracer else None,
        "hooks_missing": tracer.missing if tracer else [],
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
