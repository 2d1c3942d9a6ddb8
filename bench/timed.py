"""One timed run in a fresh interpreter: `agentchess.cli.main` per command.

    python3 bench/timed.py SPEC.json

SPEC holds "src" (the directory to import agentchess from), "commands"
(argument lists for cli.main), "result" (where to write timings and stdout)
and, for a traced run, "spans" (where to write the spans). Everything
before the first command (interpreter start, imports, tracer install)
is set-up; the result records the monotonic clock at which timing began, so
the caller can add its own set-up time in front. Per command it records
wall time, this process's CPU time and captured stdout; stderr is left to
the caller, who points it at a file.
"""
from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from agentchess import cli

    ready = time.monotonic()
    commands = []
    for argv in spec["commands"]:
        out = io.StringIO()
        cpu_before = cpu_seconds()
        started = time.monotonic()
        with redirect_stdout(out):
            code = cli.main(argv)
        commands.append({
            "argv": argv,
            "code": code,
            "wall_s": time.monotonic() - started,
            "cpu_s": cpu_seconds() - cpu_before,
            "stdout": out.getvalue(),
        })
        if code != 0:
            break
    result = {
        "ready": ready,
        "commands": commands,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if all(c["code"] == 0 for c in commands) else 1


if __name__ == "__main__":
    sys.exit(main())
