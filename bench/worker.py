"""
One benchmark iteration in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

SPEC holds the repository root, the `wachs` argument lists to run in
order (none for a set-up sample, which stops after the import), whether
to trace, and where to write the result.  The result file records the import
time, the wall time from the first `cli.main` call to the last return,
user + system time of this process and its children, peak RSS, each
call's exit code and captured output, and the layer trace if requested.

A fresh interpreter per iteration matters: `checks`, `bruhat` and `wachs`
keep process-global caches, so a second iteration in one process would
only measure cache hits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))

    t0 = time.perf_counter()
    from wachsposets import cli
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s}

    if spec["calls"]:
        tracer = None
        if spec["trace"]:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        calls = []
        cpu0 = _cpu_s()
        start = time.perf_counter()
        for argv in spec["calls"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            calls.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                          "stderr": err.getvalue()})
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu0
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_kb / 1024,
                      calls=calls,
                      trace=tracer.collect() if tracer else None)

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
