"""
Benchmark of the `wachs` pipeline: enumerate, build poset, closed form
against oracle, report.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and units are listed in BENCHMARK.json.  Every
iteration runs in a fresh interpreter (bench/worker.py) and its outputs
are validated.  With `--trace 0` the run repeats the workload until the
next iteration would overrun `--seconds` and reports the median of each
end-to-end metric.  With `--trace 1` it makes a traced iteration between two
untraced ones and reports the per-layer metrics of the traced one
(bench/layertrace.py); `trace.overhead_s` is its wall time minus the
median of the untraced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record (the
environment, every sample, spans of a traced run) goes to
`.bench_out/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layertrace
import validate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170      # a run exits within this, iterations included

# the seed sets PYTHONHASHSEED only: every sweep is exhaustive, so inputs
# and outputs are the same for every seed
WORKLOADS = {
    "report-default": {"caps": {"A": 8, "B": 6, "latticeAodd": 9}},
    "stretch-A9B7": {"caps": {"A": 9, "B": 7, "latticeAodd": 9}},
}
STRETCH_CHECKS = [
    ("theorem", "graded-A", range(1, 10)),
    ("theorem", "covers-A", range(1, 10)),
    ("theorem", "rankpoly-A", range(1, 10)),
    ("conjecture", "latticeAodd", range(1, 10, 2)),
]


class BenchError(RuntimeError):
    pass


def workload_calls(name: str, out_dir: str) -> list:
    """(argv, validator) pairs writing into a fresh `out_dir`; a validator
    maps (rc, stdout) to (attempted, failed, problems)."""
    if name == "report-default":
        path = os.path.join(out_dir, "report.json")
        cells = validate.expected_report_cells()
        # the worker runs in ROOT; a relative path keeps records portable
        return [(["report", "--json", os.path.relpath(path, ROOT)],
                 lambda rc, out: validate.check_report(path, rc, cells))]
    calls = [(["enumerate", "B", "7", "--unsafe-large"],
              lambda rc, out: validate.check_enumeration("B", 7, rc, out))]
    for category, check_id, ns in STRETCH_CHECKS:
        argv = ["check", category, check_id, "--max-n", str(max(ns))]
        if category == "theorem":
            argv.append("--unsafe-large")
        calls.append((argv, lambda rc, out, cid=check_id, ns=list(ns):
                      validate.check_passes(cid, "A", ns, rc, out)))
    return calls


def iterate(tmp: str, calls: list, env: dict, deadline: float,
            trace: bool = False) -> dict:
    """One fresh-interpreter iteration; returns the worker's result.
    With no calls it is a set-up sample: the worker only imports."""
    work = tempfile.mkdtemp(dir=tmp)
    spec = {"root": ROOT, "calls": [argv for argv, _ in calls],
            "result": os.path.join(work, "result.json"), "trace": trace}
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"iteration overran the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if calls:
        result["checked"] = [check(c["rc"], c["stdout"])
                             for (_, check), c in zip(calls, result["calls"])]
        for c in result["calls"]:      # keep the record small
            c["stdout"] = f"<{len(c['stdout'].splitlines())} lines>"
    shutil.rmtree(work)
    return result


def git_revision() -> str | None:
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    env = dict(os.environ, WACHS_THREADS="1", PYTHONHASHSEED=str(seed % 2 ** 32))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir)
    try:
        iterate(tmp, [], env, deadline)     # writes bytecode
        setups = [iterate(tmp, [], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]

        def once(traced: bool = False) -> dict:
            calls = workload_calls(workload, tempfile.mkdtemp(dir=tmp))
            return iterate(tmp, calls, env, deadline, traced)

        samples = []
        if trace:
            # untraced iterations on both sides of the traced one, so a
            # drift in host speed does not land in trace.overhead_s
            samples.append(once())
            traced = once(traced=True)
            samples.append(once())
        else:
            t0 = time.monotonic()
            longest = 0.0
            while True:
                begin = time.monotonic()
                samples.append(once())
                longest = max(longest, time.monotonic() - begin)
                if time.monotonic() - t0 + longest > seconds:
                    break
    finally:
        shutil.rmtree(tmp)

    iterations = samples + ([traced] if trace else [])
    setups += [s["setup_s"] for s in iterations]
    attempted = sum(a for s in iterations for a, _, _ in s["checked"])
    failed = sum(f for s in iterations for _, f, _ in s["checked"])
    problems = [p for s in iterations for _, _, ps in s["checked"] for p in ps]

    metrics = {name: statistics.median(s[name] for s in samples)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    if trace:
        metrics.update(layertrace.layer_metrics(traced["trace"]))
        metrics["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
    environment = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "WACHS_THREADS": env["WACHS_THREADS"], "caps": WORKLOADS[workload]["caps"],
        "git_revision": git_revision(), "seed": seed, "trace": int(trace),
        "seconds": seconds,
        "samples": {"setup_s": len(setups), "iterations": len(samples),
                    "traced_iterations": int(trace)},
        "calls": [" ".join(c["argv"]) for c in samples[0]["calls"]],
    }
    return {"workload": workload, "environment": environment,
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "setup_samples": setups,
            "iterations": [{k: v for k, v in s.items() if k != "trace"}
                           for s in iterations],
            "spans": traced["trace"]["spans"] if trace else None,
            "elapsed_s": time.monotonic() - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if not os.path.isfile(os.path.join(ROOT, "src", "wachsposets", "cli.py")):
        print("error: src/wachsposets is missing; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = os.path.join(
        ROOT, ".bench_out",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(rec, fh, indent=1)

    print("environment: " + json.dumps(rec["environment"], sort_keys=True))
    for problem in rec["problems"]:
        print(f"FAILED: {problem}")
    counts = rec["environment"]["samples"]
    for m in declared["end_to_end"]:
        n = counts["setup_s" if m["name"] == "setup_s" else "iterations"]
        print(f"{m['name']} = {rec['metrics'][m['name']]:.6g} {m['unit']} "
              f"(median of {n})")
    for m in declared["per_layer"] if args.trace else []:
        value = rec["metrics"][m["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{m['name']} = {shown} {m['unit']} (traced iteration)")
    print(f"fail_ratio = {rec['failed']}/{rec['attempted']} operations")
    print(f"record: {os.path.relpath(record, ROOT)}")
    print(json.dumps({
        "correct": rec["failed"] == 0, "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": rec["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in declared["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
