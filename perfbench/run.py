"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> [--seed 0] [--seconds 20] [--trace 0|1]

Run from anywhere; it benchmarks the entguess source tree of the checkout
it sits in.  With --trace 0 it measures set-up in several fresh
interpreters, then runs the workload untraced in one fresh worker process
and prints the end-to-end metrics.  With --trace 1 the worker alternates
plain and traced invocations and the per-layer metrics are printed instead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a results file with every figure and its
provenance goes to perfbench/_out/.  The exit code is 0 only when every
step ran; failed operations are reported, not turned into an exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

# setup_s is the median over fresh interpreters: at least SETUP_PROBES[0],
# more while SETUP_BUDGET_S lasts, at most SETUP_PROBES[1].  One more runs
# first, untimed, so every timed one finds compiled bytecode.
SETUP_PROBES = (5, 25)
SETUP_BUDGET_S = 3.0
DEADLINE_S = 170  # the whole run, set-up included
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# Children may cache bytecode in the checkout whatever the caller's setting,
# so set-up is timed as an installed CLI pays it, without recompiling.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def setup_seconds(d, deadline):
    times = []
    budget = time.monotonic() + SETUP_BUDGET_S
    while len(times) <= SETUP_PROBES[0] or (
        len(times) <= SETUP_PROBES[1] and time.monotonic() < budget
    ):
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH / "setup_probe.py"), str(wl.SRC), str(d)],
            capture_output=True, text=True, check=True, env=CHILD_ENV,
            timeout=deadline - time.monotonic(),
        )
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def run_worker(args, deadline):
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    subprocess.run(
        [sys.executable, str(wl.BENCH / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace), str(wl.OUT / tag)],
        check=True, env=CHILD_ENV, timeout=deadline - time.monotonic(),
    )
    path = wl.OUT / f"{tag}.worker.json"
    result = json.loads(path.read_text())
    path.unlink()
    return tag, result


def tail(times):
    """The highest percentile in PERCENTILES with at least ten values above it."""
    ordered = sorted(times)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            best = (p, ordered[min(n - 1, int(p / 100 * n))])
    return best


def end_to_end(w, records, setup_s, peak_rss_mb):
    secs = [r["seconds"] for r in records]
    total = sum(secs)
    return {
        "setup_s": (setup_s, "s"),
        "invocation_s.p50": (statistics.median(secs), "s"),
        "states_per_s": (w.states * len(secs) / total, "1/s"),
        "trials_per_s": (w.trials * len(secs) / total, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(w, records, trace):
    """Calls per invocation and median self seconds per invocation, per traced name."""
    plain = [r["seconds"] for r in records if r["timed"] and not r["traced"]]
    traced = [r["seconds"] for r in records if r["timed"] and r["traced"]]
    metrics = {}
    for n, name in enumerate(trace["names"]):
        calls = [row[n] for row in trace["calls"]]
        self_s = [row[n] for row in trace["self_s"]]
        metrics[f"{name}.calls"] = (sum(calls) / len(calls), "count")
        metrics[f"{name}.self_s"] = (statistics.median(self_s), "s")
    fos = metrics["linops.func_on_support.calls"][0]
    metrics["linops.func_on_support.calls_per_state"] = (fos / w.states, "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["tracing_overhead_frac"] = (overhead, "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (wl.SRC / "entguess" / "cli.py").is_file():
        print(f"error: no entguess source tree at {wl.SRC}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    wl.OUT.mkdir(exist_ok=True)

    setup_s = None if args.trace else setup_seconds(w.d, deadline)
    tag, result = run_worker(args, deadline)
    records = result["records"]
    timed = [r for r in records if r["timed"] and not r["traced"]]
    attempted = w.ops * len(records)
    failed = sum(r["failed"] for r in records)
    if args.trace:
        metrics = per_layer(w, records, result["trace"])
    else:
        metrics = end_to_end(w, timed, setup_s, result["peak_rss_mb"])

    secs = [r["seconds"] for r in timed]
    summary = {
        "workload": w.name,
        "argv_template": list(w.args),
        "invocations_timed": len(secs),
        "invocation_s.tail": tail(secs),
        "failed_frac": failed / attempted,
        "absent": result.get("trace", {}).get("absent", []),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": result["provenance"],
        "invocations": [
            {k: r[k] for k in ("argv", "seconds", "traced", "rc", "failed")} for r in records
        ],
    }
    (wl.OUT / f"{tag}.json").write_text(json.dumps(summary, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'invocations timed':48s} {len(secs):14d}")
    if summary["invocation_s.tail"]:
        p, value = summary["invocation_s.tail"]
        print(f"{f'invocation_s.p{p:g}':48s} {value:14.6g} s")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g}  ({failed}/{attempted})")
    for name in summary["absent"]:
        print(f"absent: {name} (reported as 0)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
