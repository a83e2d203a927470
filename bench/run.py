"""Run the benchmark: one workload, or all of them, and print the metrics.

    python3 bench/run.py --workload hotspot-loopback --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a checkout; it measures the package in ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run plus the overhead of tracing against an
untraced run of the same length.  Either way it runs the correctness gate,
prints a table, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  It exits 0 only when
every operation succeeded and the gate's evidence digest matches
``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import samples_beyond

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("hotspot-loopback", "catalog-remote-http", "junk-flood")
# Set-up is timed in this many fresh processes, the measured run included.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def worker(workload: str, seed: int, seconds: float, trace: int, setup_only=False):
    """Start one worker process; returns its result and its set-up time in seconds."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic_ns()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{workload} worker did not finish in {WORKER_TIMEOUT_S} s") from None
    if process.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {process.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, (result["setup_done_ns"] - started) / 1e9


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        # same length for both, so the comparison is like for like
        plain, _ = worker(workload, seed, seconds / 2, 0)
        result, _ = worker(workload, seed, seconds / 2, 1)
        base = plain["metrics"]["negotiation_p50_ms"]["value"]
        traced = result["metrics"]["negotiation_p50_ms"]["value"]
        result["metrics"]["bench.tracing_overhead_pct"] = {
            "value": (traced - base) / base * 100, "unit": "%",
        }
        return result
    setups = [worker(workload, seed, seconds, 0, setup_only=True)[1] for _ in range(SETUP_SAMPLES - 1)]
    result, setup_s = worker(workload, seed, seconds, 0)
    setups.append(setup_s)
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_samples"] = len(setups)
    return result


def metric_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def report(workload: str, result: dict, names: list[str], expected_digest) -> dict:
    problems = list(result["failures"]) + list(result["gate_problems"])
    if result["gate_digest"] != expected_digest:
        problems.append(f"evidence digest {result['gate_digest']} is not the recorded {expected_digest}")
    samples, tails = result["samples"], result["tails"]

    def tail_note(kind):
        n, p = samples[kind], tails[kind]
        return f"p{p:g}, n={n}, {samples_beyond(n, p)} beyond"

    notes = {
        "negotiation_p50_ms": f"n={samples['negotiation']}",
        "negotiation_tail_ms": tail_note("negotiation"),
        "audit_p50_ms": f"n={samples['audit']}",
        "junk_reject_p50_us": f"n={samples['junk']}",
        "junk_reject_tail_us": tail_note("junk"),
        "setup_s": f"median of {result.get('setup_samples', 1)}",
    }
    print(f"== {workload}")
    for name in names:
        metric = result["metrics"][name]
        print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']:6s} {notes.get(name, '')}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ssla" / "__init__.py").is_file():
        print(f"no ssla package under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    # Every process of a run shares one CPU: one request is in flight at a
    # time, and hand-offs between processes on different CPUs of a virtual
    # machine wait on the host's scheduling, which swings from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = metric_names("per_layer" if args.trace else "end_to_end")
    digests = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        line = report(workload, measure(workload, args.seed, args.seconds, args.trace), names,
                      digests.get(workload))
        print(json.dumps(line), flush=True)
        all_correct = all_correct and line["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
