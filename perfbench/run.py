"""Benchmark entry point: time gravphase end to end and layer by layer.

    python3 perfbench/run.py --workload scalar_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Every measurement happens in fresh
interpreters (worker.py) with one BLAS thread and one gravphase worker;
see README.md for the settings, workloads and metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer ones
under ``--trace 1``. Exits 2 without a result when the checkout has no
gravphase sources, and 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.run_ms": "ms",
    "cli.self_ms": "ms",
    "cli.emit_ms": "ms",
    "variance.phase_variance_us": "us",
    "variance.phase_variance_calls": "count",
    "criteria.critical_length_ms": "ms",
    "criteria.critical_length_calls": "count",
    "criteria.damping_time_ms": "ms",
    "criteria.self_ms": "ms",
    "criteria.pv_calls_per_root": "calls/root",
    "criteria.bracket_errors": "count",
    "noisefield.simulate_s": "s",
    "noisefield.member_step_ms": "ms",
    "noisefield.simulate_peak_mb": "MB",
    "noisefield.covariance_s": "s",
    "noisefield.realization_ms": "ms",
    "oracle.mc_i4_msamples_per_s": "Msample/s",
    "oracle.mc_i6_msamples_per_s": "Msample/s",
    "oracle.sn_cancellation_s": "s",
    "trace.span_coverage_pct": "%",
    "trace.overhead_pct": "%",
}

# The timed phase is shared out over PROCESSES fresh interpreters, run one
# after another, each with its own fixed PYTHONHASHSEED. A process keeps
# its speed for its lifetime (memory layout, hash seed, where it runs), so
# pooling five of them steadies the figures more than one long process.
PROCESSES = 5
# at least ten latencies lie beyond the 90th percentile
MIN_OPS = 120
# every process of one workload has ended within this many seconds
DEADLINE_S = 170

# one BLAS thread, one gravphase worker: 1 thread per process on 2 cores
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GRAVPHASE_THREADS"}
    env.update({k: "1" for k in _THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _worker(args: list[str], hash_seed: int, deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=worker_env(hash_seed), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        # spans and overhead come from one process that runs the whole phase
        shares = [_worker(base + ["--seconds", str(seconds), "--min-ops", str(MIN_OPS),
                                  "--check"], 0, deadline)]
    else:
        share = ["--seconds", str(seconds / PROCESSES),
                 "--min-ops", str(math.ceil(MIN_OPS / PROCESSES))]
        shares = [_worker(base + share + (["--check"] if i == 0 else []), i, deadline)
                  for i in range(PROCESSES)]
    latencies = [t for sh in shares for t in sh["latencies"]]
    correct = (all(sh["problems"] == 0 for sh in shares)
               and len({sh["digest"] for sh in shares}) == 1)
    if trace:
        raw, units = shares[0]["layers"], PER_LAYER
    else:
        raw, units = {
            "setup_s": statistics.median(sh["setup_s"] for sh in shares),
            "wall_s": statistics.median(w for sh in shares for w in sh["walls"]),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "peak_rss_mb": max(sh["peak_rss_mb"] for sh in shares),
        }, END_TO_END
    return {
        "correct": correct,
        "attempted": len(latencies),
        "failed": sum(sh["failed"] for sh in shares),
        "metrics": {k: {"value": raw[k], "unit": u} for k, u in units.items()},
    }


def _report(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:15s} {'attempted':32s} {result['attempted']:14d}")
    print(f"{workload:15s} {'failed':32s} {result['failed']:14d}")
    print(f"{workload:15s} {'correct':32s} {str(result['correct']):>14s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gravphase" / "__init__.py").is_file():
        print(f"error: no gravphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _report(name, results[name])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
