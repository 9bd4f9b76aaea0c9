"""Record points of the performance trajectory into a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent ../parent --out BENCH_15.json
    python3 tools/bench_record.py --label change --out BENCH_6.json

Measures the checkout at ``--repo`` (default: this repository) and stores
the record under ``--label`` (default ``change``) in ``--out``, keeping
the other labels already there. With ``--parent`` it also records that
checkout under ``parent`` in the same call, alternating the two sides
measurement by measurement, so that both sides of each perfbench workload
run within a minute of each other and host drift does not read as a
change. A record holds:

- ``perfbench/run.py --workload <name>`` with ``--trace 0`` and
  ``--trace 1`` for each workload of ``BENCHMARK.json`` (the last JSON
  line of each)
- the tier-1 suite: wall time, its summary line and the durations of the
  two acceptance tests c11 and c12
- the median wall time, over seven fresh processes, of
  ``python -c "import gravphase.cli"`` (the start-up every command pays)
  and of each command in the README's command-line block
- nproc, the CPUs in the affinity mask and ``GRAVPHASE_THREADS``, which
  together set the worker count of every call without ``--workers``, the
  Python, numpy and scipy versions, and ``git describe``

perfbench runs at seed 1 for 25 s per workload, its defaults. Everything
runs one process at a time; each side takes about six minutes on two
cores. Within a pair of runs the side that goes first alternates, so
neither side always runs on the warmer machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS, CLI_RUNS = 1, 25.0, 7


def _env(repo: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd: list[str], repo: Path, timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=repo, env=_env(repo), capture_output=True, text=True,
                          timeout=timeout)
    return proc, time.perf_counter() - t


def _alternate(sides: dict[str, Path], k: int) -> list[tuple[str, Path]]:
    """The sides in the order of the k-th pair of runs: flipped every pair."""
    order = list(sides.items())
    return order if k % 2 == 0 else order[::-1]


def perfbench(sides: dict[str, Path]) -> dict[str, dict]:
    """Each workload of BENCHMARK.json with tracing off and on, on every side
    in turn before the next run."""
    out = {label: {"seed": SEED, "seconds": SECONDS, "trace0": {}, "trace1": {}}
           for label in sides}
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = [(name, trace) for name in names for trace in (0, 1)]
    for k, (name, trace) in enumerate(runs):
        for label, repo in _alternate(sides, k):
            proc, _ = _run([sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                            str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
                           repo, timeout=3600)
            if proc.returncode != 0:
                raise RuntimeError(f"{label}: perfbench {name} --trace {trace} exited "
                                   f"{proc.returncode}: {proc.stderr[-2000:]}")
            out[label][f"trace{trace}"][name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def tier1(repo: Path) -> dict:
    proc, wall = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                       "--durations=0", "-p", "no:cacheprovider"], repo, timeout=7200)
    lines = proc.stdout.strip().splitlines()
    durations = {}
    for line in lines:
        m = re.match(r"\s*([\d.]+)s call\s+\S+::(test_c1[12]_\S+)", line)
        if m:
            durations[m.group(2)] = float(m.group(1))
    return {"exit_code": proc.returncode, "wall_s": wall,
            "summary": lines[-1].strip("= ") if lines else "", "durations_s": durations}


def readme_commands(repo: Path) -> list[list[str]]:
    """The ``gravphase ...`` lines of the README's command-line block."""
    text = (repo / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.strip().startswith("gravphase ")]


def _median_wall(args: list[str], repo: Path) -> float:
    """Median wall time of ``python <args>`` over CLI_RUNS fresh processes."""
    times = []
    for _ in range(CLI_RUNS):
        proc, wall = _run([sys.executable, *args], repo, timeout=600)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"python {shlex.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        times.append(wall)
    return statistics.median(times)


def cli(sides: dict[str, Path]) -> dict[str, dict]:
    """Median wall times of the start-up and the README commands, one
    command on every side before the next."""
    # the import alone is the start-up every command pays
    startup = ["-c", "import gravphase.cli"]
    calls = {label: [("python " + shlex.join(startup), startup)]
             + [("gravphase " + shlex.join(argv), ["-m", "gravphase", *argv])
                for argv in readme_commands(repo)]
             for label, repo in sides.items()}
    out = {label: {"runs": CLI_RUNS, "median_s": {}} for label in sides}
    for k in range(max(map(len, calls.values()))):
        for label, repo in _alternate(sides, k):
            if k < len(calls[label]):
                key, args = calls[label][k]
                out[label]["median_s"][key] = _median_wall(args, repo)
    return out


def machine(repo: Path) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=repo,
                              capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "gravphase_threads": os.environ.get("GRAVPHASE_THREADS"),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_describe": describe.stdout.strip() or None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--repo", type=Path, default=ROOT)
    ap.add_argument("--parent", type=Path,
                    help="also record this checkout, as 'parent', alternating with --repo")
    args = ap.parse_args(argv)
    sides = {args.label: args.repo.resolve()}
    if args.parent is not None:
        if args.label == "parent":
            ap.error("--label parent clashes with --parent")
        sides = {"parent": args.parent.resolve(), **sides}

    bench, timings = perfbench(sides), cli(sides)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, repo in sides.items():
        data[label] = {"machine": machine(repo), "perfbench": bench[label],
                       "tier1": tier1(repo), "cli": timings[label]}
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
