"""Record a parent checkout against this one into a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent ../parent --out BENCH_16.json

The change side is always the checkout that holds this script. The file is
written whole. Under ``parent`` and ``change`` it holds:

- ``perfbench``: for each workload of ``BENCHMARK.json``, ``PAIRS``
  alternating pairs of ``perfbench/run.py`` runs with ``--trace 0``
  (``trace0.<workload>``, a list whose k-th entry is from the k-th pair),
  then one pair with ``--trace 1`` (``trace1.<workload>``); each result is
  the last JSON line of the run, with the run's CPU time as ``cpu_s``
- ``tier1``: ``TIER1_PAIRS`` runs of the test suite, the k-th from the
  k-th of as many alternating pairs, each with its wall time, CPU time,
  summary line and the durations of the acceptance tests c11 and c12
- ``cli``: the median wall time, over seven fresh processes, of
  ``python -c "import gravphase.cli"`` (the start-up every command pays)
  and of each command in the README's command-line block
- ``machine``: nproc, the CPUs in the affinity mask and
  ``GRAVPHASE_THREADS``, which set the worker count of calls without
  ``--workers``, the Python, numpy and scipy versions, and ``git describe``

Under ``verdict.<workload>.<metric>`` it holds ``verdict`` of the
``trace0`` pairs for each end-to-end metric of ``BENCHMARK.json``.

perfbench runs at seed 1 for 25 s per workload, its defaults. One process
runs at a time, and the side that goes first flips every pair, so host
drift falls on both sides alike. A run's CPU time is the user plus system
time of the process and the children it waited for; time stolen by other
guests on the host inflates it less than it does the wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shlex
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS, CLI_RUNS, PAIRS, TIER1_PAIRS = 1, 25.0, 7, 10, 2
SIDES = ("parent", "change")


def _env(repo: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run(cmd: list[str], repo: Path,
         timeout: float) -> tuple[subprocess.CompletedProcess, float, float]:
    """The finished process, its wall seconds and its CPU seconds."""
    cpu, t = _children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=repo, env=_env(repo), capture_output=True, text=True,
                          timeout=timeout)
    return proc, time.perf_counter() - t, _children_cpu() - cpu


def _alternate(parent: Path, change: Path, k: int) -> list[tuple[str, Path]]:
    """The two sides in the order of the k-th pair of runs: flipped every pair."""
    pair = [("parent", parent), ("change", change)]
    return pair if k % 2 == 0 else pair[::-1]


def perfbench(parent: Path, change: Path, names: list[str]) -> dict[str, dict]:
    """PAIRS pairs of runs of each workload with tracing off, then one pair
    with it on; the side that goes first flips every pair."""
    out = {label: {"seed": SEED, "seconds": SECONDS, "trace0": {name: [] for name in names},
                   "trace1": {}} for label in SIDES}
    runs = [(name, trace) for name in names for trace in [0] * PAIRS + [1]]
    for k, (name, trace) in enumerate(runs):
        for label, repo in _alternate(parent, change, k):
            proc, _, cpu_s = _run([sys.executable, "perfbench/run.py", "--workload", name,
                                   "--seed", str(SEED), "--seconds", str(SECONDS),
                                   "--trace", str(trace)], repo, timeout=3600)
            if proc.returncode != 0:
                raise RuntimeError(f"{label}: perfbench {name} --trace {trace} exited "
                                   f"{proc.returncode}: {proc.stderr[-2000:]}")
            result = {**json.loads(proc.stdout.strip().splitlines()[-1]), "cpu_s": cpu_s}
            if trace:
                out[label]["trace1"][name] = result
            else:
                out[label]["trace0"][name].append(result)
    return out


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(parent: list[dict], change: list[dict], metric: str, better: str,
            bound: float) -> dict:
    """The verdict on one end-to-end metric from paired perfbench results:
    ``parent[k]`` and ``change[k]`` ran as the k-th pair.

    - ``gain``: the change wins at least 9 in 10 pairs (a tie counts for
      neither side), its median is better than the parent's by more than the
      parent's quartile spread, it fails no larger share of operations and
      every change run is ``correct``
    - ``regression``: the change's median is worse than the parent's by
      more than ``bound`` (relative)
    - ``unresolved``: the parent's quartile spread, relative to its median,
      is wider than ``bound``, and some change run does not beat every
      parent run
    - ``no_regression``: any other case

    ``better`` is ``"lower"`` or ``"higher"``.
    """
    p = [r["metrics"][metric]["value"] for r in parent]
    c = [r["metrics"][metric]["value"] for r in change]
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * x < sign * y

    wins = sum(beats(y, x) for x, y in zip(p, c))
    losses = sum(beats(x, y) for x, y in zip(p, c))
    ps, cs = _quartiles(p), _quartiles(c)
    spread = ps["q3"] - ps["q1"]
    gain = sign * (ps["median"] - cs["median"])
    if (10 * wins >= 9 * len(p) and gain > spread
            and _failed_share(change) <= _failed_share(parent)
            and all(r["correct"] for r in change)):
        outcome = "gain"
    elif -gain > bound * ps["median"]:
        outcome = "regression"
    elif spread > bound * ps["median"] and not all(beats(y, x) for x in p for y in c):
        outcome = "unresolved"
    else:
        outcome = "no_regression"
    return {"parent": {**ps, "failed_share": _failed_share(parent)},
            "change": {**cs, "failed_share": _failed_share(change)},
            "ratios": [y / x for x, y in zip(p, c)],
            "wins": wins, "losses": losses, "ties": len(p) - wins - losses,
            "verdict": outcome}


def tier1(repo: Path) -> dict:
    proc, wall, cpu = _run([sys.executable, "-m", "pytest", "-q",
                            "--continue-on-collection-errors", "--durations=0", "-p",
                            "no:cacheprovider"], repo, timeout=7200)
    lines = proc.stdout.strip().splitlines()
    durations = {}
    for line in lines:
        m = re.match(r"\s*([\d.]+)s call\s+\S+::(test_c1[12]_\S+)", line)
        if m:
            durations[m.group(2)] = float(m.group(1))
    return {"exit_code": proc.returncode, "wall_s": wall, "cpu_s": cpu,
            "summary": lines[-1].strip("= ") if lines else "", "durations_s": durations}


def tier1_pairs(parent: Path, change: Path) -> dict[str, list[dict]]:
    """TIER1_PAIRS pairs of test-suite runs; the side that goes first flips
    every pair."""
    out = {label: [] for label in SIDES}
    for k in range(TIER1_PAIRS):
        for label, repo in _alternate(parent, change, k):
            out[label].append(tier1(repo))
    return out


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
        proc, wall, _ = _run([sys.executable, *args], repo, timeout=600)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"python {shlex.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        times.append(wall)
    return statistics.median(times)


def cli(parent: Path, change: Path) -> dict[str, dict]:
    """Median wall times of the start-up and the README commands, one
    command on both sides before the next."""
    # the import alone is the start-up every command pays
    startup = ["-c", "import gravphase.cli"]
    calls = {label: [("python " + shlex.join(startup), startup)]
             + [("gravphase " + shlex.join(argv), ["-m", "gravphase", *argv])
                for argv in readme_commands(repo)]
             for label, repo in _alternate(parent, change, 0)}
    out = {label: {"runs": CLI_RUNS, "median_s": {}} for label in SIDES}
    for k in range(max(map(len, calls.values()))):
        for label, repo in _alternate(parent, change, k):
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
    ap.add_argument("--parent", type=Path, required=True,
                    help="the checkout to compare this one with")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    bench, timings = perfbench(parent, ROOT, names), cli(parent, ROOT)
    suites = tier1_pairs(parent, ROOT)
    data = {label: {"machine": machine(repo), "perfbench": bench[label],
                    "tier1": suites[label], "cli": timings[label]}
            for label, repo in _alternate(parent, ROOT, 0)}
    data["verdict"] = {
        name: {m["name"]: verdict(bench["parent"]["trace0"][name],
                                  bench["change"]["trace0"][name],
                                  m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]}
        for name in names}
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
