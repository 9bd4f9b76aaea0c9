"""Record one point of the performance trajectory into a BENCH_<n>.json file.

    python3 tools/bench_record.py --label change --out BENCH_6.json
    python3 tools/bench_record.py --repo ../parent --label parent --out BENCH_6.json

Measures the checkout at ``--repo`` (default: this repository) and stores
the record under ``--label`` in ``--out``, keeping the other labels already
there. A record holds:

- ``perfbench/run.py --workload all`` with ``--trace 0`` and ``--trace 1``
  (the last JSON line of each)
- the tier-1 suite: wall time, its summary line and the durations of the
  two acceptance tests c11 and c12
- the median wall time, over seven fresh processes, of
  ``python -c "import gravphase.cli"`` (the start-up every command pays)
  and of each command in the README's command-line block
- nproc, the CPUs in the affinity mask and ``GRAVPHASE_THREADS``, which
  together set the worker count of every call without ``--workers``, the
  Python, numpy and scipy versions, and ``git describe``

perfbench runs at seed 1 for 25 s per workload, its defaults. Everything
runs one process at a time; the record takes about six minutes on two
cores.
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


def perfbench(repo: Path) -> dict:
    out = {"seed": SEED, "seconds": SECONDS}
    for trace in (0, 1):
        proc, _ = _run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
                        str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
                       repo, timeout=3600)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench --trace {trace} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        out[f"trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
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


def cli(repo: Path) -> dict:
    # the import alone is the start-up every command pays
    startup = ["-c", "import gravphase.cli"]
    medians = {"python " + shlex.join(startup): _median_wall(startup, repo)}
    for argv in readme_commands(repo):
        medians["gravphase " + shlex.join(argv)] = _median_wall(["-m", "gravphase", *argv], repo)
    return {"runs": CLI_RUNS, "median_s": medians}


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
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--repo", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    repo = args.repo.resolve()

    record = {"machine": machine(repo), "perfbench": perfbench(repo), "tier1": tier1(repo),
              "cli": cli(repo)}

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = record
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
