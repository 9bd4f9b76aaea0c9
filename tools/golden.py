"""Record the command line's output for a fixed list of calls, to compare two checkouts.

    python3 tools/golden.py --repo ../parent --out parent.json
    python3 tools/golden.py --out change.json
    diff parent.json change.json

Runs each argv below as ``python -m gravphase`` in a fresh process against
the checkout at ``--repo`` (default: this repository), in an empty working
directory that holds only the config files the list needs. It writes one
JSON object, one line per call: ``{argv: [exit code, sha256 of stdout,
stderr]}``, with every ISO timestamp in stdout masked first. A ``diff`` of
two files therefore names exactly the calls whose output, exit code or
message changed. The list covers the README's command-line block, CSV
variants, config-file runs, ``--help`` for the top level and each
subcommand, and the usage and numerical error paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT, readme_commands

SUBCOMMANDS = ("variance", "criteria", "sweep", "oracle", "covariance", "simulate")
SIM = ("simulate", "--mass", "5.5028e-18", "--width", "1e-6", "--separation", "1e-6",
       "--horizon", "2.609e4", "--grid-n", "32")
CONFIGS = {
    "flat.cfg": "# README geometry\nm = 1e-17\na = 1e-7\nR = 5e-7\nT = 1\n",
    "sweep.json": json.dumps({"param": "mass", "start": 1e-16, "stop": 1e-14, "num": 3,
                              "width": 1e-7, "separation": 1e-6}),
    "bad.cfg": "mass = heavy\n",
}
CALLS = [
    # CSV variants and config files
    ("variance", "--mu", "1", "--rho", "1", "--tau-max", "3", "--format", "csv"),
    ("criteria", "--mass", "1e-14", "--width", "1e-7", "--separation", "1e-6", "--format",
     "csv"),
    ("sweep", "--param", "separation", "--start", "1e-7", "--stop", "1e-5", "--num", "4",
     "--mass", "1e-15", "--width", "1e-7", "--format", "csv"),
    ("oracle", "--samples", "1e4", "--seed", "7", "--workers", "2", "--format", "csv"),
    ("covariance", "--grid-n", "32", "--realizations", "100"),
    ("variance", "--config", "flat.cfg"),
    ("sweep", "--config", "sweep.json"),
    # --help and --version
    ("--help",), ("--version",), *((cmd, "--help") for cmd in SUBCOMMANDS),
    # usage errors: exit 2
    ("variance", "--mu", "1", "--rho", "1", "--tau-max", "1", "--mass", "1e-16"),
    ("variance", "--mu", "1", "--rho", "1"),
    ("variance", "--bogus", "1"),
    ("sweep", "--param", "width", "--start", "1e-8", "--stop", "1e-6", "--num", "1",
     "--mass", "1e-15"),
    ("sweep", "--param", "width", "--start", "1e-8", "--stop", "1e-6", "--num", "3",
     "--mass", "1e-15", "--width", "1e-7"),
    ("variance", "--config", "bad.cfg"),
    ("variance", "--config", "missing.cfg"),
    ("variance", "--mu", "1", "--rho", "1", "--tau-max", "3", "--format", "xml"),
    ("oracle", "--samples", "100"),
    ("oracle", "--samples", "1.5"),
    ("oracle", "--samples", "1e4", "--seed", "-1"),
    ("covariance", "--grid-n", "30"),
    ("covariance", "--grid-n", "32", "--realizations", "100", "--separations", ","),
    (*SIM, "--steps", "0"),
    (*SIM, "--members", "8"),
    (*SIM, "--box", "1e-6"),
    # numerical failures and unwritable output: exit 3
    ("sweep", "--param", "mass", "--start", "1e-18", "--stop", "1e-14", "--num", "9",
     "--width", "1e-7"),
    ("criteria", "--mass", "1e-120", "--width", "1"),
    ("variance", "--mu", "1", "--rho", "1", "--tau-max", "3", "--output",
     "no-such-dir/out.json"),
]
_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?[+-]\d\d:\d\d")


def golden(repo: Path) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p))
    out = {}
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in CONFIGS.items():
            Path(cwd, name).write_text(text, encoding="utf-8")
        for argv in [*readme_commands(repo), *CALLS]:
            proc = subprocess.run([sys.executable, "-m", "gravphase", *argv], cwd=cwd,
                                  env=env, capture_output=True, text=True, timeout=600)
            stdout = _TIMESTAMP.sub("<timestamp>", proc.stdout)
            out[shlex.join(argv)] = [proc.returncode,
                                     hashlib.sha256(stdout.encode()).hexdigest(), proc.stderr]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repo", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden(args.repo.resolve()).items()]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
