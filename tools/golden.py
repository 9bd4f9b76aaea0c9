"""Record the command line's output for a fixed list of calls, to compare two checkouts.

    python3 tools/golden.py --repo ../parent --out parent.json
    python3 tools/golden.py --out change.json
    diff parent.json change.json

Runs each argv below as ``python -m gravphase`` in a fresh process against
the checkout at ``--repo`` (default: this repository), in an empty working
directory that holds only the config files the list needs. It writes one
JSON object, one line per call: ``{argv: [exit code, sha256 of stdout,
stderr]}``, where stdout is followed by any file the call wrote there and
every ISO timestamp is masked first. A ``diff`` of two files therefore
names exactly the calls whose output, exit code or message changed. The
list covers the README's command-line block, CSV variants, config-file
runs, ``--help`` for the top level and each subcommand, and the usage and
numerical error paths. It then runs each ``demos/*.py`` script of the
checkout the same way, keyed by its path, with the wall times that demo 05
prints masked; the demos are the only callers of some public functions,
such as ``sample_field_step``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT, _env, readme_commands

SUBCOMMANDS = ("variance", "criteria", "sweep", "oracle", "covariance", "simulate")
SIM = ("simulate", "--mass", "5.5028e-18", "--width", "1e-6", "--separation", "1e-6",
       "--horizon", "2.609e4", "--grid-n", "32")
CONFIGS = {
    "flat.cfg": "# README geometry\nm = 1e-17\na = 1e-7\nR = 5e-7\nT = 1\n",
    "sweep.json": json.dumps({"param": "mass", "start": 1e-16, "stop": 1e-14, "num": 3,
                              "width": 1e-7, "separation": 1e-6}),
    "bad.cfg": "mass = heavy\n",
    "out.cfg": "mu = 1\nrho = 1\ntau_max = 3\nformat = csv\noutput = out.csv\n",
    "csv.json": json.dumps({"format": "csv"}),
    "xml.cfg": "format = xml\n",
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
    # a second grid size, so the n = 64 kernel spectrum is compared too
    (*SIM[:-1], "64"),
    ("covariance", "--grid-n", "64", "--realizations", "100"),
    ("variance", "--config", "flat.cfg"),
    ("sweep", "--config", "sweep.json"),
    ("variance", "--config", "out.cfg"),
    ("criteria", "--mass", "1e-14", "--width", "1e-7", "--config", "csv.json"),
    # the micro critical length: closed form (mu = 0.1), root-found just above
    # the crossover (mu = 0.5), and a sweep whose rows cross mu = 0.46
    ("criteria", "--mass", "5.5e-18", "--width", "1e-7", "--separation", "1e-6"),
    ("criteria", "--mass", "9.41e-18", "--width", "1e-7", "--separation", "1e-6"),
    ("sweep", "--param", "mass", "--start", "6e-18", "--stop", "2e-17", "--num", "6",
     "--width", "1e-7", "--separation", "1e-6"),
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
    ("variance", "--mu", "1", "--rho", "1", "--tau-max", "3", "--config", "xml.cfg"),
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
    # a damping time that underflows to 0 s: exit 3
    ("criteria", "--mass", "5.02e+93", "--width", "5.48e-133", "--separation", "2.0988e-22",
     "--threshold", "72.5"),
    # a short-time damping time that overflows: exit 3
    ("criteria", "--mass", "1e-14", "--width", "1e-7", "--separation", "1e-300"),
    ("criteria", "--mass", "1e-25", "--width", "1e100", "--separation", "1e-100"),
    # a covariance target hbar G / r that underflows (0.0, then 4.9e-324): exit 3
    ("covariance", "--grid-n", "32", "--box", "1e300", "--realizations", "100"),
    ("covariance", "--grid-n", "32", "--box", "1e280", "--realizations", "100"),
    # a grid spacing box / n that underflows to 0: exit 3
    ("covariance", "--grid-n", "32", "--box", "1e-323", "--realizations", "100"),
    # boxes where the SE's squares underflowed (1e120) and the spectrum overflowed
    # (1e-300): exit 0, with SE / target as at 1 m
    ("covariance", "--grid-n", "32", "--box", "1e120", "--realizations", "100"),
    ("covariance", "--grid-n", "32", "--box", "1e-300", "--realizations", "100"),
    # a subnormal dx, where 4 dx and L/8 differ in their last bits: two rows, each once
    ("covariance", "--grid-n", "32", "--box", "1e-310", "--realizations", "100"),
    # correct ensembles whose variance lies 1.6 and 2.4 exact SE low: exit 0
    ("simulate", "--mass", "2.0466e-17", "--width", "1.38316e-07", "--separation",
     "7.19357e-08", "--horizon", "423.836", "--grid-n", "32", "--steps", "1", "--members",
     "64", "--seed", "47", "--workers", "1"),
    ("simulate", "--mass", "2.0466e-17", "--width", "1.38316e-07", "--separation",
     "7.19357e-08", "--horizon", "423.836", "--grid-n", "32", "--steps", "1", "--members",
     "64", "--seed", "10", "--workers", "1"),
    # packets on grid nodes 4 apart, so step 0's coordinates at kx = n/4 are exactly 0
    ("simulate", "--mass", "5.5028e-18", "--width", "1e-6", "--separation", "1.5e-6",
     "--horizon", "2.609e4", "--grid-n", "32", "--box", "1.2e-5"),
    # rho = 0, and the closed-form head alone (beta >= 6 up to tau_max): exit 0
    ("variance", "--mu", "1", "--rho", "0", "--tau-max", "3"),
    ("variance", "--mu", "1", "--rho", "100", "--tau-max", "1"),
    # the theta-piece factor overflows where the theta piece is empty: exit 0
    ("variance", "--mu", "1e307", "--rho", "100", "--tau-max", "27"),
    # 4 mu / rho overflows where the u piece is empty, the total does not: exit 0
    ("variance", "--mu", "1e308", "--rho", "0.5", "--tau-max", "1"),
    # (cosh u0)^2 overflows in the closed-form head from rho ~ 1.1e155: exit 0
    ("variance", "--mu", "1", "--rho", "1e160", "--tau-max", "1e300"),
    # the critical length at mu = 1.57e308, where sqrt(2) mu overflows: exit 0
    ("criteria", "--mass", "5.844151499172407e+74", "--width", "1.310009072459035e+26"),
    ("variance", "--mu", "1", "--rho", "1", "--tau-max", "3", "--output",
     "no-such-dir/out.json"),
]
_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?[+-]\d\d:\d\d")
_ELAPSED = re.compile(r"\[\d+\.\d s, ")


def golden(repo: Path) -> dict[str, list]:
    env = _env(repo)
    out = {}
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in CONFIGS.items():
            Path(cwd, name).write_text(text, encoding="utf-8")
        runs = [(shlex.join(argv), ["-m", "gravphase", *argv])
                for argv in [*readme_commands(repo), *CALLS]]
        runs += [(f"demos/{demo.name}", [str(demo)])
                 for demo in sorted((repo / "demos").glob("*.py"))]
        for key, args in runs:
            proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                                  capture_output=True, text=True, timeout=600)
            stdout = proc.stdout
            for path in sorted(Path(cwd).iterdir()):
                if path.name not in CONFIGS:
                    stdout += path.read_text(encoding="utf-8")
                    path.unlink()
            stdout = _ELAPSED.sub("[<elapsed> s, ", _TIMESTAMP.sub("<timestamp>", stdout))
            out[key] = [proc.returncode, hashlib.sha256(stdout.encode()).hexdigest(),
                        proc.stderr]
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
