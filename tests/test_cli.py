import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravphase
from gravphase.cli import _geomspace, _mc_row, emit, run
from gravphase.oracle import i4_closed_form, i6_closed_form, mc_i4_spatial, mc_i6_spatial
from gravphase.units import DimensionlessParams
from gravphase.variance import phase_variance


def _json_records(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def _csv_records(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_variance_dimensionless_json(capsys):
    assert run(["variance", "--mu", "1", "--rho", "1", "--tau-max", "3"]) == 0
    recs = _json_records(capsys)
    assert len(recs) == 1
    rec = recs[0]
    expected = phase_variance(DimensionlessParams(1.0, 1.0, 3.0))
    # 17-significant-digit serialization preserves the double exactly
    assert rec["total"] == expected.total
    assert rec["i7"] == expected.i7
    assert rec["version"] == gravphase.__version__
    assert rec["seed"] is None


def test_variance_zero_separation(capsys):
    assert run(["variance", "--mu", "1", "--rho", "0", "--tau-max", "2"]) == 0
    assert _json_records(capsys)[0]["total"] == 0.0


def test_variance_si_mode(capsys):
    argv = [
        "variance", "--mass", "1e-16", "--width", "1e-6",
        "--separation", "1e-6", "--horizon", "100.0",
    ]
    assert run(argv) == 0
    rec = _json_records(capsys)[0]
    assert rec["mass"] == 1e-16
    assert rec["mu"] > 0 and rec["total"] > 0


def test_variance_mode_conflict(capsys):
    rc = run(["variance", "--mu", "1", "--rho", "1", "--tau-max", "1",
              "--mass", "1e-16"])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_variance_missing_flag(capsys):
    assert run(["variance", "--mu", "1", "--rho", "1"]) == 2
    assert "tau-max" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert run(["variance", "--bogus", "1"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_2():
    assert run([]) == 2


def test_criteria_density_only(capsys):
    assert run(["criteria", "--density", "1000"]) == 0
    rec = _json_records(capsys)[0]
    assert 1e-18 <= rec["critical_mass"] <= 1e-16


def test_criteria_full_record(capsys):
    argv = ["criteria", "--mass", "1e-16", "--width", "1e-6",
            "--separation", "1e-6", "--density", "1000"]
    assert run(argv) == 0
    rec = _json_records(capsys)[0]
    for key in ("damping_time", "damping_time_short", "critical_length",
                "critical_mass", "regime"):
        assert key in rec
    assert rec["regime"] in ("Quantum", "Classical", "Boundary")


def test_criteria_requires_inputs(capsys):
    assert run(["criteria", "--threshold", "5"]) == 2


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nm = 1e-16\na = 1e-6\ndensity = 1000\n")
    assert run(["criteria", "--config", str(cfg)]) == 0
    base = _json_records(capsys)[0]
    assert base["density"] == 1000.0
    # explicit flag wins over the file value
    assert run(["criteria", "--config", str(cfg), "--density", "2000"]) == 0
    over = _json_records(capsys)[0]
    assert over["density"] == 2000.0
    assert over["critical_mass"] != base["critical_mass"]


def test_config_json_format(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mu": 1.0, "rho": 1.0, "tau_max": 3.0}))
    assert run(["variance", "--config", str(cfg)]) == 0
    assert _json_records(capsys)[0]["tau_max"] == 3.0


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mu = 1\nwibble = 2\n")
    assert run(["variance", "--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


def test_config_invalid_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("m = 1e-16\na = -1\ndensity = 1000\n")
    assert run(["criteria", "--config", str(cfg)]) == 2
    assert "a" in capsys.readouterr().err


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this is not a key value pair\n")
    assert run(["variance", "--config", str(cfg)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert run(["variance", "--config", "/no/such/file.cfg"]) == 2


def test_config_malformed_json(tmp_path, capsys):
    # a file that starts with "{" is read as JSON, and must parse as JSON
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"mu": 1,')
    assert run(["variance", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed JSON config: ")


def test_csv_round_trip_bit_exact(tmp_path):
    out = tmp_path / "var.csv"
    argv = ["variance", "--mu", "3.7", "--rho", "1.3", "--tau-max", "2.1",
            "--format", "csv", "--output", str(out)]
    assert run(argv) == 0
    rows = _csv_records(out.read_text())
    assert len(rows) == 1
    expected = phase_variance(DimensionlessParams(3.7, 1.3, 2.1))
    assert float(rows[0]["total"]) == expected.total
    assert float(rows[0]["i8"]) == expected.i8
    assert float(rows[0]["mu"]) == 3.7


def test_output_determinism_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["oracle", "--samples", "10000", "--seed", "42"]
    assert run(argv + ["--output", str(a)]) in (0, 1)
    assert run(argv + ["--output", str(b)]) in (0, 1)
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for rec_a, rec_b in zip(ra, rb):
        rec_a.pop("timestamp"), rec_b.pop("timestamp")
        assert rec_a == rec_b


def test_oracle_small_run_passes(capsys):
    assert run(["oracle", "--samples", "20000", "--seed", "42"]) == 0
    recs = _json_records(capsys)
    assert {r["check"] for r in recs} == {
        "cancellation", "i4_closed_form", "i6_closed_form", "erf_identity"
    }
    assert all(r["passed"] for r in recs)
    assert all(r["seed"] == 42 for r in recs)


def test_sweep_rows_and_order(capsys):
    argv = ["sweep", "--param", "width", "--start", "1e-6", "--stop", "1e-5",
            "--num", "5", "--mass", "1e-16"]
    assert run(argv) == 0
    recs = _json_records(capsys)
    assert len(recs) == 5
    widths = [r["width"] for r in recs]
    assert widths == sorted(widths)
    assert widths[0] == pytest.approx(1e-6) and widths[-1] == pytest.approx(1e-5)


def test_sweep_conflicting_fixed_value(capsys):
    argv = ["sweep", "--param", "width", "--start", "1e-6", "--stop", "1e-5",
            "--num", "3", "--mass", "1e-16", "--width", "5e-6"]
    assert run(argv) == 2


@pytest.mark.parametrize("argv, message", [
    (["--param", "mass", "--start", "0", "--stop", "1e-15", "--num", "3", "--width", "1e-6"],
     "invalid value for start/stop: 0.0, 1e-15"),
    (["--param", "mass", "--start", "1e-16", "--stop", "1e-15", "--num", "1",
      "--width", "1e-6"], "invalid value for num: 1 (need >= 2)"),
    (["--param", "separation", "--start", "1e-6", "--stop", "1e-5", "--num", "3"],
     "sweep requires mass and width (swept or fixed)"),
], ids=["start", "num", "no-mass-or-width"])
def test_sweep_usage_errors(argv, message, capsys):
    assert run(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_covariance_subcommand(capsys):
    argv = ["covariance", "--grid-n", "32", "--realizations", "200",
            "--seed", "42", "--format", "csv"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    rows = _csv_records(out)
    assert len(rows) >= 2
    assert all(r["passed"] == "true" for r in rows)


@pytest.mark.parametrize("n, separations", [
    # 4 dx is L/8 at n = 32, so that default row appears once
    (32, [0.125, 0.25]),
    (64, [0.0625, 0.125, 0.25]),
])
def test_covariance_default_separations_are_distinct(n, separations, capsys):
    assert run(["covariance", "--grid-n", str(n), "--realizations", "100"]) == 0
    assert [r["separation"] for r in _json_records(capsys)] == separations


def test_covariance_keeps_repeated_explicit_separations(capsys):
    assert run(["covariance", "--grid-n", "32", "--realizations", "100",
                "--separations", "0.125,0.125"]) == 0
    assert [r["separation"] for r in _json_records(capsys)] == [0.125, 0.125]


def test_unwritable_output_exits_3(capsys):
    argv = ["variance", "--mu", "1", "--rho", "1", "--tau-max", "1",
            "--output", "/no/such/dir/out.json"]
    assert run(argv) == 3


def test_emit_validation():
    with pytest.raises(ValueError, match="records"):
        emit([], "json")
    with pytest.raises(FloatingPointError, match="total"):
        emit([{"total": math.inf}], "json")
    with pytest.raises(ValueError, match="fields"):
        emit([{"a": 1.0}, {"b": 2.0}], "csv")


def test_emit_json_shape(capsys):
    emit([{"x": 1.0, "ok": True, "name": "row", "none": None}], "json")
    data = json.loads(capsys.readouterr().out)
    assert data == [{"x": 1.0, "ok": True, "name": "row", "none": None}]


def test_emit_csv_header_and_round_trip(capsys):
    vals = {"x": 0.1 + 0.2, "y": 1.0 / 3.0, "n": 7}
    emit([vals], "csv")
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,n"
    parsed = _csv_records(out)[0]
    assert float(parsed["x"]) == vals["x"]
    assert float(parsed["y"]) == vals["y"]
    assert int(parsed["n"]) == 7


def test_version_flag():
    assert run(["--version"]) == 0


@pytest.mark.parametrize("argv", [
    ["criteria", "--mass", "1e-120", "--width", "1"],
    ["criteria", "--mass", "1e-120", "--density", "1000"],
    ["sweep", "--param", "width", "--start", "1", "--stop", "2", "--num", "2",
     "--mass", "1e-120"],
    ["criteria", "--mass", "1e100", "--width", "1e300"],
])
def test_mu_out_of_range_is_numerical_failure(argv, capsys):
    # mu = G m^3 a / hbar^2 underflows to 0 or overflows to inf
    assert run(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_tau_unit_underflow_is_numerical_failure(capsys):
    # m a^2 underflows to 0 while mu = G m^3 a / hbar^2 (6e-183) is in range
    argv = ["variance", "--mass", "1e-30", "--width", "1e-150",
            "--separation", "1e-150", "--horizon", "1"]
    assert run(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_variance_non_finite_field_is_numerical_failure(capsys):
    # I7 overflows to inf at mu = 1e308, tau = 1e300; emit refuses the record
    argv = ["variance", "--mu", "1e308", "--rho", "0.5", "--tau-max", "1e300"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: non-finite value for field 'i7'\n"


@pytest.mark.parametrize("box", ["1e300", "1e280", "1e-323", "5e-324"])
def test_covariance_target_underflow_is_numerical_failure(box, capsys):
    # hbar G / r is 0.0 at 1e300 m and subnormal (4.9e-324) at 1e280 m;
    # at 1e-323 and 5e-324 m the grid spacing dx = box / 32 is 0.0
    argv = ["covariance", "--grid-n", "32", "--box", box, "--realizations", "100"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert f"box {float(box)} m" in captured.err


def test_covariance_is_scale_free(capsys):
    # the realizations are reduced for unit hbar G / dx and scaled once, so
    # estimate / target and SE / target do not depend on the box: the SE was
    # 0.0 at 1e120 m (its squares underflowed), and at 1e-300 m the run
    # exited 3 after numpy overflow warnings; at 1e-310 m dx is subnormal,
    # where 4 dx and L/8 differ in their last bits and the row was repeated
    ratios = []
    for box in ("1", "1e120", "1e-300", "1e-310"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["covariance", "--grid-n", "32", "--box", box, "--realizations", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)
        ratios.append([r[k] / r["target"] for r in rows for k in ("estimate", "standard_error")])
    assert 0.04 < ratios[0][1] < 0.05
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-12)


def test_simulate_low_draw_keeps_its_standard_error(capsys):
    # a correct ensemble whose sample variance lies 1.6 exact SE below its
    # lattice variance; a fourth-moment SE estimated from the same low draw
    # puts it 2.0 SE off the analytic value, so a 3-SE verdict built on the
    # estimated SE would pass this draw too: only the seed-10 test below
    # separates the exact SE from an estimated one
    argv = ["simulate", "--mass", "2.0466e-17", "--width", "1.38316e-07",
            "--separation", "7.19357e-08", "--horizon", "423.836", "--grid-n", "32",
            "--steps", "1", "--members", "64", "--seed", "47", "--workers", "1"]
    assert run(argv) == 0
    assert _json_records(capsys)[0]["passed"] is True


def test_simulate_lower_draw_keeps_its_standard_error(capsys):
    # the same geometry at a seed whose sample variance lies 2.4 exact SE
    # below its lattice variance (43% below the analytic value, within 3
    # exact SE); a fourth-moment SE estimated from the same draw puts it
    # 4.9 SE off
    argv = ["simulate", "--mass", "2.0466e-17", "--width", "1.38316e-07",
            "--separation", "7.19357e-08", "--horizon", "423.836", "--grid-n", "32",
            "--steps", "1", "--members", "64", "--seed", "10", "--workers", "1"]
    assert run(argv) == 0
    rec = _json_records(capsys)[0]
    assert rec["passed"] is True
    assert rec["variance"] < 0.65 * rec["analytic_total"]


def test_overflowing_theta_factor_with_empty_theta_piece(capsys):
    # 2 mu rho / sqrt(pi) overflows to inf, but beta stays above 1/2 up to
    # tau_max, so the theta piece is empty and the variance finite
    assert run(["variance", "--mu", "1e307", "--rho", "100", "--tau-max", "27"]) == 0
    rec = _json_records(capsys)[0]
    for name in ("total", "i8", "quadrature_error_estimate"):
        assert math.isfinite(rec[name])
    assert rec["total"] == rec["i7"] - rec["i8"]


def test_sweep_computes_critical_length_once_per_mass_width(monkeypatch, capsys):
    calls = []
    real = gravphase.cli.critical_length

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gravphase.cli, "critical_length", counting)
    argv = ["sweep", "--param", "separation", "--start", "1e-7", "--stop", "1e-5",
            "--num", "5", "--mass", "1e-15", "--width", "1e-7"]
    assert run(argv) == 0
    recs = _json_records(capsys)
    assert len(recs) == 5
    assert len(calls) == 1
    assert len({r["critical_length"] for r in recs}) == 1


@pytest.mark.parametrize("sub, text", [
    ("sweep", "fixed mass [kg]"),
    ("sweep", "fixed separation [m]"),
    ("simulate", "(default 8 max(R, C1(T)^0.5))"),
    ("variance", "--tau-max TAU_MAX"),
    ("covariance", "--grid-n GRID_N"),
])
def test_subcommand_help_text(sub, text, capsys):
    assert run([sub, "--help"]) == 0
    assert text in " ".join(capsys.readouterr().out.split())


def test_config_param_outside_choices(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("param = bogus\nstart = 1e-7\nstop = 1e-6\nnum = 2\n"
                   "mass = 1e-15\nwidth = 1e-7\n")
    assert run(["sweep", "--config", str(cfg)]) == 2
    assert "param" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "flat", "json"])
def test_integer_inputs_are_exact(source, tmp_path, capsys):
    # 2**53 + 1 has no double; it must reach the RNG and the echo unrounded
    seed = 2**53 + 1
    argv = ["oracle"]
    if source == "flag":
        argv += ["--samples", "10000", "--seed", str(seed)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(json.dumps({"samples": 1e4, "seed": seed}) if source == "json"
                       else f"samples = 1e4\nseed = {seed}\n")
        argv += ["--config", str(cfg)]
    run(argv)
    exact = capsys.readouterr().out
    assert all(r["seed"] == seed for r in json.loads(exact))
    run(["oracle", "--samples", "10000", "--seed", str(seed - 1)])
    assert capsys.readouterr().out.split('"seed"')[0] != exact.split('"seed"')[0]


@pytest.mark.parametrize("argv, seed", [
    (["oracle", "--samples", "10000"], "-1"),
    (["oracle", "--samples", "10000"], str(2**64)),
    (["covariance", "--grid-n", "32", "--realizations", "100"], "-2"),
    (["simulate", "--mass", "5.5028e-18", "--width", "1e-6", "--separation", "1e-6",
      "--horizon", "2.609e4", "--grid-n", "32", "--steps", "1", "--members", "64"], "-3"),
])
def test_seed_out_of_range_is_usage_error(argv, seed, capsys):
    assert run(argv + ["--seed", seed]) == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


def test_integer_flag_accepts_integral_float(capsys):
    # a flag reads integers by the config-file rule, so 1e4 is 10000
    outs = []
    for samples in ("1e4", "10000"):
        assert run(["oracle", "--samples", samples, "--seed", "7"]) in (0, 1)
        recs = json.loads(capsys.readouterr().out)
        for rec in recs:
            rec.pop("timestamp")
        outs.append(recs)
    assert outs[0] == outs[1]


def test_integer_flag_rejects_fraction(capsys):
    assert run(["oracle", "--samples", "1.5"]) == 2
    assert "argument --samples: invalid int value: '1.5'" in capsys.readouterr().err


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import gravphase.cli as cli
argvs = [
    ["variance", "--mu", "1", "--rho", "1", "--tau-max", "3"],
    ["criteria", "--mass", "1e-14", "--width", "1e-7", "--separation", "1e-6",
     "--density", "2200"],
    ["oracle", "--samples", "10000", "--workers", "1"],
]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run_script(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout's gravphase."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(gravphase.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_cli_runs_without_scipy():
    assert _run_script(_NO_SCIPY_SCRIPT) == "[]"


_SCALAR_SCRIPT = """
import contextlib, io, sys
import gravphase, gravphase.cli as cli, gravphase.criteria
loaded = ["numpy" in sys.modules]
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded)
"""

# the README's variance and criteria commands
_README_SCALAR = [
    ["variance", "--mu", "1", "--rho", "1", "--tau-max", "3"],
    ["variance", "--mass", "1e-17", "--width", "1e-7", "--separation", "5e-7",
     "--horizon", "1", "--format", "json"],
    ["criteria", "--mass", "1e-14", "--width", "1e-7", "--separation", "1e-6",
     "--density", "2200"],
]


_SWEEP = ["sweep", "--param", "mass", "--start", "1e-16", "--stop", "1e-14",
          "--num", "3", "--width", "1e-7"]


def test_scalar_commands_never_import_numpy():
    # the scalar path is pure math; numpy's import is most of a process's start
    out = _run_script(_SCALAR_SCRIPT % ([*_README_SCALAR, _SWEEP],))
    assert out == "[False, False, False, False, False]"


def test_oracle_loads_numpy_on_first_use():
    argvs = [["oracle", "--samples", "10000", "--workers", "1"]]
    assert _run_script(_SCALAR_SCRIPT % (argvs,)) == "[False, True]"


@pytest.mark.parametrize("start, stop", [(1e-16, 1e-14), (1e-14, 1e-16), (3e-7, 3e-7),
                                         (5e-324, 1.7e308)])
def test_geomspace_exact_ends_and_two_points(start, stop):
    assert _geomspace(start, stop, 2) == [start, stop]
    grid = _geomspace(start, stop, 7)
    assert len(grid) == 7 and grid[0] == start and grid[-1] == stop


def test_geomspace_matches_numpy():
    # numpy's recipe: 10 ** (i step + log10(start)). numpy's log10 may round
    # the exponent y one ulp apart from math.log10, which moves 10**y by
    # ln(10) |y| ulps, so the bound is 2 ulp of y plus 2 ulp of the point
    import random

    import numpy as np
    rng = random.Random(14)
    for _ in range(2000):
        start, stop = 10 ** rng.uniform(-30, 30), 10 ** rng.uniform(-30, 30)
        num = rng.randint(2, 40)
        want = np.geomspace(start, stop, num)
        for got, ref in zip(_geomspace(start, stop, num), want.tolist(), strict=True):
            ulps = 2.0 * (1.0 + math.log(10.0) * abs(math.log10(ref)))
            assert abs(got - ref) <= ulps * math.ulp(ref), (start, stop, num)


_LAZY_SURFACE_SCRIPT = """
import importlib, sys
import gravphase
assert set(gravphase.__all__) <= set(dir(gravphase)), "dir misses a lazy name"
assert "numpy" not in sys.modules
ns = {}
exec("from gravphase import *", ns)
owner = {}
for mod in ("units", "packets", "variance", "criteria", "oracle", "noisefield"):
    m = importlib.import_module("gravphase." + mod)
    for name in m.__all__:
        owner.setdefault(name, []).append(m)
for name in gravphase.__all__:
    if name == "__version__":
        continue
    (m,) = owner[name]
    assert ns[name] is getattr(m, name) is getattr(gravphase, name), name
print(sorted(set(gravphase.__all__) - set(ns)))
"""


def test_lazy_package_surface():
    # a fresh process, so dir and the star import meet the names unresolved
    assert _run_script(_LAZY_SURFACE_SCRIPT) == "[]"
    with pytest.raises(AttributeError, match="no_such_name"):
        gravphase.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        gravphase.cli.no_such_name


# wraps each name the way perfbench's tracer does (getattr, then setattr on
# gravphase.cli) before any stochastic call, which must still reach them
_TRACER_SCRIPT = """
import contextlib, io
import gravphase.cli as cli
names = ["simulate_phase_variance", "measured_covariance", "mc_i4_spatial",
         "mc_i6_spatial", "sn_cancellation_check", "erf_identity_check"]
calls = dict.fromkeys(names, 0)

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in names:
    setattr(cli, name, counting(name, getattr(cli, name)))
argvs = [
    ["oracle", "--samples", "10000", "--workers", "1"],
    ["covariance", "--grid-n", "32", "--realizations", "100"],
    ["simulate", "--mass", "5.5028e-18", "--width", "1e-6", "--separation", "1e-6",
     "--horizon", "2.609e4", "--grid-n", "32", "--steps", "1", "--members", "64",
     "--workers", "1"],
]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) in (0, 1), argv
print(sorted(name for name, n in calls.items() if n == 0))
"""


def test_wrappers_set_before_first_use_are_called():
    assert _run_script(_TRACER_SCRIPT) == "[]"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_numpy_scalars_as_python_values(fmt, tmp_path):
    import numpy as np

    paths = tmp_path / "np.out", tmp_path / "py.out"
    emit([{"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True)}], fmt, str(paths[0]))
    emit([{"x": 0.1, "n": 3, "ok": True}], fmt, str(paths[1]))
    assert paths[0].read_text() == paths[1].read_text()


def test_oracle_rows_equal_single_calls(capsys):
    # the CLI reads each group's rows off one shared draw; every record must
    # still be the one a call for that row alone gives
    assert run(["oracle", "--samples", "10000", "--seed", "5", "--workers", "1"]) == 0
    recs = _json_records(capsys)
    want = [_mc_row("i4_closed_form", e.value, e.standard_error, i4_closed_form(c1), c1=c1)
            for c1 in (0.25, 1.0, 4.0) for e in [mc_i4_spatial(c1, 10**4, 5)]]
    want += [_mc_row("i6_closed_form", e.value, e.standard_error, i6_closed_form(1.0, r),
                     c1=1.0, separation=r)
             for r in (0.5, 1.0, 3.0) for e in [mc_i6_spatial(1.0, r, 10**4, 5)]]
    rows = [r for r in recs if r["check"].startswith(("i4", "i6"))]
    assert [{k: row[k] for k in w} for row, w in zip(rows, want)] == want
    assert len(rows) == len(want)


def test_simulate_zero_steps_is_usage_error(capsys):
    argv = ["simulate", "--mass", "5.5028e-18", "--width", "1e-6", "--separation", "1e-6",
            "--horizon", "2.609e4", "--grid-n", "32", "--steps", "0", "--members", "64"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: invalid value for steps: 0 (need >= 1)\n"


def test_covariance_empty_separations_is_usage_error(capsys):
    assert run(["covariance", "--grid-n", "32", "--realizations", "100",
                "--separations", ","]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need at least one separation\n")


_CRITERIA = {"mass": 1e-14, "width": 1e-7}


@pytest.mark.parametrize("config, key", [
    ({**_CRITERIA, "output": None}, "output"),
    ({**_CRITERIA, "output": ["a"]}, "output"),
    ({**_CRITERIA, "format": 1}, "format"),
    ({"samples": 10**4, "seed": True}, "seed"),
    ({**_CRITERIA, "mass": True}, "mass"),
    ({**_CRITERIA, "separation": False}, "separation"),
])
def test_json_config_rejects_wrong_types(config, key, tmp_path, monkeypatch, capsys):
    # JSON null, lists and numbers are no path or format, and JSON true is
    # no number, though Python's str() and float() accept them all
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    command = "oracle" if "samples" in config else "criteria"
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"'{key}'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_json_config_rejects_boolean_separations(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"separations": [0.1, True]}))
    assert run(["covariance", "--grid-n", "32", "--realizations", "100",
                "--config", str(cfg)]) == 2
    assert "'separations'" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, empty", [("json", "null"), ("csv", "")])
def test_criteria_zero_separation_emits_no_short_time(fmt, empty, capsys):
    # coincident packets never decohere: damping_time_short is inf by contract
    argv = ["criteria", "--mass", "1e-14", "--width", "1e-7", "--separation", "0",
            "--format", fmt]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)[0]["damping_time_short"] is None
    else:
        assert next(csv.DictReader(io.StringIO(out)))["damping_time_short"] == empty


@pytest.mark.parametrize("argv, field", [
    (["criteria", "--mass", "nan", "--width", "1e-7"], "mass"),
    (["criteria", "--mass", "1e-17", "--width", "inf"], "width"),
    (["criteria", "--mass", "inf", "--width", "1e-7", "--separation", "1e-6"], "mass"),
    (["sweep", "--param", "separation", "--start", "1e-7", "--stop", "1e-6", "--num", "2",
      "--mass", "nan", "--width", "1e-7"], "mass"),
    (["sweep", "--param", "mass", "--start", "1e-17", "--stop", "1e-16", "--num", "2",
      "--width", "inf"], "width"),
])
def test_non_finite_mass_or_width_is_usage_error(argv, field, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("mass", ["nan", "inf", "-1", "0"])
def test_criteria_regime_rejects_bad_mass(mass, capsys):
    # the density-only path derives the width from the mass
    assert run(["criteria", "--mass", mass, "--density", "2200"]) == 2
    assert capsys.readouterr().err.startswith("error: mass")


def _si(lo=-60.0, hi=60.0):
    """A positive SI value spread evenly over decades 10^lo to 10^hi."""
    return st.floats(lo, hi).map(lambda e: repr(10.0**e))


_SCALAR_ARGVS = st.one_of(
    st.tuples(st.just("variance"), st.just("--mass"), _si(), st.just("--width"), _si(),
              st.just("--separation"), st.one_of(st.just("0"), _si()),
              st.just("--horizon"), _si()),
    st.tuples(st.just("criteria"), st.just("--mass"), _si(), st.just("--width"), _si(),
              st.just("--separation"), st.one_of(st.just("0"), _si())),
    st.sampled_from(("mass", "width", "separation")).flatmap(lambda p: st.tuples(
        st.just("sweep"), st.just("--param"), st.just(p), st.just("--start"), _si(),
        st.just("--stop"), _si(), st.just("--num"), st.integers(2, 5).map(str),
        *(x for k in ("mass", "width", "separation") if k != p
          for x in (st.just(f"--{k}"), _si())))),
)


@settings(max_examples=300, deadline=None)
@given(argv=_SCALAR_ARGVS, fmt=st.sampled_from(("json", "csv")))
def test_scalar_commands_never_raise(argv, fmt):
    # any SI input ends in an exit code of the CLI contract, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run([*argv, "--format", fmt])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_damping_time_underflow_is_numerical_failure(capsys):
    # the root is positive, but its time in seconds underflows to 0
    argv = ["criteria", "--mass", "5.02e+93", "--width", "5.48e-133",
            "--separation", "2.0988e-22", "--threshold", "72.5"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: damping time underflows to 0 s")


def test_variance_at_largest_mu(capsys):
    # 4 mu / rho overflows where the u piece is empty, the total does not
    argv = ["variance", "--rho", "0.5", "--tau-max", "1", "--mu"]
    assert run([*argv, "1e308"]) == 0
    big = _json_records(capsys)[0]["total"]
    assert run([*argv, "1e307"]) == 0
    assert math.isclose(big, 10.0 * _json_records(capsys)[0]["total"], rel_tol=1e-15)


def test_config_format_is_checked_under_explicit_flag(tmp_path, capsys):
    # a config value is checked when the file is read, even where a flag wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    argv = ["variance", "--mu", "1", "--rho", "1", "--tau-max", "3", "--config", str(cfg)]
    assert run([*argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'format'" in captured.err


@pytest.mark.parametrize("config", [
    "mu = 1\nrho = 1\ntau_max = 3\nformat = csv\noutput = {out}\n",
    json.dumps({"mu": 1.0, "rho": 1.0, "tau_max": 3.0, "format": "csv",
                "output": "{out}"}),
])
def test_config_format_and_output_match_flags(config, tmp_path):
    # format and output are config keys like any other: same bytes as the flags
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.replace("{out}", str(from_file)))
    assert run(["variance", "--config", str(cfg)]) == 0
    assert run(["variance", "--mu", "1", "--rho", "1", "--tau-max", "3",
                "--format", "csv", "--output", str(from_flags)]) == 0
    mask = lambda text: text.rsplit(",", 1)[0]  # the timestamp is the last cell
    assert mask(from_file.read_text()) == mask(from_flags.read_text())
    assert from_file.read_text().startswith("mu,rho,tau_max,")


@pytest.mark.parametrize("argv", [
    ["criteria", "--mass", "1e-14", "--width", "1e-7", "--separation", "1e-300"],
    ["criteria", "--mass", "1e-25", "--width", "1e100", "--separation", "1e-100"],
])
def test_short_damping_time_overflow_is_numerical_failure(argv, capsys):
    # null is kept for R = 0; a time too long for a double exits 3
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: short-time damping time overflows")


def test_cli_binds_every_lazy_name_from_the_package():
    from gravphase import _LAZY, cli

    for name in _LAZY:
        assert getattr(cli, name) is getattr(gravphase, name), name
