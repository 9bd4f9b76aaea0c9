"""Command-line front end.

Subcommands cover every pipeline stage:

    variance    phase-variance breakdown for one parameter set
    criteria    damping time, critical length, critical mass, regime
    sweep       geometric grid over one parameter, per-row records
    oracle      Monte Carlo and quadrature verification suite
    covariance  sampled noise-field two-point function vs hbar G / r
    simulate    ensemble phase variance vs the analytic value

Inputs are SI (kg, m, s) unless the dimensionless flags --mu / --rho /
--tau-max are used. A config file (flat ``key = value`` lines, or JSON if
the file starts with ``{``) can supply any flag's value, --format and
--output too; each value in it is checked, and explicit flags win. Results
go to stdout or --output as CSV or JSON with floats printed to 17
significant digits, which round-trips IEEE doubles exactly.

Exit codes: 0 success, 1 verification subcommand found a failing check,
2 validation or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

from . import _LAZY, __version__
from .criteria import (
    BracketError,
    Threshold,
    classify,
    critical_length,
    critical_mass,
    damping_time,
    damping_time_short,
)
from .units import (
    DimensionlessParams, coupling, make_params, nondimensionalize,
)
from .variance import phase_variance

__all__ = ["run", "emit", "console_entry"]


def _bind_stochastic() -> None:
    """Bind every name the package loads lazily into this module's globals.

    Those names import numpy, so only the stochastic subcommands bind them.
    A name that is already bound keeps its value, so a wrapper set on this
    module before the first call (a tracer's, a test's) stays in place.
    """
    package, g = sys.modules[__package__], globals()
    for name in _LAZY:
        g.setdefault(name, getattr(package, name))


def __getattr__(name: str):
    # getattr(cli, name) before the name's first use, as a wrapper does
    if name in _LAZY:
        _bind_stochastic()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(ValueError):
    """Bad flags or config: reported on stderr with exit code 2."""


# every flag, declared once: key -> (type, --help text). "seps" is a
# comma-separated float list; a tuple lists the accepted strings.
_FLAGS: dict[str, tuple[object, str]] = {
    "mass": (float, "particle mass [kg]"),
    "width": (float, "initial packet width a [m]"),
    "separation": (float, "peak separation R [m]"),
    "horizon": (float, "time horizon T [s]"),
    "mu": (float, "G m^3 a / hbar^2"),
    "rho": (float, "R / a"),
    "tau_max": (float, "hbar T / m a^2"),
    "density": (float, "material density [kg/m^3]"),
    "threshold": (float, "variance threshold (default pi^2)"),
    "param": (("mass", "width", "separation"), "swept parameter"),
    "start": (float, "first value (SI)"),
    "stop": (float, "last value (SI)"),
    "num": (int, "number of grid points"),
    "samples": (int, "MC samples per integral (default 1e6)"),
    "seed": (int, "RNG seed (default 42)"),
    "workers": (int, "worker threads"),
    "grid_n": (int, "grid points per axis"),
    "box": (float, "box length [m]"),
    "dt": (float, "time step [s]"),
    "realizations": (int, "field realizations (>= 100)"),
    "separations": ("seps", "comma-separated separations [m]"),
    "steps": (int, "time steps"),
    "members": (int, "ensemble members (>= 64)"),
    "format": (("csv", "json"), "output format"),
    "output": (str, "output path (default stdout)"),
}
# the flags every subcommand takes, with their defaults
_COMMON = {"format": "json", "output": None}

# --help text that differs from the shared one in one subcommand
_HELP_OVERRIDES = {
    ("sweep", "mass"): "fixed mass [kg]",
    ("sweep", "width"): "fixed width [m]",
    ("sweep", "separation"): "fixed separation [m]",
    ("simulate", "box"): "box length [m] (default 8 max(R, C1(T)^0.5))",
}

# physics-symbol aliases accepted in config files
_ALIASES = {"m": "mass", "a": "width", "R": "separation", "T": "horizon"}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gravphase",
        description="Gravitational decoherence of superposed wavepackets.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, keys) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="config file (key = value lines, or JSON)")
        for key in (*_COMMON, *keys):
            target, flag_help = _FLAGS[key]
            sp.add_argument(
                "--" + key.replace("_", "-"),
                type=_FLAG_TYPES.get(target),
                choices=target if isinstance(target, tuple) else None,
                help=_HELP_OVERRIDES.get((name, key), flag_help),
            )
    return p


def _int_flag(text: str) -> int:
    # the config-file rule: "1e4" is 10000, "1.5" is rejected
    return _coerce("", text, int)


_int_flag.__name__ = "int"  # argparse names it in "invalid int value: ..."
_FLAG_TYPES = {int: _int_flag, float: float}


def _coerce(key: str, value, target) -> object:
    if target == "seps":
        if not isinstance(value, (list, tuple)):
            value = [tok for tok in str(value).split(",") if tok.strip()]
        return [_coerce(key, v, float) for v in value]
    try:
        # JSON true is no number, though Python reads it as 1, and null is no path
        if isinstance(value, bool) or (target is str and not isinstance(value, str)):
            raise ValueError
        if target is str:
            return value
        if isinstance(target, tuple):
            if str(value) not in target:
                raise ValueError
            return str(value)
        if target is int:
            if isinstance(value, (int, str)):  # exact beyond 2**53
                with contextlib.suppress(ValueError):
                    return int(value)
            f = float(value)
            if not f.is_integer():
                raise ValueError
            return int(f)
        return float(value)
    except (TypeError, ValueError):
        raise _UsageError(f"invalid value for config key '{key}': {value!r}") from None


def _read_config_file(path: str, keys: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read config file: {e}") from None
    raw: dict = {}
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise _UsageError(f"malformed JSON config: {e}") from None
    else:
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise _UsageError(f"malformed config line {ln}: {line.strip()!r}")
            key, _, value = body.partition("=")
            raw[key.strip()] = value.strip()
    out: dict = {}
    for key, value in raw.items():
        canonical = _ALIASES.get(key, key).replace("-", "_")
        if canonical not in keys:
            raise _UsageError(f"unknown config key: {key}")
        out[canonical] = _coerce(key, value, _FLAGS[canonical][0])
    return out


def _params(ns: argparse.Namespace) -> dict:
    """The run's inputs: defaults, then the config file, then explicit flags."""
    keys = {**_COMMON, **_COMMANDS[ns.subcommand][2]}
    params = {k: v for k, v in keys.items() if v is not None}
    if ns.config:
        params.update(_read_config_file(ns.config, keys))
    for key in keys:
        value = getattr(ns, key)
        if value is not None:
            params[key] = _coerce(key, value, _FLAGS[key][0])
    return params


def _need(params: dict, keys: tuple, context: str) -> list:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise _UsageError(f"{context} requires --{missing[0].replace('_', '-')}")
    return [params[k] for k in keys]


def _si_echo(p) -> dict:
    return {"mass": p.m, "width": p.a, "separation": p.R, "horizon": p.T}


def _cmd_variance(params: dict) -> tuple[list[dict], bool]:
    dimless = [params.get(k) is not None for k in ("mu", "rho", "tau_max")]
    si = [params.get(k) is not None for k in ("mass", "width", "separation", "horizon")]
    if any(dimless) and any(si):
        raise _UsageError("give either dimensionless or SI parameters, not both")
    record: dict = {}
    if any(dimless):
        mu, rho, tau_max = _need(params, ("mu", "rho", "tau_max"), "dimensionless mode")
        d = DimensionlessParams(mu=mu, rho=rho, tau_max=tau_max)
    else:
        m, a, R, T = _need(params, ("mass", "width", "separation", "horizon"), "SI mode")
        pair = make_params(m, a, R, T)
        d = nondimensionalize(pair)
        record.update(_si_echo(pair))
    vb = phase_variance(d)
    record.update(
        mu=d.mu, rho=d.rho, tau_max=d.tau_max,
        i7=vb.i7, i8=vb.i8, total=vb.total,
        quadrature_error_estimate=vb.quadrature_error_estimate,
    )
    return [record], False


def _cmd_criteria(params: dict) -> tuple[list[dict], bool]:
    mass, width = params.get("mass"), params.get("width")
    separation, density = params.get("separation"), params.get("density")
    th = Threshold(variance_threshold=params["threshold"])
    if not ((mass is not None and width is not None) or density is not None):
        raise _UsageError("criteria requires --mass and --width, or --density")
    record: dict = {
        k: v
        for k, v in (("mass", mass), ("width", width),
                     ("separation", separation), ("density", density))
        if v is not None
    }
    record["threshold"] = th.variance_threshold
    if mass is not None and width is not None:
        record.update(_length_fields(critical_length(mass, width, th=th)))
        if separation is not None:
            pair = make_params(mass, width, separation, 1.0)
            record["damping_time"] = damping_time(pair, th)
            short = damping_time_short(pair, threshold=th.variance_threshold)
            # inf at R = 0, where the pair never decoheres: emitted as null
            record["damping_time_short"] = short if math.isfinite(short) else None
    if density is not None:
        record["critical_mass"] = critical_mass(density)
        if mass is not None:
            record["regime"] = classify(mass, density, a=width).value
    return [record], False


def _length_fields(clr) -> dict:
    return {
        "critical_length": clr.l_c,
        "critical_length_method": clr.method.value,
        "critical_length_asymptote": clr.asymptote,
    }


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """num points from start to stop in geometric progression, both ends exact.

    numpy.geomspace's recipe (y = i step + log10(start), then 10**y) in
    plain math, so a sweep starts without numpy. An interior point may
    differ from numpy's in its last bits, where numpy's log10 or power
    rounds differently from the C library's.
    """
    lo = math.log10(start)
    step = (math.log10(stop) - lo) / (num - 1)
    grid = [10.0 ** (i * step + lo) for i in range(num)]
    grid[0], grid[-1] = start, stop
    return grid


def _cmd_sweep(params: dict) -> tuple[list[dict], bool]:
    param, start, stop, num = _need(params, ("param", "start", "stop", "num"), "sweep")
    if params.get(param) is not None:
        raise _UsageError(f"--{param} conflicts with sweeping it")
    if not (0 < start and 0 < stop and math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError(f"invalid value for start/stop: {start}, {stop}")
    if num < 2:
        raise _UsageError(f"invalid value for num: {num} (need >= 2)")
    th = Threshold(variance_threshold=params["threshold"])
    fixed = {k: params.get(k) for k in ("mass", "width", "separation")}
    records = []
    lengths: dict = {}  # one critical_length per distinct (mass, width)
    for value in _geomspace(start, stop, num):
        point = dict(fixed)
        point[param] = value
        mass, width, separation = point["mass"], point["width"], point["separation"]
        if mass is None or width is None:
            raise _UsageError("sweep requires mass and width (swept or fixed)")
        if (mass, width) not in lengths:
            lengths[mass, width] = critical_length(mass, width, th=th)
        row: dict = {"mass": mass, "width": width, "mu": coupling(mass, width),
                     **_length_fields(lengths[mass, width])}
        if separation is not None:
            row["separation"] = separation
            pair = make_params(mass, width, separation, 1.0)
            row["damping_time"] = damping_time(pair, th)
        records.append(row)
    return records, False


def _oracle_row(check: str, **kw) -> dict:
    row = {
        "check": check, "c1": None, "separation": None, "value": None,
        "target": None, "residual": None, "standard_error": None,
        "tolerance": None, "passed": None,
    }
    row.update(kw)
    return row


def _mc_row(check: str, value: float, se: float, target: float, **kw) -> dict:
    # pass bound: 3 SE or 1% of the target, whichever is looser, so small
    # sample counts stay statistically meaningful
    resid = abs(value - target)
    tol = max(3.0 * se, 0.01 * abs(target))
    return _oracle_row(
        check, value=value, target=target, residual=resid,
        standard_error=se, tolerance=tol, passed=bool(resid < tol), **kw,
    )


def _cmd_oracle(params: dict) -> tuple[list[dict], bool]:
    _bind_stochastic()
    n, seed, workers = params["samples"], params["seed"], params.get("workers")
    # the deterministic terms cancel exactly: target 0, so the bound is 3 SE
    rep = sn_cancellation_check(1.0, 1.0, n, seed, workers=workers)
    records = [_mc_row("cancellation", rep.sum_value, rep.combined_se, 0.0,
                       c1=1.0, separation=1.0)]
    # each group's rows read one shared draw at three points
    c1s, ratios = (0.25, 1.0, 4.0), (0.5, 1.0, 3.0)
    for c1, est in zip(c1s, mc_i4_spatial(c1s, n, seed, workers=workers)):
        records.append(_mc_row("i4_closed_form", est.value, est.standard_error,
                               i4_closed_form(c1), c1=c1))
    for ratio, est in zip(ratios, mc_i6_spatial(1.0, ratios, n, seed, workers=workers)):
        records.append(_mc_row("i6_closed_form", est.value, est.standard_error,
                               i6_closed_form(1.0, ratio), c1=1.0, separation=ratio))
    for ratio in (0.1, 1.0, 5.0):
        resid = erf_identity_check(ratio, 1.0)
        records.append(
            _oracle_row(
                "erf_identity", c1=1.0, separation=ratio, residual=resid,
                tolerance=1e-10, passed=resid < 1e-10,
            )
        )
    return records, not all(r["passed"] for r in records)


def _cmd_covariance(params: dict) -> tuple[list[dict], bool]:
    _bind_stochastic()
    grid = FieldGrid(
        n=params["grid_n"], box_length=params["box"], dt=params["dt"],
        n_steps=1, seed=params["seed"],
    )
    seps = params.get("separations")
    if seps is None:
        # lags 4, n/8 and n/4, each once: 4 is n/8 at n = 32
        seps = [lag * grid.dx for lag in sorted({4, grid.n // 8, grid.n // 4})]
    rows = measured_covariance(grid, params["realizations"], seps)
    records, all_ok = [], True
    for row in rows:
        err = abs(row.estimate - row.target)
        ok = err <= max(0.05 * abs(row.target), 3.0 * row.standard_error)
        all_ok &= ok
        records.append(
            {
                "separation": row.separation,
                "estimate": row.estimate,
                "target": row.target,
                "standard_error": row.standard_error,
                "relative_error": err / abs(row.target),
                "passed": ok,
            }
        )
    return records, not all_ok


def _cmd_simulate(params: dict) -> tuple[list[dict], bool]:
    _bind_stochastic()
    m, a, R, T = _need(params, ("mass", "width", "separation", "horizon"), "simulate")
    pair = make_params(m, a, R, T)
    box = params.get("box")
    if box is None:
        box = min_box_length(pair)
    steps = params["steps"]
    if steps < 1:
        raise _UsageError(f"invalid value for steps: {steps} (need >= 1)")
    grid = FieldGrid(
        n=params["grid_n"], box_length=box, dt=pair.T / steps,
        n_steps=steps, seed=params["seed"],
    )
    ens = simulate_phase_variance(pair, grid, params["members"],
                                  workers=params.get("workers"))
    d = nondimensionalize(pair)
    analytic = phase_variance(d).total
    err = abs(ens.variance - analytic)
    tol = max(0.10 * analytic, 3.0 * ens.standard_error_of_variance)
    record = {
        **_si_echo(pair),
        "mu": d.mu, "rho": d.rho, "tau_max": d.tau_max,
        "grid_n": grid.n, "box": box, "steps": steps, "members": ens.n_members,
        "variance": ens.variance,
        "standard_error_of_variance": ens.standard_error_of_variance,
        "analytic_total": analytic,
        "relative_error": err / analytic if analytic > 0 else 0.0,
        "passed": err <= tol,
    }
    return [record], not record["passed"]


# subcommand -> (--help text, handler, {flag: default or None} in --help
# order); these and _COMMON are the only keys a config file may set
_COMMANDS: dict[str, tuple[str, object, dict[str, object]]] = {
    "variance": ("phase-variance breakdown", _cmd_variance, dict.fromkeys(
        ("mass", "width", "separation", "horizon", "mu", "rho", "tau_max"))),
    "criteria": ("decoherence time, critical length and mass, regime", _cmd_criteria,
                 {**dict.fromkeys(("mass", "width", "separation", "density")),
                  "threshold": Threshold.variance_threshold}),
    "sweep": ("geometric sweep of mass, width, or separation", _cmd_sweep,
              {**dict.fromkeys(("param", "start", "stop", "num", "mass", "width",
                                "separation")),
               "threshold": Threshold.variance_threshold}),
    "oracle": ("run the Monte Carlo / quadrature verification suite", _cmd_oracle,
               {"samples": 10**6, "seed": 42, "workers": None}),
    "covariance": ("measure the sampled noise-field covariance", _cmd_covariance,
                   {"grid_n": 64, "box": 1.0, "dt": 1.0, "realizations": 400,
                    "separations": None, "seed": 42}),
    "simulate": ("ensemble phase variance vs the analytic value", _cmd_simulate,
                 {**dict.fromkeys(("mass", "width", "separation", "horizon")),
                  "grid_n": 64, "box": None, "steps": 16, "members": 256,
                  "seed": 42, "workers": None}),
}


def _fmt_float(v: float) -> str:
    s = f"{v:.17g}"
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _scalar(v, csv_cell: bool) -> str:
    """One value as a CSV cell or a JSON literal."""
    np = sys.modules.get("numpy")  # a numpy scalar implies numpy is loaded
    if np is not None and isinstance(v, np.generic):
        v = v.item()
    if v is None:
        return "" if csv_cell else "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if csv_cell or isinstance(v, int):
        return str(v)
    return json.dumps(v)


def emit(records: list[dict], output_format: str, path: str | None = None) -> None:
    """Serialize records (CSV with a header row, or a JSON array).

    Floats are printed with 17 significant digits, so parsing the output
    recovers each IEEE double bit-exactly. All records must share one key
    set; every float must be finite. Output is built in full before any
    byte is written, so a failed run never leaves a partial file.
    """
    if not records:
        raise ValueError("no records to emit")
    keys = list(records[0])
    for rec in records:
        if list(rec) != keys:
            raise ValueError("records have inconsistent fields")
        for key, value in rec.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"non-finite value for field '{key}'")
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_scalar(rec[k], csv_cell=True) for k in keys])
        text = buf.getvalue()
    else:
        lines = []
        for rec in records:
            fields = ", ".join(
                f"{json.dumps(k)}: {_scalar(v, csv_cell=False)}" for k, v in rec.items()
            )
            lines.append("  {" + fields + "}")
        text = "[\n" + ",\n".join(lines) + "\n]\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def run(argv: list[str]) -> int:
    """Parse argv, execute one subcommand, emit records, return exit code."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        params = _params(ns)
        fmt, path = params.pop("format"), params.pop("output", None)
        records, failed = _COMMANDS[ns.subcommand][1](params)
    except ValueError as e:  # includes _UsageError and ConfigurationError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BracketError, FloatingPointError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    seed = params.get("seed")  # only the stochastic subcommands have one
    stamp = datetime.now(timezone.utc).isoformat()
    for rec in records:
        rec["version"] = __version__
        rec["seed"] = seed
        rec["timestamp"] = stamp
    try:
        emit(records, fmt, path)
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return 3
    return 1 if failed else 0


def console_entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
