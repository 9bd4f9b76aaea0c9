"""Correctness checks of CLI output, made apart from the program.

Every reference here is computed by the benchmark itself: the phase
variance as i7 - i8 by mpmath quadrature, the criteria roots by
evaluating that variance at the returned root, the oracle and covariance
targets from their closed forms. Where a statistical estimate is checked,
the bound is 3 (mean: 4) standard errors. Exact properties of the method
(linearity in mu, monotonicity in tau and rho, 0 <= i8 <= i7) are checked
with extra program calls. None of it compares against stored output.

``Checker.check`` returns a list of problems; an empty list means the
operation's output is correct.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

from workloads import G, HBAR, Op

THRESHOLD = math.pi**2
T_CAP = 1e18  # damping_time's "no decoherence" sentinel [s]
FAULT_MESSAGE = "critical length root not bracketable"

# Agreement asked of a deterministic result with the mpmath reference.
# The program integrates to epsrel 1e-11 and root-finds to rtol 1e-10.
REF_RTOL = 1e-9
EXACT_RTOL = 1e-13

_DPS = 24


@functools.lru_cache(maxsize=4096)
def ref_variance(mu: float, rho: float, tau: float) -> float:
    """DeltaPhi^2 = i7 - i8 at 24 digits.

    i7 = (2 sqrt 2 / sqrt pi) mu asinh(tau) and
    i8 = (2 mu / rho) int_0^asinh(tau) erf(rho / (sqrt 2 cosh u)) cosh u du.
    Where the erf argument is >= 7, erf = 1 to 1e-22 and that piece of
    the integral is sinh(u) in closed form.
    """
    with mp.workdps(_DPS):
        mu_, rho_, tau_ = mp.mpf(mu), mp.mpf(rho), mp.mpf(tau)
        s2 = mp.sqrt(2)
        umax = mp.asinh(tau_)
        i7 = 2 * s2 / mp.sqrt(mp.pi) * mu_ * umax
        u_c = min(mp.acosh(rho_ / (7 * s2)), umax) if rho_ > 7 * s2 else mp.mpf(0)
        pts = [u_c]
        for x in (1, mp.mpf("0.1")):
            if rho_ > x * s2 * mp.cosh(u_c):
                u = mp.acosh(rho_ / (x * s2))
                if u < umax:
                    pts.append(u)
        pts.append(umax)
        tail = mp.quad(lambda u: mp.erf(rho_ / (s2 * mp.cosh(u))) * mp.cosh(u), pts)
        i8 = 2 * mu_ / rho_ * (mp.sinh(u_c) + tail)
        return float(i7 - i8)


def ref_i7(mu: float, tau: float) -> float:
    with mp.workdps(_DPS):
        return float(2 * mp.sqrt(2) / mp.sqrt(mp.pi) * mu * mp.asinh(tau))


def coupling(m: float, a: float) -> float:
    return G * m**3 * a / HBAR**2


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def _args(argv) -> dict:
    """Flag values of a generated argv, as floats where they parse."""
    out = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag[2:].replace("-", "_")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


class Checker:
    """Checks one operation's records; ``call(argv) -> (rc, records)`` runs
    the program again, untimed, for the property checks."""

    def __init__(self, call):
        self.call = call

    def check(self, op: Op, rc: int, records, stderr: str) -> list[str]:
        if op.fault and rc == 3 and FAULT_MESSAGE in stderr:
            return []  # the critical-length fault: counted as failed, not as wrong
        if rc != 0:
            return [f"exit {rc}: {stderr.strip()[:200]}"]
        fn = getattr(self, "_" + op.argv[0])
        return fn(_args(op.argv), records)

    # -- scalar path ------------------------------------------------------

    def _variance(self, p: dict, records) -> list[str]:
        (r,) = records
        bad = []
        if "mu" in p:
            mu, rho, tau = p["mu"], p["rho"], p["tau_max"]
        else:
            m, a = p["mass"], p["width"]
            mu, rho, tau = coupling(m, a), p["separation"] / a, HBAR * p["horizon"] / (m * a * a)
        for key, want in (("mu", mu), ("rho", rho), ("tau_max", tau)):
            if not _close(r[key], want, 1e-12):
                bad.append(f"{key} {r[key]!r} != {want!r}")
        mu, rho, tau = r["mu"], r["rho"], r["tau_max"]
        if not _close(r["i7"], ref_i7(mu, tau), EXACT_RTOL):
            bad.append(f"i7 {r['i7']!r} != closed form {ref_i7(mu, tau)!r}")
        ref = ref_variance(mu, rho, tau)
        if not _close(r["total"], ref, REF_RTOL):
            bad.append(f"total {r['total']!r} != mpmath i7 - i8 {ref!r}")
        if not 0.0 <= r["i8"] <= r["i7"]:
            bad.append(f"i8 {r['i8']!r} outside [0, i7 = {r['i7']!r}]")
        if abs(r["i7"] - r["i8"] - r["total"]) > 4 * math.ulp(r["i7"]):
            bad.append("total != i7 - i8")
        # exact properties, through the program itself
        def total(mu_, rho_, tau_):
            rc, recs = self.call(["variance", "--mu", repr(mu_), "--rho", repr(rho_),
                                  "--tau-max", repr(tau_)])
            return recs[0]["total"] if rc == 0 else math.nan
        base = total(mu, rho, tau)
        if not _close(total(2.0 * mu, rho, tau), 2.0 * base, EXACT_RTOL):
            bad.append("total is not linear in mu")
        if not total(mu, rho, 1.25 * tau) > base:
            bad.append("total does not increase with tau")
        if not total(mu, 1.25 * rho, tau) > base:
            bad.append("total does not increase with rho")
        return bad

    def _critical_length(self, m: float, a: float, row: dict) -> list[str]:
        mu = coupling(m, a)
        rho_c = row["critical_length"] / a
        got = ref_variance(mu, rho_c, rho_c * rho_c)
        bad = []
        if not _close(got, THRESHOLD, REF_RTOL):
            bad.append(f"DeltaPhi^2 at critical length = {got!r}, not pi^2")
        l_chr = HBAR**2 / (G * m**3)
        asym = l_chr**0.25 * a**0.75 if mu >= 1.0 else l_chr**0.5 * a**0.5
        if not _close(row["critical_length_asymptote"], asym, 1e-12):
            bad.append(f"asymptote {row['critical_length_asymptote']!r} != {asym!r}")
        return bad

    def _damping_time(self, m: float, a: float, R: float, t_d: float) -> list[str]:
        mu, rho, t_unit = coupling(m, a), R / a, m * a * a / HBAR
        if t_d == T_CAP:
            got = ref_variance(mu, rho, T_CAP / t_unit)
            return [] if got < THRESHOLD else [f"capped damping time but DeltaPhi^2 = {got!r}"]
        got = ref_variance(mu, rho, t_d / t_unit)
        return [] if _close(got, THRESHOLD, REF_RTOL) else [
            f"DeltaPhi^2 at damping time = {got!r}, not pi^2"]

    def _criteria(self, p: dict, records) -> list[str]:
        (r,) = records
        bad = []
        m, a, R, dens = (p.get(k) for k in ("mass", "width", "separation", "density"))
        if r["threshold"] != THRESHOLD:
            bad.append(f"threshold {r['threshold']!r}")
        if a is not None:
            bad += self._critical_length(m, a, r)
        if R is not None:
            bad += self._damping_time(m, a, R, r["damping_time"])
            with mp.workdps(_DPS):
                rho = mp.mpf(R) / a
                bracket = (mp.sqrt(2 / mp.pi) - mp.erf(rho / mp.sqrt(2)) / rho) / a
                short = float(HBAR / (G * mp.mpf(m) ** 2) / bracket * THRESHOLD / 2)
            if not _close(r["damping_time_short"], short, 1e-12):
                bad.append(f"damping_time_short {r['damping_time_short']!r} != {short!r}")
        if dens is not None:
            m_c = r["critical_mass"]
            a_c = (3.0 * m_c / (4.0 * math.pi * dens)) ** (1.0 / 3.0)
            if not _close(coupling(m_c, a_c), 1.0, 1e-12):
                bad.append(f"critical mass {m_c!r} does not give mu = 1")
            width = a if a is not None else (3.0 * m / (4.0 * math.pi * dens)) ** (1.0 / 3.0)
            mu = coupling(m, width)
            ratio = mu**-0.25 if mu >= 1.0 else mu**-0.5  # L_c / a by the asymptotes
            want = ("Boundary" if abs(ratio - 1.0) <= 0.1
                    else "Classical" if ratio < 1.0 else "Quantum")
            if r["regime"] != want:
                bad.append(f"regime {r['regime']} != {want}")
        return bad

    def _sweep(self, p: dict, records) -> list[str]:
        param, n = p["param"], int(p["num"])
        if len(records) != n:
            return [f"{len(records)} rows for {n} points"]
        ratio = (p["stop"] / p["start"]) ** (1.0 / (n - 1))
        bad = []
        for i, row in enumerate(records):
            if not _close(row[param], p["start"] * ratio**i, 1e-12):
                bad.append(f"row {i}: {param} {row[param]!r} off the geometric grid")
            m, a = row["mass"], row["width"]
            if not _close(row["mu"], coupling(m, a), 1e-12):
                bad.append(f"row {i}: mu {row['mu']!r}")
            bad += [f"row {i}: {b}" for b in self._critical_length(m, a, row)]
            if row.get("separation") is not None:
                bad += [f"row {i}: {b}" for b in
                        self._damping_time(m, a, row["separation"], row["damping_time"])]
        return bad

    # -- Monte Carlo paths -------------------------------------------------

    def _oracle(self, p: dict, records) -> list[str]:
        bad = []
        seen = {}
        for r in records:
            kind = r["check"]
            seen[kind] = seen.get(kind, 0) + 1
            if kind == "erf_identity":
                if not r["residual"] < 1e-10:
                    bad.append(f"erf identity residual {r['residual']!r}")
                continue
            c1 = r["c1"]
            if kind == "cancellation":
                target = 0.0
            elif kind == "i4_closed_form":
                target = math.sqrt(2.0 / math.pi) / math.sqrt(c1)
            else:
                R = r["separation"]
                target = -2.0 / R * math.erf(R / math.sqrt(2.0 * c1))
            if not _close(r["target"], target, 1e-14):
                bad.append(f"{kind}: target {r['target']!r} != closed form {target!r}")
            if not abs(r["value"] - target) <= 3.0 * r["standard_error"]:
                bad.append(f"{kind}: {r['value']!r} more than 3 SE "
                           f"({r['standard_error']!r}) from {target!r}")
        if seen != {"cancellation": 1, "i4_closed_form": 3, "i6_closed_form": 3,
                    "erf_identity": 3}:
            bad.append(f"unexpected oracle rows {seen}")
        return bad

    def _covariance(self, p: dict, records) -> list[str]:
        dx = p["box"] / p["grid_n"]
        seps = [float(s) for s in str(p["separations"]).split(",")]
        if len(records) != len(seps):
            return [f"{len(records)} rows for {len(seps)} separations"]
        bad = []
        for sep, r in zip(seps, records):
            r_snap = max(1, round(sep / dx)) * dx
            target = HBAR * G / r_snap
            if not _close(r["separation"], r_snap, 1e-12):
                bad.append(f"separation {r['separation']!r} != lag {r_snap!r}")
            if not _close(r["target"], target, 1e-12):
                bad.append(f"target {r['target']!r} != hbar G / r {target!r}")
            tol = max(0.05 * target, 3.0 * r["standard_error"])
            if not abs(r["estimate"] - target) <= tol:
                bad.append(f"covariance {r['estimate']!r} not within {tol!r} of {target!r}")
        return bad

    def _simulate(self, p: dict, records) -> list[str]:
        (r,) = records
        m, a = p["mass"], p["width"]
        mu, rho, tau = coupling(m, a), p["separation"] / a, HBAR * p["horizon"] / (m * a * a)
        ref = ref_variance(mu, rho, tau)
        bad = []
        if not _close(r["analytic_total"], ref, REF_RTOL):
            bad.append(f"analytic_total {r['analytic_total']!r} != mpmath {ref!r}")
        se = r["standard_error_of_variance"]
        if not abs(r["variance"] - ref) <= 3.0 * se:
            bad.append(f"ensemble variance {r['variance']!r} more than 3 SE ({se!r}) "
                       f"from {ref!r}")
        if r["members"] != int(p["members"]):
            bad.append(f"members {r['members']}")
        return bad


def check_ensemble_mean(stats) -> list[str]:
    """The ensemble phase mean is zero within 4 standard errors."""
    se = math.sqrt(stats.variance / stats.n_members)
    if abs(stats.mean) <= 4.0 * se:
        return []
    return [f"ensemble mean {stats.mean!r} more than 4 SE ({se!r}) from 0"]
