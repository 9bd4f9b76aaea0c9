"""Spans and counters recorded from outside the program.

A ``Tracer`` replaces a module attribute (for example
``gravphase.cli.critical_length``) with a wrapper that records one span
per call: name, start, end, parent span and the operation it belongs to.
It wraps each public function at the name its caller looks up, so the
program runs unchanged and the wrappers come off when tracing stops.
Spans stay in memory; ``write_jsonl`` writes them out once the run is
over, and ``layer_metrics`` reduces them to the per-layer figures.

A tracer made with ``measure_peak=True`` also records the peak traced
allocation of each ensemble call. tracemalloc slows every allocation, so
that tracer is used apart from the timed rounds.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute, span name): one entry per name a caller looks up.
# variance.phase_variance is looked up by cli (variance, simulate) and by
# criteria (inside both root finders), so it is wrapped in both places.
TARGETS = (
    ("gravphase.cli", "run", "cli.run"),
    ("gravphase.cli", "emit", "cli.emit"),
    ("gravphase.cli", "critical_length", "criteria.critical_length"),
    ("gravphase.cli", "damping_time", "criteria.damping_time"),
    ("gravphase.cli", "damping_time_short", "criteria.damping_time_short"),
    ("gravphase.cli", "critical_mass", "criteria.critical_mass"),
    ("gravphase.cli", "classify", "criteria.classify"),
    ("gravphase.cli", "phase_variance", "variance.phase_variance"),
    ("gravphase.criteria", "phase_variance", "variance.phase_variance"),
    ("gravphase.cli", "simulate_phase_variance", "noisefield.simulate_phase_variance"),
    ("gravphase.cli", "measured_covariance", "noisefield.measured_covariance"),
    ("gravphase.cli", "mc_i4_spatial", "oracle.mc_i4_spatial"),
    ("gravphase.cli", "mc_i6_spatial", "oracle.mc_i6_spatial"),
    ("gravphase.cli", "sn_cancellation_check", "oracle.sn_cancellation_check"),
    ("gravphase.cli", "erf_identity_check", "oracle.erf_identity_check"),
)

# work done per call, read from the call's arguments
_WORK = {
    "noisefield.simulate_phase_variance": lambda a, kw: a[2] * a[1].n_steps,
    "noisefield.measured_covariance": lambda a, kw: a[1],
    "oracle.mc_i4_spatial": lambda a, kw: a[1],
    "oracle.mc_i6_spatial": lambda a, kw: a[2],
}

# peak traced allocation is recorded for these calls, with measure_peak
_PEAK = {"noisefield.simulate_phase_variance"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    round: int
    work: float | None = None
    error: str | None = None
    peak_bytes: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, measure_peak: bool = False) -> None:
        self.measure_peak = measure_peak
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.round = -1

    def _wrap(self, fn, name: str):
        work = _WORK.get(name)
        peak = self.measure_peak and name in _PEAK

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.op, self.round,
                        work=work(args, kwargs) if work else None)
            self.spans.append(span)
            if parent is not None:
                self.spans[parent].children.append(idx)
            self._stack.append(idx)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if peak:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every target while the block runs, then restore the originals."""
        saved = []
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "round": s.round,
                    "work": s.work, "error": s.error, "peak_bytes": s.peak_bytes,
                }) + "\n")


def _self_time(spans: list[Span], s: Span, other_layers_only: bool) -> float:
    kids = (spans[c] for c in s.children)
    if other_layers_only:
        kids = (k for k in kids if k.layer != s.layer)
    return s.duration - sum(k.duration for k in kids)


def _median(xs, scale=1.0) -> float:
    xs = list(xs)
    return statistics.median(xs) * scale if xs else 0.0


def layer_metrics(tracer: Tracer, traced_walls: list[float], plain_walls: list[float],
                  peak_tracer: Tracer) -> dict:
    """Per-layer figures from the spans of the traced rounds.

    ``traced_walls`` and ``plain_walls`` are the wall times of the traced
    and the untraced rounds of the same run; their medians give the
    tracing overhead. ``peak_tracer`` holds the untimed calls made with
    tracemalloc on. A layer the workload never calls reports 0.
    """
    spans = tracer.spans
    n_rounds = len(traced_walls)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def per_call(name, scale):
        return _median((s.duration for s in by.get(name, ())), scale)

    def per_work(name, scale):
        return _median((s.duration / s.work for s in by.get(name, ()) if s.work), scale)

    def rate(name):
        calls = by.get(name, ())
        t = sum(s.duration for s in calls)
        return sum(s.work for s in calls) / t / 1e6 if t > 0 else 0.0

    roots = by.get("criteria.critical_length", []) + by.get("criteria.damping_time", [])
    pv_in_roots = sum(
        1 for r in roots for c in r.children if spans[c].name == "variance.phase_variance"
    )
    crit_self = [0.0] * n_rounds
    for r in roots:
        crit_self[r.round] += _self_time(spans, r, other_layers_only=False)
    runs = by.get("cli.run", [])
    covered = sum(s.duration for s in runs)
    plain = statistics.median(plain_walls)
    return {
        "cli.run_ms": per_call("cli.run", 1e3),
        "cli.self_ms": _median((_self_time(spans, s, True) for s in runs), 1e3),
        "cli.emit_ms": per_call("cli.emit", 1e3),
        "variance.phase_variance_us": per_call("variance.phase_variance", 1e6),
        "variance.phase_variance_calls": len(by.get("variance.phase_variance", ())) / n_rounds,
        "criteria.critical_length_ms": per_call("criteria.critical_length", 1e3),
        "criteria.critical_length_calls": len(by.get("criteria.critical_length", ())) / n_rounds,
        "criteria.damping_time_ms": per_call("criteria.damping_time", 1e3),
        "criteria.self_ms": _median(crit_self, 1e3) if roots else 0.0,
        "criteria.pv_calls_per_root": pv_in_roots / len(roots) if roots else 0.0,
        "criteria.bracket_errors": sum(
            1 for s in by.get("criteria.critical_length", ()) if s.error == "BracketError"
        ) / n_rounds,
        "noisefield.simulate_s": per_call("noisefield.simulate_phase_variance", 1.0),
        "noisefield.member_step_ms": per_work("noisefield.simulate_phase_variance", 1e3),
        "noisefield.simulate_peak_mb": _median(
            s.peak_bytes / 2**20 for s in peak_tracer.spans if s.peak_bytes is not None
        ),
        "noisefield.covariance_s": per_call("noisefield.measured_covariance", 1.0),
        "noisefield.realization_ms": per_work("noisefield.measured_covariance", 1e3),
        "oracle.mc_i4_msamples_per_s": rate("oracle.mc_i4_spatial"),
        "oracle.mc_i6_msamples_per_s": rate("oracle.mc_i6_spatial"),
        "oracle.sn_cancellation_s": per_call("oracle.sn_cancellation_check", 1.0),
        "trace.span_coverage_pct": 100.0 * covered / sum(traced_walls),
        "trace.overhead_pct": 100.0 * (statistics.median(traced_walls) / plain - 1.0),
    }
