"""One benchmark process: set-up, a share of the timed phase, the checks.

Started by run.py in a fresh interpreter with the settings of the
README. It imports gravphase from ``src/`` of the checkout, runs one
untimed warm-up operation, and takes the set-up time from the clock
reading ``--t0`` that run.py took just before starting it. It then runs
whole rounds of the workload for at least ``--seconds`` seconds and at
least ``--min-ops`` operations. Every process checks that each round
repeats its first and reports a digest of that first round; with
``--check`` it also checks every output of the first round. The last
line of standard output is one JSON object with the raw figures.

With ``--trace 1`` the rounds alternate between plain and traced; the
traced ones give the per-layer figures and the pair gives the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_STAMP = re.compile(r'"timestamp": "[^"]*"')


def _import_program():
    import gravphase
    import gravphase.cli
    import gravphase.criteria

    src = (ROOT / "src").resolve()
    if src not in Path(gravphase.__file__).resolve().parents:
        raise ImportError(f"gravphase imported from {gravphase.__file__}, not {src}")
    return {"gravphase.cli": gravphase.cli, "gravphase.criteria": gravphase.criteria}


def _runner(cli):
    def call(argv):
        """Run one CLI invocation in-process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(argv) + ["--format", "json"])
        return rc, out.getvalue(), err.getvalue()

    return call


def _records(text: str):
    return json.loads(text) if text else None


def timed_phase(call, ops, seconds: float, min_ops: int, tracer=None, modules=None):
    """Whole rounds of ``ops`` until both limits are met.

    Returns per-op latencies, per-round walls (plain, traced) and the
    outputs of every round. With a tracer, odd rounds run traced.
    """
    latencies, plain_walls, traced_walls, outputs = [], [], [], []
    start = time.perf_counter()
    n_round = 0
    while True:
        traced = tracer is not None and n_round % 2 == 1
        ctx = tracer.installed(modules) if traced else contextlib.nullcontext()
        results = []
        with ctx:
            if traced:
                tracer.round = len(traced_walls)
            r0 = time.perf_counter()
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = i
                t = time.perf_counter()
                res = call(op.argv)
                latencies.append(time.perf_counter() - t)
                results.append(res)
            wall = time.perf_counter() - r0
        (traced_walls if traced else plain_walls).append(wall)
        outputs.append(results)
        n_round += 1
        enough_rounds = tracer is None or len(traced_walls) >= 2
        if (time.perf_counter() - start >= seconds and len(latencies) >= min_ops
                and enough_rounds):
            return latencies, plain_walls, traced_walls, outputs


def round_digest(outputs) -> tuple[str, list[int]]:
    """Digest of round 0 (timestamps aside), and the ops of later rounds
    that did not repeat it."""
    first = [(rc, _STAMP.sub("", text), err) for rc, text, err in outputs[0]]
    differ = sorted({
        i for rnd in outputs[1:] for i, (rc, text, err) in enumerate(rnd)
        if (rc, _STAMP.sub("", text), err) != first[i]
    })
    return hashlib.sha256(json.dumps(first).encode()).hexdigest(), differ


def check_outputs(cli, call, ops, outputs, workload: str) -> list[str]:
    """Check every output of round 0 against the benchmark's references."""
    import checks

    def call_records(argv):
        rc, text, _ = call(argv)
        return rc, _records(text)

    checker = checks.Checker(call_records)
    problems = []
    for op, (rc, text, err) in zip(ops, outputs[0]):
        try:
            bad = checker.check(op, rc, _records(text), err)
        except (KeyError, TypeError, ValueError) as e:
            bad = [f"malformed output: {type(e).__name__}: {e}"]
        problems += [f"{' '.join(op.argv)}: {b}" for b in bad]
    if workload == "field_ensemble":
        problems += _check_ensemble(cli, call, ops, outputs)
    return problems


def _check_ensemble(cli, call, ops, outputs) -> list[str]:
    """Untimed: each simulate once more to read its ensemble mean, and the
    first one again with two workers, which must give the same bytes."""
    import checks

    problems = []
    captured = []
    orig = cli.simulate_phase_variance

    def capture(*args, **kwargs):
        captured.append(orig(*args, **kwargs))
        return captured[-1]

    cli.simulate_phase_variance = capture
    try:
        for i, op in enumerate(ops):
            rc, text, _ = call(op.argv)
            if _STAMP.sub("", text) != _STAMP.sub("", outputs[0][i][1]):
                problems.append(f"{' '.join(op.argv)}: repeat call differs")
            problems += [f"{' '.join(op.argv)}: {b}"
                         for b in checks.check_ensemble_mean(captured[-1])]
    finally:
        cli.simulate_phase_variance = orig
    argv = list(ops[0].argv)
    argv[argv.index("--workers") + 1] = "2"
    _, text2, _ = call(argv)
    if _STAMP.sub("", text2) != _STAMP.sub("", outputs[0][0][1]):
        problems.append(f"{' '.join(argv)}: output differs between 1 and 2 workers")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    import workloads

    modules = _import_program()
    cli = modules["gravphase.cli"]
    call = _runner(cli)
    rc, _, err = call(workloads.WARMUP[args.workload])
    if rc != 0:
        print(f"warm-up failed with exit {rc}: {err}", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - args.t0

    ops = workloads.BUILDERS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    latencies, plain, traced, outputs = timed_phase(
        call, ops, args.seconds, args.min_ops, tracer, modules)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest, differ = round_digest(outputs)
    problems = [f"{' '.join(ops[i].argv)}: a later round differs from round 0"
                for i in differ]
    if args.check:
        t_checks = time.perf_counter()
        problems += check_outputs(cli, call, ops, outputs, args.workload)
        print(f"{args.workload}: {len(outputs)} rounds of {len(ops)} operations; "
              f"checks took {time.perf_counter() - t_checks:.1f} s", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    result = {
        "problems": len(problems),
        "digest": digest,
        "failed": sum(1 for rnd in outputs for rc, _, _ in rnd if rc != 0),
        "latencies": latencies,
        "walls": plain,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        from tracing import layer_metrics

        peak_tracer = Tracer(measure_peak=True)
        with peak_tracer.installed(modules):
            for op in ops:
                if op.kind == "simulate":
                    call(op.argv)
        result["layers"] = layer_metrics(tracer, traced, plain, peak_tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
