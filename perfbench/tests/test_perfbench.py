"""The benchmark's own tests: smoke runs and the checks' power to reject.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import worker
import workloads
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def program():
    modules = worker._import_program()
    return modules, worker._runner(modules["gravphase.cli"])


def _records_call(call):
    def call_records(argv):
        rc, text, _ = call(argv)
        return rc, json.loads(text) if text else None

    return call_records


# -- workloads ----------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_the_mix(name):
    a, b = workloads.BUILDERS[name](1), workloads.BUILDERS[name](2)
    assert workloads.BUILDERS[name](1) == a
    assert Counter(op.kind for op in a) == Counter(op.kind for op in b)
    assert sorted(op.argv for op in a) != sorted(op.argv for op in b)
    assert sorted(op.argv for op in a if op.fault) == sorted(op.argv for op in b if op.fault)


def test_scalar_sweep_stays_clear_of_the_fault():
    """Seeded sweeps keep every row's coupling above the micro floor."""
    for seed in range(50):
        for op in workloads.scalar_sweep(seed):
            if op.fault or op.argv[0] != "sweep":
                continue
            p = checks._args(op.argv)
            if p["param"] == "separation":
                mus = [checks.coupling(p["mass"], p["width"])]
            elif p["param"] == "mass":
                mus = [checks.coupling(p[k], p["width"]) for k in ("start", "stop")]
            else:
                mus = [checks.coupling(p["mass"], p[k]) for k in ("start", "stop")]
            assert min(mus) >= 0.99 * workloads.REGIMES["micro"][0]


# -- smoke runs ---------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_passes_every_check(program, name):
    modules, call = program
    ops = workloads.BUILDERS[name](7)
    latencies, plain, traced, outputs = worker.timed_phase(call, ops, 0.0, 1)
    assert len(outputs) == 1 and len(latencies) == len(ops) and not traced
    assert worker.check_outputs(modules["gravphase.cli"], call, ops, outputs, name) == []
    failed = [op for op, (rc, _, _) in zip(ops, outputs[0]) if rc != 0]
    assert failed == [op for op in ops if op.fault]


def test_a_round_that_differs_is_caught(program):
    _, call = program
    ops = workloads.verification(2)[:2]
    _, _, _, outputs = worker.timed_phase(call, ops, 0.0, 2 * len(ops))
    digest, differ = worker.round_digest(outputs)
    assert len(outputs) == 2 and differ == []
    rc, text, err = outputs[1][1]
    outputs[1][1] = (rc, text.replace("e-", "e+", 1), err)
    assert worker.round_digest(outputs) == (digest, [1])


def test_traced_rounds_report_every_layer_metric(program):
    modules, call = program
    ops = workloads.scalar_sweep(3)
    tracer = Tracer()
    _, plain, traced, _ = worker.timed_phase(call, ops, 0.0, 1, tracer, modules)
    assert len(traced) >= 2
    metrics = layer_metrics(tracer, traced, plain, Tracer())
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.span_coverage_pct"] >= 90.0
    assert metrics["criteria.bracket_errors"] == len(workloads.FAULT_ARGVS)
    assert metrics["criteria.critical_length_calls"] > 0
    # the wrappers are gone once tracing stops
    assert modules["gravphase.cli"].run.__name__ == "run"


def test_run_prints_the_result_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_sweep", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= run.MIN_OPS
    n_ops = len(workloads.scalar_sweep(5))
    assert res["failed"] * n_ops == res["attempted"] * len(workloads.FAULT_ARGVS)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- every check rejects a perturbed output -------------------------------------

SI = ("--mass", "1e-14", "--width", "1e-7", "--separation", "1e-6")


def _set(field, fn, row=0):
    def mutate(recs):
        recs[row][field] = fn(recs[row])
    return mutate


def _drop_last(recs):
    recs.pop()


PERTURBED = [
    (("variance", "--mu", "2", "--rho", "1.5", "--tau-max", "4"),
     _set("total", lambda r: r["total"] * (1 + 1e-6))),
    (("variance", "--mu", "2", "--rho", "0.2", "--tau-max", "4"),
     _set("total", lambda r: r["total"] * (1 + 1e-6))),
    (("variance", "--mu", "2", "--rho", "1.5", "--tau-max", "4"),
     _set("i8", lambda r: r["i7"] * 1.01)),
    (("variance", "--mu", "2", "--rho", "1.5", "--tau-max", "4"),
     _set("i7", lambda r: r["i7"] * (1 + 1e-9))),
    (("criteria", *SI, "--density", "2200"),
     _set("critical_length", lambda r: r["critical_length"] * 1.001)),
    (("criteria", *SI, "--density", "2200"),
     _set("damping_time", lambda r: r["damping_time"] * 1.001)),
    (("criteria", *SI, "--density", "2200"),
     _set("damping_time_short", lambda r: r["damping_time_short"] * (1 + 1e-9))),
    (("criteria", *SI, "--density", "2200"),
     _set("critical_mass", lambda r: r["critical_mass"] * 1.001)),
    (("criteria", *SI, "--density", "2200"),
     _set("regime", lambda r: "Quantum" if r["regime"] != "Quantum" else "Classical")),
    (("criteria", *SI, "--density", "2200"),
     _set("critical_length_asymptote", lambda r: r["critical_length_asymptote"] * 1.001)),
    (("sweep", "--param", "separation", "--start", "1e-7", "--stop", "1e-6", "--num", "3",
      "--mass", "1e-16", "--width", "1e-7"),
     _set("critical_length", lambda r: r["critical_length"] * 1.001, row=2)),
    (("sweep", "--param", "mass", "--start", "1e-16", "--stop", "1e-15", "--num", "3",
      "--width", "1e-7", "--separation", "3e-7"),
     _set("damping_time", lambda r: r["damping_time"] * 1.001, row=1)),
    (("sweep", "--param", "width", "--start", "1e-8", "--stop", "1e-7", "--num", "3",
      "--mass", "1e-16"),
     _set("width", lambda r: r["width"] * 1.001, row=1)),
    (("sweep", "--param", "width", "--start", "1e-8", "--stop", "1e-7", "--num", "3",
      "--mass", "1e-16"),
     _drop_last),
    (("oracle", "--samples", "20000", "--seed", "3", "--workers", "1"),
     _set("value", lambda r: r["value"] + 4 * r["standard_error"], row=1)),
    (("oracle", "--samples", "20000", "--seed", "3", "--workers", "1"),
     _set("value", lambda r: r["value"] + 4 * r["standard_error"], row=0)),
    (("oracle", "--samples", "20000", "--seed", "3", "--workers", "1"),
     _set("target", lambda r: r["target"] * 1.001, row=5)),
    (("oracle", "--samples", "20000", "--seed", "3", "--workers", "1"),
     _set("residual", lambda r: 1e-9, row=8)),
    (("covariance", "--grid-n", "32", "--box", "1", "--realizations", "100",
      "--separations", "0.125,0.25", "--seed", "4"),
     _set("estimate", lambda r: r["target"] + 1.5 * max(0.05 * r["target"],
                                                         3 * r["standard_error"]))),
    (("covariance", "--grid-n", "32", "--box", "1", "--realizations", "100",
      "--separations", "0.125,0.25", "--seed", "4"),
     _set("target", lambda r: r["target"] * 1.01, row=1)),
    (("simulate", "--mass", "5.5e-18", "--width", "1e-6", "--separation", "1e-6",
      "--horizon", "2000", "--grid-n", "32", "--steps", "1", "--members", "64",
      "--seed", "43", "--workers", "1"),
     _set("variance", lambda r: r["analytic_total"] + 4 * r["standard_error_of_variance"])),
    (("simulate", "--mass", "5.5e-18", "--width", "1e-6", "--separation", "1e-6",
      "--horizon", "2000", "--grid-n", "32", "--steps", "1", "--members", "64",
      "--seed", "43", "--workers", "1"),
     _set("analytic_total", lambda r: r["analytic_total"] * (1 + 1e-6))),
]


@pytest.mark.parametrize("argv, mutate", PERTURBED,
                         ids=[f"{i}-{a[0]}" for i, (a, _) in enumerate(PERTURBED)])
def test_check_rejects_perturbed_output(program, argv, mutate):
    _, call = program
    checker = checks.Checker(_records_call(call))
    op = workloads.Op("test", argv)
    rc, text, err = call(argv)
    assert checker.check(op, rc, json.loads(text), err) == []
    recs = json.loads(text)
    mutate(recs)
    assert checker.check(op, rc, recs, err) != []


def test_property_checks_reject_a_wrong_program(program):
    _, call = program
    argv = ("variance", "--mu", "2", "--rho", "1.5", "--tau-max", "4")
    rc, text, err = call(argv)
    frozen = json.loads(text)
    # a program whose total ignores mu, rho and tau fails all three properties
    checker = checks.Checker(lambda a: (0, frozen))
    bad = checker.check(workloads.Op("test", argv), rc, json.loads(text), err)
    assert any("linear" in b for b in bad)
    assert any("tau" in b for b in bad)
    assert any("rho" in b for b in bad)


def test_fault_is_failed_not_wrong(program):
    _, call = program
    argv = workloads.FAULT_ARGVS[0]
    rc, text, err = call(argv)
    assert rc == 3
    checker = checks.Checker(_records_call(call))
    assert checker.check(workloads.Op("f", argv, fault=True), rc, None, err) == []
    assert checker.check(workloads.Op("f", argv, fault=False), rc, None, err) != []


def test_ensemble_mean_check():
    class Stats:
        n_members, variance = 64, 1.0
        mean = 0.0

    assert checks.check_ensemble_mean(Stats) == []
    Stats.mean = 4.1 * math.sqrt(1.0 / 64)
    assert checks.check_ensemble_mean(Stats) != []
