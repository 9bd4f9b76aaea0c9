"""The paired verdict of tools/bench_record.py, on hand-made perfbench results."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BOUND = 0.24
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _runs(values, failed=0, correct=True):
    """perfbench results, one a value, in the shape of the last line of a run."""
    return [{"attempted": 1000, "failed": failed, "correct": correct,
             "metrics": {"wall_s": {"unit": "s", "value": v}}} for v in values]


def _verdict(parent, change, better="lower", **change_kw):
    return bench_record.verdict(_runs(parent), _runs(change, **change_kw), "wall_s",
                                better, BOUND)


def test_gain_at_ten_wins_in_ten():
    v = _verdict(PARENT, [0.8 * x for x in PARENT])
    assert v["verdict"] == "gain"
    assert (v["wins"], v["losses"], v["ties"]) == (10, 0, 0)
    assert v["ratios"] == pytest.approx([0.8] * 10)
    assert v["parent"]["median"] == pytest.approx(1.045)
    assert v["parent"]["q1"] < v["parent"]["median"] < v["parent"]["q3"]


def test_no_gain_at_eight_wins_in_ten():
    change = [0.8 * x for x in PARENT[:8]] + [1.05 * x for x in PARENT[8:]]
    v = _verdict(PARENT, change)
    assert (v["wins"], v["losses"], v["ties"]) == (8, 2, 0)
    assert v["verdict"] == "no_regression"


def test_ties_count_for_neither_side():
    nine = _verdict(PARENT, [0.8 * x for x in PARENT[:9]] + PARENT[9:])
    assert (nine["wins"], nine["losses"], nine["ties"]) == (9, 0, 1)
    assert nine["verdict"] == "gain"
    eight = _verdict(PARENT, [0.8 * x for x in PARENT[:8]] + PARENT[8:])
    assert (eight["wins"], eight["losses"], eight["ties"]) == (8, 0, 2)
    assert eight["verdict"] == "no_regression"


def test_no_gain_when_the_medians_differ_by_less_than_the_parent_spread():
    v = _verdict(PARENT, [x - 0.005 for x in PARENT])
    assert v["wins"] == 10
    assert v["verdict"] == "no_regression"


def test_regression_past_the_bound():
    assert _verdict(PARENT, [1.3 * x for x in PARENT])["verdict"] == "regression"
    # worse, but within the bound
    assert _verdict(PARENT, [1.2 * x for x in PARENT])["verdict"] == "no_regression"


# relative quartile spread about 0.9, wider than the bound
WIDE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 2.0, 2.0, 2.0, 2.0]


def test_unresolved_when_the_parent_spread_is_wider_than_the_bound():
    v = _verdict(WIDE, list(WIDE))
    assert v["verdict"] == "unresolved"
    assert v["ties"] == 10


def test_every_change_run_better_than_every_parent_run_resolves_the_spread():
    # 10/10 wins, but the medians differ by less than the parent's spread
    assert _verdict(WIDE, [0.99] * 10)["verdict"] == "no_regression"
    # one change run that does not beat every parent run
    assert _verdict(WIDE, [0.99] * 9 + [1.5])["verdict"] == "unresolved"


def test_higher_is_better():
    higher = [1.25 * x for x in PARENT]
    assert _verdict(PARENT, higher, better="higher")["verdict"] == "gain"
    assert _verdict(PARENT, higher, better="lower")["verdict"] == "regression"
    lower = [0.7 * x for x in PARENT]
    assert _verdict(PARENT, lower, better="higher")["verdict"] == "regression"


def test_no_gain_when_the_change_fails_a_larger_share():
    faster = [0.8 * x for x in PARENT]
    v = _verdict(PARENT, faster, failed=5)
    assert v["change"]["failed_share"] > v["parent"]["failed_share"]
    assert v["verdict"] == "no_regression"


def test_no_gain_when_a_change_run_is_not_correct():
    assert _verdict(PARENT, [0.8 * x for x in PARENT], correct=False)["verdict"] == "no_regression"


def test_sides_flip_every_pair():
    parent, change = Path("p"), Path("c")
    assert bench_record._alternate(parent, change, 0) == [("parent", parent), ("change", change)]
    assert bench_record._alternate(parent, change, 1) == [("change", change), ("parent", parent)]


@pytest.mark.parametrize("argv", [
    ["--out", "x.json"],
    ["--parent", ".", "--out", "x.json", "--label", "change"],
    ["--parent", ".", "--out", "x.json", "--repo", "."],
])
def test_options_are_parent_and_out_only(argv):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2


def test_run_reports_the_child_cpu_time(tmp_path):
    busy = [sys.executable, "-c", "sum(i * i for i in range(3 * 10**6))"]
    proc, wall, cpu = bench_record._run(busy, tmp_path, timeout=60)
    assert proc.returncode == 0
    assert wall > 0 and cpu > 0
