"""scripts/pairs.py's summary of alternating benchmark pairs, on synthetic records."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

SPECS = [{"name": "op_b.p50", "better": "lower", "bound": 0.15},
         {"name": "ops_per_s", "better": "higher", "bound": 0.15}]


def record(failed=0, **values):
    return {"attempted": 100, "failed": failed,
            "metrics": {name.replace("__", "."): {"value": v, "unit": "u"}
                        for name, v in values.items()}}


def run_pairs(parent_values, change_values, name="op_b__p50"):
    return [(record(**{name: p}), record(**{name: c}))
            for p, c in zip(parent_values, change_values)]


def test_a_clear_gain_in_the_better_direction_meets_the_rule():
    parent = [170, 168, 172, 169, 171, 170, 167, 173, 170, 169]
    change = [148, 147, 150, 149, 146, 148, 151, 147, 149, 171]  # loses the last pair
    (row,) = pairs.summarize(run_pairs(parent, change), SPECS[:1])
    assert (row["wins"], row["pairs"], row["gain_rule"], row["verdict"]) == (9, 10, True, "gain")
    assert row["parent"][1] == 170 and row["change"][1] == 148.5
    assert row["rel_change"] == pytest.approx(148.5 / 170 - 1)


def test_ties_count_for_neither_side_and_eight_wins_are_not_enough():
    parent = [100.0] * 10
    change = [90.0] * 8 + [100.0, 110.0]
    (row,) = pairs.summarize(run_pairs(parent, change), SPECS[:1])
    assert row["wins"] == 8 and not row["gain_rule"] and row["verdict"] == "ok"


def test_a_gap_inside_the_parents_iqr_is_no_gain():
    parent = [100, 80, 120, 90, 110, 100, 85, 115, 95, 105]
    change = [p - 3 for p in parent]  # wins every pair by less than the parent's spread
    (row,) = pairs.summarize(run_pairs(parent, change), SPECS[:1])
    assert row["wins"] == 10 and not row["gain_rule"]


def test_higher_is_better_reverses_wins_and_a_drop_past_the_bound_is_worse():
    parent = [5000.0 + i for i in range(10)]
    (row,) = pairs.summarize(run_pairs(parent, [p * 1.2 for p in parent], "ops_per_s"), SPECS[1:])
    assert row["wins"] == 10 and row["verdict"] == "gain"
    (row,) = pairs.summarize(run_pairs(parent, [p * 0.8 for p in parent], "ops_per_s"), SPECS[1:])
    assert row["wins"] == 0 and row["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [100, 60, 140, 70, 130, 100, 65, 135, 90, 110]
    change = [p + 1 for p in parent]
    (row,) = pairs.summarize(run_pairs(parent, change), SPECS[:1])
    assert row["verdict"] == "unresolved"


def test_failures_are_summed_per_side():
    assert pairs.failures([record(failed=2, op_b__p50=1.0), record(op_b__p50=1.0)]) == (2, 200)


def details(op_a, op_b, kernel):
    return {"context": {}, "samples": {}, "raw": {"op_a_us.p50": op_a, "op_b_us.p50": op_b,
                                                  "ops_per_s": 5000.0, "kernel_us": kernel,
                                                  "setup": {"setup_s": 0.1}}}


def test_raw_times_are_summarized_per_side_without_a_verdict():
    # the change's ref_us would read ~12% faster, but its raw op times match the parent's:
    # the calibration kernel read slower on its side, which the raw rows show
    parent = [details(480 + i, 200 + i, 75.0 + i) for i in range(5)]
    change = [details(481 + i, 201 + i, 85.0 + i) for i in range(5)]
    rows = pairs.summarize_raw(list(zip(parent, change)))
    assert [r["metric"] for r in rows] == ["raw.op_a_us.p50", "raw.op_b_us.p50", "raw.kernel_us"]
    assert all("verdict" not in r and "wins" not in r for r in rows)
    assert rows[0]["parent"] == (481, 482, 483) and rows[0]["change"] == (482, 483, 484)
    assert rows[2]["rel_change"] == pytest.approx(87 / 77 - 1)
    table = pairs.format_rows(rows).splitlines()
    assert len(table) == 4 and all(line.endswith("informational") for line in table[1:])

