"""The summary that scripts/bench_pairs.py writes for a set of run pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(seed, ops, attempted, failed, correct=True):
    return {"seed": seed, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": {"ops_per_s": ops}}


def test_summarize_reports_medians_wins_failed_share_and_incorrect_runs():
    pairs = [{"first": "parent", "parent": _run(1, 10.0, 100, 1),
              "change": _run(1, 12.0, 100, 0)},
             {"first": "change", "parent": _run(2, 11.0, 50, 0),
              "change": _run(2, 10.0, 50, 5, correct=False)},
             {"first": "parent", "parent": _run(3, 9.0, 50, 1, correct=False),
              "change": _run(3, 9.0, 50, 0)}]
    spec = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
    summary = bench_pairs.summarize(pairs, [spec])
    assert summary["failed_frac"] == {"parent": 2 / 200, "change": 5 / 200}
    assert summary["incorrect_runs"] == {"parent": [3], "change": [2]}
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert ops["change"]["median"] == 10.0
    assert ops["change_won_frac"] == pytest.approx(1 / 3)  # the tie counts for neither
    assert (ops["unit"], ops["better"], ops["bound"]) == ("1/s", "higher", 0.2)
