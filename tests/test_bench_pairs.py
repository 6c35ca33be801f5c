"""The summary that scripts/bench_pairs.py writes for a set of run pairs."""

import importlib.util
import json
import sys
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


def test_layers_summarize_one_traced_run_per_side_beside_the_untraced_gate(
        tmp_path, monkeypatch):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    seen = []

    def fake_run(tree, command, workload, seed, seconds, trace=0):
        side = tree.name
        seen.append((seed, side, trace))
        value = {"parent": 1.0, "change": 0.25}[side] * seed
        metrics = {m["name"]: value for m in bench["per_layer" if trace else "end_to_end"]}
        if trace:
            metrics["trace.covered_frac"] = 0.95
        rusage = {"minor_faults": int(1000 * value), "user_s": value, "sys_s": value / 10}
        return {"seed": seed, "correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics, "rusage": rusage}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: b"")
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "kernel_sections",
                             "--seeds", "1", "2", "--out", str(out)]) == 0
    # per pair: both untraced runs in the alternating order, then both traced
    assert seen == [(1, "parent", 0), (1, "change", 0), (1, "parent", 1), (1, "change", 1),
                    (2, "change", 0), (2, "parent", 0), (2, "change", 1), (2, "parent", 1)]
    doc = json.loads(out.read_text())["workloads"]["kernel_sections"]
    assert set(doc["summary"]) == {"failed_frac", "incorrect_runs",
                                   *(m["name"] for m in bench["end_to_end"])}
    assert doc["summary"]["op_p50_ms"]["change_won_frac"] == 1.0
    assert set(doc["layers"]) == {"failed_frac", "incorrect_runs",
                                  *(m["name"] for m in bench["per_layer"])}
    layer = doc["layers"]["kernel.kernel_truncated.p50_ms"]
    assert layer["parent"]["median"] == 1.5 and layer["change"]["median"] == 0.375
    assert layer["change_won_frac"] == 1.0 and "bound" not in layer
    covered = doc["layers"]["trace.covered_frac"]
    assert covered["change"]["median"] == 0.95
    assert covered["change_won_frac"] == 0.0  # ties count for neither side
    assert doc["pairs"][0]["change"]["traced"]["metrics"]["trace.covered_frac"] == 0.95
    # rusage of the untraced runs only: seeds 1 and 2 give 1000 and 2000 faults
    process = doc["process"]
    assert set(process) == {"failed_frac", "incorrect_runs", "minor_faults",
                            "user_s", "sys_s"}
    assert process["minor_faults"]["parent"]["median"] == 1500
    assert process["minor_faults"]["change"]["median"] == 375
    assert process["sys_s"]["change_won_frac"] == 1.0


def test_run_once_reads_the_rusage_of_the_run(tmp_path):
    report = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"ops_per_s": {"value": 2.5}}}
    script = f"import json; print('noise'); print(json.dumps({report!r}))"
    run = bench_pairs.run_once(tmp_path, [sys.executable, "-c", script],
                               "laurent_norms", 7, 1)
    assert run["seed"] == 7 and run["metrics"] == {"ops_per_s": 2.5}
    assert set(run["rusage"]) == {"minor_faults", "user_s", "sys_s"}
    assert run["rusage"]["minor_faults"] > 0  # a fresh interpreter faults its pages in
    assert run["rusage"]["user_s"] + run["rusage"]["sys_s"] > 0
    with pytest.raises(RuntimeError, match="exited 3"):
        bench_pairs.run_once(tmp_path, [sys.executable, "-c", "raise SystemExit(3)"],
                             "laurent_norms", 7, 1)


@pytest.mark.parametrize("stash, change", [(b"c" * 40 + b"\n", "c" * 40), (b"", "HEAD")],
                         ids=["dirty", "clean"])
def test_both_sides_run_from_sibling_exports(tmp_path, monkeypatch, stash, change):
    """The change is the commit ``git stash create`` makes of the working
    tree, or HEAD when it makes none (a clean tree); each side runs in its
    own export, at paths of one length, and never in the checkout."""
    exported, trees = [], set()

    def fake_export(rev, dest):
        exported.append((rev, dest.name))
        return rev

    def fake_run(tree, command, workload, seed, seconds, trace=0):
        trees.add(tree)
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {}, "rusage": {}}

    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "summarize", lambda pairs, metrics: {})
    monkeypatch.setattr(bench_pairs, "_git",
                        lambda *args: stash if args == ("stash", "create") else b"")
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "laurent_norms",
                             "--seeds", "1", "2", "--out", str(out)]) == 0
    assert exported == [("HEAD", "parent"), (change, "change")]
    assert {tree.name for tree in trees} == {"parent", "change"}
    assert len({tree.parent for tree in trees}) == 1 and bench_pairs.ROOT not in trees
    doc = json.loads(out.read_text())
    assert (doc["parent"], doc["change"]) == ("HEAD", change)
