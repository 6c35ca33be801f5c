"""The parity manifest of scripts/parity.py: its fast rows hold, and the
checker names a moved row and records it with ``--write``."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "scripts" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

FAST = [row for row in json.loads(parity.MANIFEST.read_text())["argvs"] if row.get("fast")]


def test_fast_rows_hold(capsys):
    """Each fast row, the quick ``verify --format json`` among them, gives
    the bytes the manifest records."""
    assert any(row["argv"] == ["verify", "--format", "json"] for row in FAST)
    moved = parity.check(FAST)
    assert moved == 0, capsys.readouterr().out


def test_checker_names_a_moved_row_and_write_records_it(tmp_path, monkeypatch, capsys):
    rows = [row for row in FAST if row["exit"] == 2][:2]
    tampered = dict(rows[0], stdout="0" * 64)
    copy = tmp_path / "PARITY.json"
    copy.write_text(parity.dumps({"argvs": [tampered, rows[1]], "answers": []}))
    monkeypatch.setattr(parity, "MANIFEST", copy)
    assert parity.main([]) == 1
    out = capsys.readouterr().out
    assert f"moved  {parity.label(tampered)}\n" in out
    assert f"stdout {'0' * 64} → {rows[0]['stdout']}\n" in out
    assert f"same   {parity.label(rows[1])}\n" in out
    assert out.endswith("1 of 2 rows moved\n")
    assert parity.main(["--write"]) == 0
    assert json.loads(copy.read_text()) == {"argvs": rows, "answers": []}
