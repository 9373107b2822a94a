"""scripts/cold_start_pairs.py: the report, and one tiny paired run."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_report_has_quartiles_per_side_and_the_ratio_of_medians(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import cold_start_pairs

    change = [(0.090, 0.080), (0.100, 0.070), (0.110, 0.090)]
    parent = [(0.200, 0.100)]
    lines = cold_start_pairs.report(["change", "parent"], [change, parent])
    assert lines[0] == "side wall_q1 wall_median wall_q3 cpu_q1 cpu_median cpu_q3 (ms)"
    assert lines[1] == "change 95.0 100.0 105.0 75.0 80.0 85.0"
    assert lines[2] == "parent 200.0 200.0 200.0 100.0 100.0 100.0"
    assert lines[3] == "change/parent median wall 0.500, cpu 0.800"


def test_tiny_paired_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import cold_start_pairs

    assert cold_start_pairs.main(["--side", f"a={ROOT}", "--side", f"b={ROOT}", "--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["side", "a", "b", "a/b"]
    assert all(float(v) > 0 for v in lines[1].split()[1:])
