"""scripts/exhaustion_pairs.py: the input set, the report, and one tiny paired run."""

from __future__ import annotations

from pathlib import Path

from hermite_lab import DecimalSpec

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_decimals_are_long_windows_in_the_lower_half(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import exhaustion_pairs

    specs = exhaustion_pairs.decimals(3, 20)
    assert specs == exhaustion_pairs.decimals(3, 20)
    for spec in specs:
        assert isinstance(spec, DecimalSpec) and 400 <= spec.declared_bits <= 3000
        assert 0 < spec.window_lo < spec.window_hi <= 0.5


def test_report_has_one_line_per_seed_and_a_summary(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import exhaustion_pairs

    rows = [(1, [90.0, 100.0]), (2, [110.0, 100.0]), (3, [80.0, 100.0])]
    lines = exhaustion_pairs.report(["change", "parent"], rows)
    assert lines[0] == "seed change_ms parent_ms ratio"
    assert lines[1:4] == ["1 90.00 100.00 0.9000", "2 110.00 100.00 1.1000", "3 80.00 100.00 0.8000"]
    assert lines[4] == "median ratio 0.9000; change faster on 2 of 3"


def test_tiny_paired_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import exhaustion_pairs

    sides = ["--side", f"a={ROOT}", "--side", f"b={ROOT}"]
    assert exhaustion_pairs.main(sides + ["--seeds", "1", "--reps", "1", "--count", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed a_ms b_ms ratio" and lines[1].split()[0] == "1"
    assert lines[2].endswith("of 1")
