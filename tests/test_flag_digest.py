"""scripts/flag_digest.py: one digest per input family, on a tiny size."""

from __future__ import annotations

import sys
from pathlib import Path

from helpers import ARGUMENT_REJECTIONS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_tiny_run_prints_one_digest_per_family(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() extends it
    import flag_digest

    assert flag_digest.main(["--tiny"]) == 0
    assert sys.get_int_max_str_digits() != 0  # lifted for the run only
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [
        "criterion5", "crosscheck", "decimals", "ties", "deep", "sequences", "expansions", "cli",
        "cli_csv",
    ]
    assert [name for name, _, _ in lines] == names
    for name, count, digest in lines:
        assert int(count) > 0 and len(digest) == 64 and int(digest, 16) >= 0, name
    # the same inputs hash the same again
    families = flag_digest.families(401, tiny=True)
    assert flag_digest.digest(families["ties"]) == lines[3][2]
    assert len(families["deep"]) == int(lines[4][1])
    sequences = flag_digest.digest(families["sequences"], flag_digest.sequence_record)
    assert sequences == lines[5][2]
    expansions = flag_digest.digest(families["expansions"], flag_digest.expansion_record)
    assert expansions == lines[6][2]
    assert len(families["cli"]) == int(lines[7][1]) == 20 + len(ARGUMENT_REJECTIONS) + 1  # --help
    assert flag_digest.digest(families["cli"], flag_digest.cli_record) == lines[7][2]
