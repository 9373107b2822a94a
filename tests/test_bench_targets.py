"""The benchmark's traced run patches library functions by name; they must exist."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_patch_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    targets = traced._targets()
    assert targets
    for module, attribute, *_ in targets:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"
