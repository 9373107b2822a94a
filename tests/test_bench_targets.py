"""What the benchmark calls in the library: patch targets and the cross-check op."""

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


def test_cross_op_agrees_on_tiny_inputs(monkeypatch):
    # the benchmark's exact_crosscheck op and its gate, on its first inputs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inputs = workloads.build_cross(401, workloads.TINY)[:6]
    assert len(inputs) == 6
    for spec in inputs:
        # a GridTooCoarse raised here fails the test as well
        results = workloads.cross_op(spec, workloads.TINY.cross_depth)
        assert workloads.cross_mismatches(results) == 0
