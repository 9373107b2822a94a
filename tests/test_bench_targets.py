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


def test_traced_annotators_read_real_results(monkeypatch):
    # the traced run's span annotators, on real results of each input kind
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    from hermite_lab import cf, hermite, lattice, numeric

    kinds = {
        "3/8": "rational",
        "(1+1*sqrt(5))/2": "quadratic",
        "0.3183098861837906715377675267450287@96": "decimal",
    }
    for text, kind in kinds.items():
        spec = numeric.parse_real(text)
        scan = hermite.criterion_scan(spec, 12)
        flags, state = scan
        assert traced._scan_attrs(scan, (spec, 12)) == {
            "decided": flags.decided_count,
            "undecided": flags.undecided_count,
            "quotients": len(state.quotients),
        }
        x0 = cf.reduce_theta(spec)[1]
        pq = cf.cf_expand(x0, 12)
        assert traced._expand_attrs(pq, (x0, 12)) == {
            "kind": kind,
            "quotients": len(pq.quotients),
        }
        seq = lattice.complete_sequence(spec, 11)
        envelope = hermite.flags_via_envelope(seq)
        assert traced._flag_counts(envelope, (seq,)) == {
            "decided": envelope.decided_count,
            "undecided": envelope.undecided_count,
        }


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
