"""scripts/bench_rows.py: aggregation of canned perfbench/run.py output."""

from __future__ import annotations

import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _stdout(sha: str, attempted: int, failed: int, p75: float, rss: float) -> str:
    provenance = {"nproc": 2, "cpu": "Test CPU", "python": "3.11.7", "git_sha": sha}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "op_ms_p75": {"value": p75, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return "\n".join([
        "provenance: " + json.dumps(provenance),
        "workload exact_crosscheck: 300 ops timed in 35.00 CPU s",
        f"op_ms_p75            {p75:12.4f}  ms",
        json.dumps(result),
    ]) + "\n"


def test_rows_hold_per_seed_values_medians_and_quartiles(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_rows

    runs = [
        {"side": "parent", "workload": "exact_crosscheck", "seed": 401,
         "stdout": _stdout("aaa", 100, 0, 14.0, 25.0)},
        {"side": "change", "workload": "exact_crosscheck", "seed": 401,
         "stdout": _stdout("bbb", 300, 1, 4.0, 26.0)},
        {"side": "change", "workload": "exact_crosscheck", "seed": 402,
         "stdout": _stdout("bbb", 310, 0, 2.0, 26.0)},
        {"side": "parent", "workload": "exact_crosscheck", "seed": 402,
         "stdout": _stdout("aaa", 90, 0, 12.0, 25.0)},
        {"side": "change", "workload": "exact_crosscheck", "seed": 403,
         "stdout": _stdout("bbb", 290, 0, 1.0, 26.0)},
        {"side": "change", "workload": "cli_mixed", "seed": 401,
         "stdout": _stdout("bbb", 50, 0, 3.0, 30.0)},
    ]
    rows = bench_rows.aggregate(runs)
    assert set(rows) == {"parent", "change"}
    assert rows["change"]["provenance"] == [bench_rows.parse_run(runs[1]["stdout"])[0]]
    cross = rows["change"]["workloads"]["exact_crosscheck"]
    assert (cross["attempted"], cross["failed"]) == (900, 1)
    p75 = cross["metrics"]["op_ms_p75"]
    assert p75["unit"] == "ms"
    assert p75["per_seed"] == {"401": 4.0, "402": 2.0, "403": 1.0}
    assert (p75["median"], p75["q1"], p75["q3"]) == (2.0, 1.5, 3.0)
    parent = rows["parent"]["workloads"]["exact_crosscheck"]["metrics"]["op_ms_p75"]
    assert (parent["median"], parent["q1"], parent["q3"]) == (13.0, 12.5, 13.5)
    single = rows["change"]["workloads"]["cli_mixed"]["metrics"]["peak_rss_mb"]
    assert (single["median"], single["q1"], single["q3"]) == (30.0, 30.0, 30.0)


def test_parse_run_reads_the_provenance_and_last_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_rows

    provenance, result = bench_rows.parse_run(_stdout("ccc", 10, 2, 5.0, 20.0))
    assert provenance["git_sha"] == "ccc"
    assert (result["attempted"], result["failed"]) == (10, 2)
    assert result["metrics"]["op_ms_p75"]["value"] == 5.0


def test_has_changes_reads_porcelain_status(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_rows

    assert not bench_rows.has_changes("")
    assert not bench_rows.has_changes("\n")
    assert bench_rows.has_changes(" M src/hermite_lab/cf.py\n")
    assert bench_rows.has_changes("?? src/hermite_lab/new.py\n")
    assert bench_rows.has_changes("M  src/a.py\nD  src/b.py\n")


def test_table_prints_the_change_medians_of_each_file(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_rows

    def record(label, medians):
        workloads = {
            workload: {"metrics": {
                name: {"unit": "ms", "median": value} for name, value in metrics.items()
            }}
            for workload, metrics in medians.items()
        }
        parent = {"workloads": {"deep_decimal": {"metrics": {"op_ms_p50": {"median": 99.0}}}}}
        return {"label": label, "rows": {"parent": parent, "change": {"workloads": workloads}}}

    first = record("first", {
        "deep_decimal": {"op_ms_p50": 12.394, "op_ms_p75": 13.0},
        "exact_crosscheck": {"op_ms_p50": 0.4},
        "cli_mixed": {"op_ms_p50": 0.4051, "op_ms_p75": 0.6149},
    })
    second = record("second", {"deep_decimal": {"op_ms_p50": 11.2}})
    paths = []
    for rec in (first, second):
        path = tmp_path / f"BENCH_{rec['label']}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    assert bench_rows.main(["--table", *paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| BENCH file | `deep_decimal` | `exact_crosscheck` | `cli_mixed` p50 / p75 |",
        "|---|---|---|---|",
        "| `first` | 12.39 | 0.4000 | 0.4051 / 0.6149 |",
        "| `second` | 11.20 | - | - / - |",
    ]
