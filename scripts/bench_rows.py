"""Collect perfbench end-to-end runs into one BENCH_<label>.json.

    python3 scripts/bench_rows.py --label NAME [--side change=.] [--side parent=../parent]
        [--workloads deep_decimal exact_crosscheck cli_mixed] [--seeds 401 402 403]
        [--seconds 35]
    python3 scripts/bench_rows.py --table BENCH_a.json BENCH_b.json ...

Each side is a checkout with its own `perfbench/run.py`.  For every workload
and seed the script runs `run.py --trace 0` once per side, alternating which
side runs first from one seed to the next, and keeps the JSON line and the
provenance line that `run.py` prints.  It writes `BENCH_<label>.json` in the
current directory: for each side, workload and metric the per-seed values,
their median and quartiles, the ops attempted and failed, and every distinct
provenance (machine, Python version, git SHA, source digest).  As `run.py`
reports the SHA of `HEAD` even for a tree with uncommitted changes, each side
also records `uncommitted_src`: whether `git status --porcelain -- src` lists
anything in it (null where the side is not a git checkout).

`--table` runs nothing: it prints a markdown table of the `change` side's
medians in the given files, one line per file, `op_ms_p50` of each workload
and, for `cli_mixed`, `op_ms_p75` beside it.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("deep_decimal", "exact_crosscheck", "cli_mixed")
PROVENANCE_PREFIX = "provenance: "


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(provenance, result) from the standard output of one `run.py` run."""
    lines = stdout.strip().splitlines()
    provenance = next(
        json.loads(line[len(PROVENANCE_PREFIX):])
        for line in lines
        if line.startswith(PROVENANCE_PREFIX)
    )
    return provenance, json.loads(lines[-1])


def has_changes(porcelain: str) -> bool:
    """Whether `git status --porcelain` output lists any path."""
    return any(line.strip() for line in porcelain.splitlines())


def uncommitted_src(path: Path) -> bool | None:
    """Whether the checkout at `path` has uncommitted changes under src/."""
    command = ["git", "-C", str(path), "status", "--porcelain", "--", "src"]
    status = subprocess.run(command, capture_output=True, text=True)
    return has_changes(status.stdout) if status.returncode == 0 else None


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def aggregate(runs: list[dict]) -> dict:
    """Rows per side from runs {"side", "workload", "seed", "stdout"}, in run order."""
    rows: dict = {}
    for run in runs:
        provenance, result = parse_run(run["stdout"])
        side = rows.setdefault(run["side"], {"provenance": [], "workloads": {}})
        if provenance not in side["provenance"]:
            side["provenance"].append(provenance)
        workload = side["workloads"].setdefault(
            run["workload"], {"attempted": 0, "failed": 0, "metrics": {}}
        )
        workload["attempted"] += result["attempted"]
        workload["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            row = workload["metrics"].setdefault(name, {"unit": metric["unit"], "per_seed": {}})
            row["per_seed"][str(run["seed"])] = metric["value"]
    for side in rows.values():
        for workload in side["workloads"].values():
            for row in workload["metrics"].values():
                row.update(summary(list(row["per_seed"].values())))
    return rows


def table(records: list[dict]) -> str:
    """Markdown table of the change medians of BENCH records, one line per record."""
    lines = [
        "| BENCH file | `deep_decimal` | `exact_crosscheck` | `cli_mixed` p50 / p75 |",
        "|---|---|---|---|",
    ]
    for record in records:
        workloads = record["rows"]["change"]["workloads"]
        cells = []
        for workload, names in (
            ("deep_decimal", ["op_ms_p50"]),
            ("exact_crosscheck", ["op_ms_p50"]),
            ("cli_mixed", ["op_ms_p50", "op_ms_p75"]),
        ):
            metrics = workloads.get(workload, {}).get("metrics", {})
            cells.append(" / ".join(
                f"{metrics[name]['median']:#.4g}" if name in metrics else "-" for name in names
            ))
        lines.append(f"| `{record['label']}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def run_side(path: Path, workload: str, seed: int, seconds: float) -> str:
    command = [
        sys.executable, str(path / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    return subprocess.run(command, capture_output=True, text=True, check=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--table", nargs="+", metavar="BENCH_JSON",
                        help="print the change medians of these files and run nothing")
    parser.add_argument("--side", action="append", metavar="NAME=PATH",
                        help="a checkout to run (default: change=.)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[401, 402, 403])
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    if args.table:
        print(table([json.loads(Path(path).read_text()) for path in args.table]))
        return 0
    if not args.label:
        parser.error("--label is required unless --table is given")
    sides = [entry.split("=", 1) for entry in args.side or ["change=."]]
    uncommitted = {name: uncommitted_src(Path(path).resolve()) for name, path in sides}
    runs = []
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            order = sides if k % 2 == 0 else sides[::-1]
            for name, path in order:
                print(f"{workload} seed {seed}: {name}", flush=True)
                stdout = run_side(Path(path).resolve(), workload, seed, args.seconds)
                runs.append({"side": name, "workload": workload, "seed": seed, "stdout": stdout})
    out = Path(f"BENCH_{args.label}.json")
    rows = aggregate(runs)
    for name, side in rows.items():
        side["uncommitted_src"] = uncommitted[name]
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}",
        "run_order": [[run["workload"], run["seed"], run["side"]] for run in runs],
        "rows": rows,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
