"""Command-line surface with machine-readable output.

Every command returns its inputs, its results and its table, and `main`
prints them as one OutputRecord (JSON by default) or as the table (CSV with
--format csv).  `_json` writes the record, and `experiment`'s --out file,
with the bytes of `json.dumps(value, indent=2)`, but raises ValueError on a
NaN or an infinity rather than print a token that is not JSON.  Exit codes:
0 ok, 2 parse or domain error, 3 precision exhausted, 4 verification
mismatch.  Floats carry 15 significant digits; exact rationals are printed
as "p/q".
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import natural_extension as next_mod
from .cf import cf_expand, convergents, reduce_theta
from .errors import (
    AmbiguousComparison,
    HermiteLabError,
    InvalidArgument,
    OrbitTerminates,
    PrecisionExceedsInput,
    TailUnavailable,
    VerificationMismatch,
)
from .hermite import flags_via_criterion, flags_via_envelope, hermite_subsequence
from .lattice import complete_sequence
from .numeric import parse_real, spec_text
from .stats import ExperimentConfig, run_experiment

SCHEMA_VERSION = "1.0"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_VERIFY = 4

_PARSE_ERRORS = HermiteLabError
_PRECISION_ERRORS = (AmbiguousComparison, PrecisionExceedsInput, TailUnavailable)

ERROR_LINE_MAX = 200  # characters of an error line, its newline not counted

# expand and flags print every convergent, so their output grows as n**2 on a
# quadratic irrational: 43 MB at n = 10,000, and a larger --n exits 2
_N_MAX = 10_000


def _error_line(message) -> str:
    """`error: <message>` and a newline, cut to ERROR_LINE_MAX characters."""
    line = f"error: {message}"
    if len(line) > ERROR_LINE_MAX:
        line = line[: ERROR_LINE_MAX - 3] + "..."
    return line + "\n"


def _f15(x: float) -> float:
    return float(f"{x:.15g}")


def _num(value: Fraction) -> str:
    """An exact orbit coordinate as 'p/q'."""
    return f"{value.numerator}/{value.denominator}"


def _float_json(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# the C-level text of each JSON scalar, by exact type: a bool is not an int here
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value, indent: str = "\n") -> str:
    """The bytes of `json.dumps(value, indent=2)`, without its Python encoder.

    With an indent, `json.dumps` runs the pure-Python encoder, one generator
    step per token; here each dict and list (or tuple) is one `str.join` of
    its items, and a scalar item is formatted inline, in no frame of its
    own.  Dict keys must be `str`.  A NaN or an infinity raises ValueError,
    and any other type TypeError.
    """
    get = _SCALARS.get
    if scalar := get(type(value)):
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {s(v) if (s := get(type(v))) else _json(v, inner)}"
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [s(v) if (s := get(type(v))) else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_csv(handle, header, rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands: each returns (inputs, results, (header, rows)).  Only --format
# csv reads the rows, so a command builds them lazily unless it also writes
# them to a file.


def _check_n(n: int) -> None:
    if n > _N_MAX:
        raise InvalidArgument(f"--n is at most {_N_MAX} for expand and flags")


def _cmd_expand(args):
    _check_n(args.n)
    theta = parse_real(args.theta)
    sign, x0, nearest = reduce_theta(theta)
    pq = cf_expand(x0, args.n, strict=True)
    conv = convergents(pq)
    results = {
        "sign": sign,
        "nearest": nearest,
        "x0": spec_text(x0),
        "quotients": list(pq.quotients),
        "terminated": pq.terminated,
        "convergents": [{"index": c.index, "p": c.p, "q": c.q} for c in conv],
    }
    rows = (
        [c.index, pq.quotients[c.index - 1] if c.index >= 1 else "", c.p, c.q] for c in conv
    )
    return {"theta": args.theta, "n": args.n}, results, (["index", "quotient", "p", "q"], rows)


def _cmd_flags(args):
    _check_n(args.n)
    theta = parse_real(args.theta)
    flags = flags_via_criterion(theta, args.n)
    seq = complete_sequence(theta, max(args.n - 1, 2))
    sub = hermite_subsequence(flags, seq)
    results = {
        "method": flags.method,
        "flags": list(flags.flags),
        "vectors": [
            {"index": v.index, "p": v.p, "q": v.q} for v in seq[: len(flags.flags)]
        ],
        "hermite_h": [v.q for v in sub],
    }
    if args.verify:
        if len(seq) < 3:  # a rational has 3 or more: a decimal's precision stopped here
            raise AmbiguousComparison("declared precision certifies fewer than 3 minimal vectors")
        oracle = flags_via_envelope(seq)
        for k in range(min(len(flags.flags), len(oracle.flags))):
            a, b = flags.flags[k], oracle.flags[k]
            if a is not None and b is not None and a != b:
                raise VerificationMismatch(
                    f"criterion and envelope disagree at index {k}: {a} vs {b}"
                )
        results["verified"] = True
    rows = (
        [k, "" if f is None else str(f).lower(), seq[k].p, seq[k].q]
        for k, f in enumerate(flags.flags)
    )
    inputs = {"theta": args.theta, "n": args.n, "verify": args.verify}
    return inputs, results, (["index", "flag", "p", "q"], rows)


def _cmd_orbit(args):
    try:
        x, y = Fraction(args.x), Fraction(args.y)
    except ZeroDivisionError:
        raise InvalidArgument("orbit coordinates need a non-zero denominator") from None
    except ValueError as exc:
        raise InvalidArgument(str(exc)) from None
    terminated_at = None
    try:
        points = next_mod.orbit(next_mod.DomainPoint(x, y), args.n)
    except OrbitTerminates as stop:
        points = stop.points
        terminated_at = stop.step
    results = {
        "points": [
            {"step": k, "x": _num(p.x), "y": _num(p.y)} for k, p in enumerate(points)
        ],
        "terminated_at": terminated_at,
    }
    rows = (point.values() for point in results["points"])
    return {"x": args.x, "y": args.y, "n": args.n}, results, (["step", "x", "y"], rows)


def _cmd_measure(args):
    value = next_mod.mu_measure_V(args.tol)
    results = {
        "mu_V": _f15(value),
        "complement": _f15(1.0 - value),
        "abs_tol": args.tol,
    }
    return {"tol": args.tol}, results, (list(results), [results.values()])


def _cmd_experiment(args):
    cfg = ExperimentConfig(
        sample_count=args.samples,
        depth_n=args.depth,
        seed=args.seed,
        precision_bits=args.precision_bits,
        workers=args.workers,
    )
    out_json = Path(args.out)
    try:
        if not out_json.parent.is_dir():
            raise InvalidArgument(f"output directory does not exist: {out_json.parent}")
        if out_json.is_dir():  # checked first: '/' and '.' have no suffix to replace
            raise InvalidArgument(f"output path is a directory: {out_json}")
        if out_json.suffix.lower() == ".csv":  # the table would overwrite the record
            raise InvalidArgument(f"output path ends in .csv, the CSV table's path: {out_json}")
        out_csv = out_json.with_suffix(".csv")
        if out_csv.is_dir():
            raise InvalidArgument(f"output path is a directory: {out_csv}")
    except OSError as exc:  # a file name too long, say
        raise InvalidArgument(f"cannot write output: {exc}") from None
    report = run_experiment(cfg)
    payload = report.as_dict()
    for summary in payload["statistics"].values():
        for key, value in summary.items():
            summary[key] = _f15(value)
    for row in payload["per_theta"]:
        for key in ("proportion", "levy_rate", "hermite_growth"):
            if row[key] is not None:
                row[key] = _f15(row[key])
    columns = list(payload["per_theta"][0])
    rows = [list(row.values()) for row in payload["per_theta"]]  # read by the file and by CSV
    try:
        out_json.write_text(_json(payload) + "\n")
        with out_csv.open("w", newline="") as handle:
            _write_csv(handle, columns, rows)
    except OSError as exc:
        raise InvalidArgument(f"cannot write output: {exc}") from None
    results = dict(payload)
    del results["per_theta"]
    results["out_json"] = str(out_json)
    results["out_csv"] = str(out_csv)
    inputs = {"samples": args.samples, "depth": args.depth, "seed": args.seed, "out": str(out_json)}
    return inputs, results, (columns, rows)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments with the one line `error: <message>`, exit 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, _error_line(message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on `main`'s first call.

    A build costs more than most commands, so a process that calls `main`
    more than once (the tests, the benchmark harness, a script driving the
    CLI in process) builds it once and reuses it.  A `hermite-lab` process
    calls `main` once, so it builds the parser once as it always did.
    Reuse is safe: a parse keeps no state on the parser and makes a fresh
    namespace, the `_cmd_*` functions look up the library's functions when
    they run, and argparse writes help and errors to `sys.stdout` and
    `sys.stderr` as they are at call time.
    """
    parser = _Parser(
        prog="hermite-lab",
        description="Minimal vectors, Hermite best approximations, Gauss-map statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("expand", help="continued fraction of the reduced input")
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("flags", help="Hermite flags per minimal vector")
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check with the envelope oracle")
    add_format(p)
    p.set_defaults(func=_cmd_flags)

    p = sub.add_parser("orbit", help="iterate the two-dimensional Gauss-map extension")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("measure", help="quadrature of the skip-region measure")
    p.add_argument("--tol", type=float, default=1e-8)
    add_format(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("experiment", help="sampled verification of the limit constants")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    add_format(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # CPython 3.10.7+ caps int/str conversions at 4,300 digits (0: no cap, as
    # before 3.10.7); the cap is lifted while the command runs, then restored
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        inputs, results, (header, rows) = args.func(args)
        if args.format == "csv":
            _write_csv(sys.stdout, header, rows)
        else:
            record = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "inputs": inputs,
                "results": results,
            }
            print(_json(record))
        return EXIT_OK
    except VerificationMismatch as exc:
        sys.stderr.write(_error_line(exc))
        return EXIT_VERIFY
    except _PRECISION_ERRORS as exc:
        sys.stderr.write(_error_line(exc))
        return EXIT_PRECISION
    except _PARSE_ERRORS as exc:
        sys.stderr.write(_error_line(exc))
        return EXIT_PARSE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
