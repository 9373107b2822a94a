"""Command-line surface: record shapes, schema validity, exit codes."""

from __future__ import annotations

import csv
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from helpers import ARGUMENT_REJECTIONS, random_json_value

from hermite_lab import cli, stats
from hermite_lab.numeric import int_of_digits

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "output.schema.json").read_text()
)


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run_cli(capsys, *argv)
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    return code, record


class TestExpand:
    def test_rational(self, capsys):
        code, record = run_json(capsys, "expand", "--theta", "3/8", "--n", "10")
        assert code == 0
        assert record["results"]["quotients"] == [2, 1, 2]
        assert record["results"]["terminated"] is True
        assert record["results"]["convergents"][-1] == {"index": 3, "p": 3, "q": 8}

    def test_quadratic(self, capsys):
        code, record = run_json(
            capsys, "expand", "--theta", "(-3+1*sqrt(21))/6", "--n", "6"
        )
        assert code == 0
        assert record["results"]["quotients"] == [3, 1, 3, 1, 3, 1]

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "expand", "--theta", "3/8", "--n", "10", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "quotient", "p", "q"]
        assert rows[-1] == ["3", "2", "3", "8"]

    def test_parse_error_exit_2(self, capsys):
        code, _ = run_cli(capsys, "expand", "--theta", "abc", "--n", "5")
        assert code == 2
        # an integer is named by its text, not by the repr of its spec
        code = cli.main(["expand", "--theta", "0.0@64", "--n", "5"])
        assert code == 2
        assert capsys.readouterr().err == "error: 0.0@64 is an integer\n"

    def test_uncertifiable_radicand_exit_2(self, capsys):
        code, out = run_cli(capsys, "expand", "--theta", "(1+1*sqrt(30001800027))/7", "--n", "5")
        assert code == 2 and out == ""

    def test_integer_exit_2(self, capsys):
        code, _ = run_cli(capsys, "expand", "--theta", "5", "--n", "5")
        assert code == 2

    def test_integers_past_the_digit_limit(self, capsys):
        # CPython 3.10.7+ caps int/str conversions at 4,300 digits; main lifts
        # the cap while a command runs and restores it for in-process callers
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        theta = "1/1" + "0" * 5000
        code, out = run_cli(capsys, "expand", "--theta", theta, "--n", "2")
        assert code == 0
        assert json.loads(out, parse_int=int_of_digits)["results"]["quotients"] == [10**5000]
        code, out = run_cli(capsys, "expand", "--theta", theta, "--n", "2", "--format", "csv")
        assert code == 0
        assert int_of_digits(list(csv.reader(io.StringIO(out)))[2][1]) == 10**5000
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    @pytest.mark.parametrize("theta", ["-22/7", "-0.123456789@64"])
    def test_negative_theta_needs_the_equals_form(self, capsys, theta):
        # argparse takes a '-'-led token that is not a plain number for an option
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--theta", theta, "--n", "3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == "error: argument --theta: expected one argument\n"
        code, record = run_json(capsys, "expand", f"--theta={theta}", "--n", "3")
        assert code == 0
        assert record["inputs"]["theta"] == theta and record["results"]["sign"] == -1

    def test_internal_value_error_not_masked(self, monkeypatch):
        # only the package's own errors are input errors (exit 2)
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "cf_expand", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["expand", "--theta", "3/8", "--n", "5"])

    def test_shallow_decimal_exit_3(self, capsys):
        code, _ = run_cli(
            capsys, "expand", "--theta", "0.3819660112501051517954131@64", "--n", "70"
        )
        assert code == 3


class TestFlags:
    def test_quadratic_fixture(self, capsys):
        code, record = run_json(
            capsys, "flags", "--theta", "(-3+1*sqrt(21))/6", "--n", "8"
        )
        assert code == 0
        assert record["results"]["flags"] == [
            True,
            True,
            False,
            True,
            False,
            True,
            False,
            True,
        ]
        assert record["results"]["hermite_h"] == [0, 1, 4, 19, 91]

    def test_verify_ok(self, capsys):
        for theta in ("(-3+1*sqrt(21))/6", "(1+1*sqrt(5))/2"):
            code, record = run_json(
                capsys, "flags", "--theta", theta, "--n", "10", "--verify"
            )
            assert code == 0
            assert record["results"]["verified"] is True

    @pytest.mark.parametrize("theta", ["0.1@64", "0.5@64"])
    def test_verify_under_certified_decimal_exit_3(self, capsys, theta):
        # the input parses; its declared precision certifies fewer than 3 vectors
        assert run_cli(capsys, "flags", "--theta", theta, "--n", "200")[0] == 0
        code = cli.main(["flags", "--theta", theta, "--n", "200", "--verify"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_verify_mismatch_exit_4(self, capsys, monkeypatch):
        from hermite_lab import HermiteFlags

        def broken_envelope(seq):
            flags = [True] * len(seq)
            flags[1] = False
            return HermiteFlags(seq[0].theta, tuple(flags), "envelope")

        monkeypatch.setattr(cli, "flags_via_envelope", broken_envelope)
        code, _ = run_cli(
            capsys, "flags", "--theta", "(1+1*sqrt(5))/2", "--n", "8", "--verify"
        )
        assert code == 4


class TestOrbit:
    def test_exact_step(self, capsys):
        code, record = run_json(capsys, "orbit", "--x", "2/5", "--y", "1/3", "--n", "1")
        assert code == 0
        assert record["results"]["points"][1] == {"step": 1, "x": "1/2", "y": "3/7"}

    def test_decimal_coordinates(self, capsys):
        code, record = run_json(
            capsys, "orbit", "--x", "0.4", "--y", "0.333333", "--n", "1"
        )
        assert code == 0
        point = record["results"]["points"][1]
        assert point["x"] == "1/2"

    def test_exponent_coordinates(self, capsys):
        code, record = run_json(capsys, "orbit", "--x", "1e-1", "--y", "1/3", "--n", "1")
        assert code == 0
        assert record["results"]["points"][0] == {"step": 0, "x": "1/10", "y": "1/3"}

    def test_termination_reported(self, capsys):
        code, record = run_json(capsys, "orbit", "--x", "3/8", "--y", "0", "--n", "3")
        assert code == 0
        assert record["results"]["terminated_at"] == 3
        assert len(record["results"]["points"]) == 4

    def test_domain_error_exit_2(self, capsys):
        code, _ = run_cli(capsys, "orbit", "--x", "0", "--y", "0.9", "--n", "1")
        assert code == 2


class TestMeasure:
    def test_value(self, capsys):
        code, record = run_json(capsys, "measure", "--tol", "1e-8")
        assert code == 0
        assert abs(record["results"]["mu_V"] - 0.20751875) <= 1e-7
        assert abs(record["results"]["complement"] - 0.79248125) <= 1e-7

    def test_fifteen_digit_rendering(self, capsys):
        _, out = run_cli(capsys, "measure", "--tol", "1e-8")
        match = re.search(r'"mu_V": ([0-9.]+)', out)
        mantissa = match.group(1).replace(".", "").lstrip("0")
        assert len(mantissa) <= 15

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exit_2(self, capsys, tol):
        code = cli.main(["measure", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestExperiment:
    def test_files_and_record(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code, record = run_json(
            capsys,
            "experiment",
            "--samples",
            "3",
            "--depth",
            "80",
            "--seed",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        assert record["results"]["sample_count"] == 3
        payload = json.loads(out.read_text())
        assert len(payload["per_theta"]) == 3
        csv_path = tmp_path / "run.csv"
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == [
            "theta_id",
            "n",
            "decided",
            "hermite_count",
            "proportion",
            "levy_rate",
            "hermite_growth",
            "undecided",
        ]
        assert len(rows) == 4

    def test_missing_out_directory_exit_2(self, capsys, monkeypatch, tmp_path):
        def must_not_run(cfg):
            raise AssertionError("experiment ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        out = tmp_path / "missing" / "run.json"
        code = cli.main(
            ["experiment", "--samples", "2", "--depth", "60", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert not out.parent.exists()

    def test_out_that_is_a_directory_exit_2(self, capsys, monkeypatch, tmp_path):
        # rejected before the experiment runs, as is a name too long to open
        def must_not_run(cfg):
            raise AssertionError("experiment ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        (tmp_path / "run.csv").mkdir()
        for out, reason in (
            (tmp_path, "output path is a directory"),
            (tmp_path / "run.json", "output path is a directory"),
            (tmp_path / ("x" * 300 + ".json"), "cannot write output"),
        ):
            code = cli.main(["experiment", "--samples", "2", "--depth", "60", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2, out
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith(f"error: {reason}: "), captured.err

    def test_out_that_is_the_csv_path_exit_2(self, capsys, monkeypatch, tmp_path):
        # run.csv would hold the table written over the record, and so would
        # run.CSV on a case-insensitive file system
        def must_not_run(cfg):
            raise AssertionError("experiment ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        for name in ("same.csv", "run.CSV"):
            out = tmp_path / name
            code = cli.main(["experiment", "--samples", "2", "--depth", "20", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: output path ends in .csv, the CSV table's path: ")
            assert not out.exists()

    def test_failed_write_exit_2(self, capsys, monkeypatch, tmp_path):
        def disk_full(path, *args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        out = tmp_path / "run.json"
        code = cli.main(["experiment", "--samples", "2", "--depth", "60", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exit_2(self, capsys, tmp_path, workers):
        out = tmp_path / "run.json"
        argv = ["experiment", "--samples", "2", "--depth", "60", "--out", str(out)]
        code = cli.main(argv + ["--workers", workers])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_precision_past_the_maximum_exit_2(self, capsys, tmp_path):
        # 2**20 + 1 bits, one past DecimalSpec.MAX_BITS, and depth 10**8, whose
        # samples would have 384,160,192 bits: rejected before the run
        out = tmp_path / "run.json"
        flags = ["flags", "--theta", "0.5@1048577", "--n", "5"]
        experiment = ["experiment", "--samples", "1", "--depth", "10", "--out", str(out)]
        deep = ["experiment", "--samples", "1", "--depth", "100000000", "--out", str(out)]
        for argv in (flags, experiment + ["--precision-bits", "1048577"], deep):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_every_sample_rejected_exit_3(self, capsys, tmp_path):
        # 64 bits cannot certify 400 flags: running out of precision is exit 3
        out = tmp_path / "run.json"
        argv = ["experiment", "--samples", "2", "--depth", "400", "--out", str(out)]
        code = cli.main(argv + ["--precision-bits", "64"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: every sample was rejected; raise precision_bits"
        ]
        assert not out.exists()

    def test_reproducible_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "experiment", "--samples", "2", "--depth", "60", "--seed", "9", "--out", str(a))
        run_cli(capsys, "experiment", "--samples", "2", "--depth", "60", "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()


def test_csv_tables_of_every_command(capsys, tmp_path):
    # the exact bytes of each command's table under --format csv
    theta_ids = ["0.56471573693357493793270311...(307b)", "0.95414547944083664752789546...(307b)"]
    tables = [
        (
            ("expand", "--theta", "3/8", "--n", "3"),
            "index,quotient,p,q\n0,,0,1\n1,2,1,2\n2,1,1,3\n3,2,3,8\n",
        ),
        (
            ("flags", "--theta", "3/8", "--n", "5", "--verify"),
            "index,flag,p,q\n0,true,1,0\n1,true,0,1\n2,true,1,2\n3,true,1,3\n4,true,3,8\n",
        ),
        (("orbit", "--x", "1/3", "--y", "1/4", "--n", "2"), "step,x,y\n0,1/3,1/4\n1,0/1,4/13\n"),
        (("measure",), "mu_V,complement,abs_tol\n0.207518749639786,0.792481250360214,1e-08\n"),
        (
            ("experiment", "--samples", "2", "--depth", "30", "--seed", "3",
             "--out", str(tmp_path / "e.json")),
            "theta_id,n,decided,hermite_count,proportion,levy_rate,hermite_growth,undecided\n"
            f"{theta_ids[0]},30,29,24,0.827586206896552,1.09323631833914,1.16974471112757,0\n"
            f"{theta_ids[1]},30,29,23,0.793103448275862,1.33548689743881,1.64449603333409,0\n",
        ),
    ]
    for argv, table in tables:
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert (code, out) == (0, table), argv
    assert (tmp_path / "e.csv").read_text() == tables[-1][1]  # the file holds the same table


def test_json_records_of_every_command(capsys, tmp_path):
    # the exact bytes of each command's JSON record, as json.dumps(record,
    # indent=2) printed them, kept in tests/cli_records
    records = Path(__file__).parent / "cli_records"
    invocations = [
        ("expand", "--theta", "3/8", "--n", "3"),
        ("flags", "--theta", "3/8", "--n", "5", "--verify"),
        ("orbit", "--x", "1/3", "--y", "1/4", "--n", "2"),
        ("measure",),
    ]
    for argv in invocations:
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (0, (records / f"{argv[0]}.json").read_text()), argv
    out = tmp_path / "e.json"
    argv = ["experiment", "--samples", "2", "--depth", "30", "--seed", "3", "--out", str(out)]
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.read_text() == (records / "experiment.json").read_text()


class TestJsonWriter:
    def test_same_bytes_as_json_dumps(self):
        edges = [
            {}, [], (), [{}], {"": []}, [[[]]], (1, (2.5, "x")), True, False, None,
            -0.0, 5e-324, 1e16, 1e-7, 0, -(10**5000), "\"\\\x00\u00e9\U0001f600",
        ]
        rng = random.Random(28)
        values = edges + [random_json_value(rng) for _ in range(600)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # as cli.main lifts it around a command
        try:
            for value in values:
                assert cli._json(value) == json.dumps(value, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_raise(self, value):
        for record in (value, {"results": [1, value]}):
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._json(record)

    @pytest.mark.parametrize("value", [Fraction(1, 3), {1: 2}, [{(1,): 2}], {1, 2}, b"x"])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


def test_every_record_validates(capsys, tmp_path):
    # belt and braces: one record per command through the schema
    invocations = [
        ("expand", "--theta", "3/8", "--n", "5"),
        ("flags", "--theta", "3/8", "--n", "5"),
        ("orbit", "--x", "1/3", "--y", "1/4", "--n", "2"),
        ("measure",),
        (
            "experiment",
            "--samples",
            "2",
            "--depth",
            "60",
            "--seed",
            "2",
            "--out",
            str(tmp_path / "e.json"),
        ),
    ]
    for argv in invocations:
        code, record = run_json(capsys, *argv)
        assert code == 0
        assert record["command"] == argv[0]


class TestArgumentRejections:
    @pytest.mark.parametrize("argv", ARGUMENT_REJECTIONS)
    def test_one_line_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_help_keeps_full_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: hermite-lab")
        assert "experiment" in captured.out


class TestParserReuse:
    def test_reused_parser_carries_nothing_between_calls(self, capsys):
        def call(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def fresh_rejection(argv):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser.__wrapped__().parse_args(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        valid = ["flags", "--theta", "(-3+1*sqrt(21))/6", "--n", "10", "--verify"]
        shallow = ["expand", "--theta", "0.3819660112501051517954131@64", "--n", "70"]
        missing, bogus = ["expand", "--theta", "3/8"], ["bogus"]
        cli.build_parser.cache_clear()
        first_rejection = call(missing)
        help_code, help_text, _ = call(["--help"])
        first = call(valid)
        second_rejection = call(bogus)
        shallow_code, shallow_out, shallow_err = call(shallow)
        again = call(valid)

        assert first_rejection == fresh_rejection(missing)
        assert second_rejection == fresh_rejection(bogus)
        assert first_rejection[0] == second_rejection[0] == 2
        assert help_code == 0 and help_text.startswith("usage: hermite-lab")
        assert first[0] == 0 and first[2] == ""
        assert again == first
        assert shallow_code == 3 and shallow_out == ""
        assert len(shallow_err.splitlines()) == 1
        # main builds the parser on its first call and reuses it after
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 5)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


_FUZZ_THETAS = [
    "5", "-3", "0", "0/5", "3/8", "-22/7", "355/113", "1/1000003",
    "0.5@64", "-0.123456789@64", "-2.75", "0.3819660112501051517954131@64",
    "(1+1*sqrt(5))/2", "(-3+1*sqrt(21))/6", "(1+1*sqrt(4))/2",
    "(1+1*sqrt(0))/2", "(1+1*sqrt(-5))/2", "1/1" + "0" * 5000,
]
_FUZZ_N = ["-1", "0", "1", "2", "3", "40", "10001", "100000000"]
_FUZZ_COORDS = ["0", "1", "-1", "1/2", "0.999", "2", "1/1", "0/7", "1/0", "1e5000", "abc"]


def _fuzz_grid():
    for theta in _FUZZ_THETAS:
        # '--theta -22/7' is an argparse rejection; '--theta=-22/7' reaches parse_real
        spellings = [["--theta", theta]] + ([[f"--theta={theta}"]] if theta[0] == "-" else [])
        for spelled in spellings:
            for n in _FUZZ_N:
                yield ["expand", *spelled, "--n", n]
                yield ["flags", *spelled, "--n", n, "--verify"]
                yield ["flags", *spelled, "--n", n, "--format", "csv"]
    for x in _FUZZ_COORDS:
        for y in _FUZZ_COORDS:
            yield ["orbit", "--x", x, "--y", y, "--n", "3"]
    for tol in ["1e-300", "0", "1e-13", "0.5", "1e308"]:
        yield ["measure", "--tol", tol]


def test_fuzzed_arguments_exit_with_documented_codes(capsys):
    # every call succeeds with strict, schema-valid JSON (or CSV) or fails
    # with a documented exit code and a one-line message
    for argv in _fuzz_grid():
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        if code != 0:
            assert captured.out == "", argv
            assert len(captured.err.splitlines()) == 1, argv
            assert captured.err.startswith("error: "), argv
            assert len(captured.err) <= cli.ERROR_LINE_MAX + 1, argv  # 1e5000 and the like
        elif "csv" in argv:
            rows = list(csv.reader(io.StringIO(captured.out)))
            assert rows and rows[0][0] == "index", argv
        else:
            record = json.loads(
                captured.out, parse_constant=_reject_constant, parse_int=int_of_digits
            )
            jsonschema.validate(record, SCHEMA)
            assert record["command"] == argv[0]


def test_n_past_the_cap_exits_2_before_any_work(capsys, monkeypatch):
    # expand and flags print O(n**2) digits on a quadratic irrational: an
    # --n past the cap is refused before the input is even parsed
    def no_work(text):
        raise AssertionError(f"parsed {text} past the --n cap")

    monkeypatch.setattr(cli, "parse_real", no_work)
    for command in ("expand", "flags"):
        for n in ("10001", "100000000"):
            code = cli.main([command, "--theta", "(-3+1*sqrt(21))/6", "--n", n])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (command, n)
            assert captured.err == "error: --n is at most 10000 for expand and flags\n"
    monkeypatch.undo()
    assert cli.main(["expand", "--theta", "3/8", "--n", "10000"]) == 0  # the cap itself


def test_samples_past_the_cost_rule_exit_2_before_any_work(capsys, monkeypatch, tmp_path):
    # samples x bits past 2**30 is refused before the sampler runs
    def no_work(cfg):
        raise AssertionError(f"ran {cfg.sample_count} samples past the cost rule")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    out = tmp_path / "run.json"
    for samples, depth in (("55348", "5000"), ("100000000", "10")):
        argv = ["experiment", "--samples", samples, "--depth", depth, "--out", str(out)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("error: sample_count * effective_bits must be <= 2**30")
    assert not out.exists()


def test_seed_out_of_range_exits_2_before_any_work(capsys, monkeypatch, tmp_path):
    # blake2b's key is the seed's 8 unsigned bytes: -1 and 2**64 are refused
    # before any sample is analyzed, and no file is written
    def no_work(spec, depth):
        raise AssertionError(f"analyzed a sample of seed {seed}")

    monkeypatch.setattr(stats, "analyze_theta", no_work)
    out = tmp_path / "run.json"
    for seed in ("-1", str(1 << 64)):
        argv = ["experiment", "--samples", "2", "--depth", "10", f"--seed={seed}"]
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == "error: seed must lie in [0, 2**64)\n"
    assert not out.exists() and not out.with_suffix(".csv").exists()


def _experiment_fuzz_grid(tmp_path):
    outs = [tmp_path / "fuzz.json", tmp_path / "missing" / "fuzz.json"]
    for samples in ["1", "2", "100000000"]:  # 10**8 samples break the cost rule at any bits
        for depth in ["-1", "0", "9", "10", "12"]:
            for bits in [[], ["--precision-bits", "32"], ["--precision-bits", "64"]]:
                for workers in ["0", "1"]:
                    for out in outs:
                        yield [
                            "experiment", "--samples", samples, "--depth", depth,
                            "--workers", workers, "--out", str(out), *bits,
                        ]


def test_fuzzed_experiment_exits_with_documented_codes(capsys, tmp_path):
    codes = set()
    for argv in _experiment_fuzz_grid(tmp_path):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        captured = capsys.readouterr()
        codes.add(code)
        assert code in (0, 2, 3), argv
        if code != 0:
            assert captured.out == "", argv
            assert len(captured.err.splitlines()) == 1, argv
            assert captured.err.startswith("error: "), argv
        else:
            record = json.loads(captured.out, parse_constant=_reject_constant)
            jsonschema.validate(record, SCHEMA)
            assert record["command"] == "experiment"
            out = Path(record["results"]["out_json"])
            json.loads(out.read_text(), parse_constant=_reject_constant)
    assert {0, 2} <= codes  # 64 bits still certify 12 flags: exit 3 is tested above
