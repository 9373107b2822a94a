"""Parsing, quadratic field arithmetic, exact signs and comparisons."""

from __future__ import annotations

import pickle
import random
import sys
from fractions import Fraction
from math import isqrt

import pytest
from helpers import quad_bounds, random_quadratic_specs, random_rational_specs

from hermite_lab import (
    DecimalSpec,
    InvalidArgument,
    InvalidQuadratic,
    ParseError,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
    make_decimal,
    parse_real,
    spec_text,
)
from hermite_lab.numeric import (
    decimal_fraction,
    digits_of_int,
    int_of_digits,
    quadratic_or_rational,
    squarefree_split,
    surd_floor,
    surd_sign,
)
from hermite_lab.cf import reduce_theta
from hermite_lab.stats import sample_thetas


class TestParse:
    def test_rational(self):
        assert parse_real("3/8") == RationalSpec(Fraction(3, 8))

    def test_negative_rational(self):
        assert parse_real("-7/2") == RationalSpec(Fraction(-7, 2))

    def test_integer(self):
        assert parse_real("5") == RationalSpec(Fraction(5))

    def test_quadratic(self):
        spec = parse_real("(-3+1*sqrt(21))/6")
        assert spec == QuadraticSpec(QuadraticReal(-3, 1, 6, 21))

    def test_decimal_with_bits(self):
        spec = parse_real("0.381966011250105@128")
        assert isinstance(spec, DecimalSpec)
        assert spec.declared_bits == 128
        assert spec.value == Fraction(381966011250105, 10**15)
        # make_decimal, which parse_real and sample_thetas build through,
        # checks that an explicit window holds the value
        ulp = spec.window_hi - spec.window_lo
        above, below = spec.window_hi, spec.value - ulp
        for window in ((above, above + ulp), (below - ulp, below)):
            with pytest.raises(InvalidArgument, match="value outside its window"):
                make_decimal(spec.value, 128, window)

    def test_negative_decimals(self):
        assert parse_real("-0.5").value == Fraction(-1, 2)
        assert parse_real("-2.75@64").value == Fraction(-11, 4)
        assert parse_real("+1.25").value == Fraction(5, 4)

    def test_digits_past_the_int_limit(self):
        # CPython refuses int() on more than 4,300 digits; the paper's samples have 5,840
        spec = parse_real("0." + "3" * 5000 + "@16000")
        assert spec.declared_bits == 16000
        assert spec.value == Fraction(10**5000 - 1, 3 * 10**5000)
        assert parse_real("-1/1" + "0" * 5000) == RationalSpec(Fraction(-1, 10**5000))
        spec = parse_real("(1+1" + "0" * 5000 + "*sqrt(5))/2")
        assert spec == QuadraticSpec(QuadraticReal(1, 10**5000, 2, 5))

    def test_int_of_digits(self):
        rng = random.Random(331)
        for length in (1, 639, 640, 641, 1281, 4300):
            digits = "".join(rng.choice("0123456789") for _ in range(length))
            for sign in ("", "+", "-"):
                assert int_of_digits(sign + digits) == int(sign + digits)
                assert digits_of_int(int(sign + digits)) == str(int(sign + digits))
        assert int_of_digits("-" + "9" * 9000) == 1 - 10**9000
        assert int_of_digits("+0001" + "0" * 9000) == 10**9000
        assert digits_of_int(1 - 10**9000) == "-" + "9" * 9000
        assert digits_of_int(10**9000) == "1" + "0" * 9000
        for _ in range(20):
            n = rng.getrandbits(rng.randint(2001, 40000))
            assert int_of_digits(digits_of_int(n)) == n

    def test_text_past_the_int_limit(self):
        # spec_text writes what parse_real reads, past CPython's 4,300-digit
        # int/str limit, which only the CLI lifts
        big = 10**5000
        specs = [
            RationalSpec(Fraction(big + 1, 3 * big)),
            QuadraticSpec(QuadraticReal(-1, -big, 2 * big + 1, 5)),
            QuadraticSpec(QuadraticReal(big, 1, 3, 7)),
            make_decimal(Fraction(big + 1, 2), 64),
        ]
        assert spec_text(specs[0]) == f"1{'0' * 4999}1/3{'0' * 5000}"
        for spec in specs:
            assert parse_real(spec_text(spec)).bounds == spec.bounds

    def test_declared_precision_up_to_the_maximum(self):
        assert DecimalSpec.MAX_BITS == 1 << 20
        assert parse_real("0.5@1048576").declared_bits == 1 << 20
        with pytest.raises(ParseError):
            make_decimal(Fraction(1, 3), (1 << 20) + 1)

    def test_decimal_default_bits(self):
        assert parse_real("0.25").declared_bits == 256

    def test_perfect_square_folds_to_rational(self):
        assert parse_real("(1+2*sqrt(4))/3") == RationalSpec(Fraction(5, 3))

    def test_zero_b_folds_to_rational(self):
        assert parse_real("(3+0*sqrt(5))/2") == RationalSpec(Fraction(3, 2))

    # a precision past DecimalSpec.MAX_BITS = 2**20 is rejected before 2**bits is formed
    @pytest.mark.parametrize(
        "text", ["abc", "1/0", "(1+1*sqrt(5))/0", "0.5@32", "0.5@1048577", ""]
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_real(text)

    @pytest.mark.parametrize("text", ["(1+1*sqrt(-2))/3", "(1+1*sqrt(0))/3"])
    def test_bad_radicand(self, text):
        with pytest.raises(InvalidQuadratic):
            parse_real(text)

    def test_roundtrip_text(self):
        for text in ("3/8", "(-3+1*sqrt(21))/6", "0.381966011250105@128"):
            assert parse_real(spec_text(parse_real(text))) == parse_real(text)

    def test_text_of_a_non_terminating_decimal_is_truncated(self):
        # 1/3 has no finite decimal: its text keeps about 64 bits of digits
        assert spec_text(make_decimal(Fraction(1, 3), 64)) == "0.333333333333333333333@64"

    def test_roundtrip_keeps_precision_and_bounds(self):
        # the three grammars, and sampled decimals, whose stored text has no @bits
        rng = random.Random(91)
        specs = random_rational_specs(20, 10**12, seed=92) + random_quadratic_specs(20, seed=93)
        for _ in range(30):
            digits = rng.randint(1, 60)
            fraction = f"{rng.randrange(10**digits):0{digits}d}"
            literal = f"{rng.choice(('', '-'))}{rng.randint(0, 99)}.{fraction}"
            specs.append(parse_real(literal + rng.choice(("", f"@{rng.randint(64, 4000)}"))))
        for bits in [64, 125, 126, 256] + [rng.randint(64, 4000) for _ in range(20)]:
            specs += sample_thetas(rng.randrange(1 << 32), 2, bits)
        # a text-less decimal with more digits than its bits suggest
        specs.append(make_decimal(Fraction(123456789123456789123456789, 10**27), 64))
        for spec in specs:
            back = parse_real(spec_text(spec))
            assert back.bounds == spec.bounds, spec_text(spec)
            if isinstance(spec, DecimalSpec):
                assert back.declared_bits == spec.declared_bits, spec_text(spec)


class TestLowestTerms:
    """`decimal_fraction` and `make_decimal`'s default upper end build their
    Fractions in lowest terms without a gcd; they must be the very Fractions
    that Fraction's normalizing constructor and arithmetic give."""

    @staticmethod
    def assert_same(got, want):
        assert type(got) is Fraction
        assert got.numerator == want.numerator
        assert got.denominator == want.denominator
        assert hash(got) == hash(want)

    def test_decimals_and_upper_ends_match_fraction_arithmetic(self):
        rng = random.Random(2026)
        cases = [(0, 1), (0, 40), (-1, 1), (-10**30, 30), (10**30, 30), (-15, 1)]
        cases += [(2**e, d) for e in (0, 1, 63, 64, 65, 200) for d in (1, 19, 64, 65)]
        cases += [(-(5**e), d) for e in (0, 1, 27, 28, 90) for d in (1, 27, 28, 29)]
        cases += [(7 * 10**z, d) for z in (1, 5, 40) for d in (3, 40, 41)]  # trailing zeros
        for _ in range(400):
            digits = rng.randint(1, 120)
            n = rng.randrange(-(10**digits), 10**digits) * 10 ** rng.choice((0, 0, 1, 7))
            cases.append((n, digits))
        values = []
        for n, digits in cases:
            value = decimal_fraction(n, digits)
            self.assert_same(value, Fraction(n, 10**digits))
            values.append(value)
        # t, the 2s in value's denominator, below, at and past the bits
        for bits in (64, 65, 100):
            for t in (0, 1, bits - 1, bits, bits + 1, 3 * bits):
                for odd in (1, 3, 5 * 7**20):
                    for n in (1, -1, 3, -(2**bits) - 1, rng.randrange(1, 2**200) | 1):
                        values.append(Fraction(n, odd << t))
        for _ in range(400):
            values.append(Fraction(rng.randrange(-(2**150), 2**150), rng.randrange(1, 2**150)))
        for bits in (64, 65, 100):
            values.append(Fraction(-1, 2**bits))  # its upper end is 0
            for value in values:
                upper = make_decimal(value, bits).window_hi
                self.assert_same(upper, value + Fraction(1, 2**bits))
        assert make_decimal(Fraction(-1, 2**64), 64).window_hi == 0

    def test_samples_match_the_normalizing_construction(self):
        # the construction before decimal_fraction, written out: Fraction
        # normalizes n/10**digits and value + 2**-bits by a gcd each
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # repr of a 19,400-bit window passes 4,300 digits
        try:
            for bits in (64, 256, 19400):
                for spec in sample_thetas(26, 3, bits):
                    digit_str = spec.text[2:]
                    value = Fraction(int_of_digits(digit_str), 10 ** len(digit_str))
                    ulp = Fraction(1, 1 << bits)
                    built = DecimalSpec(value, bits, value, value + ulp, "0." + digit_str)
                    assert spec == built
                    assert repr(spec) == repr(built)
        finally:
            sys.set_int_max_str_digits(limit)


class TestPickle:
    def test_decimal_round_trip_keeps_equality_hash_repr_and_text(self):
        # a DecimalSpec pickles as integer pairs, copied back without a gcd
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # repr of a 19,400-bit window passes 4,300 digits
        try:
            value = Fraction(-7, 20)
            specs = [
                *sample_thetas(42, 3, 19400),
                *sample_thetas(5, 2, 64),
                parse_real("0.3819660112501051517954131@64"),
                parse_real("-2.75"),
                make_decimal(value, 80, window=(Fraction(-3, 8), Fraction(-1, 3)), text="w"),
                make_decimal(value, 64, window=(value, value)),
                reduce_theta(parse_real("-0.123456789@64"))[1],  # a mirrored window
            ]
            for spec in specs:
                back = pickle.loads(pickle.dumps(spec))
                assert type(back) is DecimalSpec
                assert back == spec and hash(back) == hash(spec)
                assert repr(back) == repr(spec)
                assert back.text == spec.text and spec_text(back) == spec_text(spec)
                for got, want in zip(back.bounds + (back.value,), spec.bounds + (spec.value,)):
                    assert type(got) is Fraction
                    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unpickling_checks_the_declared_bits(self):
        rebuild, (value, lo, hi, _, text) = parse_real("0.5@64").__reduce__()
        with pytest.raises(ParseError):
            rebuild(value, lo, hi, 63, text)


class TestQuadraticReal:
    def test_squarefree_normalization(self):
        # sqrt(8) = 2*sqrt(2)
        assert quadratic_or_rational(0, 1, 1, 8) == QuadraticReal(0, 2, 1, 2)

    def test_small_radicands_unchanged(self):
        for d in range(2, 3000):
            f = max(k for k in range(1, 60) if d % (k * k) == 0)
            assert squarefree_split(d) == (f, d // (f * f))
        # a square of a prime past the trial bound is found when the
        # cofactor left is itself that square
        assert squarefree_split(4 * 100003**2) == (2 * 100003, 1)

    def test_uncertifiable_radicand_rejected(self):
        # 30001800027 = 3 * 100003**2: trial division stops at 1e5 with the
        # non-square cofactor 30001800027, which would otherwise pass as
        # square-free and make this real differ from (1+100003*sqrt(3))/7
        with pytest.raises(InvalidQuadratic):
            parse_real("(1+1*sqrt(30001800027))/7")
        assert parse_real("(1+100003*sqrt(3))/7").value.d == 3

    def test_inverse_roundtrip(self):
        x = QuadraticReal(-3, 1, 6, 21)
        assert x.inverse() * x == Fraction(1)

    def test_floor_against_float(self):
        rng = random.Random(5)
        import math

        for _ in range(300):
            spec = random_quadratic_specs(1, rng.randint(0, 10**6))[0]
            v = spec.value
            approx = float(v)
            if abs(approx - round(approx)) < 1e-9:
                continue
            assert math.floor(v) == math.floor(approx)
        # exact checks where a float cannot tell: n within a few units of
        # -b*sqrt(d) + k*c puts (n + b*sqrt(d))/c within a few 1/c of k
        for _ in range(3000):
            d = rng.choice((2, 3, 5, 7, 10, 21, 1000003))
            b = rng.choice((-1, 1)) * rng.randint(1, 10**20)
            c = rng.randint(1, 10**12)
            k = rng.randint(-10**6, 10**6)
            s = isqrt(b * b * d)
            n = k * c + (-s if b > 0 else s) + rng.randint(-3, 3)
            v = quadratic_or_rational(n, b, c, d)
            lo, hi = quad_bounds(v.a, v.b, v.c, v.d, 200)
            assert math.floor(lo) == math.floor(hi)  # the enclosure decides it
            assert math.floor(v) == surd_floor(n, b, c, d) == math.floor(lo)
        assert surd_floor(7, 0, 2, 0) == 3 and surd_floor(-7, 0, 2, 0) == -4

    def test_sign_cases(self):
        assert QuadraticReal(-3, 1, 6, 21).sign() == 1  # sqrt(21) > 3
        assert QuadraticReal(-5, 1, 1, 21).sign() == -1  # sqrt(21) < 5
        assert QuadraticReal(3, -1, 1, 5).sign() == 1
        assert QuadraticReal(2, -1, 1, 5).sign() == -1

    def test_same_field_ops_equal_full_normalization(self):
        # +, *, inverse and - keep the operand's radicand without re-deriving
        # it; each must still equal quadratic_or_rational on raw coefficients
        rng = random.Random(31)
        for _ in range(400):
            x = random_quadratic_specs(1, rng.randrange(10**6))[0].value
            a, b, c, d = x.a, x.b, x.c, x.d
            if rng.random() < 0.5:
                y = quadratic_or_rational(
                    rng.randint(-20, 20), rng.choice((-4, -1, 2, 3)), rng.randint(1, 12), d
                )
            else:  # -x + r, or the conjugate: the sum or product is rational
                y = rng.choice((-x + Fraction(rng.randint(-5, 5), 3), Fraction(2 * a, c) - x))
            if isinstance(y, QuadraticReal):
                e, f, g = y.a, y.b, y.c
                assert x + y == quadratic_or_rational(a * g + e * c, b * g + f * c, c * g, d)
                assert x * y == quadratic_or_rational(a * e + b * f * d, a * f + b * e, c * g, d)
            r = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            assert x + r == quadratic_or_rational(
                a * r.denominator + r.numerator * c, b * r.denominator, c * r.denominator, d
            )
            assert x * r == quadratic_or_rational(
                a * r.numerator, b * r.numerator, c * r.denominator, d
            )
            assert x.inverse() == quadratic_or_rational(c * a, -c * b, a * a - b * b * d, d)
            assert -x == quadratic_or_rational(-a, -b, c, d)
            for result in (x + y, x * y, x.inverse(), -x):
                if isinstance(result, QuadraticReal):
                    assert result.d == d

    def test_surd_sign_against_enclosure(self):
        rng = random.Random(32)
        for _ in range(2000):
            d = rng.choice((2, 3, 5, 7, 10, 21))
            p = rng.randint(-10**6, 10**6)
            r = rng.randint(-10**4, 10**4)
            lo, hi = quad_bounds(p, r, 1, d)
            expected = 1 if lo > 0 else -1 if hi < 0 else 0
            assert surd_sign(p, r, d) == expected
        assert surd_sign(0, 0, 2) == 0
        assert surd_sign(-7, 0, 0) == -1

    def test_order_against_fraction(self):
        root2 = QuadraticReal(0, 1, 1, 2)
        assert root2 > Fraction(7, 5)
        assert root2 < Fraction(3, 2)
        assert not root2 == Fraction(7, 5)


class TestCompare:
    def test_quadratic_sign_always_decided(self):
        # the sign of an exact quadratic is never undecided, and it agrees
        # with an independent enclosure
        for spec in random_quadratic_specs(50, seed=3):
            x = spec.value
            sign = x.sign()
            lo, hi = quad_bounds(x.a, x.b, x.c, x.d)
            assert sign != 0
            assert (lo > 0) if sign > 0 else (hi < 0)
