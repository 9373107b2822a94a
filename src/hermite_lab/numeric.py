"""Exact arithmetic and the input grammar: big rationals, quadratic irrationals.

Rationals are plain ``fractions.Fraction``.  Quadratic irrationals carry the
normal form (a + b*sqrt(d))/c with exact sign, floor and field arithmetic.
A decimal is an exact rational plus the window [window_lo, window_hi] that
its declared precision leaves open; certified answers about it hold for
every real in that window.  No value is ever rounded to an interval.
Every spec's `bounds` is that pair (lo, hi) of exact bounds: the window of
a decimal, the value itself twice for a rational or quadratic.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .errors import InvalidArgument, InvalidQuadratic, ParseError
from .record import Record

DEFAULT_DECIMAL_BITS = 256
_SQUAREFREE_TRIAL_BOUND = 100_000
_INT_PIECE_DIGITS = 640  # the least int/str digit limit CPython lets a caller set


# ---------------------------------------------------------------------------
# small integer helpers


def squarefree_split(d: int) -> tuple[int, int]:
    """Write d = f**2 * d0 with d0 square-free (trial division to 1e5).

    Raises InvalidQuadratic when trial division stops at the bound with a
    cofactor above 1e10 that is not a perfect square: it may still hide the
    square of a prime above 1e5.
    """
    f = 1
    p = 2
    while p * p <= d and p <= _SQUAREFREE_TRIAL_BOUND:
        while d % (p * p) == 0:
            d //= p * p
            f *= p
        p += 1 if p == 2 else 2
    r = isqrt(d)
    if r * r == d:
        f *= r
        d = 1
    elif p * p <= d:
        raise InvalidQuadratic(
            "radicand has a factor above 1e10 that trial division to "
            f"{_SQUAREFREE_TRIAL_BOUND} cannot certify square-free"
        )
    return f, d


def surd_sign(p: int, r: int, d: int) -> int:
    """Exact sign of p + r*sqrt(d) for integers p, r and a non-square d >= 2.

    The radicand is read only when p and r have opposite signs; d = 0 is
    fine when r = 0.
    """
    sp = (p > 0) - (p < 0)
    sr = (r > 0) - (r < 0)
    if sp == sr or sr == 0:
        return sp
    if sp == 0:
        return sr
    return sr if r * r * d > p * p else sp


def surd_floor(n: int, b: int, c: int, d: int) -> int:
    """floor((n + b*sqrt(d))/c) for integers n, b, c > 0 and d as `surd_sign` takes it.

    b*sqrt(d) is irrational unless b = 0, so its floor is s = isqrt(b*b*d) or
    -s - 1 by b's sign; floor((n + y)/c) = floor((n + floor(y))/c) for integers
    n and c > 0 (Graham, Knuth and Patashnik, *Concrete Mathematics*, 3.2).
    """
    s = isqrt(b * b * d)
    return (n + (s if b >= 0 else -s - 1)) // c


def int_of_digits(text: str) -> int:
    """int(text) for a signed digit string of any length, past CPython's int/str limit."""
    if len(text) <= _INT_PIECE_DIGITS:
        return int(text)
    if text[0] in "+-":
        magnitude = int_of_digits(text[1:])
        return -magnitude if text[0] == "-" else magnitude
    half = len(text) // 2
    return int_of_digits(text[:half]) * 10 ** (len(text) - half) + int_of_digits(text[half:])


def digits_of_int(n: int) -> str:
    """str(n) for an int of any size, past CPython's int/str limit: `int_of_digits`' inverse."""
    if n < 0:
        return "-" + digits_of_int(-n)
    if n.bit_length() <= 2000:  # below 10**603, well inside any limit CPython lets a caller set
        return str(n)
    low_digits = n.bit_length() * 30103 // 200000  # about half of n's digits
    high, low = divmod(n, 10**low_digits)
    return digits_of_int(high) + digits_of_int(low).zfill(low_digits)


class _LowestTerms:
    """A numerator and a positive denominator already prime to each other.

    `Fraction(x)` for a `numbers.Rational` x copies x.numerator and
    x.denominator as they stand, where `Fraction(n, d)` would divide out
    gcd(n, d): on a 19,400-bit sample that gcd costs more than the rest of
    building it.  Only `lowest_terms` builds one.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_LowestTerms)


def lowest_terms(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator, with no gcd of long integers: the two are prime
    to each other, denominator > 0.

    A denominator of at most 64 bits goes through `Fraction(n, d)`: a gcd
    of word-size integers costs less than the `numbers.Rational` check on
    a `_LowestTerms`.
    """
    if denominator.bit_length() <= 64:  # bit_length, not a shift: no copy
        return Fraction(numerator, denominator)
    return Fraction(_LowestTerms(numerator, denominator))


def decimal_fraction(n: int, digits: int) -> Fraction:
    """n / 10**digits in lowest terms, with no gcd of long integers.

    The gcd of n and 10**digits has only 2s and 5s: the 2s are counted from
    n's lowest set bit, and the 5s divided out one at a time, 1.25 divisions
    on average for a random n.
    """
    if n == 0:
        return Fraction(0)
    twos = min((n & -n).bit_length() - 1, digits)
    n >>= twos
    fives = 0
    while fives < digits:
        quotient, rem = divmod(n, 5)
        if rem:
            break
        n = quotient
        fives += 1
    return lowest_terms(n, 5 ** (digits - fives) << (digits - twos))


def _plus_ulp(value: Fraction, bits: int) -> Fraction:
    """value + 2**-bits in lowest terms, with no gcd of long integers.

    Write value = n/(o * 2**t) with o odd, and k = max(t, bits).  The sum is
    (n*2**(k-t) + o*2**(k-bits)) / (o*2**k).  Its numerator is prime to o,
    as n is, so only the 2s it shares with 2**k are left to cast out.
    """
    n, d = value.numerator, value.denominator
    t = (d & -d).bit_length() - 1
    o = d >> t
    k = max(t, bits)
    num = (n << (k - t)) + (o << (k - bits))
    if num == 0:
        return Fraction(0)
    twos = min((num & -num).bit_length() - 1, k)
    return lowest_terms(num >> twos, o << (k - twos))


def ln_big(n: int) -> float:
    """Natural log of a positive integer of arbitrary size."""
    if n <= 0:
        raise InvalidArgument("ln_big needs a positive integer")
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * math.log(2)


# ---------------------------------------------------------------------------
# quadratic irrationals


class QuadraticReal(Record):
    """The irrational (a + b*sqrt(d))/c in normal form.

    c > 0, b != 0, gcd(a, b, c) = 1 and d square-free (>= 2); use
    :func:`quadratic_or_rational` to build one from raw coefficients.
    Sign and floor are integer operations; the field arithmetic and order
    serve only the reference oracles (lattice, natural_extension) and tests.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c <= 0:
            raise InvalidQuadratic("c must be positive")
        if d < 2:
            raise InvalidQuadratic("d must be a non-square integer >= 2")
        if b == 0:
            raise InvalidQuadratic("b = 0 is a rational, not a quadratic")
        if gcd(gcd(abs(a), abs(b)), c) != 1:
            raise InvalidQuadratic("coefficients not reduced")
        set_a, set_b, set_c, set_d = self._setters
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)

    # --- numeric views

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.d)

    def __abs__(self):
        return self if self.sign() > 0 else -self

    def __floor__(self) -> int:
        return surd_floor(self.a, self.b, self.c, self.d)

    # --- field arithmetic (exact; mixed with int / Fraction)

    def _coerce(self, other):
        if isinstance(other, QuadraticReal):
            if other.d != self.d:
                raise InvalidArgument("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, QuadraticReal):
            a = self.a * other.c + other.a * self.c
            b = self.b * other.c + other.b * self.c
            return _normal_form(a, b, self.c * other.c, self.d)
        fr = Fraction(other)
        a = self.a * fr.denominator + fr.numerator * self.c
        return _normal_form(a, self.b * fr.denominator, self.c * fr.denominator, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticReal(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, QuadraticReal):
            a = self.a * other.a + self.b * other.b * self.d
            b = self.a * other.b + self.b * other.a
            return _normal_form(a, b, self.c * other.c, self.d)
        fr = Fraction(other)
        return _normal_form(
            self.a * fr.numerator, self.b * fr.numerator, self.c * fr.denominator, self.d
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d  # nonzero: value irrational
        return _normal_form(self.c * self.a, -self.c * self.b, norm, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, QuadraticReal):
            return self * other.inverse()
        fr = Fraction(other)
        return self * Fraction(fr.denominator, fr.numerator)

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    # --- exact order (vs int, Fraction, same-d QuadraticReal)

    def _diff_sign(self, other) -> int:
        diff = self - other
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __str__(self) -> str:
        a, b, c, d = (digits_of_int(k) for k in (self.a, self.b, self.c, self.d))
        return f"({a}{'+' if self.b > 0 else ''}{b}*sqrt({d}))/{c}"


def quadratic_or_rational(a: int, b: int, c: int, d: int) -> Union[Fraction, QuadraticReal]:
    """Normalize (a + b*sqrt(d))/c, folding perfect squares and b = 0 to Fraction."""
    if c == 0:
        raise InvalidQuadratic("zero denominator")
    if d <= 0:
        raise InvalidQuadratic(f"radicand must be positive, got {d}")
    r = isqrt(d)
    if r * r == d:
        return Fraction(a + b * r, c)
    if b == 0:
        return Fraction(a, c)
    f, d0 = squarefree_split(d)
    return _normal_form(a, b * f, c, d0)


def _normal_form(a: int, b: int, c: int, d: int) -> Union[Fraction, QuadraticReal]:
    """(a + b*sqrt(d))/c for c != 0 and a square-free d; a Fraction when b = 0."""
    if b == 0:
        return Fraction(a, c)
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    return QuadraticReal(a // g, b // g, c // g, d)


# ---------------------------------------------------------------------------
# real-number specifications


class RationalSpec(Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self._setters[0](self, value)

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact bounds (lo, hi) on the real: the value itself, twice."""
        return self.value, self.value


class QuadraticSpec(Record):
    __slots__ = ("value",)

    def __init__(self, value: QuadraticReal):
        self._setters[0](self, value)

    @property
    def bounds(self) -> tuple[QuadraticReal, QuadraticReal]:
        """Exact bounds (lo, hi) on the real: the value itself, twice."""
        return self.value, self.value


class DecimalSpec(Record):
    """Exact truncated rational plus its uncertainty window.

    The digits pin the value exactly; `declared_bits` says how well the
    *intended* real is known: it lies in [window_lo, window_hi], and takes
    64 to MAX_BITS bits.  Build one with `make_decimal`, which checks that
    the value lies in its window; `cf.reduce_theta` builds x0 directly, as
    the translate or mirror of a window already checked, which spares two
    cross-multiplications of numbers as long as the window.
    """

    __slots__ = ("value", "declared_bits", "window_lo", "window_hi", "text")
    MAX_BITS = 1 << 20  # 54 times the 19,400 bits of a depth-5000 sample

    def __init__(
        self, value: Fraction, declared_bits: int, window_lo: Fraction, window_hi: Fraction,
        text: str = "",
    ):
        _check_declared_bits(declared_bits)
        self._fill(value, declared_bits, window_lo, window_hi, text)

    def __reduce__(self):
        # a pickled Fraction comes back as Fraction(n, d), whose gcd on a
        # 19,400-bit sample costs more than building the sample did
        pairs = [(f.numerator, f.denominator) for f in (self.value, self.window_lo, self.window_hi)]
        return _unpickle_decimal, (*pairs, self.declared_bits, self.text)

    @property
    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact bounds (lo, hi) on the intended real: its window."""
        return self.window_lo, self.window_hi


def _unpickle_decimal(value, window_lo, window_hi, declared_bits, text) -> DecimalSpec:
    """A pickled DecimalSpec from its (numerator, denominator) pairs.

    A Fraction's pair is already in lowest terms, so it is copied as it
    stands; the constructor checks `declared_bits` again.
    """
    value, lo, hi = (lowest_terms(n, d) for n, d in (value, window_lo, window_hi))
    return DecimalSpec(value, declared_bits, lo, hi, text)


RealSpec = Union[RationalSpec, QuadraticSpec, DecimalSpec]


def _check_declared_bits(bits: int) -> None:
    if bits < 64:
        raise ParseError("decimal precision must be >= 64 bits")
    if bits > DecimalSpec.MAX_BITS:
        raise ParseError("decimal precision must be <= 2**20 bits")


def make_decimal(
    value: Fraction,
    declared_bits: int = DEFAULT_DECIMAL_BITS,
    window: tuple[Fraction, Fraction] | None = None,
    text: str = "",
) -> DecimalSpec:
    _check_declared_bits(declared_bits)  # before 2**declared_bits is formed
    if window is None:
        window = (value, _plus_ulp(value, declared_bits))
    elif not (window[0] <= value <= window[1]):
        raise InvalidArgument("value outside its window")
    return DecimalSpec(value, declared_bits, window[0], window[1], text)


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:\s*/\s*(\d+))?$")
_DECIMAL_RE = re.compile(r"^([+-]?\d+)\.(\d+)(?:@(\d+))?$")
_QUADRATIC_RE = re.compile(
    r"^\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*([+-]?\d+)\s*\)\s*\)\s*/\s*(\d+)$"
)


def parse_real(text: str) -> RealSpec:
    """Parse "p/q", "(a+b*sqrt(d))/c" or a decimal literal with optional @bits."""
    text = text.strip()
    m = _RATIONAL_RE.match(text)
    if m:
        den = int_of_digits(m.group(2) or "1")
        if den == 0:
            raise ParseError("zero denominator")
        return RationalSpec(Fraction(int_of_digits(m.group(1)), den))
    m = _DECIMAL_RE.match(text)
    if m:
        int_part, frac_part, bits = m.groups()  # the sign rides on the digits: "-0" "5" is -5
        value = decimal_fraction(int_of_digits(int_part + frac_part), len(frac_part))
        return make_decimal(value, int_of_digits(bits) if bits else DEFAULT_DECIMAL_BITS, text=text)
    m = _QUADRATIC_RE.match(text)
    if m:
        a, b, d, c = (int_of_digits(g) for g in m.group(1, 3, 4, 5))
        value = quadratic_or_rational(a, -b if m.group(2) == "-" else b, c, d)
        if isinstance(value, Fraction):
            return RationalSpec(value)
        return QuadraticSpec(value)
    raise ParseError(f"cannot parse real number from {text!r}")


def _decimal_digits(value: Fraction, max_digits: int) -> str:
    """Digit string "w.ffff" of |value|, truncated, built in small chunks."""
    value = abs(value)
    whole, rem = divmod(value.numerator, value.denominator)
    pieces = []
    produced = 0
    while rem and produced < max_digits:
        take = min(12, max_digits - produced)
        rem *= 10**take
        digit_block, rem = divmod(rem, value.denominator)
        pieces.append(f"{digit_block:0{take}d}")
        produced += take
    frac_part = "".join(pieces) or "0"
    return f"{digits_of_int(whole)}.{frac_part}"


def spec_text(spec: RealSpec) -> str:
    """Canonical one-line rendering, inverse-compatible with parse_real.

    A decimal's text carries its value and declared bits, and parse_real
    rebuilds the window [value, value + 2**-bits] from them, not a mirrored
    window such as `reduce_theta` gives a negative theta's x0.  A text-less
    decimal whose value terminates in base 10 (denominator 2**a * 5**b) is
    rendered with every digit; any other value is truncated to about its
    declared precision.
    """
    if isinstance(spec, RationalSpec):
        return f"{digits_of_int(spec.value.numerator)}/{digits_of_int(spec.value.denominator)}"
    if isinstance(spec, QuadraticSpec):
        return str(spec.value)
    if spec.text:  # a sampled decimal's text carries no @bits
        return spec.text if "@" in spec.text else f"{spec.text}@{spec.declared_bits}"
    den = spec.value.denominator
    max_digits = den.bit_length()  # 2**a * 5**b has max(a, b) < this many digits
    if 10**max_digits % den:
        max_digits = spec.declared_bits * 30103 // 100000 + 2
    sign = "-" if spec.value < 0 else ""
    return f"{sign}{_decimal_digits(spec.value, max_digits)}@{spec.declared_bits}"
