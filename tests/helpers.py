"""Shared test oracles, independent of the library's own arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from hermite_lab import (
    DecimalSpec,
    QuadraticSpec,
    RationalSpec,
    cf,
    make_decimal,
    quadratic_or_rational,
)


def sqrt_bounds(d: int, prec_bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of sqrt(d) via integer square root."""
    s = isqrt(d << (2 * prec_bits))
    return Fraction(s, 1 << prec_bits), Fraction(s + 1, 1 << prec_bits)


def quad_bounds(a: int, b: int, c: int, d: int, prec: int = 192) -> tuple[Fraction, Fraction]:
    """Enclosure of (a + b*sqrt(d))/c from sqrt_bounds."""
    lo, hi = sqrt_bounds(d, prec)
    if b >= 0:
        return (a + b * lo) / c, (a + b * hi) / c
    return (a + b * hi) / c, (a + b * lo) / c


def random_rational_specs(count: int, max_den: int, seed: int) -> list[RationalSpec]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        f = Fraction(num, den)
        if f.denominator == 1:
            continue
        out.append(RationalSpec(f))
    return out


def random_decimal_specs(count: int, min_bits: int, max_bits: int, seed: int) -> list[DecimalSpec]:
    """Decimals in (0, 1/2) declared to a uniform min_bits..max_bits bits."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bits = rng.randint(min_bits, max_bits)
        out.append(make_decimal(Fraction(rng.randrange(1, 1 << bits), 2 << bits), bits))
    return out


_QUAD_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 19, 21, 23, 29)


def random_quadratic_specs(count: int, seed: int) -> list[QuadraticSpec]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice(_QUAD_RADICANDS)
        a = rng.randint(-9, 9)
        b = rng.choice((-3, -2, -1, 1, 2, 3))
        c = rng.randint(1, 9)
        value = quadratic_or_rational(a, b, c, d)
        if isinstance(value, Fraction):
            continue
        out.append(QuadraticSpec(value))
    return out


_JSON_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1, -2.5)
_JSON_CHARS = "aZ09 \"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u4e2d\U0001f600"


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))


def _random_json_scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice((True, False, None))
    if kind == 1:
        return rng.randint(-(10**20), 10**20)
    if kind == 2:  # past CPython's 4,300-digit int/str limit
        return rng.choice((1, -1)) * rng.randrange(10**4300, 10**4400)
    if kind == 3:
        return rng.choice(_JSON_FLOATS)
    if kind == 4:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300)
    return _random_text(rng)


def random_json_value(rng: random.Random, depth: int = 4):
    """A nested value of dicts (str keys), lists and tuples over JSON scalars.

    It covers the corners of `json.dumps`'s output: ints past 4,300 digits,
    `-0.0`, subnormal and exponent floats, quotes, backslashes, control and
    non-ASCII characters (outside the BMP too), empty containers and tuples.
    """
    kind = rng.randrange(4) if depth > 0 else 3
    if kind == 3:
        return _random_json_scalar(rng)
    items = [random_json_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 0:
        return {_random_text(rng): item for item in items}
    return items if kind == 1 else tuple(items)


# Command lines that argparse rejects with one `error:` line and exit 2;
# scripts/flag_digest.py hashes the CLI's answers to them as well
ARGUMENT_REJECTIONS = [
    ["measure", "--tol", "-inf"],  # argparse reads -inf as an option
    ["expand", "--theta", "3/8"],  # --n missing
    ["bogus"],  # unknown subcommand
]


# Distances of a built input's tail from the skip-region border: on it, inside
# the float prefilter's 1e-9 margin, and outside it
BOUNDARY_DELTAS = (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 2e-9, -2e-9)


def boundary_theta(quotients, delta: float) -> Fraction:
    """x0 = [0; a_1, ..., a_{m-1}, 1 + t'] with index m `delta` from the skip-region border.

    `quotients` are a_1..a_{m-1}, a_1 >= 2, and a_m = 1.  X_m is skipped
    exactly when the tail t' after a_m is below B = (q_{m-1} - q_{m-2}) /
    (2*q_{m-2} + q_{m-1}) (`hermite._region_flag`); here t' = B + delta,
    with delta read exactly as the float it is.  Plain integer arithmetic:
    the continued fraction is folded from the back, its terms coprime.
    """
    q_prev, q_cur = 0, 1
    for a in quotients:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    tail = Fraction(q_cur - q_prev, 2 * q_prev + q_cur) + Fraction(delta)
    assert 0 < tail < 1
    num, den = tail.numerator + tail.denominator, tail.denominator  # 1 + t'
    for a in reversed(quotients):
        num, den = a * num + den, num
    return Fraction(den, num)


def boundary_quotients(rng: random.Random, m: int) -> list[int]:
    """a_1..a_{m-1} for `boundary_theta`: a_1 in 2..9, the others in 1..9."""
    return [rng.randint(2, 9)] + [rng.randint(1, 9) for _ in range(m - 2)]


def count_one_end(monkeypatch, gap_bits: int) -> list:
    """Whether each one-end batch with this gap test held (False: a lockstep
    batch ran), in order: _GAP_BITS on both exact ends, _WIDTH_BITS on one."""
    outcomes = []
    one_end_batch = cf._one_end_batch

    def counted(*args):
        certified = one_end_batch(*args)
        if args[-1] == gap_bits:
            outcomes.append(certified is not None)
        return certified

    monkeypatch.setattr(cf, "_one_end_batch", counted)
    return outcomes


def next_quotient(session):
    """The session's next certified quotient from a run of one; None once it has none."""
    run = session.run(1)[0]
    return run[0] if run else None


def no_two_consecutive_false(flags) -> bool:
    """At least one of any two adjacent flags is not False (None breaks adjacency)."""
    previous = None
    for f in flags:
        if f is False and previous is False:
            return False
        previous = f
    return True
