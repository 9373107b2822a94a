"""Shared test oracles, independent of the library's own arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from hermite_lab import QuadraticSpec, RationalSpec, quadratic_or_rational


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


# Command lines that argparse rejects with one `error:` line and exit 2;
# scripts/flag_digest.py hashes the CLI's answers to them as well
ARGUMENT_REJECTIONS = [
    ["measure", "--tol", "-inf"],  # argparse reads -inf as an option
    ["expand", "--theta", "3/8"],  # --n missing
    ["bogus"],  # unknown subcommand
]


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
