"""The two-dimensional map, its inverse, the invariant density and region V."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hermite_lab import (
    DomainError,
    DomainPoint,
    HermiteLabError,
    OrbitTerminates,
    contraction_check,
    density_mu,
    in_region_V,
    invariance_residual,
    mu_measure_V,
    orbit,
    step_T,
    step_T_inv,
)

MU_V_TARGET = (math.log(2) - 0.5 * math.log(3)) / math.log(2)


def random_unit_fraction(rng, den_max=10**6) -> Fraction:
    den = rng.randint(2, den_max)
    return Fraction(rng.randint(1, den - 1), den)


class TestStep:
    def test_forward_example(self):
        assert step_T((Fraction(2, 5), Fraction(1, 3))) == (Fraction(1, 2), Fraction(3, 7))

    def test_forward_hits_zero(self):
        assert step_T((Fraction(1, 2), 0)) == (0, Fraction(1, 2))

    def test_forward_domain_error(self):
        with pytest.raises(DomainError):
            step_T((0, Fraction(1, 3)))

    def test_y_zero_needs_small_x(self):
        with pytest.raises(DomainError):
            step_T((Fraction(2, 3), 0))

    def test_backward_example(self):
        assert step_T_inv((Fraction(1, 2), Fraction(3, 7))) == (Fraction(2, 5), Fraction(1, 3))

    def test_backward_boundary(self):
        assert step_T_inv((0, Fraction(1, 2))) == (Fraction(1, 2), 0)

    def test_backward_domain_error(self):
        with pytest.raises(DomainError):
            step_T_inv((Fraction(1, 3), 0))

    def test_bijection_on_rationals(self):
        rng = random.Random(17)
        for _ in range(500):
            p = DomainPoint(random_unit_fraction(rng), random_unit_fraction(rng))
            image = step_T(p)
            assert step_T_inv(image) == p
            pre = step_T_inv(p)
            assert step_T(pre) == p

    def test_inverse_is_swap_conjugate(self):
        rng = random.Random(23)
        swap = lambda q: DomainPoint(q[1], q[0])  # noqa: E731
        for _ in range(200):
            p = DomainPoint(random_unit_fraction(rng), random_unit_fraction(rng))
            assert step_T_inv(p) == swap(step_T(swap(p)))


class TestOrbit:
    def test_quadratic_period_two(self):
        x0 = (math.sqrt(21) - 3) / 6
        points = orbit(DomainPoint(x0, 0.0), 4)
        xs = [p.x for p in points]
        assert abs(xs[0] - xs[2]) < 1e-9 and abs(xs[2] - xs[4]) < 1e-9
        assert abs(xs[1] - xs[3]) < 1e-9
        assert abs(xs[1] - 1 / (1 + x0)) < 1e-9

    def test_golden_fixed_point(self):
        g = (math.sqrt(5) - 1) / 2
        for p in orbit(DomainPoint(g, g), 3):
            assert abs(p.x - g) < 1e-9 and abs(p.y - g) < 1e-9

    def test_rational_terminates_at_step_three(self):
        with pytest.raises(OrbitTerminates) as info:
            orbit(DomainPoint(Fraction(3, 8), 0), 3)
        assert info.value.step == 3
        assert len(info.value.points) == 4
        assert info.value.points[-1] == (0, Fraction(3, 8))

    def test_short_request_survives(self):
        points = orbit(DomainPoint(Fraction(3, 8), 0), 2)
        assert points[-1] == (Fraction(1, 2), Fraction(2, 3))

    def test_backward_orbit(self):
        points = orbit(DomainPoint(Fraction(1, 2), Fraction(3, 7)), -1)
        assert points[-1] == (Fraction(2, 5), Fraction(1, 3))

    def test_zero_steps(self):
        assert orbit(DomainPoint(0.25, 0.25), 0) == [DomainPoint(0.25, 0.25)]

    def test_start_on_the_forward_edge_terminates_at_step_zero(self):
        with pytest.raises(OrbitTerminates) as info:
            orbit(DomainPoint(0, Fraction(1, 2)), 3)
        assert info.value.step == 0
        assert info.value.points == [(0, Fraction(1, 2))]

    def test_start_on_the_backward_edge_terminates_at_step_zero(self):
        with pytest.raises(OrbitTerminates) as info:
            orbit(DomainPoint(Fraction(1, 2), 0), -3)
        assert info.value.step == 0
        assert info.value.points == [(Fraction(1, 2), 0)]

    def test_zero_steps_from_an_edge_point(self):
        assert orbit(DomainPoint(0, Fraction(1, 2)), 0) == [(0, Fraction(1, 2))]


class TestRegionV:
    def test_examples(self):
        assert in_region_V((0.9, 0.1))
        assert not in_region_V((0.1, 0.9))
        g = (math.sqrt(5) - 1) / 2
        assert not in_region_V((g, g))
        assert not in_region_V((0.3, 0.0))
        assert not in_region_V((Fraction(1, 2), 0))

    def test_boundary_point_excluded(self):
        # (x, y) = (5/7, 1/3) sits exactly on x = (2y+1)/(y+2)
        y = Fraction(1, 3)
        assert not in_region_V((Fraction(5, 7), y))
        assert in_region_V((Fraction(5, 7) + Fraction(1, 10**9), y))

    def test_predicate_object(self):
        # The predicate is the function itself: no wrapper object around it.
        assert in_region_V((0.9, 0.1)) is True
        assert in_region_V((0.1, 0.9)) is False

    def test_membership_needs_domain(self):
        with pytest.raises(DomainError):
            in_region_V((1.2, 0.5))


class TestDensity:
    def test_values(self):
        assert abs(density_mu((0, 0)) - 1 / math.log(2)) < 1e-12
        assert abs(density_mu((0.5, 0.5)) - 16 / (25 * math.log(2))) < 1e-12
        near_one = 1 - 1e-9
        assert abs(density_mu((near_one, near_one)) - 1 / (4 * math.log(2))) < 1e-6

    def test_invariance_exact_on_rationals(self):
        assert invariance_residual((Fraction(2, 5), Fraction(1, 3))) == 0
        assert invariance_residual((Fraction(1, 2), 0)) == 0
        rng = random.Random(31)
        for _ in range(300):
            p = (random_unit_fraction(rng, 10**4), random_unit_fraction(rng, 10**4))
            assert invariance_residual(p) == 0

    def test_invariance_floats(self):
        assert invariance_residual((0.37, 0.81)) < 1e-12
        rng = random.Random(37)
        for _ in range(2000):
            p = (rng.uniform(1e-6, 1 - 1e-6), rng.uniform(0, 1 - 1e-9))
            assert invariance_residual(p) < 1e-12


class TestMeasureV:
    def test_value(self):
        value = mu_measure_V(1e-8)
        assert abs(value - MU_V_TARGET) <= 1e-8
        assert abs((1 - value) - math.log(3) / (2 * math.log(2))) <= 1e-8

    def test_inner_slice_at_zero(self):
        from hermite_lab.natural_extension import _inner_slice

        assert _inner_slice(0.0) == 0.5

    def test_tolerance_guard(self):
        for tol in (1e-13, math.nan, math.inf):
            with pytest.raises(ValueError):
                mu_measure_V(tol)

    def test_tolerance_error_is_typed(self):
        with pytest.raises(HermiteLabError):
            mu_measure_V(math.nan)

    def test_monte_carlo_cross_check(self):
        rng = random.Random(1234)
        total = 0.0
        total_sq = 0.0
        samples = 200_000
        for _ in range(samples):
            x, y = rng.random(), rng.random()
            value = density_mu((x, y)) if x * (y + 2) > 2 * y + 1 else 0.0
            total += value
            total_sq += value * value
        mean = total / samples
        var = total_sq / samples - mean * mean
        sigma = math.sqrt(var / samples)
        assert abs(mean - mu_measure_V(1e-10)) <= 3 * sigma


class TestContraction:
    def test_example(self):
        gap1, gap2 = contraction_check(Fraction(2, 5), Fraction(1, 3), Fraction(2, 3))
        assert gap1 == Fraction(3, 56)
        assert gap1 <= Fraction(1, 3) and gap2 <= Fraction(1, 6)

    def test_equal_inputs(self):
        assert contraction_check(0.4, 0.3, 0.3) == (0.0, 0.0)

    def test_random_triples(self):
        rng = random.Random(41)
        checked = 0
        while checked < 5000:
            x, y, z = (rng.uniform(1e-6, 1 - 1e-6) for _ in range(3))
            try:
                gap1, gap2 = contraction_check(x, y, z)
            except DomainError:
                continue
            spread = abs(z - y)
            assert gap1 <= spread + 1e-12
            assert gap2 <= 0.5 * spread + 1e-12
            checked += 1

    def test_second_iterate_guard(self):
        with pytest.raises(DomainError):
            contraction_check(Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
