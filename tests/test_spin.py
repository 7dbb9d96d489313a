import cmath
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angles, directions, signs
from hvqm.errors import ValidationError
from hvqm.quaternion import I, J, K, Quaternion
from hvqm.spin import (Direction, DirectionSet, born_pair_probability,
                       complex_total_amplitude, elementary_amplitude,
                       marginal_amplitude, pattern_from_index, pattern_to_index,
                       sign_matrix, total_amplitude)

GOLDEN_ANGLES = (0.0, math.pi / 3, 2 * math.pi / 3)


class TestDirection:
    def test_unit_validation(self):
        Direction(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            Direction(1.0, 1.0, 0.0)
        with pytest.raises(ValidationError) as err:
            Direction(0.5, 0.5, 0.0)
        assert "norm" in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(ValidationError):
            Direction(bad, 0.0, 0.0)

    @pytest.mark.parametrize("v", [(1e200, 0.0, 0.0), (0.0, -1e300, 0.0),
                                   (1e154, 1e154, 0.0), (1e200, 1e200, 1e200)])
    def test_overflowing_norm_rejected_with_its_value(self, v):
        """A square or a sum of squares past the float range is a
        ValidationError that names the finite norm, not an OverflowError."""
        with pytest.raises(ValidationError, match=re.escape(f"norm {math.hypot(*v)!r},")):
            Direction(*v)

    @pytest.mark.parametrize("v,want", [
        ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 0.0, -1e308), (0.0, 0.0, -1.0)),
        ((3e200, 4e200, 0.0), (0.6, 0.8, 0.0)),
        ((1e154, -1e154, 1e154), (3 ** -0.5, -(3 ** -0.5), 3 ** -0.5)),
    ])
    def test_normalized_large_components(self, v, want):
        assert Direction.normalized(*v).as_array() == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("v", [(3.0, 4.0, 0.0), (0.3, -1.7, 2.2), (1e150, 2e150, -3e150)])
    def test_normalized_finite_squares_divide_by_the_plain_norm(self, v):
        x, y, z = v
        norm = math.sqrt(x * x + y * y + z * z)
        assert Direction.normalized(*v) == Direction(x / norm, y / norm, z / norm)

    def test_normalized_constructor(self):
        d = Direction.normalized(3.0, 4.0, 0.0)
        assert d.nx == pytest.approx(0.6)
        assert d.ny == pytest.approx(0.8)
        with pytest.raises(ValidationError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_planar_angle_roundtrip(self):
        d = Direction.from_planar_angle(0.7)
        assert d.theta == pytest.approx(0.7)
        assert d.is_planar
        with pytest.raises(ValidationError):
            Direction(0.0, 0.0, 1.0).theta

    def test_antipodal_directions_stay_distinct(self):
        d = Direction.from_planar_angle(0.3)
        ds = DirectionSet.of(d, -d)
        assert len(ds) == 2
        assert ds[1].nx == -d.nx and ds[1].ny == -d.ny

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            DirectionSet(())


class TestPatternEncoding:
    def test_bit_convention(self):
        # bit j set <=> s_j = +1, least-significant bit is index 0
        assert pattern_from_index(0, 3) == (-1, -1, -1)
        assert pattern_from_index(1, 3) == (1, -1, -1)
        assert pattern_from_index(4, 3) == (-1, -1, 1)
        assert pattern_from_index(7, 3) == (1, 1, 1)

    def test_roundtrip(self):
        for k in range(16):
            assert pattern_to_index(pattern_from_index(k, 4)) == k

    def test_sign_matrix_matches(self):
        m = sign_matrix(3)
        for k in range(8):
            assert tuple(int(s) for s in m[k]) == pattern_from_index(k, 3)


class TestElementaryAmplitude:
    def test_basis_values(self):
        assert elementary_amplitude(1, Direction(1, 0, 0)) == I
        assert elementary_amplitude(-1, Direction(0, 0, 1)) == -K
        assert elementary_amplitude(1, Direction(0, 1, 0)) == J

    @given(directions(), signs)
    def test_pure_imaginary_unit(self, n, s):
        q = elementary_amplitude(s, n)
        assert q.w == 0.0
        assert q.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_bad_sign(self):
        with pytest.raises(ValidationError):
            elementary_amplitude(0, Direction(1, 0, 0))

    def test_planar_backend_agreement_on_grid(self):
        # |quaternion pair sum|^2 vs |e^{i t1} +/- e^{i t2}|^2 across a grid
        thetas = np.linspace(-math.pi, math.pi, 17)
        for t1, t2 in itertools.product(thetas, repeat=2):
            ds = DirectionSet.from_planar_angles([t1, t2])
            for s2 in (1, -1):
                q = total_amplitude((1, s2), ds)
                z = cmath.exp(1j * t1) + s2 * cmath.exp(1j * t2)
                assert q.norm_sq() == pytest.approx(abs(z) ** 2, abs=1e-12)


class TestTotalAmplitude:
    def test_golden_null_pattern(self):
        ds = DirectionSet.from_planar_angles(GOLDEN_ANGLES)
        q = total_amplitude((1, -1, 1), ds)
        assert q.norm_sq() < 1e-24

    def test_single_direction(self):
        ds = DirectionSet.of(Direction(0, 1, 0))
        assert total_amplitude((1,), ds) == J

    def test_antiparallel_cancellation(self):
        d = Direction.normalized(1.0, 2.0, -0.5)
        q = total_amplitude((1, 1), DirectionSet.of(d, -d))
        assert q.norm_sq() == 0.0

    def test_length_mismatch(self):
        ds = DirectionSet.from_planar_angles([0.0, 1.0])
        with pytest.raises(ValidationError):
            total_amplitude((1,), ds)

    @given(st.data())
    def test_real_part_always_zero(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        ds = DirectionSet(tuple(data.draw(directions()) for _ in range(n)))
        pattern = tuple(data.draw(signs) for _ in range(n))
        assert total_amplitude(pattern, ds).w == 0.0

    @given(st.data())
    @settings(max_examples=50)
    def test_planar_consistency_random(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        ts = [data.draw(angles) for _ in range(n)]
        pattern = tuple(data.draw(signs) for _ in range(n))
        ds = DirectionSet.from_planar_angles(ts)
        q = total_amplitude(pattern, ds)
        z = complex_total_amplitude(pattern, ds)
        assert q.norm_sq() == pytest.approx(abs(z) ** 2, abs=1e-12)

    def test_complex_backend_requires_planar(self):
        ds = DirectionSet.of(Direction(0, 0, 1))
        with pytest.raises(ValidationError):
            complex_total_amplitude((1,), ds)


def brute_force_marginal(fixed, ds):
    """Oracle: literal sum of total_amplitude over all completions."""
    n = len(ds)
    free = [j for j in range(n) if j not in fixed]
    total = Quaternion()
    for combo in itertools.product((1, -1), repeat=len(free)):
        pattern = [0] * n
        for j, s in fixed.items():
            pattern[j] = s
        for j, s in zip(free, combo):
            pattern[j] = s
        total = total + total_amplitude(pattern, ds)
    return total


def closed_form_marginal(fixed, ds):
    """Oracle: 2^(N-|F|) * sum_F s_j q(n_j)."""
    scale = 2 ** (len(ds) - len(fixed))
    acc = Quaternion()
    for j, s in fixed.items():
        acc = acc + elementary_amplitude(s, ds[j])
    return scale * acc


class TestMarginalAmplitude:
    def test_three_directions_two_fixed(self):
        ds = DirectionSet.from_planar_angles([0.2, 1.1, 2.5])
        fixed = {0: 1, 1: -1}
        got = marginal_amplitude(fixed, ds)
        assert got.is_close(brute_force_marginal(fixed, ds), tol=1e-12)
        # equals 2 * (n0 - n1) as quaternions
        expected = 2 * (ds[0].as_quaternion() - ds[1].as_quaternion())
        assert got.is_close(expected, tol=1e-12)

    def test_all_fixed_equals_total(self):
        ds = DirectionSet.from_planar_angles([0.0, 0.5, 1.0])
        pattern = (1, -1, -1)
        fixed = dict(enumerate(pattern))
        assert marginal_amplitude(fixed, ds) == total_amplitude(pattern, ds)

    def test_single_fixed_of_five(self):
        ds = DirectionSet.from_planar_angles([0.0, 0.3, 0.7, 1.1, 2.0])
        got = marginal_amplitude({0: 1}, ds)
        # the scalar-loop oracle accumulates rounding the vector path avoids
        assert got.is_close(brute_force_marginal({0: 1}, ds), tol=1e-12)
        assert got == 16 * ds[0].as_quaternion()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_form_exactly(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        ds = DirectionSet(tuple(data.draw(directions()) for _ in range(n)))
        k = data.draw(st.integers(min_value=1, max_value=n))
        idx = data.draw(st.permutations(range(n))) [:k]
        fixed = {j: data.draw(signs) for j in idx}
        got = marginal_amplitude(fixed, ds)
        want = closed_form_marginal(fixed, ds)
        # integer-weighted sums: enumeration and closed form agree exactly
        assert got == want

    def test_empty_fixed_rejected(self):
        ds = DirectionSet.from_planar_angles([0.0, 1.0])
        with pytest.raises(ValidationError):
            marginal_amplitude({}, ds)

    def test_free_index_cap(self):
        ds = DirectionSet.from_planar_angles([0.01 * j for j in range(26)])
        with pytest.raises(ValidationError):
            marginal_amplitude({0: 1}, ds)


class TestBornPairProbability:
    def test_aligned_same_sign(self):
        n = Direction.from_planar_angle(0.4)
        assert born_pair_probability(1, 1, n, n) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_quarter(self):
        n1 = Direction(1, 0, 0)
        n2 = Direction(0, 1, 0)
        for s1 in (1, -1):
            for s2 in (1, -1):
                assert born_pair_probability(s1, s2, n1, n2) == pytest.approx(0.25)

    def test_golden_sixty_degrees_opposite(self):
        # (1/2) sin^2(delta/2) form at delta = pi/3: 1/8
        n1 = Direction.from_planar_angle(0.0)
        n2 = Direction.from_planar_angle(math.pi / 3)
        p = born_pair_probability(1, -1, n1, n2)
        assert p == pytest.approx(0.125, abs=1e-15)
        assert p == pytest.approx(0.5 * math.sin(math.pi / 6) ** 2, abs=1e-15)

    @given(directions(), directions())
    def test_four_outcomes_sum_to_one(self, n1, n2):
        total = sum(born_pair_probability(s1, s2, n1, n2)
                    for s1 in (1, -1) for s2 in (1, -1))
        assert abs(total - 1.0) <= 1e-15

    @given(directions(), directions(), signs, signs)
    def test_closed_form(self, n1, n2, s1, s2):
        p = born_pair_probability(s1, s2, n1, n2)
        assert p == pytest.approx(0.25 * (1 + s1 * s2 * n1.dot(n2)), abs=1e-14)


@given(directions(), directions())
def test_anticommutator_identity(n1, n2):
    # q1* q2 + q2* q1 = 2 (n1 . n2) * ONE with no imaginary residue
    q1 = elementary_amplitude(1, n1)
    q2 = elementary_amplitude(1, n2)
    lhs = q1.conjugate() * q2 + q2.conjugate() * q1
    assert abs(lhs.w - 2 * n1.dot(n2)) <= 1e-12
    assert abs(lhs.x) <= 1e-12
    assert abs(lhs.y) <= 1e-12
    assert abs(lhs.z) <= 1e-12
