import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import angles, directions, pattern_to_index, planar_amplitudes, signs
from hvqm.errors import ValidationError
from hvqm import epr, quasiprob, spin
from hvqm.quaternion import Quaternion
from hvqm.spin import (Direction, DirectionSet, marginal_amplitude, pattern_from_index,
                       sign_matrix, signed_sum_tiles, signed_sums)

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

    @pytest.mark.parametrize("v,want", [
        ((1e-170, 0.0, 0.0), (1.0, 0.0, 0.0)),        # every square underflows to 0
        ((3e-160, 4e-160, 0.0), (0.6, 0.8, 0.0)),     # subnormal, inexact squares
        ((1e-320, -1e-320, 0.0), (0.5 ** 0.5, -(0.5 ** 0.5), 0.0)),   # subnormal norm
        ((5e-324, 5e-324, 5e-324), (3 ** -0.5, 3 ** -0.5, 3 ** -0.5)),
    ])
    def test_normalized_tiny_components(self, v, want):
        assert Direction.normalized(*v).as_array() == pytest.approx(want, abs=1e-15)

    @given(st.tuples(*[st.floats(-1e150, 1e150)] * 3))
    def test_normalized_normal_squares_divide_by_the_plain_norm(self, v):
        x, y, z = v
        squares = x * x + y * y + z * z
        assume(squares >= sys.float_info.min)
        norm = math.sqrt(squares)
        assert Direction.normalized(*v) == Direction(x / norm, y / norm, z / norm)

    @given(st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))] * 3)
           .filter(any), st.integers(530, 700))
    def test_normalized_tiny_vector_is_its_scaled_up_direction(self, v, k):
        """Scaled by 2^-k into the range where squares underflow, a vector
        keeps the direction bit for bit."""
        assert (Direction.normalized(*(c * 2.0 ** -k for c in v))
                == Direction.normalized(*v))

    def test_normalized_constructor(self):
        d = Direction.normalized(3.0, 4.0, 0.0)
        assert d.nx == pytest.approx(0.6)
        assert d.ny == pytest.approx(0.8)
        with pytest.raises(ValidationError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_planar_angle_roundtrip(self):
        d = Direction.from_planar_angle(0.7)
        assert math.atan2(d.ny, d.nx) == pytest.approx(0.7)
        assert d.nz == 0.0

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

    @pytest.mark.parametrize("bits", [1, 3, 13])
    def test_tiles_are_the_signed_sums(self, monkeypatch, bits):
        """Every row whose sign at b = min(N - 1, SUM_TILE_BITS) is +1
        once, at its start, with the bits of signed_sums, and no other row;
        the other rows are those rows' complements, negated."""
        monkeypatch.setattr(spin, "SUM_TILE_BITS", bits)
        v = np.random.default_rng(bits).normal(size=(7, 3))
        b = min(7 - 1, bits)
        want = signed_sums(v)
        got = np.full_like(want, np.nan)
        for start, rows in signed_sum_tiles(v):
            assert rows.shape == (1 << b, 3)
            assert np.isnan(got[start:start + len(rows)]).all()
            got[start:start + len(rows)] = rows
        plus = (np.arange(1 << 7) >> b & 1).astype(bool)
        assert np.isnan(got[~plus]).all()
        assert np.array_equal(got[plus].view(np.int64), want[plus].view(np.int64))
        # row 2^N - 1 - k is the pattern -s of row k
        assert np.array_equal(want[::-1][~plus].view(np.int64), (-want[~plus]).view(np.int64))


def amplitudes(ds: DirectionSet) -> np.ndarray:
    """Total amplitude sum_j s_j n_j of every pattern, row k = pattern k."""
    return signed_sums(ds.as_matrix())


def components(q: Quaternion) -> np.ndarray:
    return np.array([q.w, q.x, q.y, q.z])


class TestElementaryAmplitude:
    """One direction's amplitudes: s n for s = -1 (row 0) and +1 (row 1)."""

    def test_basis_values(self):
        for n in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            rows = amplitudes(DirectionSet.of(Direction(*n)))
            assert np.array_equal(rows, [np.negative(n), n])

    @given(directions(), signs)
    def test_pure_imaginary_unit(self, n, s):
        q = marginal_amplitude({0: s}, DirectionSet.of(n))
        assert q.w == 0.0
        assert float(components(q) @ components(q)) == pytest.approx(1.0, abs=1e-12)

    def test_bad_sign(self):
        with pytest.raises(ValidationError):
            marginal_amplitude({0: 0}, DirectionSet.of(Direction(1, 0, 0)))

    def test_planar_backend_agreement_on_grid(self):
        # |n1 +/- n2|^2 vs |e^{i t1} +/- e^{i t2}|^2 across a grid
        thetas = np.linspace(-math.pi, math.pi, 17)
        for t1, t2 in itertools.product(thetas, repeat=2):
            rows = amplitudes(DirectionSet.from_planar_angles([t1, t2]))
            want = np.abs(planar_amplitudes([t1, t2])) ** 2
            assert np.einsum("ij,ij->i", rows, rows) == pytest.approx(want, abs=1e-12)


class TestTotalAmplitude:
    def test_golden_null_pattern(self):
        v = amplitudes(DirectionSet.from_planar_angles(GOLDEN_ANGLES))[
            pattern_to_index((1, -1, 1))]
        assert float(v @ v) < 1e-24

    def test_single_direction(self):
        ds = DirectionSet.of(Direction(0, 1, 0))
        assert np.array_equal(amplitudes(ds)[pattern_to_index((1,))], [0, 1, 0])

    def test_antiparallel_cancellation(self):
        d = Direction.normalized(1.0, 2.0, -0.5)
        v = amplitudes(DirectionSet.of(d, -d))[pattern_to_index((1, 1))]
        assert float(v @ v) == 0.0

    @given(st.data())
    def test_real_part_always_zero(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        ds = DirectionSet(tuple(data.draw(directions()) for _ in range(n)))
        pattern = tuple(data.draw(signs) for _ in range(n))
        assert marginal_amplitude(dict(enumerate(pattern)), ds).w == 0.0

    @given(st.data())
    @settings(max_examples=50)
    def test_planar_consistency_random(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        ts = [data.draw(angles) for _ in range(n)]
        k = pattern_to_index(tuple(data.draw(signs) for _ in range(n)))
        v = amplitudes(DirectionSet.from_planar_angles(ts))[k]
        z = planar_amplitudes(ts)[k]
        assert float(v @ v) == pytest.approx(abs(z) ** 2, abs=1e-12)


def brute_force_marginal(fixed, ds):
    """Oracle: the literal sum of sum_j s_j n_j over all completions, as
    (w, x, y, z)."""
    total = np.zeros(4)
    for pattern in itertools.product((1, -1), repeat=len(ds)):
        if all(pattern[j] == s for j, s in fixed.items()):
            total[1:] += sum(s * d.as_array() for s, d in zip(pattern, ds))
    return total


def closed_form_marginal(fixed, ds):
    """Oracle: 2^(N-|F|) * sum_F s_j n_j, one component at a time."""
    scale = 2 ** (len(ds) - len(fixed))
    x = y = z = 0.0
    for j, s in fixed.items():
        x += s * ds[j].nx
        y += s * ds[j].ny
        z += s * ds[j].nz
    return Quaternion(0.0, scale * x, scale * y, scale * z)


class TestMarginalAmplitude:
    def test_three_directions_two_fixed(self):
        ds = DirectionSet.from_planar_angles([0.2, 1.1, 2.5])
        fixed = {0: 1, 1: -1}
        got = components(marginal_amplitude(fixed, ds))
        assert np.linalg.norm(got - brute_force_marginal(fixed, ds)) <= 1e-12
        # equals 2 * (n0 - n1)
        expected = 2 * (ds[0].as_array() - ds[1].as_array())
        assert np.linalg.norm(got - [0.0, *expected]) <= 1e-12

    def test_all_fixed_equals_total(self):
        ds = DirectionSet.from_planar_angles([0.0, 0.5, 1.0])
        pattern = (1, -1, -1)
        got = components(marginal_amplitude(dict(enumerate(pattern)), ds))
        assert np.array_equal(got, [0.0, *amplitudes(ds)[pattern_to_index(pattern)]])

    def test_single_fixed_of_five(self):
        ds = DirectionSet.from_planar_angles([0.0, 0.3, 0.7, 1.1, 2.0])
        got = components(marginal_amplitude({0: 1}, ds))
        # the scalar-loop oracle accumulates rounding the vector path avoids
        assert np.linalg.norm(got - brute_force_marginal({0: 1}, ds)) <= 1e-12
        assert np.array_equal(got, [0.0, *(16 * ds[0].as_array())])
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


def born_pair_probability(s1, s2, n1, n2):
    """The pair Born rule on one hidden pattern, (1 + s1 s2 n1 . n2) / 4:
    a singlet's Bob reads the negated sign."""
    return epr.pair_joint_probability(n1, n2, s1, -s2)


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
    """The cross term of |s1 n1 + s2 n2|^2 is 2 s1 s2 n1 . n2, the real part
    of the anticommutator of the two directions' quaternions: the identity
    I(s) = N + 2 sum_{i<j} s_i s_j n_i . n_j that solve_weights rests on."""
    intensity = quasiprob._intensity(DirectionSet.of(n1, n2))
    for k in range(4):
        s1, s2 = pattern_from_index(k, 2)
        assert abs(intensity[k] - 2.0 - 2 * s1 * s2 * n1.dot(n2)) <= 1e-12
