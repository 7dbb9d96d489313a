import contextlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angles
from conftest import (born_pair_marginal, closed_form_w3, directions, interference_gap,
                      joint_outcomes, pair_cells, pair_law_residual, pair_marginal_probability,
                      pattern_cells, pattern_to_index, random_directions, sign_keyed,
                      sign_matrix)
from hvqm import quasiprob, runner, spin
from hvqm.cli import main
from hvqm.errors import SolverError
from hvqm.errors import ValidationError
from hvqm.quasiprob import (BornTable, QuasiProbTable, born_table, marginal, negativity_report,
                            solve_weights, born_csv, table_csv)
from hvqm.quasiprob import check_pair_law
from hvqm.spin import Direction, DirectionSet, pattern_from_index, signed_sums

GOLDEN = (0.0, math.pi / 3, 2 * math.pi / 3)


def golden_set():
    return DirectionSet.from_planar_angles(GOLDEN)


def generalized_closed_form(dirs):
    """In-test oracle: W(s) = 2^-N [1 + sum_{i<j} s_i s_j n_i . n_j].

    One particular solution of the pairwise system for any N; marginalizing
    over free indices kills every term containing them.
    """
    n = len(dirs)
    signs = sign_matrix(n)
    w = np.ones(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            w += signs[:, i] * signs[:, j] * dirs[i].dot(dirs[j])
    return w / (1 << n)


def _constraint_system(dirs):
    """Normalization plus all C(N,2) x 4 pairwise-marginal rows."""
    n = len(dirs)
    signs = sign_matrix(n)
    rows = [np.ones(1 << n)]
    rhs = [1.0]
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    mask = (signs[:, i] == si) & (signs[:, j] == sj)
                    rows.append(mask.astype(float))
                    rhs.append(0.25 * (1.0 + si * sj * dirs[i].dot(dirs[j])))
    return np.array(rows), np.array(rhs)


def min_norm_oracle(dirs):
    """In-test oracle: least-squares minimum-norm solution of the system."""
    a, b = _constraint_system(dirs)
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return w


@st.composite
def direction_sets(draw, min_size=2, max_size=12):
    """Direction sets with axes, antipodal pairs and repeated entries among
    random directions."""
    axes = [Direction(1, 0, 0), Direction(0, 1, 0), Direction(0, 0, 1)]
    ds = []
    for _ in range(draw(st.integers(min_value=min_size, max_value=max_size))):
        kind = draw(st.sampled_from(["random", "axis", "antipodal", "repeated"]))
        if kind == "axis":
            ds.append(draw(st.sampled_from(axes)))
        elif ds and kind == "antipodal":
            ds.append(-draw(st.sampled_from(ds)))
        elif ds and kind == "repeated":
            ds.append(draw(st.sampled_from(ds)))
        else:
            ds.append(draw(directions()))
    return DirectionSet(tuple(ds))


def stretched_born(dirs):
    """The signed table W = (N/2) B + (1 - N/2) 2^-N, without solve_weights' check."""
    n = len(dirs)
    return n / 2 * born_table(dirs).probabilities + (1 - n / 2) / (1 << n)


def mask_loop_marginal(table, idx):
    """In-test oracle: one boolean mask over the sign matrix per kept pattern."""
    signs = sign_matrix(len(table.directions))
    out = {}
    for k in range(1 << len(idx)):
        kept = pattern_from_index(k, len(idx))
        mask = np.ones(len(signs), dtype=bool)
        for pos, i in enumerate(idx):
            mask &= signs[:, i] == kept[pos]
        out[kept] = float(table.weights[mask].sum())
    return out


class TestClosedFormW3:
    def test_golden_negative_entries(self):
        assert closed_form_w3((1, -1, 1), GOLDEN) == pytest.approx(-1 / 16, abs=1e-15)
        assert closed_form_w3((-1, 1, -1), GOLDEN) == pytest.approx(-1 / 16, abs=1e-15)

    def test_golden_positive_entries(self):
        for pattern in itertools.product((1, -1), repeat=3):
            if pattern in ((1, -1, 1), (-1, 1, -1)):
                continue
            assert closed_form_w3(pattern, GOLDEN) == pytest.approx(3 / 16, abs=1e-15)

    def test_collinear(self):
        assert closed_form_w3((1, 1, 1), (0.0, 0.0, 0.0)) == pytest.approx(0.5)
        assert closed_form_w3((1, -1, 1), (0.0, 0.0, 0.0)) == pytest.approx(0.0)

    def test_requires_three(self):
        with pytest.raises(ValidationError):
            closed_form_w3((1, 1), (0.0, 1.0))


class TestSolveWeights:
    def test_n3_matches_closed_form(self):
        table = solve_weights(golden_set())
        for k in range(8):
            p = pattern_from_index(k, 3)
            assert table.weights[k] == pytest.approx(
                closed_form_w3(p, GOLDEN), abs=1e-10)

    @given(angles, angles, angles)
    @settings(max_examples=25, deadline=None)
    def test_n3_matches_closed_form_random_angles(self, t1, t2, t3):
        dirs = DirectionSet.from_planar_angles([t1, t2, t3])
        table = solve_weights(dirs)
        for k in range(8):
            expected = closed_form_w3(pattern_from_index(k, 3), (t1, t2, t3))
            assert table.weights[k] == pytest.approx(expected, abs=1e-9)

    def test_n2_is_the_marginals(self):
        dirs = DirectionSet.from_planar_angles([0.3, 1.4])
        table = solve_weights(dirs)
        for k in range(4):
            s1, s2 = pattern_from_index(k, 2)
            assert table.weights[k] == pytest.approx(
                pair_marginal_probability(s1, s2, 0.3, 1.4), abs=1e-12)

    def test_n4_marginals_reproduce_pair_law(self):
        ts = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        table = solve_weights(DirectionSet.from_planar_angles(ts))
        for i in range(4):
            for j in range(i + 1, 4):
                pm = marginal(table, (i, j))
                for (si, sj), p in pm.items():
                    assert p == pytest.approx(
                        pair_marginal_probability(si, sj, ts[i], ts[j]), abs=1e-10)

    def test_n4_minimum_norm(self):
        ts = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        dirs = DirectionSet.from_planar_angles(ts)
        table = solve_weights(dirs)
        particular = generalized_closed_form(dirs)
        # the particular solution satisfies the system too...
        t2 = QuasiProbTable(dirs, particular)
        for i, j in itertools.combinations(range(4), 2):
            for (si, sj), p in marginal(t2, (i, j)).items():
                assert p == pytest.approx(
                    pair_marginal_probability(si, sj, ts[i], ts[j]), abs=1e-12)
        # ...so the minimum-norm solution cannot be longer
        assert np.linalg.norm(table.weights) <= np.linalg.norm(particular) + 1e-10

    def test_pinv_cross_check(self):
        dirs = DirectionSet.from_planar_angles((0.0, 0.9, 1.7, 2.8))
        a, b = _constraint_system(dirs)
        expected = np.linalg.pinv(a) @ b
        table = solve_weights(dirs)
        assert np.allclose(table.weights, expected, atol=1e-8)

    @given(st.lists(angles, min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_matches_lstsq_min_norm(self, ts):
        dirs = DirectionSet.from_planar_angles(ts)
        got = solve_weights(dirs).weights
        assert np.abs(got - min_norm_oracle(dirs)).max() <= 1e-12

    def test_n3_is_closed_form_w3(self):
        for ts in (GOLDEN, (0.3, -1.2, 2.9), (0.0, 0.0, 0.0)):
            w = solve_weights(DirectionSet.from_planar_angles(ts)).weights
            for k in range(8):
                assert abs(w[k] - closed_form_w3(pattern_from_index(k, 3), ts)) <= 1e-15

    def test_matches_generalized_closed_form(self):
        planar = DirectionSet.from_planar_angles([0.4 * j - 1.0 for j in range(12)])
        for dirs in [planar] + [random_directions(n) for n in (2, 3, 5, 8, 12)]:
            gap = np.abs(solve_weights(dirs).weights - generalized_closed_form(dirs)).max()
            assert gap <= 1e-15, len(dirs)

    @given(st.lists(directions(), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_is_the_born_table_stretched(self, ds):
        """W = (N/2) B + (1 - N/2) 2^-N, negative exactly where
        2^N N B < N - 2: the Born table is nonnegative, and the stretch
        that gives it the pair law takes the low patterns below zero."""
        dirs = DirectionSet(tuple(ds))
        n = len(dirs)
        w, b = solve_weights(dirs).weights, born_table(dirs).probabilities
        assert np.abs(w - (n / 2 * b + (1 - n / 2) / (1 << n))).max() <= 1e-15
        edge = (1 << n) * n * b - (n - 2)
        clear = np.abs(edge) > 1e-9
        assert np.array_equal((w < 0)[clear], (edge < -1e-9)[clear])

    def test_broken_pair_law_raises(self):
        dirs = DirectionSet.from_planar_angles((0.0, 0.9, 1.7, 2.8))
        w = solve_weights(dirs).weights.copy()
        check_pair_law(dirs, w)
        w[5] += 1e-9
        with pytest.raises(SolverError, match="max residual"):
            check_pair_law(dirs, w)

    def test_caps(self):
        # any directions: a non-planar pair is a table like a planar one
        dirs = DirectionSet.of(Direction(0, 0, 1), Direction(1, 0, 0))
        check_pair_law(dirs, solve_weights(dirs).weights)
        with pytest.raises(ValidationError):
            solve_weights(DirectionSet.from_planar_angles([0.0]))
        # one cap for both tables: the signed table is solved up to N = 20
        assert quasiprob.MAX_N == 20
        assert len(solve_weights(random_directions(20)).weights) == 1 << 20
        with pytest.raises(ValidationError, match="table cap of 20"):
            solve_weights(DirectionSet.from_planar_angles([0.01 * i for i in range(21)]))

    def test_table_validation(self):
        dirs = DirectionSet.from_planar_angles(GOLDEN)
        with pytest.raises(ValidationError):
            QuasiProbTable(dirs, np.full(8, 0.2))  # sums to 1.6
        with pytest.raises(ValidationError):
            QuasiProbTable(dirs, np.full(4, 0.25))  # wrong size

    def test_nan_weight_is_refused(self):
        with pytest.raises(ValidationError, match="nan"):
            QuasiProbTable(DirectionSet.from_planar_angles([0.3]), np.array([math.nan, 0.5]))

    def test_nan_weight_breaks_the_pair_law(self):
        dirs = DirectionSet.from_planar_angles([0.3, 1.1])
        with pytest.raises(SolverError, match="nan"):
            check_pair_law(dirs, np.array([math.nan, 0.25, 0.25, 0.25]))


class TestPairLawCheck:
    """check_pair_law reads every pair's cells from the Walsh sums of one
    butterfly pass per sign bit; the per-pair reductions are the oracle."""

    @given(direction_sets(), st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_worst_residual_matches_the_per_pair_oracle(self, dirs, scale, seed):
        w = solve_weights(dirs).weights
        w = w + scale * np.random.default_rng(seed).normal(size=w.size)
        got = quasiprob._pair_law_residual(dirs, w)
        assert abs(got - pair_law_residual(dirs, w)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_a_small_perturbation_is_refused(self, n):
        dirs = random_directions(n)
        w = solve_weights(dirs).weights.copy()
        check_pair_law(dirs, w)
        for k in (0, (1 << n) - 1, (1 << n) // 3):
            bad = w.copy()
            bad[k] += 3e-10
            with pytest.raises(SolverError, match="max residual"):
                check_pair_law(dirs, bad)

    def test_the_weights_are_not_written(self):
        dirs = random_directions(5)
        w = solve_weights(dirs).weights
        before = w.copy()
        check_pair_law(dirs, w)
        assert np.array_equal(w, before)

    def test_past_the_solver_cap(self):
        for n in (13, 16):
            dirs = random_directions(n)
            w = stretched_born(dirs)
            check_pair_law(dirs, w)
            assert abs(quasiprob._pair_law_residual(dirs, w) - pair_law_residual(dirs, w)) <= 1e-14

    def test_memory_stays_near_the_table(self):
        """A copy of the table and one buffer of its size for the butterfly
        passes, and the pair arrays."""
        dirs = random_directions(16)
        w = stretched_born(dirs)
        tracemalloc.start()
        try:
            check_pair_law(dirs, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * w.nbytes


class TestMarginals:
    def test_pair_from_golden_table(self):
        table = solve_weights(golden_set())
        pm = marginal(table, (0, 1))
        for (s1, s2), p in pm.items():
            assert p == pytest.approx(
                pair_marginal_probability(s1, s2, 0.0, math.pi / 3), abs=1e-10)
        assert sum(pm.values()) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_sum_identity(self):
        # P(s1, s2) = W(s1, s2, +1) + W(s1, s2, -1)
        table = solve_weights(golden_set())
        pm = marginal(table, (0, 1))
        for (s1, s2), p in pm.items():
            assert p == pytest.approx(
                table.weights[pattern_to_index((s1, s2, 1))]
                + table.weights[pattern_to_index((s1, s2, -1))], abs=1e-12)

    def test_single_index_is_half_half(self):
        table = solve_weights(golden_set())
        for i in range(3):
            m = marginal(table, (i,))
            assert m[(1,)] == pytest.approx(0.5, abs=1e-10)
            assert m[(-1,)] == pytest.approx(0.5, abs=1e-10)

    @given(direction_sets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_mask_loop(self, dirs, data):
        """Any index order, the empty and the full set among them: the keys
        of the mask loop and of the cell oracle in their order, each value
        within 1e-14."""
        n = len(dirs)
        table = solve_weights(dirs)
        idx = data.draw(st.permutations(range(n)))
        idx = idx[:data.draw(st.integers(min_value=0, max_value=n))]
        got = marginal(table, idx)
        for want in (mask_loop_marginal(table, idx),
                     sign_keyed(pattern_cells(table.weights, n, idx))):
            assert list(got) == list(want)
            assert max(abs(got[key] - p) for key, p in want.items()) <= 1e-14

    def test_unsorted_indices(self):
        ts = (0.1, 0.8, 1.9, 2.4, 3.3)
        table = solve_weights(DirectionSet.from_planar_angles(ts))
        got = marginal(table, (3, 0, 2))
        for key, p in mask_loop_marginal(table, (3, 0, 2)).items():
            assert got[key] == pytest.approx(p, abs=1e-14)
        # (s3, s0) keyed in the caller's order reproduce the pair law
        for (s3, s0), p in marginal(table, (3, 0)).items():
            assert p == pytest.approx(pair_marginal_probability(s3, s0, ts[3], ts[0]), abs=1e-12)

    def test_bad_indices(self):
        table = solve_weights(golden_set())
        with pytest.raises(ValidationError):
            marginal(table, (0, 0))
        with pytest.raises(ValidationError):
            marginal(table, (0, 5))

    @pytest.mark.parametrize("idx", [(1.0, 2), ("1",), (True,), (0, False), (None,),
                                     (np.float64(1.0),), (np.bool_(True),)])
    def test_non_integer_indices_are_refused(self, idx):
        with pytest.raises(ValidationError, match="not an integer"):
            marginal(solve_weights(golden_set()), idx)

    def test_numpy_integer_indices(self):
        table = solve_weights(golden_set())
        assert marginal(table, (np.int64(2), np.int32(0))) == marginal(table, (2, 0))

    def test_empty_and_full_index_sets(self):
        dirs = random_directions(12)
        table = solve_weights(dirs)
        assert list(marginal(table, ())) == [()]
        assert abs(marginal(table, ())[()] - 1.0) <= 1e-14
        full = marginal(table, range(12))
        assert list(full) == [pattern_from_index(k, 12) for k in range(1 << 12)]
        assert list(full.values()) == table.weights.tolist()
        backwards = marginal(table, range(11, -1, -1))
        assert all(backwards[key[::-1]] == p for key, p in full.items())


def einsum_born(dirs):
    vec = signed_sums(dirs.as_matrix())
    intensity = np.einsum("ij,ij->i", vec, vec)
    return intensity / intensity.sum()


class TestBornTable:
    def test_golden_null_entry(self):
        table = born_table(golden_set())
        assert table.probabilities[pattern_to_index((1, -1, 1))] == pytest.approx(0.0, abs=1e-24)

    def test_single_direction(self):
        table = born_table(DirectionSet.from_planar_angles([0.7]))
        assert table.probabilities[pattern_to_index((1,))] == pytest.approx(0.5)
        assert table.probabilities[pattern_to_index((-1,))] == pytest.approx(0.5)

    def test_golden_all_plus_value(self):
        # complex-arithmetic oracle: |1 + e^{i pi/3} + e^{i 2 pi/3}|^2 / total
        amps = [sum(s * np.exp(1j * t) for s, t in zip(p, GOLDEN))
                for p in itertools.product((1, -1), repeat=3)]
        oracle = abs(amps[0]) ** 2 / sum(abs(a) ** 2 for a in amps)
        table = born_table(golden_set())
        assert table.probabilities[pattern_to_index((1, 1, 1))] == pytest.approx(oracle, abs=1e-14)
        assert table.probabilities[pattern_to_index((1, 1, 1))] == pytest.approx(1 / 6, abs=1e-12)

    def test_normalized_nonnegative(self):
        table = born_table(DirectionSet.from_planar_angles([0.1, 0.9, 2.2, 4.0]))
        assert np.all(table.probabilities >= 0)
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(directions(), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_equals_sign_matrix_route(self, ds):
        dirs = DirectionSet(tuple(ds))
        vec = sign_matrix(len(dirs)) @ dirs.as_matrix()
        intensity = np.einsum("ij,ij->i", vec, vec)
        assert np.array_equal(born_table(dirs).probabilities, intensity / intensity.sum())

    @pytest.mark.parametrize("n", [1, 3, 12, 20])
    def test_bits_of_the_einsum_over_the_stacked_sums(self, n):
        """born_table squares one coordinate plane at a time; the Born bits
        are those of np.einsum over the (2^N, 3) stack of signed sums."""
        rng = np.random.default_rng(n)
        dirs = DirectionSet(tuple(Direction.normalized(*rng.normal(size=3))
                                  for _ in range(n)))
        assert dirs.as_matrix()[:, 2].any()
        vec = signed_sums(dirs.as_matrix())
        intensity = np.einsum("ij,ij->i", vec, vec)
        assert np.array_equal(born_table(dirs).probabilities, intensity / intensity.sum())

    @pytest.mark.parametrize("n", [13, 14, 15, 20])
    def test_tile_edges_keep_the_einsum_bits(self, n):
        """One tile of 2^12 rows, one of 2^13, one of 2^14, and 32 tiles of
        2^14 rows."""
        dirs = random_directions(n)
        assert np.array_equal(born_table(dirs).probabilities, einsum_born(dirs))

    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_narrow_tiles_keep_the_einsum_bits(self, monkeypatch, bits, n):
        monkeypatch.setattr(spin, "SUM_TILE_BITS", bits)
        dirs = random_directions(n)
        assert np.array_equal(born_table(dirs).probabilities, einsum_born(dirs))

    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("kind", ["antipodal", "repeated", "axes"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_exact_zero_sums_keep_the_einsum_bits(self, monkeypatch, bits, kind, n):
        """Sums that cancel exactly, x + (-x), are +0 on a pattern and on
        its complement alike, where the complement's chain is the
        negation; the squares mirrored onto the complements still carry
        the einsum's bits, for the Born table and the signed weights,
        with one tile and with a walk of several."""
        monkeypatch.setattr(spin, "SUM_TILE_BITS", bits)
        rng = np.random.default_rng(n)
        if kind == "axes":
            pairs = [Direction(1, 0, 0), Direction(0, 1, 0), Direction(0, 0, 1)]
        else:
            pairs = [Direction.normalized(*rng.normal(size=3)) for _ in range(n // 2)]
        ds = [e for d in pairs for e in (d, d if kind == "repeated" else -d)][:n - n % 2]
        ds += [Direction(0, 0, 1)] * (n % 2)
        dirs = DirectionSet(tuple(ds))
        vec = signed_sums(dirs.as_matrix())
        assert (vec == 0).any()
        intensity = np.einsum("ij,ij->i", vec, vec)
        born = born_table(dirs).probabilities
        assert np.array_equal(born.view(np.uint64), (intensity / intensity.sum()).view(np.uint64))
        weights = solve_weights(dirs).weights
        want = (1.0 + (intensity - n) / 2.0) / (1 << n)
        assert np.array_equal(weights.view(np.uint64), want.view(np.uint64))

    def test_nan_probability_is_refused(self):
        with pytest.raises(ValidationError, match="nan"):
            BornTable(DirectionSet.from_planar_angles([0.3]), np.array([math.nan, math.nan]))

    def test_negative_zero_passes_and_a_negative_entry_is_named(self):
        dirs = DirectionSet.from_planar_angles([0.3])
        BornTable(dirs, np.array([-0.0, 1.0]))
        with pytest.raises(ValidationError, match="min -0.25"):
            BornTable(dirs, np.array([-0.25, 1.25]))

    def test_cap(self):
        with pytest.raises(ValidationError, match="table cap of 20"):
            born_table(DirectionSet.from_planar_angles([0.01 * i for i in range(21)]))


class TestBornPairMarginal:
    @given(angles, angles, angles)
    @settings(max_examples=60)
    def test_reproduces_pair_law(self, t1, t2, t3):
        """The singlet's joint law, Bob's sign negated, is the coherent
        (sum-then-square) pair table of the pattern amplitudes."""
        dirs = DirectionSet.from_planar_angles([t1, t2, t3])
        joint = joint_outcomes(dirs[0], dirs[1])
        for (s1, s2), p in born_pair_marginal([t1, t2, t3], 0, 1).items():
            assert p == pytest.approx(
                pair_marginal_probability(s1, s2, t1, t2), abs=1e-12)
            assert joint[(s1, -s2)] == pytest.approx(p, abs=1e-12)

    def test_interference_gap_nonzero_at_golden_angles(self):
        """The Born table's pair cells are the which-path (square-then-sum)
        table, and they miss the pair law by the interference gap."""
        dirs = golden_set()
        which_path = pair_cells(GOLDEN, 0, 1)[1]
        born_cells = pattern_cells(born_table(dirs).probabilities, 3, (0, 1))
        assert np.abs(born_cells - which_path).max() <= 1e-12
        gap = interference_gap(GOLDEN, 0, 1)
        assert gap > 0.01
        # (+,+): coherent 3/8 vs incoherent 1/3
        assert gap == pytest.approx(3 / 8 - 1 / 3, abs=1e-12)
        assert born_cells[1, 1] == pytest.approx(1 / 3, abs=1e-12)
        assert joint_outcomes(dirs[0], dirs[1])[(1, -1)] == pytest.approx(3 / 8, abs=1e-12)

    def test_negative_weight_forced_at_golden_angles(self):
        # any table matching the pairwise law at these angles has a
        # negative entry; check it on the solver's minimum-norm solution
        table = solve_weights(golden_set())
        assert negativity_report(table).n_negative == 2


class TestNegativity:
    def test_golden_report(self):
        table = solve_weights(golden_set())
        report = negativity_report(table)
        assert report.min_weight == pytest.approx(-1 / 16, abs=1e-10)
        assert report.n_negative == 2
        negative = np.flatnonzero(table.weights < 0)
        assert [pattern_from_index(int(k), 3) for k in negative] == [(-1, 1, -1), (1, -1, 1)]

    def test_pairwise_table_nonnegative(self):
        report = negativity_report(solve_weights(
            DirectionSet.from_planar_angles([0.2, 1.9])))
        assert report.n_negative == 0

    def test_exactly_collinear_nonnegative(self):
        report = negativity_report(solve_weights(
            DirectionSet.from_planar_angles([0.0, 0.0, 0.0])))
        assert report.n_negative == 0

    def test_near_collinear_negativity_is_second_order(self):
        # W(+,-,+) at (0, h, 2h) expands to -h^2/8: negativity never quite
        # vanishes off the collinear point, it just shrinks quadratically
        h = 0.01
        report = negativity_report(solve_weights(
            DirectionSet.from_planar_angles([0.0, h, 2 * h])))
        assert report.n_negative == 2
        assert report.min_weight == pytest.approx(-h * h / 8, rel=1e-3)


class TestCsvExport:
    GOLDEN_CSV = (
        "s1,s2,s3,weight\n"
        "-1,-1,-1,0.18750000000000006\n"
        "+1,-1,-1,0.18749999999999997\n"
        "-1,+1,-1,-0.0625\n"
        "+1,+1,-1,0.18749999999999994\n"
        "-1,-1,+1,0.18749999999999994\n"
        "+1,-1,+1,-0.0625\n"
        "-1,+1,+1,0.18749999999999997\n"
        "+1,+1,+1,0.18750000000000006\n"
    )

    def test_golden_bytes_and_row_order(self):
        # rows ascend by pattern integer (bit j set <=> s_{j+1} = +1)
        dirs = golden_set()
        w = np.array([closed_form_w3(pattern_from_index(k, 3), GOLDEN)
                      for k in range(8)])
        assert b"".join(table_csv(QuasiProbTable(dirs, w))) == self.GOLDEN_CSV.encode()

    def test_write_roundtrip(self, tmp_path):
        table = solve_weights(golden_set())
        path = tmp_path / "w.csv"
        path.write_bytes(b"".join(table_csv(table)))
        lines = path.read_text().splitlines()
        assert lines[0] == "s1,s2,s3,weight"
        assert len(lines) == 9
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert tuple(int(c) for c in cells[:3]) == pattern_from_index(k, 3)
            assert float(cells[3]) == table.weights[k]

    def test_born_csv_header(self):
        out = b"".join(born_csv(born_table(golden_set()))).decode("ascii")
        assert out.splitlines()[0] == "s1,s2,s3,probability"

    @staticmethod
    def sign_matrix_csv(values, column):
        """In-test oracle: every row's sign cells from the whole sign matrix."""
        n = len(values).bit_length() - 1
        cells = np.where(sign_matrix(n) > 0, "+1", "-1").tolist()
        lines = [",".join([f"s{j + 1}" for j in range(n)] + [column])]
        lines += [",".join(row + [repr(v)]) for row, v in zip(cells, values.tolist())]
        return ("\n".join(lines) + "\n").encode("ascii")

    # N = 15 is the first table of two blocks of 2^14 rows
    @pytest.mark.parametrize("n", [1, 2, 3, 13, 14, 15, 16])
    def test_sign_cells_are_the_sign_matrix(self, n):
        dirs = random_directions(n)
        born = born_table(dirs)
        assert b"".join(born_csv(born)) == self.sign_matrix_csv(born.probabilities,
                                                                "probability")
        if n >= 2:
            table = solve_weights(dirs)
            assert b"".join(table_csv(table)) == self.sign_matrix_csv(table.weights, "weight")

    @staticmethod
    def written_peak(path, n, write=lambda f, blocks: f.writelines(blocks)):
        """Traced peak while born.csv of N directions is written to `path`,
        by default as logcodec.write_csv writes a CSV."""
        table = born_table(random_directions(n))
        with open(path, "wb") as f:
            tracemalloc.start()
            try:
                write(f, born_csv(table))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_memory_is_a_block_whatever_the_rows(self, tmp_path):
        """Eight blocks of rows cost about what one block costs: the sign
        cells are written a block at a time, never the whole sign matrix."""
        path = tmp_path / "born.csv"
        assert self.written_peak(path, 17) <= 1.5 * self.written_peak(path, 14)

    def test_a_run_holds_one_block_at_a_time(self, tmp_path):
        """runner._write, through which a run writes and a replay compares
        every file, lets go of each block before the next is made: at
        N = 17 it peaks no higher than f.writelines, within 64 KiB."""
        path = tmp_path / "born.csv"
        peak = self.written_peak(path, 17, lambda f, blocks: runner._write(
            lambda name: contextlib.nullcontext(f), "born.csv", blocks))
        assert peak <= self.written_peak(path, 17) + (64 << 10)


class TestQuasiprobKind:
    """A quasiprob config takes every direction form of config.parse_direction."""

    CFG = ("[experiment]\nkind = quasiprob\n"
           "[directions]\ntheta1 = z\ntheta2 = x\ntheta3 = 0.6,0,0.8\n")

    @staticmethod
    def read_column(path):
        return np.array([float(line.rsplit(",", 1)[1])
                         for line in path.read_text().splitlines()[1:]])

    def test_three_dimensional_directions(self, tmp_path, capsys):
        cfg = tmp_path / "qp.cfg"
        cfg.write_text(self.CFG)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        dirs = DirectionSet.of(Direction(0, 0, 1), Direction(1, 0, 0), Direction(0.6, 0, 0.8))
        weights = self.read_column(tmp_path / "out" / "weights.csv")
        assert np.abs(weights - generalized_closed_form(dirs)).max() <= 1e-15
        assert np.array_equal(self.read_column(tmp_path / "out" / "born.csv"),
                              einsum_born(dirs))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["min_weight"] == weights.min()

    def test_two_components_are_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "qp.cfg"
        cfg.write_text(self.CFG.replace("theta1 = z", "theta1 = 1,2"))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
