import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angles
from conftest import directions
from hvqm.errors import SolverError
from hvqm.errors import ValidationError
from hvqm.quasiprob import (QuasiProbTable, born_pair_marginal, born_table,
                            closed_form_w3, interference_gap, marginal,
                            marginal_pair, marginal_single, negativity_report,
                            pair_marginal_probability, solve_weights,
                            write_born_csv, write_table_csv)
from hvqm.quasiprob import check_pair_law
from hvqm.spin import Direction, DirectionSet, pattern_from_index, sign_matrix, signed_sums

GOLDEN = (0.0, math.pi / 3, 2 * math.pi / 3)


def golden_set():
    return DirectionSet.from_planar_angles(GOLDEN)


def generalized_closed_form(dirs):
    """In-test oracle: W(s) = 2^-N [1 + sum_{i<j} s_i s_j cos(t_j - t_i)].

    One particular solution of the pairwise system for any N; marginalizing
    over free indices kills every term containing them.
    """
    n = len(dirs)
    ts = dirs.angles
    signs = sign_matrix(n)
    w = np.ones(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            w += signs[:, i] * signs[:, j] * math.cos(ts[j] - ts[i])
    return w / (1 << n)


def _constraint_system(dirs):
    """Normalization plus all C(N,2) x 4 pairwise-marginal rows."""
    n = len(dirs)
    signs = sign_matrix(n)
    angles = dirs.angles
    rows = [np.ones(1 << n)]
    rhs = [1.0]
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    mask = (signs[:, i] == si) & (signs[:, j] == sj)
                    rows.append(mask.astype(float))
                    rhs.append(pair_marginal_probability(si, sj, angles[i], angles[j]))
    return np.array(rows), np.array(rhs)


def min_norm_oracle(dirs):
    """In-test oracle: least-squares minimum-norm solution of the system."""
    a, b = _constraint_system(dirs)
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return w


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
                pm = marginal_pair(table, i, j)
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
            for (si, sj), p in marginal_pair(t2, i, j).items():
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
        dirs = DirectionSet.from_planar_angles([0.4 * j - 1.0 for j in range(12)])
        assert np.abs(solve_weights(dirs).weights - generalized_closed_form(dirs)).max() <= 1e-15

    def test_broken_pair_law_raises(self):
        dirs = DirectionSet.from_planar_angles((0.0, 0.9, 1.7, 2.8))
        w = solve_weights(dirs).weights.copy()
        check_pair_law(dirs, w)
        w[5] += 1e-9
        with pytest.raises(SolverError, match="max residual"):
            check_pair_law(dirs, w)

    def test_caps_and_planarity(self):
        from hvqm.spin import Direction
        with pytest.raises(ValidationError):
            solve_weights(DirectionSet.of(Direction(0, 0, 1), Direction(1, 0, 0)))
        with pytest.raises(ValidationError):
            solve_weights(DirectionSet.from_planar_angles([0.0]))
        with pytest.raises(ValidationError):
            solve_weights(DirectionSet.from_planar_angles([0.01 * i for i in range(13)]))

    def test_table_validation(self):
        dirs = DirectionSet.from_planar_angles(GOLDEN)
        with pytest.raises(ValidationError):
            QuasiProbTable(dirs, np.full(8, 0.2))  # sums to 1.6
        with pytest.raises(ValidationError):
            QuasiProbTable(dirs, np.full(4, 0.25))  # wrong size


class TestMarginals:
    def test_pair_from_golden_table(self):
        table = solve_weights(golden_set())
        pm = marginal_pair(table, 0, 1)
        for (s1, s2), p in pm.items():
            assert p == pytest.approx(
                pair_marginal_probability(s1, s2, 0.0, math.pi / 3), abs=1e-10)
        assert sum(pm.values()) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_sum_identity(self):
        # P(s1, s2) = W(s1, s2, +1) + W(s1, s2, -1)
        table = solve_weights(golden_set())
        pm = marginal_pair(table, 0, 1)
        for (s1, s2), p in pm.items():
            assert p == pytest.approx(
                table.weight((s1, s2, 1)) + table.weight((s1, s2, -1)), abs=1e-12)

    def test_single_index_is_half_half(self):
        table = solve_weights(golden_set())
        for i in range(3):
            m = marginal_single(table, i)
            assert m[1] == pytest.approx(0.5, abs=1e-10)
            assert m[-1] == pytest.approx(0.5, abs=1e-10)

    @given(st.lists(angles, min_size=2, max_size=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_mask_loop(self, ts, data):
        table = solve_weights(DirectionSet.from_planar_angles(ts))
        idx = data.draw(st.permutations(range(len(ts))))
        idx = idx[:data.draw(st.integers(min_value=1, max_value=len(ts)))]
        got, want = marginal(table, idx), mask_loop_marginal(table, idx)
        assert list(got) == list(want)
        for key, p in want.items():
            assert got[key] == pytest.approx(p, abs=1e-14)

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
            marginal_pair(table, 0, 0)
        with pytest.raises(ValidationError):
            marginal_pair(table, 0, 5)
        with pytest.raises(ValidationError):
            marginal(table, (0, 0))


class TestBornTable:
    def test_golden_null_entry(self):
        table = born_table(golden_set())
        assert table.probability((1, -1, 1)) == pytest.approx(0.0, abs=1e-24)

    def test_single_direction(self):
        table = born_table(DirectionSet.from_planar_angles([0.7]))
        assert table.probability((1,)) == pytest.approx(0.5)
        assert table.probability((-1,)) == pytest.approx(0.5)

    def test_golden_all_plus_value(self):
        # complex-arithmetic oracle: |1 + e^{i pi/3} + e^{i 2 pi/3}|^2 / total
        amps = [sum(s * np.exp(1j * t) for s, t in zip(p, GOLDEN))
                for p in itertools.product((1, -1), repeat=3)]
        oracle = abs(amps[0]) ** 2 / sum(abs(a) ** 2 for a in amps)
        table = born_table(golden_set())
        assert table.probability((1, 1, 1)) == pytest.approx(oracle, abs=1e-14)
        assert table.probability((1, 1, 1)) == pytest.approx(1 / 6, abs=1e-12)

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
        assert not dirs.is_planar
        vec = signed_sums(dirs.as_matrix())
        intensity = np.einsum("ij,ij->i", vec, vec)
        assert np.array_equal(born_table(dirs).probabilities, intensity / intensity.sum())

    def test_cap(self):
        with pytest.raises(ValidationError):
            born_table(DirectionSet.from_planar_angles([0.01 * i for i in range(21)]))


class TestBornPairMarginal:
    @given(angles, angles, angles)
    @settings(max_examples=60)
    def test_reproduces_pair_law(self, t1, t2, t3):
        dirs = DirectionSet.from_planar_angles([t1, t2, t3])
        pm = born_pair_marginal(dirs, 0, 1)
        for (s1, s2), p in pm.items():
            assert p == pytest.approx(
                pair_marginal_probability(s1, s2, t1, t2), abs=1e-12)

    def test_interference_gap_nonzero_at_golden_angles(self):
        # square-then-sum and sum-then-square genuinely disagree
        gap = interference_gap(golden_set(), 0, 1)
        assert gap > 0.01
        # (+,+): coherent 3/8 vs incoherent 1/3
        assert gap == pytest.approx(3 / 8 - 1 / 3, abs=1e-12)

    def test_negative_weight_forced_at_golden_angles(self):
        # any table matching the pairwise law at these angles has a
        # negative entry; check it on the solver's minimum-norm solution
        table = solve_weights(golden_set())
        assert negativity_report(table).has_negative


class TestNegativity:
    def test_golden_report(self):
        report = negativity_report(solve_weights(golden_set()))
        assert report.min_weight == pytest.approx(-1 / 16, abs=1e-10)
        assert set(report.negative_patterns) == {(1, -1, 1), (-1, 1, -1)}

    def test_pairwise_table_nonnegative(self):
        report = negativity_report(solve_weights(
            DirectionSet.from_planar_angles([0.2, 1.9])))
        assert not report.has_negative
        assert report.negative_patterns == ()

    def test_exactly_collinear_nonnegative(self):
        report = negativity_report(solve_weights(
            DirectionSet.from_planar_angles([0.0, 0.0, 0.0])))
        assert not report.has_negative

    def test_near_collinear_negativity_is_second_order(self):
        # W(+,-,+) at (0, h, 2h) expands to -h^2/8: negativity never quite
        # vanishes off the collinear point, it just shrinks quadratically
        h = 0.01
        report = negativity_report(solve_weights(
            DirectionSet.from_planar_angles([0.0, h, 2 * h])))
        assert report.has_negative
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

    def test_golden_bytes_and_row_order(self, tmp_path):
        # rows ascend by pattern integer (bit j set <=> s_{j+1} = +1)
        dirs = golden_set()
        w = np.array([closed_form_w3(pattern_from_index(k, 3), GOLDEN)
                      for k in range(8)])
        write_table_csv(QuasiProbTable(dirs, w), tmp_path / "weights.csv")
        assert (tmp_path / "weights.csv").read_bytes() == self.GOLDEN_CSV.encode()

    def test_write_roundtrip(self, tmp_path):
        table = solve_weights(golden_set())
        path = tmp_path / "w.csv"
        write_table_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s1,s2,s3,weight"
        assert len(lines) == 9
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert tuple(int(c) for c in cells[:3]) == pattern_from_index(k, 3)
            assert float(cells[3]) == table.weights[k]

    def test_born_csv_header(self, tmp_path):
        write_born_csv(born_table(golden_set()), tmp_path / "born.csv")
        out = (tmp_path / "born.csv").read_text(encoding="utf-8")
        assert out.splitlines()[0] == "s1,s2,s3,probability"
