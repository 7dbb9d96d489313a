"""Signed quasi-probability tables over hidden spin states.

For N planar directions, a table assigns one real weight to each of the 2^N
sign patterns such that every pairwise marginal reproduces
P(s_i, s_j) = (1 + s_i s_j cos(theta_j - theta_i)) / 4 and the weights sum
to one.  Such tables exist for any angles, but at Bell-violating angles
some weights are necessarily negative, which is exactly what rules out a
classical distribution.  The Born table |total amplitude|^2 (suitably
normalized) is the nonnegative object that carries the same pairwise
statistics via interference instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .interference import _squared_modulus, cis, pair_tables
from .logcodec import write_csv
from .spin import (DirectionSet, SignPattern, check_pattern, pattern_cells,
                   pattern_from_index, pattern_to_index, sign_matrix, signed_sums)

MARGINAL_TOL = 1e-10
# The closed forms cost O(2^N), so the caps bound table sizes: the signed
# table is written as 2^N CSV rows (4096 at N = 12), and the Born table
# holds 2^N summed spin vectors (24 MiB at N = 20).
# test_caps_and_planarity and test_cap pin both.
MAX_SOLVE_N = 12
MAX_BORN_N = 20
NEGATIVITY_TOL = 1e-12


@dataclass(frozen=True)
class QuasiProbTable:
    """Signed weights over all 2^N sign patterns, row k = pattern integer k."""

    directions: DirectionSet
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.directions)
        if self.weights.shape != (1 << n,):
            raise ValidationError(
                f"expected {1 << n} weights for N={n}, got {self.weights.shape}")
        total = float(self.weights.sum())
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ValidationError(f"weights sum to {total!r}, expected 1")

    def weight(self, pattern) -> float:
        p = check_pattern(pattern, len(self.directions))
        return float(self.weights[pattern_to_index(p)])


@dataclass(frozen=True)
class BornTable:
    """Normalized |amplitude|^2 per sign pattern; entries are true probabilities."""

    directions: DirectionSet
    probabilities: np.ndarray

    def __post_init__(self):
        if np.any(self.probabilities < 0):
            raise ValidationError("Born table entries must be nonnegative")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"Born table sums to {total!r}, expected 1")

    def probability(self, pattern) -> float:
        p = check_pattern(pattern, len(self.directions))
        return float(self.probabilities[pattern_to_index(p)])


def pair_marginal_probability(s_i: int, s_j: int, theta_i: float, theta_j: float) -> float:
    """Target pairwise law (1 + s_i s_j cos(theta_j - theta_i)) / 4."""
    return 0.25 * (1.0 + s_i * s_j * math.cos(theta_j - theta_i))


def closed_form_w3(pattern, angles) -> float:
    """Exact 3-direction planar weight; the N = 3 case of solve_weights.

    W(s1,s2,s3) = [1 + s1 s2 cos(t2-t1) + s1 s3 cos(t3-t1) + s2 s3 cos(t3-t2)] / 8
    """
    if len(angles) != 3:
        raise ValidationError("closed form is specific to N=3")
    s1, s2, s3 = check_pattern(pattern, 3)
    t1, t2, t3 = angles
    return (1.0
            + s1 * s2 * math.cos(t2 - t1)
            + s1 * s3 * math.cos(t3 - t1)
            + s2 * s3 * math.cos(t3 - t2)) / 8.0


def check_pair_law(dirs: DirectionSet, weights: np.ndarray) -> None:
    """Raise SolverError unless the weights sum to one and every pairwise
    marginal matches (1 + s_i s_j cos(theta_j - theta_i)) / 4 within
    MARGINAL_TOL."""
    n = len(dirs)
    t = dirs.angles
    worst = abs(float(weights.sum()) - 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            want = [[pair_marginal_probability(si, sj, t[i], t[j]) for sj in (-1, 1)]
                    for si in (-1, 1)]
            got = pattern_cells(weights, n, (i, j))
            worst = max(worst, float(np.abs(got - want).max()))
    if worst > MARGINAL_TOL:
        raise SolverError(
            "marginal constraints not met: max residual "
            f"{worst:.3e} over {1 + 2 * n * (n - 1)} rows (tol {MARGINAL_TOL:.0e})")


def solve_weights(dirs: DirectionSet) -> QuasiProbTable:
    """The minimum-norm signed weight table with the pairwise law.

    The pairwise constraints reach only Walsh characters of degree two or
    less, so the minimum-Euclidean-norm solution is
    W(s) = 2^-N [1 + sum_{i<j} s_i s_j cos(theta_j - theta_i)]
         = 2^-N [1 + (|sum_j s_j e^{i theta_j}|^2 - N) / 2],
    computed from the second form.  N = 2 gives the marginals themselves
    and N = 3 gives closed_form_w3.  The table is checked against the
    pairwise law (check_pair_law), which raises SolverError if rounding
    ever broke it; N is capped at MAX_SOLVE_N.
    """
    n = len(dirs)
    if not dirs.is_planar:
        raise ValidationError("quasi-probability tables are built for planar directions")
    if n < 2:
        raise ValidationError("need at least two directions")
    if n > MAX_SOLVE_N:
        raise ValidationError(f"N={n} exceeds the solver cap of {MAX_SOLVE_N}")
    w = (1.0 + (_squared_modulus(_planar_amplitudes(dirs)) - n) / 2.0) / (1 << n)
    check_pair_law(dirs, w)
    return QuasiProbTable(dirs, w)


def marginal(table: QuasiProbTable, indices) -> dict[tuple[int, ...], float]:
    """Sum the table over every index not listed; keys are sign tuples in
    the order of `indices`."""
    n = len(table.directions)
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValidationError("marginal indices must be distinct")
    for i in idx:
        if not 0 <= i < n:
            raise ValidationError(f"index {i} out of range for N={n}")
    return _sign_keyed(pattern_cells(table.weights, n, idx))


def _sign_keyed(cells: np.ndarray) -> dict[tuple[int, ...], float]:
    """Cells with position 0 = sign -1 on each axis, keyed by sign tuples in
    pattern-integer order."""
    keys = (pattern_from_index(k, cells.ndim) for k in range(1 << cells.ndim))
    return {p: float(cells[tuple((s + 1) // 2 for s in p)]) for p in keys}


def marginal_pair(table: QuasiProbTable, i: int, j: int) -> dict[tuple[int, int], float]:
    """Four observable pair probabilities P(s_i, s_j); sums to 1."""
    if i == j:
        raise ValidationError("pair marginal needs two distinct indices")
    return marginal(table, (i, j))  # type: ignore[return-value]


def marginal_single(table: QuasiProbTable, i: int) -> dict[int, float]:
    return {k[0]: v for k, v in marginal(table, (i,)).items()}


def born_table(dirs: DirectionSet) -> BornTable:
    """Normalized |total amplitude|^2 over all sign patterns.

    Works for arbitrary (not only planar) direction sets; the sum over all
    patterns is 2^N * N, so normalization never divides by zero.
    """
    n = len(dirs)
    if n > MAX_BORN_N:
        raise ValidationError(f"N={n} exceeds the Born-table cap of {MAX_BORN_N}")
    # one contiguous (2^N,) plane of summed spin vectors per coordinate
    x, y, z = (signed_sums(column) for column in dirs.as_matrix().T)
    # |sum|^2 as (x^2 + z^2) + y^2: the order np.einsum("ij,ij->i") takes
    # over the (2^N, 3) stack, so the table keeps the bits it had from that
    intensity = np.square(x, out=x)
    intensity += np.square(z, out=z)
    intensity += np.square(y, out=y)
    return BornTable(dirs, intensity / intensity.sum())


def _planar_amplitudes(dirs: DirectionSet) -> np.ndarray:
    """Row k = sum_j s_j e^{i theta_j}, s = pattern_from_index(k, N)."""
    return signed_sums(cis(np.array(dirs.angles)))


def _pair_cells(dirs: DirectionSet, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum-then-square and square-then-sum 2x2 pair tables, each normalized."""
    n = len(dirs)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"bad index pair ({i}, {j}) for N={n}")
    if not dirs.is_planar:
        raise ValidationError("planar directions required")
    amps = _planar_amplitudes(dirs)
    # (s_i, s_j, the completions sharing them)
    cells = np.moveaxis(amps.reshape((2,) * n), (n - 1 - i, n - 1 - j), (0, 1)).reshape(2, 2, -1)
    return pair_tables(cells)


def born_pair_marginal(dirs: DirectionSet, i: int, j: int) -> dict[tuple[int, int], float]:
    """Born pairwise law via sum-then-square over the unobserved indices.

    The amplitudes of all completions sharing (s_i, s_j) are summed before
    squaring; normalizing the four cells reproduces
    (1 + s_i s_j cos(theta_j - theta_i)) / 4.  Planar backend.
    """
    return _sign_keyed(_pair_cells(dirs, i, j)[0])


def interference_gap(dirs: DirectionSet, i: int, j: int) -> float:
    """Max difference between sum-then-square and square-then-sum pair tables.

    Nonzero in general: the cross terms in the coherent sum are what let the
    Born route reproduce the pairwise law that forces signed weights.
    """
    coherent, incoherent = _pair_cells(dirs, i, j)
    return float(np.abs(coherent - incoherent).max())


@dataclass(frozen=True)
class NegativityReport:
    min_weight: float
    negative_patterns: tuple[SignPattern, ...]

    @property
    def has_negative(self) -> bool:
        return bool(self.negative_patterns)


def negativity_report(table: QuasiProbTable, tol: float = NEGATIVITY_TOL) -> NegativityReport:
    """Exact scan: minimum weight and every pattern with weight < -tol."""
    n = len(table.directions)
    negatives = tuple(pattern_from_index(int(k), n)
                      for k in np.flatnonzero(table.weights < -tol))
    return NegativityReport(float(table.weights.min()), negatives)


def _write_pattern_csv(path, values: np.ndarray, n: int, column: str) -> None:
    """Rows in ascending pattern-integer order: s1..sN as +1/-1, value."""
    signs = np.where(sign_matrix(n) > 0, "+1", "-1").T
    write_csv(path, [f"s{j + 1}" for j in range(n)] + [column], [*signs, values])


def write_table_csv(table: QuasiProbTable, path) -> None:
    _write_pattern_csv(path, table.weights, len(table.directions), "weight")


def write_born_csv(table: BornTable, path) -> None:
    _write_pattern_csv(path, table.probabilities, len(table.directions), "probability")
