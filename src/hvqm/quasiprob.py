"""Signed quasi-probability tables over hidden spin states.

For N directions n_1 .. n_N, a table assigns one real weight to each of
the 2^N sign patterns such that every pairwise marginal reproduces
P(s_i, s_j) = (1 + s_i s_j n_i . n_j) / 4 and the weights sum to one.
Such tables exist for any directions, but at Bell-violating settings some
weights are necessarily negative, which is exactly what rules out a
classical distribution.  The Born table |total amplitude|^2 (suitably
normalized) is the nonnegative object that carries the same pairwise
statistics via interference instead.  Both come from one intensity
I(s) = |sum_j s_j n_j|^2: the Born table is I normalized, and the
minimum-norm signed table is that Born table stretched about the uniform
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .logcodec import write_csv
from .spin import (DirectionSet, SignPattern, pattern_cells, pattern_from_index, sign_matrix,
                   signed_sum_tiles)

MARGINAL_TOL = 1e-10
# The closed forms cost O(2^N), so the caps bound table sizes: the signed
# table is written as 2^N CSV rows (4096 at N = 12), and the Born table
# is 2^N probabilities (8 MiB at N = 20), built a tile at a time.
# test_caps and test_cap pin both.
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
        if not abs(total - 1.0) <= MARGINAL_TOL:   # a NaN total fails too
            raise ValidationError(f"weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class BornTable:
    """Normalized |amplitude|^2 per sign pattern; entries are true probabilities."""

    directions: DirectionSet
    probabilities: np.ndarray

    def __post_init__(self):
        if np.any(self.probabilities < 0):
            raise ValidationError("Born table entries must be nonnegative")
        total = float(self.probabilities.sum())
        if not abs(total - 1.0) <= 1e-12:   # a NaN total fails too
            raise ValidationError(f"Born table sums to {total!r}, expected 1")


def check_pair_law(dirs: DirectionSet, weights: np.ndarray) -> None:
    """Raise SolverError unless the weights sum to one and every pairwise
    marginal matches (1 + s_i s_j n_i . n_j) / 4 within MARGINAL_TOL.

    The stretched Born table of solve_weights meets the law exactly in
    real arithmetic; this check catches rounding that ever broke it."""
    n = len(dirs)
    worst = abs(float(weights.sum()) - 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            c = dirs[i].dot(dirs[j])
            # position 0 on each axis is s = -1, so s_i s_j is + on the diagonal
            want = 0.25 * (1.0 + np.array([[c, -c], [-c, c]]))
            got = pattern_cells(weights, n, (i, j))
            worst = max(worst, float(np.abs(got - want).max()))
    # a NaN weight makes the sum's residual NaN, which max keeps and <= refuses
    if not worst <= MARGINAL_TOL:
        raise SolverError(
            "marginal constraints not met: max residual "
            f"{worst:.3e} over {1 + 2 * n * (n - 1)} rows (tol {MARGINAL_TOL:.0e})")


def solve_weights(dirs: DirectionSet) -> QuasiProbTable:
    """The minimum-norm signed weight table with the pairwise law.

    The pairwise constraints reach only Walsh characters of degree two or
    less, so the minimum-Euclidean-norm solution is
    W(s) = 2^-N [1 + sum_{i<j} s_i s_j n_i . n_j]
         = 2^-N [1 + (I(s) - N) / 2],   I(s) = |sum_j s_j n_j|^2,
    for any directions.  The Born table is B = I / (2^N N), so
    W = (N/2) B + (1 - N/2) 2^-N: the Born table stretched about the
    uniform table, negative exactly where I(s) < N - 2.  The table is
    checked against the pairwise law (check_pair_law), which raises
    SolverError if rounding ever broke it; N is capped at MAX_SOLVE_N.
    """
    n = len(dirs)
    if n < 2:
        raise ValidationError("need at least two directions")
    if n > MAX_SOLVE_N:
        raise ValidationError(f"N={n} exceeds the solver cap of {MAX_SOLVE_N}")
    w = (1.0 + (_intensity(dirs) - n) / 2.0) / (1 << n)
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


def born_table(dirs: DirectionSet) -> BornTable:
    """Normalized |total amplitude|^2 over all sign patterns.

    Works for arbitrary (not only planar) direction sets; the sum over all
    patterns is 2^N * N, so normalization never divides by zero.
    """
    n = len(dirs)
    if n > MAX_BORN_N:
        raise ValidationError(f"N={n} exceeds the Born-table cap of {MAX_BORN_N}")
    intensity = _intensity(dirs)
    intensity /= intensity.sum()
    return BornTable(dirs, intensity)


def _intensity(dirs: DirectionSet) -> np.ndarray:
    """Row k = I(s) = |sum_j s_j n_j|^2, s = pattern_from_index(k, N).

    Only the rows of signed_sum_tiles are summed and squared; each tile of
    squares is also written backwards into the complement rows, since
    I(-s) = I(s).  The complement's sums are the tile's negated, up to the
    sign of an exact zero, which squaring erases, so every row keeps the
    bits it would have from its own sums.
    """
    size = 1 << len(dirs)
    intensity = np.empty(size)
    # one tile of summed spin vectors per coordinate at a time; |sum|^2 as
    # (x^2 + z^2) + y^2: the order np.einsum("ij,ij->i") takes over the
    # (2^N, 3) stack, so the table keeps the bits it had from that
    for (start, x), (_, y), (_, z) in zip(*map(signed_sum_tiles, dirs.as_matrix().T)):
        rows = intensity[start:start + len(x)]
        np.square(x, out=rows)
        rows += np.square(z, out=z)
        rows += np.square(y, out=y)
        intensity[size - start - len(x):size - start] = rows[::-1]
    return intensity


@dataclass(frozen=True)
class NegativityReport:
    min_weight: float
    negative_patterns: tuple[SignPattern, ...]


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
