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
from itertools import islice

import numpy as np

from .errors import SolverError, ValidationError
from .logcodec import _CSV_BLOCK, csv_blocks
from .spin import DirectionSet, signed_sum_tiles

MARGINAL_TOL = 1e-10
# Both tables cost O(2^N) from one intensity, so one cap bounds their size:
# 2^N float64 entries (8 MiB at N = 20), built a tile at a time, and 2^N
# CSV rows, written a block at a time.  test_caps and test_cap pin it.
MAX_N = 20
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
        low = float(self.probabilities.min())
        if not low >= 0:   # a NaN entry fails too
            raise ValidationError(f"Born table entries must be nonnegative, min {low!r}")
        total = float(self.probabilities.sum())
        if not abs(total - 1.0) <= 1e-12:   # a NaN total fails too
            raise ValidationError(f"Born table sums to {total!r}, expected 1")


def check_pair_law(dirs: DirectionSet, weights: np.ndarray) -> None:
    """Raise SolverError unless the weights sum to one and every pairwise
    marginal matches (1 + s_i s_j n_i . n_j) / 4 within MARGINAL_TOL.

    The cells come from the table's Walsh sums (_pair_law_residual), so
    the check costs N passes over a copy of the table, not one reduction
    per pair.  The stretched Born table of solve_weights meets the law
    exactly in real arithmetic; this check catches rounding that ever
    broke it."""
    n = len(dirs)
    worst = _pair_law_residual(dirs, weights)
    # a NaN weight makes every Walsh sum NaN, which max keeps and <= refuses
    if not worst <= MARGINAL_TOL:
        raise SolverError(
            "marginal constraints not met: max residual "
            f"{worst:.3e} over {1 + 2 * n * (n - 1)} rows (tol {MARGINAL_TOL:.0e})")


# s_i, s_j and s_i s_j of the four cells of a pair, one row each
_S_I = np.array([[-1.0], [-1.0], [1.0], [1.0]])
_S_J = np.array([[-1.0], [1.0], [-1.0], [1.0]])
_S_IJ = _S_I * _S_J


def _pair_law_residual(dirs: DirectionSet, weights: np.ndarray) -> float:
    """The largest |total - 1| and |cell - (1 + s_i s_j n_i . n_j) / 4|.

    One Walsh-Hadamard butterfly per sign bit takes a copy of the table to
    its Walsh sums F[S] = sum_s W(s) prod_{j in S} s_j.  Each pass folds
    bit 0, lo + hi into the low half and hi - lo into the high half, so the
    folded bit comes out on top and, after N passes, every bit is back in
    place.  The degree 0, 1 and 2 sums give every pair's cells at once:
    (F[0] + s_i F[i] + s_j F[j] + s_i s_j F[ij]) / 4."""
    n = len(dirs)
    half = 1 << (n - 1)
    buffers = np.array(weights, dtype=float), np.empty(1 << n)
    # each buffer's even (s = -1) and odd entries, and its low and high half
    src, dst = [(b[0::2], b[1::2], b[:half], b[half:]) for b in buffers]
    for _ in range(n):
        (lo, hi, _, _), (_, _, low, high) = src, dst
        np.add(lo, hi, out=low)
        np.subtract(hi, lo, out=high)
        src, dst = dst, src
    f = buffers[n % 2]
    k = np.arange(n)
    i, j = np.nonzero(k[:, None] < k)   # every pair i < j
    vec = dirs.as_matrix()
    prod = vec[i] * vec[j]
    c = prod[:, 0] + prod[:, 1] + prod[:, 2]   # n_i . n_j, summed as Direction.dot sums it
    bi, bj = 1 << i, 1 << j
    # 4 (cell - law) = F[0] - 1 + s_i F[i] + s_j F[j] + s_i s_j (F[ij] - n_i . n_j)
    r = (f[0] - 1.0) + _S_I * f[bi] + _S_J * f[bj] + _S_IJ * (f[bi | bj] - c)
    return float(np.abs(r / 4).max(initial=abs(f[0] - 1.0)))


def solve_weights(dirs: DirectionSet) -> QuasiProbTable:
    """The minimum-norm signed weight table with the pairwise law.

    The pairwise constraints reach only Walsh characters of degree two or
    less, so the minimum-Euclidean-norm solution is
    W(s) = 2^-N [1 + sum_{i<j} s_i s_j n_i . n_j]
         = 2^-N [1 + (I(s) - N) / 2],   I(s) = |sum_j s_j n_j|^2,
    for any directions.  The Born table is B = I / (2^N N), so
    W = (N/2) B + (1 - N/2) 2^-N: the Born table stretched about the
    uniform table, negative exactly where I(s) < N - 2.  check_pair_law
    then reads every pair's cells from the table's Walsh sums of degree two
    or less, N butterfly passes over a copy, and raises SolverError if
    rounding ever broke the law; N is capped at MAX_N.
    """
    n = len(dirs)
    if n < 2:
        raise ValidationError("need at least two directions")
    w = (1.0 + (_intensity(dirs) - n) / 2.0) / (1 << n)
    check_pair_law(dirs, w)
    return QuasiProbTable(dirs, w)


def marginal(table: QuasiProbTable, indices) -> dict[tuple[int, ...], float]:
    """Sum the table over every index not listed; keys are sign tuples in
    the order of `indices`, in pattern-integer order over them.

    Indices are ints or numpy integers (a bool is refused).  Each free
    sign bit is folded out, the top bit first, by adding the two halves of
    the table's (-1, 2, 2^j) view; the 2^m kept cells then have their
    kept bits in ascending index order, and are transposed into the
    caller's order."""
    n = len(table.directions)
    idx = list(indices)
    for i in idx:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValidationError(f"marginal index {i!r} is not an integer")
        if not 0 <= i < n:
            raise ValidationError(f"index {i} out of range for N={n}")
    if len(set(idx)) != len(idx):
        raise ValidationError("marginal indices must be distinct")
    cells = table.weights
    for j in reversed(range(n)):
        if j not in idx:
            halves = cells.reshape(-1, 2, 1 << j)
            cells = np.add(halves[:, 0], halves[:, 1])
    m = len(idx)
    kept = sorted(idx)
    # axis a of the (2,) * m view holds the kept index of rank m - 1 - a
    order = [m - 1 - kept.index(i) for i in reversed(idx)]
    values = cells.reshape((2,) * m).transpose(order).ravel().tolist()
    # sign p of key k is + where bit p of k is set; () keys the empty set's total
    signs = [([-1] * (1 << p) + [1] * (1 << p)) * (1 << (m - 1 - p)) for p in range(m)]
    return dict(zip(zip(*signs) if m else [()], values))


def born_table(dirs: DirectionSet) -> BornTable:
    """Normalized |total amplitude|^2 over all sign patterns.

    Works for arbitrary (not only planar) direction sets; the sum over all
    patterns is 2^N * N, so normalization never divides by zero.
    """
    intensity = _intensity(dirs)
    intensity /= intensity.sum()
    return BornTable(dirs, intensity)


def _intensity(dirs: DirectionSet) -> np.ndarray:
    """Row k = I(s) = |sum_j s_j n_j|^2, s = pattern_from_index(k, N).

    Only the rows of signed_sum_tiles are summed and squared; each tile of
    squares is also written backwards into the complement rows, since
    I(-s) = I(s).  The complement's sums are the tile's negated, up to the
    sign of an exact zero, which squaring erases, so every row keeps the
    bits it would have from its own sums.  N is capped at MAX_N.
    """
    if len(dirs) > MAX_N:
        raise ValidationError(f"N={len(dirs)} exceeds the table cap of {MAX_N}")
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
    n_negative: int


def negativity_report(table: QuasiProbTable, tol: float = NEGATIVITY_TOL) -> NegativityReport:
    """Exact scan: minimum weight and the number of weights below -tol."""
    w = table.weights
    return NegativityReport(float(w.min()), int(np.count_nonzero(w < -tol)))


def _signs_csv(values: np.ndarray, n: int, column: str):
    """Rows in ascending pattern-integer order: s1..sN as +1/-1, value.

    A block of 2^b rows, b = min(N, 14), is one csv_blocks block whose sign
    fields are two comma-joined cells: the low b signs, those of rows
    0 .. 2^b - 1 in every block, and the high signs, those of its first row."""
    b = min(n, _CSV_BLOCK.bit_length() - 1)
    low = ["-1", "+1"]   # row k: the signs of the bits of k, lowest first
    for _ in range(1, b):
        low = [row + ",-1" for row in low] + [row + ",+1" for row in low]
    low = np.array(low, dtype=object)
    header = [f"s{j + 1}" for j in range(n)] + [column]
    for lo in range(0, 1 << n, 1 << b):
        high = ",".join("+1" if lo >> j & 1 else "-1" for j in range(b, n))
        cells = [low, np.full(1 << b, high, dtype=object)] if high else [low]
        blocks = csv_blocks(header, [*cells, values[lo:lo + (1 << b)]])
        yield from islice(blocks, 1 if lo else 0, None)   # the header before row 0 only


def table_csv(table: QuasiProbTable):
    return _signs_csv(table.weights, len(table.directions), "weight")


def born_csv(table: BornTable):
    return _signs_csv(table.probabilities, len(table.directions), "probability")
