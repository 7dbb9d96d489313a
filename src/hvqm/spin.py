"""Spin-direction amplitudes.

A hidden spin state assigns a sign s_j = +/-1 to every direction n_j in a
set; its total amplitude is the signed sum of the directions, the 3-vector
sum_j s_j n_j (the pure-imaginary quaternion with those components), and
its intensity is the squared length of that sum.  `signed_sums` gives the
sums of every pattern at once, `marginal_amplitude` the sum over the
completions of a partial assignment.

Sign patterns are plain tuples of +1/-1.  Pattern <-> integer encoding:
bit j of the integer is 1 exactly when s_j = +1, least-significant bit is
index 0.  Table rows everywhere are ordered by ascending pattern integer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .quaternion import Quaternion

UNIT_TOL = 1e-12
_TINY_SCALE = 2.0 ** 600   # brings the square of any nonzero double below 2^-511 to a normal one

SignPattern = tuple[int, ...]

# cap on the free indices of marginal_amplitude; the closed form does not
# need it, but it is a published input limit (ValidationError past it,
# pinned by test_free_index_cap)
MAX_FREE_INDICES = 24


@dataclass(frozen=True)
class Direction:
    """Unit vector; validated to |n| = 1 within 1e-12 at construction."""

    nx: float
    ny: float
    nz: float = 0.0

    def __post_init__(self):
        norm = math.hypot(self.nx, self.ny, self.nz)   # rescales: no overflow
        if not abs(norm - 1.0) <= UNIT_TOL:   # a NaN norm fails too
            raise ValidationError(
                f"direction ({self.nx}, {self.ny}, {self.nz}) has norm {norm!r}, "
                "expected a unit vector")

    @classmethod
    def normalized(cls, x: float, y: float, z: float = 0.0) -> "Direction":
        """Explicit normalization constructor for raw vectors."""
        if x == 0.0 and y == 0.0 and z == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        squares = x * x + y * y + z * z
        if squares < sys.float_info.min:
            # subnormal squares are inexact, and tiny ones underflow to 0;
            # scaling by a power of 2 is exact and keeps the direction
            # (hypot alone is not enough: a norm below 2.2e-308 is inexact)
            x, y, z = x * _TINY_SCALE, y * _TINY_SCALE, z * _TINY_SCALE
            squares = x * x + y * y + z * z
        # hypot rescales where a square or their sum overflowed
        norm = math.sqrt(squares) if squares < math.inf else math.hypot(x, y, z)
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_planar_angle(cls, theta: float) -> "Direction":
        return cls(math.cos(theta), math.sin(theta), 0.0)

    def dot(self, other: "Direction") -> float:
        return self.nx * other.nx + self.ny * other.ny + self.nz * other.nz

    def __neg__(self) -> "Direction":
        # antipodal directions are distinct entries, never identified
        return Direction(-self.nx, -self.ny, -self.nz)

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])


@dataclass(frozen=True)
class DirectionSet:
    """Ordered list of N >= 1 measurement directions, stored exactly as given."""

    directions: tuple[Direction, ...]

    def __post_init__(self):
        if len(self.directions) < 1:
            raise ValidationError("a DirectionSet needs at least one direction")

    @classmethod
    def of(cls, *dirs: Direction) -> "DirectionSet":
        return cls(tuple(dirs))

    @classmethod
    def from_planar_angles(cls, angles: Iterable[float]) -> "DirectionSet":
        return cls(tuple(Direction.from_planar_angle(t) for t in angles))

    def __len__(self) -> int:
        return len(self.directions)

    def __getitem__(self, i: int) -> Direction:
        return self.directions[i]

    def __iter__(self):
        return iter(self.directions)

    def as_matrix(self) -> np.ndarray:
        """(N, 3) array of components, row per direction."""
        return np.array([[d.nx, d.ny, d.nz] for d in self.directions])


def check_sign(s: int) -> int:
    if s not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {s!r}")
    return s


def pattern_from_index(k: int, n: int) -> SignPattern:
    """Pattern for table row k: s_j = +1 iff bit j of k is set."""
    if not 0 <= k < (1 << n):
        raise ValidationError(f"pattern index {k} out of range for N={n}")
    return tuple(1 if (k >> j) & 1 else -1 for j in range(n))


def pattern_label(pattern: Sequence[int]) -> str:
    """A sign pattern as written in messages and reports, e.g. "(+,-,+)"."""
    return "(" + ",".join("+" if s > 0 else "-" for s in pattern) + ")"


def sign_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix of +/-1 signs, row k = pattern_from_index(k, n)."""
    k = np.arange(1 << n, dtype=np.int64)
    bits = (k[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.float64)


def signed_sums(v: np.ndarray) -> np.ndarray:
    """Row k = sum_j s_j v[j] with s = pattern_from_index(k, len(v)).

    Built by doubling, one index at a time: the 2^j rows so far are copied
    with + v[j] into the next 2^j rows (bit j of k set, s_j = +1) and get
    - v[j] where they are.  The sums accumulate in index order, as
    `sign_matrix(n) @ v` does, in one (2^n, ...) array in place of its
    (2^n, n) sign matrix; `signed_sum_tiles` gives half of the same rows,
    the other half's negations, a tile at a time.
    """
    v = np.asarray(v)
    out = np.zeros((1 << len(v),) + v.shape[1:], dtype=v.dtype)
    for j, vj in enumerate(v):
        np.add(out[:1 << j], vj, out=out[1 << j:2 << j])
        out[:1 << j] -= vj
    return out


# rows of a signed_sum_tiles tile once N > SUM_TILE_BITS: 2^14, 128 KiB of
# float64.  A Born table at N = 20 (16 alternating rounds of 15 calls,
# median of the round medians, 2-vCPU Xeon with 2 MiB L2 a core) took
# 5.96 ms at 2^14 against 6.35 at 2^13, faster in 16 of 16 rounds; 5.44
# against 6.51 at 2^12 (16 of 16); 6.11 against 6.28 at 2^15 (13 of 16).
# Its traced peak is 10.3 MiB, against 9.3 at 2^13.
SUM_TILE_BITS = 14


def signed_sum_tiles(v: np.ndarray):
    """The rows of signed_sums(v) whose sign at b = min(len(v) - 1,
    SUM_TILE_BITS) is +1, as (start, rows) pairs of 2^b rows, bit for bit.

    These are half the rows.  Row 2^N - 1 - k holds the pattern -s of row
    k, so the other half are a tile's complements, rows
    [2^N - start - 2^b, 2^N - start) in reverse order.  Their sums are the
    tile's negated, bit for bit but for the sign of an exact zero: the -s
    chain negates every operand and round-to-nearest is symmetric in sign,
    so x(-s) = -x(s), except that x + (-x) is +0 on both sides.

    Each tile is the low table signed_sums(v[:b]) plus v[b], the root of
    the high signs, with the terms of the rest added in index order, as in
    signed_sums.  The high signs past b are walked depth first over a
    stack of one tile per index, so a tile costs about two passes, and the
    tiles come in bit-reversed order of their start.  The caller may
    overwrite a tile; the next one is written afresh.
    """
    v = np.asarray(v)
    b = min(len(v) - 1, SUM_TILE_BITS)
    root = signed_sums(v[:b])
    root += v[b]
    high = v[b + 1:]
    return _high_sign_tiles([root] + [np.empty_like(root) for _ in high], high, 0, 1 << b)


def _high_sign_tiles(stack, high, i, start):
    """The tiles under stack[i], which holds the terms before high[i]."""
    if i == len(high):
        yield start, stack[i]
        return
    for s, op in ((0, np.subtract), (1, np.add)):
        op(stack[i], high[i], out=stack[i + 1])
        yield from _high_sign_tiles(stack, high, i + 1,
                                    start | s << (SUM_TILE_BITS + 1 + i))


def marginal_amplitude(fixed: Mapping[int, int], dirs: DirectionSet) -> Quaternion:
    """Sum of the total amplitudes of every completion of a partial
    assignment, as a pure-imaginary Quaternion.

    `fixed` maps direction index -> sign for the constrained subset; each
    free sign takes both values equally often across the 2^F completions,
    so the free terms cancel and the sum is 2^F * sum_fixed s_j n_j,
    returned directly.  The literal enumeration stays in the tests as the
    oracle.  F is capped at MAX_FREE_INDICES.
    """
    n = len(dirs)
    if not fixed:
        raise ValidationError("at least one index must be fixed")
    for i, s in fixed.items():
        if not 0 <= i < n:
            raise ValidationError(f"fixed index {i} out of range for N={n}")
        check_sign(s)
    free = n - len(fixed)
    if free > MAX_FREE_INDICES:
        raise ValidationError(
            f"{free} free indices exceed the cap of {MAX_FREE_INDICES}")

    total = sum(s * dirs[i].as_array() for i, s in fixed.items()) * (1 << free)
    return Quaternion(0.0, float(total[0]), float(total[1]), float(total[2]))

