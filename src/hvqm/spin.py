"""Spin-direction amplitudes.

A measurement direction n contributes the pure-imaginary unit quaternion
n_x*I + n_y*J + n_z*K.  A hidden spin state assigns a sign s_j = +/-1 to
every direction in a set; its total amplitude is the signed sum of the
elementary quaternions.  For directions in the xy-plane the same numbers
are carried by complex phases e^{i theta_j}, and the two backends agree on
every squared modulus.

Sign patterns are plain tuples of +1/-1.  Pattern <-> integer encoding:
bit j of the integer is 1 exactly when s_j = +1, least-significant bit is
index 0.  Table rows everywhere are ordered by ascending pattern integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .quaternion import Quaternion

UNIT_TOL = 1e-12

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
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == math.inf:   # a square or their sum overflowed; hypot rescales
            norm = math.hypot(x, y, z)
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_planar_angle(cls, theta: float) -> "Direction":
        return cls(math.cos(theta), math.sin(theta), 0.0)

    @property
    def is_planar(self) -> bool:
        return self.nz == 0.0

    @property
    def theta(self) -> float:
        """Planar angle; only meaningful when nz = 0."""
        if not self.is_planar:
            raise ValidationError("theta is defined for planar directions only")
        return math.atan2(self.ny, self.nx)

    def dot(self, other: "Direction") -> float:
        return self.nx * other.nx + self.ny * other.ny + self.nz * other.nz

    def __neg__(self) -> "Direction":
        # antipodal directions are distinct entries, never identified
        return Direction(-self.nx, -self.ny, -self.nz)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.nx, self.ny, self.nz)

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

    @property
    def is_planar(self) -> bool:
        return all(d.is_planar for d in self.directions)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(d.theta for d in self.directions)

    def as_matrix(self) -> np.ndarray:
        """(N, 3) array of components, row per direction."""
        return np.array([[d.nx, d.ny, d.nz] for d in self.directions])


def check_sign(s: int) -> int:
    if s not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {s!r}")
    return s


def check_pattern(pattern: Sequence[int], n: int) -> SignPattern:
    if len(pattern) != n:
        raise ValidationError(
            f"sign pattern has length {len(pattern)}, direction set has {n}")
    return tuple(check_sign(s) for s in pattern)


def pattern_from_index(k: int, n: int) -> SignPattern:
    """Pattern for table row k: s_j = +1 iff bit j of k is set."""
    if not 0 <= k < (1 << n):
        raise ValidationError(f"pattern index {k} out of range for N={n}")
    return tuple(1 if (k >> j) & 1 else -1 for j in range(n))


def pattern_label(pattern: Sequence[int]) -> str:
    """A sign pattern as written in messages and reports, e.g. "(+,-,+)"."""
    return "(" + ",".join("+" if s > 0 else "-" for s in pattern) + ")"


def pattern_to_index(pattern: Sequence[int]) -> int:
    return sum(1 << j for j, s in enumerate(pattern) if s == 1)


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
    (2^n, n) sign matrix.
    """
    v = np.asarray(v)
    out = np.zeros((1 << len(v),) + v.shape[1:], dtype=v.dtype)
    for j, vj in enumerate(v):
        np.add(out[:1 << j], vj, out=out[1 << j:2 << j])
        out[:1 << j] -= vj
    return out


def pattern_cells(values: np.ndarray, n: int, idx: Sequence[int]) -> np.ndarray:
    """Sums of a 2^n table over every index not in `idx`.

    Axis p of the result is index idx[p]; position 0 on it is s = -1 and
    position 1 is s = +1.  Row k of the table is pattern_from_index(k, n),
    so the table reshapes to blocks of free indices between the kept ones,
    most significant first; the free blocks are summed away, the leading
    one first because it is the largest contiguous reduction.
    """
    kept = sorted(idx, reverse=True)
    shape, edge = [], n
    for i in kept:
        shape += [1 << (edge - 1 - i), 2]
        edge = i
    shape.append(1 << edge)
    cells = np.asarray(values).reshape(shape).sum(axis=0)
    cells = cells.sum(axis=tuple(range(1, len(shape) - 1, 2)))
    return cells.transpose([kept.index(i) for i in idx])


def elementary_amplitude(s: int, n: Direction) -> Quaternion:
    """s * (n_x I + n_y J + n_z K): pure-imaginary, squared norm 1."""
    check_sign(s)
    return Quaternion(0.0, s * n.nx, s * n.ny, s * n.nz)


def total_amplitude(pattern: Sequence[int], dirs: DirectionSet) -> Quaternion:
    """Sum of elementary amplitudes; the real component is exactly zero."""
    p = check_pattern(pattern, len(dirs))
    sx = sy = sz = 0.0
    for s, d in zip(p, dirs):
        sx += s * d.nx
        sy += s * d.ny
        sz += s * d.nz
    return Quaternion(0.0, sx, sy, sz)


def complex_total_amplitude(pattern: Sequence[int], dirs: DirectionSet) -> complex:
    """Planar backend: sum of s_j e^{i theta_j}.  Requires nz = 0 throughout."""
    if not dirs.is_planar:
        raise ValidationError("complex backend requires planar directions")
    p = check_pattern(pattern, len(dirs))
    return sum(s * cmath.exp(1j * d.theta) for s, d in zip(p, dirs))


def marginal_amplitude(fixed: Mapping[int, int], dirs: DirectionSet) -> Quaternion:
    """Sum of total_amplitude over every completion of a partial assignment.

    `fixed` maps direction index -> sign for the constrained subset; each
    free sign takes both values equally often across the 2^F completions,
    so the free terms cancel and the sum is 2^F * sum_fixed s_j q(n_j),
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


def born_pair_probability(s1: int, s2: int, n1: Direction, n2: Direction) -> float:
    """Born rule on the two-direction marginal amplitude.

    |s1 n1 + s2 n2|^2 = 2 (1 + s1 s2 n1.n2); dividing by the sum over the
    four sign pairs (= 8) gives (1 + s1 s2 n1.n2) / 4.
    """
    q = elementary_amplitude(s1, n1) + elementary_amplitude(s2, n2)
    return q.norm_sq() / 8.0
