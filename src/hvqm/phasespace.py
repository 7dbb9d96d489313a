"""One-dimensional lattice model of the extended (r, p) state space.

A wavefunction on M lattice points (M a power of two, spacing dr) lifts to
an M x M coefficient grid

    C[r, p] = xi(p) exp(i p r / hbar) / sqrt(2 pi hbar)

with xi the discrete Fourier transform of psi on the conjugate grid
(dp = 2 pi hbar / (M dr)).  Projecting back to position space sums each row
against the dp measure and returns the original psi exactly; projecting to
momentum space strips the plane-wave phase and sums over r, which on the
lattice produces a finite overall factor M (the regularized version of the
divergent volume integral) that is discarded by returning a normalized ray.

Position and momentum operators act by pointwise multiplication on the
grid; through lift/project they correspond to multiplication by r and to
the spectral derivative -i hbar d/dr on band-limited wavefunctions.

On the lattice p_k r_j / hbar = 2 pi (j - M/2)(k - M/2) / M exactly, so the
M x M plane-wave factors are M roots of unity, indexed by integer residue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import shares
from .errors import ValidationError
from .interference import _squared_modulus, cis
from .logcodec import write_csv

NORMALIZATION_TOL = 1e-8


def _check_power_of_two(m: int) -> None:
    if m < 2 or (m & (m - 1)) != 0:
        raise ValidationError(f"grid size must be a power of two, got {m}")


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex values on the centered grid r_j = (j - M/2) dr."""

    values: np.ndarray
    dr: float
    hbar: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        _check_power_of_two(len(v))
        if self.dr <= 0 or self.hbar <= 0:
            raise ValidationError("dr and hbar must be positive")
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("wavefunction values must be finite")

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar / (self.m * self.dr)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dr)

    def normalized(self) -> "WaveFunction":
        n = math.sqrt(self.norm_sq())
        if n == 0:
            raise ValidationError("cannot normalize the zero wavefunction")
        return WaveFunction(self.values / n, self.dr, self.hbar)


@dataclass(frozen=True, eq=False)
class MomentumFunction:
    """Complex values on the conjugate grid p_k = (k - M/2) dp."""

    values: np.ndarray
    dp: float
    hbar: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        _check_power_of_two(len(v))
        if self.dp <= 0 or self.hbar <= 0:
            raise ValidationError("dp and hbar must be positive")

    @property
    def m(self) -> int:
        return len(self.values)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dp)


def _centred(transform, values: np.ndarray, scale: float) -> np.ndarray:
    """np.fft.fft or ifft between the centred grids, index j - M/2 on both:
    (-1)^j before, (-1)^k exp(-+ i pi M/2) and `scale` after."""
    m = len(values)
    half_phase = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)  # (-1)^j, exact
    const = -1.0 if (m // 2) % 2 else 1.0   # exp(-+ i pi M/2), real for even M
    return scale * const * half_phase * transform(values * half_phase)


def to_momentum(wf: WaveFunction) -> MomentumFunction:
    """xi(p_k) = dr / sqrt(2 pi hbar) * sum_j psi_j exp(-i p_k r_j / hbar).

    FFT with the phase bookkeeping for both grids being centered; Parseval
    holds: sum |xi|^2 dp = sum |psi|^2 dr.
    """
    xi = _centred(np.fft.fft, wf.values, wf.dr / math.sqrt(2.0 * math.pi * wf.hbar))
    return MomentumFunction(xi, wf.dp, wf.hbar)


@dataclass(frozen=True, eq=False)
class ExtendedState:
    """Complex coefficient per (r_j, p_k) lattice cell."""

    coefficients: np.ndarray   # (M, M), rows indexed by r, columns by p
    dr: float
    hbar: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError("coefficient grid must be square")
        _check_power_of_two(c.shape[0])
        if self.dr <= 0 or self.hbar <= 0:
            raise ValidationError("dr and hbar must be positive")

    @property
    def m(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar / (self.m * self.dr)


# cells in a block of grid rows, 16 rows at M = 2048: 2^16 was no faster,
# and raised the scan benchmark's peak RSS (phasespace at M = 256) 0.25 MiB
GRID_BLOCK_CELLS = 1 << 15


def _block_rows(m: int) -> int:
    return min(m, max(1, GRID_BLOCK_CELLS // m))


def _roots_of_unity(m: int, sign: float) -> np.ndarray:
    """cis(sign 2 pi n / M) at n = 0, ..., M - 1."""
    return cis((sign * 2.0 * math.pi / m) * np.arange(m))


def _residue_blocks(m: int, lo: int, hi: int):
    """(rows, residues) for each block of _block_rows(m) rows j of rows lo
    ... hi - 1, the last block cut at hi: the residue
    n = (j - M/2)(k - M/2) mod M of each cell, rows j, columns k.

    p_k r_j / hbar = 2 pi (j - M/2)(k - M/2) / M whatever dr and hbar, since
    dp = 2 pi hbar / (M dr); so each cell's plane-wave factor
    exp(sign i p_k r_j / hbar) is the root of unity cis(sign 2 pi n / M).
    The residues are uint16 products, which wrap mod 2^16, and a power of
    two M up to 2^16 divides 2^16, so the low bits are the residue.  The
    block is overwritten by the next one; a cut block is a prefix of it.
    """
    offsets = (np.arange(m) - m // 2).astype(np.uint16)
    step = _block_rows(m)
    buf = np.empty((step, m), dtype=np.uint16)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        residues = buf[:b - a]
        np.multiply.outer(offsets[a:b], offsets, out=residues)
        residues &= m - 1
        yield slice(a, b), residues


def lift(wf: WaveFunction) -> ExtendedState:
    """Fill the (r, p) grid from a normalized wavefunction.

    Each cell is roots[residue] * scale[k] whichever thread fills it, so
    the rows are filled in shares across the usable CPUs
    (shares._in_shares), each share with a residue block of its own.
    """
    if abs(wf.norm_sq() - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(
            f"lift needs a normalized wavefunction, norm^2 = {wf.norm_sq()!r}")
    m = wf.m
    xi = to_momentum(wf)
    scale = xi.values / math.sqrt(2.0 * math.pi * wf.hbar)
    roots = _roots_of_unity(m, 1.0)
    coeffs = np.empty((m, m), dtype=complex)

    def fill(blocks):
        for rows, residues in blocks:
            block = coeffs[rows]
            # mode "raise" would buffer the output; every residue is in range
            roots.take(residues, out=block, mode="clip")
            block *= scale

    shares._in_shares(m, _block_rows(m), functools.partial(_residue_blocks, m), fill)
    return ExtendedState(coeffs, wf.dr, wf.hbar)


def project_r(state: ExtendedState) -> WaveFunction:
    """Row sums against the dp measure; inverts lift exactly.  Each row sum
    is numpy's pairwise sum of that contiguous row whichever thread takes
    it, so the rows are summed in shares across the usable CPUs."""
    m, grid = state.m, state.coefficients
    sums = np.empty(m, dtype=complex)

    def add(rows):
        np.sum(grid[rows], axis=1, out=sums[rows])

    shares._in_shares(m, _block_rows(m), slice, add)
    return WaveFunction(sums * state.dp, state.dr, state.hbar)


def project_p(state: ExtendedState) -> MomentumFunction:
    """Strip the plane-wave phase, sum over r, return the normalized ray.

    For lifted states the raw column sum is M * xi(p) / sqrt(2 pi hbar);
    the lattice factor M regularizes the divergent continuum prefactor and
    is removed by the ray normalization.
    """
    m = state.m
    roots = _roots_of_unity(m, -1.0)
    # row 0 carries the column sums of the rows before each block, from
    # -0.0, which adds exactly, so the rows are summed in the order of a
    # sum over the whole grid
    buf = np.empty((1 + _block_rows(m), m), dtype=complex)
    buf[0] = complex(-0.0, -0.0)
    cells = buf[1:]
    for rows, residues in _residue_blocks(m, 0, m):
        roots.take(residues, out=cells, mode="clip")
        # coefficients first: complex multiply need not commute bit for bit
        np.multiply(state.coefficients[rows], cells, out=cells)
        np.sum(buf, axis=0, out=buf[0])
    raw = buf[0].copy()
    norm = math.sqrt(float(np.sum(np.abs(raw) ** 2) * state.dp))
    if norm == 0:
        return MomentumFunction(raw, state.dp, state.hbar)
    return MomentumFunction(raw / norm, state.dp, state.hbar)


def ray_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a, b>| / (|a| |b|): scale- and phase-invariant ray comparison.

    Every sum is numpy's pairwise sum of real planes, with no BLAS kernel,
    whose summation order depends on the CPU it picks at run time.
    """
    na = math.sqrt(_squared_modulus(a).sum())
    nb = math.sqrt(_squared_modulus(b).sum())
    if na == 0 or nb == 0:
        return 0.0
    # <a, b> = sum conj(a) b, as its real and imaginary planes
    re = a.real * b.real
    re += a.imag * b.imag
    im = a.real * b.imag
    im -= a.imag * b.real
    return math.hypot(np.sum(re), np.sum(im)) / (na * nb)


def gaussian_wavefunction(m: int, dr: float, center: float = 0.0,
                          width: float = 8.0, momentum: float = 0.0,
                          hbar: float = 1.0) -> WaveFunction:
    """Normalized Gaussian wave packet on the grid."""
    r = (np.arange(m) - m // 2) * dr
    psi = np.exp(-((r - center) ** 2) / (4.0 * width ** 2)
                 + 1j * momentum * r / hbar)
    wf = WaveFunction(psi, dr, hbar)
    return wf.normalized()


def plane_wave(m: int, dr: float, mode_index: int, hbar: float = 1.0) -> WaveFunction:
    """exp(i p0 r / hbar) / sqrt(M dr) with p0 = mode_index * dp exactly on-grid."""
    dp = 2.0 * math.pi * hbar / (m * dr)
    p0 = mode_index * dp
    r = (np.arange(m) - m // 2) * dr
    return WaveFunction(np.exp(1j * p0 * r / hbar) / math.sqrt(m * dr), dr, hbar)


def write_grid_csv(values: np.ndarray, path) -> None:
    """index, real, imag rows; the plain-text exchange format for grids."""
    values = np.asarray(values, dtype=complex)
    write_csv(path, ("index", "real", "imag"),
              (np.arange(len(values)), values.real, values.imag))
