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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .interference import cis
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
    def r_values(self) -> np.ndarray:
        return (np.arange(self.m) - self.m // 2) * self.dr

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

    @property
    def p_values(self) -> np.ndarray:
        return (np.arange(self.m) - self.m // 2) * self.dp

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


def from_momentum(mf: MomentumFunction) -> WaveFunction:
    """Inverse of to_momentum on the matching position grid."""
    dr = 2.0 * math.pi * mf.hbar / (mf.m * mf.dp)
    psi = _centred(np.fft.ifft, mf.values, mf.dp * mf.m / math.sqrt(2.0 * math.pi * mf.hbar))
    return WaveFunction(psi, dr, mf.hbar)


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

    @property
    def r_values(self) -> np.ndarray:
        return (np.arange(self.m) - self.m // 2) * self.dr

    @property
    def p_values(self) -> np.ndarray:
        return (np.arange(self.m) - self.m // 2) * self.dp


def _plane_wave_grid(m: int, sign: float) -> np.ndarray:
    """exp(sign i p_k r_j / hbar) on the M x M lattice, rows j, columns k.

    p_k r_j / hbar = 2 pi (j - M/2)(k - M/2) / M whatever dr and hbar, since
    dp = 2 pi hbar / (M dr); so each cell is one of the M roots of unity
    cis(sign 2 pi n / M), picked by the residue n = (j - M/2)(k - M/2) mod M
    (M a power of two: the residue is the low bits).
    """
    roots = cis((sign * 2.0 * math.pi / m) * np.arange(m))
    offsets = np.arange(m) - m // 2
    residues = np.outer(offsets, offsets)
    residues &= m - 1
    return roots[residues]


def lift(wf: WaveFunction) -> ExtendedState:
    """Fill the (r, p) grid from a normalized wavefunction."""
    if abs(wf.norm_sq() - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(
            f"lift needs a normalized wavefunction, norm^2 = {wf.norm_sq()!r}")
    xi = to_momentum(wf)
    coeffs = _plane_wave_grid(wf.m, 1.0)
    coeffs *= xi.values / math.sqrt(2.0 * math.pi * wf.hbar)
    return ExtendedState(coeffs, wf.dr, wf.hbar)


def project_r(state: ExtendedState) -> WaveFunction:
    """Row sums against the dp measure; inverts lift exactly."""
    values = state.coefficients.sum(axis=1) * state.dp
    return WaveFunction(values, state.dr, state.hbar)


def project_p(state: ExtendedState) -> MomentumFunction:
    """Strip the plane-wave phase, sum over r, return the normalized ray.

    For lifted states the raw column sum is M * xi(p) / sqrt(2 pi hbar);
    the lattice factor M regularizes the divergent continuum prefactor and
    is removed by the ray normalization.
    """
    cells = _plane_wave_grid(state.m, -1.0)
    # coefficients first: complex multiply need not commute bit for bit
    np.multiply(state.coefficients, cells, out=cells)
    raw = cells.sum(axis=0)
    norm = math.sqrt(float(np.sum(np.abs(raw) ** 2) * state.dp))
    if norm == 0:
        return MomentumFunction(raw, state.dp, state.hbar)
    return MomentumFunction(raw / norm, state.dp, state.hbar)


def apply_x(state: ExtendedState) -> ExtendedState:
    """Multiply each cell by its r coordinate."""
    return ExtendedState(state.coefficients * state.r_values[:, None],
                         state.dr, state.hbar)


def apply_px(state: ExtendedState) -> ExtendedState:
    """Multiply each cell by its p coordinate."""
    return ExtendedState(state.coefficients * state.p_values[None, :],
                         state.dr, state.hbar)


def ray_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a, b>| / (|a| |b|): scale- and phase-invariant ray comparison."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(a, b)) / (na * nb))


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
