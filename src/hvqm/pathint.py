"""Discretized free-particle path amplitudes for slit and hole experiments.

Each piecewise-linear path contributes exp(i S / hbar) with the free action
S = sum_segments m (dx)^2 / (2 dt); segment times are fixed by a constant
longitudinal speed v, so the transverse displacements carry all the phase
variation.  Screen patterns are built from two-segment paths
source -> aperture point -> screen bin, with midpoint quadrature across the
aperture.  Screen bins and quadrature points are uniform grids and the
phase is quadratic, so a slit's sum over its K quadrature points is a
chirp-z transform, evaluated by Bluestein's identity as FFT convolutions
over blocks of bins a few times K long: time grows as bins log K and
memory as bins + K, instead of bins x K phases.  The FFT is the
real-arithmetic `interference._fft`, so the waves' bits do not depend on
numpy's FFT or SIMD loops.  The four-hole phase separates in x and y, so each
hole-to-region amplitude is a product of two 1-D midpoint sums.

The coherent and which-path screen patterns, and the y-coherent and
which-path four-hole tables, are the two tables of `interference.pair_tables`,
as the spin pair tables are: the two slits, or the two unobserved +/-y0
holes, are the alternatives summed over before or after squaring.

Internal units hbar = m = 1; the de Broglie wavelength is
lambda = 2 pi hbar / (m v).  Default geometries put well over five fringes
on the screen while keeping the slit-width phase span small enough for the
K = 64 midpoint rule to be converged to ~1e-7.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .interference import _cis_planes, _fft, _rotate, cis, pair_tables
from .logcodec import write_csv

PATTERN_NORM_TOL = 1e-9


def path_amplitude(points: Sequence[Sequence[float]], times: Sequence[float],
                   mass: float = 1.0, hbar: float = 1.0) -> complex:
    """exp(i S / hbar) for a piecewise-linear path; |result| = 1.

    `points` is a sequence of >= 2 positions (any fixed dimension), `times`
    the positive duration of each segment.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dt = np.asarray(times, dtype=float)
    if len(pts) < 2 or len(dt) != len(pts) - 1:
        raise ValidationError("need >= 1 segment and one duration per segment")
    if np.any(dt <= 0):
        raise ValidationError("segment durations must be positive")
    disp_sq = np.sum(np.diff(pts, axis=0) ** 2, axis=1)
    action = float(np.sum(mass * disp_sq / (2.0 * dt)))
    return complex(np.exp(1j * action / hbar))


def speed_from(v: float | None, wavelength: float | None,
               mass: float, hbar: float) -> float:
    """The speed given as itself or as a de Broglie wavelength: exactly one
    of the two."""
    if (v is None) == (wavelength is None):
        raise ValidationError("give exactly one of speed v or wavelength")
    if v is None:
        if wavelength <= 0:
            raise ValidationError("wavelength must be positive")
        return 2.0 * math.pi * hbar / (mass * wavelength)
    if v <= 0:
        raise ValidationError("speed must be positive")
    return v


@dataclass(frozen=True)
class Geometry2Slit:
    """Two slits of width w centered at +/- d/2, source at distance l1, screen at l2."""

    slit_separation: float = 1.0
    slit_width: float = 0.01
    l1: float = 400.0
    l2: float = 100.0
    mass: float = 1.0
    hbar: float = 1.0
    v: float = field(default=200.0 * math.pi)   # wavelength 0.01
    screen_half_width: float = 2.56
    bins: int = 512
    quadrature_points: int = 64

    def __post_init__(self):
        for name in ("slit_separation", "slit_width", "l1", "l2",
                     "mass", "hbar", "v", "screen_half_width"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.bins < 16:
            raise ValidationError("need at least 16 screen bins")
        if self.slit_width >= self.slit_separation:
            raise ValidationError("slit width must be smaller than the separation")
        if self.quadrature_points < 1:
            raise ValidationError("need at least one quadrature point")

    @classmethod
    def from_wavelength(cls, wavelength: float, **kw) -> "Geometry2Slit":
        mass = kw.get("mass", 1.0)
        hbar = kw.get("hbar", 1.0)
        return cls(v=speed_from(None, wavelength, mass, hbar), **kw)

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi * self.hbar / (self.mass * self.v)

    @property
    def fringe_spacing(self) -> float:
        return self.wavelength * self.l2 / self.slit_separation

    def bin_centers(self) -> np.ndarray:
        return -self.screen_half_width + (np.arange(self.bins) + 0.5) * self.bin_width

    @property
    def bin_width(self) -> float:
        return 2.0 * self.screen_half_width / self.bins


def _block_size(bins: int, k: int) -> int:
    """The FFT length of one block of bins: the least power of two in
    which the k - 1 points that each block's convolution spends on its
    edge take at most a quarter, or one block for the whole screen if
    that is shorter."""
    return min(1 << max(4 * k - 5, 0).bit_length(), 1 << (bins + k - 2).bit_length())


def slit_pair(g: Geometry2Slit) -> np.ndarray:
    """(2, bins) complex amplitudes per screen bin of the L and R slits,
    centred at -d/2 and +d/2.

    Midpoint quadrature across the slit width; two-segment paths with
    times l1/v and l2/v.  Each row carries the quadrature weight w/K, so
    doubling K converges to the width integral.  Each bin's sum over the K
    points is a chirp-z transform, so time grows as bins log K and memory
    as bins + K, not as bins x K.

    The bins are cut into blocks.  With bin x = X + t dx about its block's
    centre X and quadrature point y_q = y_c + q dy about the slit's centre,
    the phase over hbar of the path through y_q to x is
    a (x - y_c)^2 + c_q - 2 a dy X q - beta t q, where c_q holds the terms
    in q alone, a = m v / (2 l2 hbar) and beta = 2 a dx dy.  Bluestein's
    t q = (t^2 + q^2 - (t - q)^2) / 2 turns each block's sum over q into
    one FFT convolution with the chirp exp(i beta n^2 / 2), which depends
    on neither the block nor the slit, so its FFT is built once.  All
    blocks of all slits go through one batched forward and one inverse
    FFT.  Every step is a cos, a sin or a rounded real sum or product, so
    the bits depend neither on numpy's FFT nor on whether the CPU fuses
    multiply-adds.
    """
    k = g.quadrature_points
    a = g.mass * g.v / (2.0 * g.l2 * g.hbar)
    b = g.mass * g.v / (2.0 * g.l1 * g.hbar)
    dx, dy = g.bin_width, g.slit_width / k
    half_beta = a * dx * dy
    size = _block_size(g.bins, k)
    block = size - k + 1
    blocks = -(-g.bins // block)
    t0, q0 = block // 2, k // 2
    # the chirp at every n = t - q, from the lowest up, carrying the
    # inverse FFT's 1/size (a power of two, so the scaling is exact)
    chirp = np.arange(-t0 - (k - 1 - q0), block - t0 + q0, dtype=float)
    chirp *= chirp
    chirp *= half_beta
    kernel = _cis_planes(chirp)
    kernel *= 1.0 / size
    kernel = _fft(kernel, -1.0)
    q = np.arange(k) - q0
    centres = -g.screen_half_width + (np.arange(blocks) * block + t0 + 0.5) * dx
    y_cs = [c - g.slit_width / 2.0 + (q0 + 0.5) * dy
            for c in (-g.slit_separation / 2.0, g.slit_separation / 2.0)]
    waves = np.zeros((2, 2, blocks, size))
    for i, y_c in enumerate(y_cs):
        # c_q: the free action over hbar of source->(l1, y) and the part of
        # (l1, y)->(l1 + l2, x) that depends on q alone, less Bluestein's
        # beta q^2 / 2; then each block's -2 a dy X q
        y = y_c + q * dy
        col = b * (g.l1 ** 2 + y ** 2) + a * g.l2 ** 2
        col += a * (q * dy) * (q * dy + 2.0 * y_c)
        col -= half_beta * q * q
        phase = np.multiply.outer(centres, -2.0 * a * dy * q)
        phase += col
        _cis_planes(phase, out=waves[:, i, :, :k])
    del centres, phase
    waves = _fft(waves, -1.0)
    _rotate(waves, kernel[:, None, None, :])
    waves = _fft(waves, 1.0)[..., k - 1:k - 1 + block]
    # a (x - y_c)^2, less Bluestein's beta t^2 / 2, at every bin of every
    # block, the last block's overhang too
    x = -g.screen_half_width + (np.arange(blocks * block) + 0.5) * dx
    t = np.arange(block) - t0
    for i, y_c in enumerate(y_cs):
        row = x - y_c
        row *= row
        row *= a
        row = row.reshape(blocks, block)
        row -= half_beta * t * t
        _rotate(waves[:, i], _cis_planes(row))
    del x, row
    waves *= g.slit_width / k
    out = np.empty((2, g.bins), dtype=complex)
    out.real = waves[0].reshape(2, -1)[:, :g.bins]
    out.imag = waves[1].reshape(2, -1)[:, :g.bins]
    return out


@dataclass(frozen=True)
class ScreenPattern:
    """Binned, normalized screen intensities."""

    bin_centers: np.ndarray
    probabilities: np.ndarray
    mode: str

    def __post_init__(self):
        if self.bin_centers.shape != self.probabilities.shape:
            raise ValidationError("bin grid and probabilities differ in length")
        if np.any(self.probabilities < 0):
            raise ValidationError("probabilities must be nonnegative")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > PATTERN_NORM_TOL:
            raise ValidationError(f"pattern sums to {total!r}, expected 1")


def screen_patterns(g: Geometry2Slit) -> tuple[ScreenPattern, ScreenPattern]:
    """Coherent |L + R|^2 and which-path |L|^2 + |R|^2 of one `slit_pair`:
    the slits are the unobserved alternatives of each bin."""
    coherent, which_path = pair_tables(slit_pair(g).T)
    centers = g.bin_centers()
    return (ScreenPattern(centers, coherent, "coherent"),
            ScreenPattern(centers, which_path, "which-path"))


def screen_pattern(g: Geometry2Slit, mode: str) -> ScreenPattern:
    """Coherent |L + R|^2 or which-path |L|^2 + |R|^2, normalized per bin."""
    if mode not in ("coherent", "which-path"):
        raise ValidationError(f"mode must be 'coherent' or 'which-path', got {mode!r}")
    coherent, which_path = screen_patterns(g)
    return coherent if mode == "coherent" else which_path


def dark_region_finder(p_coherent: ScreenPattern, p_whichpath: ScreenPattern,
                       eps: float) -> list[int]:
    """Bins where the coherent pattern is eps-suppressed against which-path.

    A bin qualifies when coherent < eps * which-path and the which-path
    value is above 10% of its own maximum (rules out the dim pattern edge).
    An undetected arrival in such a bin is the certifiable state-change
    event: it was forbidden while the paths were indistinguishable.
    """
    if (p_coherent.bin_centers.shape != p_whichpath.bin_centers.shape
            or np.any(p_coherent.bin_centers != p_whichpath.bin_centers)):
        raise ValidationError("patterns are binned on different grids")
    wp = p_whichpath.probabilities
    mask = (p_coherent.probabilities < eps * wp) & (wp > 0.1 * wp.max())
    return [int(i) for i in np.nonzero(mask)[0]]


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle on the final screen."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValidationError("region bounds must satisfy min < max")

    def overlaps(self, other: "Region") -> bool:
        return (self.x_min < other.x_max and other.x_min < self.x_max
                and self.y_min < other.y_max and other.y_min < self.y_max)

    def nodes(self, n: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Midpoint quadrature nodes along x and along y (n each) and the
        area of one of the n x n cells."""
        hx = (self.x_max - self.x_min) / n
        hy = (self.y_max - self.y_min) / n
        xs = self.x_min + (np.arange(n) + 0.5) * hx
        ys = self.y_min + (np.arange(n) + 0.5) * hy
        return xs, ys, hx * hy


@dataclass(frozen=True)
class GeometryFourHole:
    """Four point holes at (+/-x0, +/-y0) and two detector regions +/-A.

    For product rectangles the path phase separates in x and y: each
    hole-to-region amplitude is a product of an x sum and a y sum over the
    region's region_grid midpoints.  So regions that share a y-range (or
    are y-mirrors) give every cell the same unobserved-hole interference
    factor, which then cancels under normalization.  The default -A region
    is therefore shifted in y rather than mirrored: generic geometry,
    visibly different coherent and which-path tables.
    """

    x0: float = 0.5
    y0: float = 0.5
    l1: float = 400.0
    l2: float = 100.0
    mass: float = 1.0
    hbar: float = 1.0
    v: float = field(default=200.0 * math.pi)
    region_plus: Region = field(default_factory=lambda: Region(1.0, 2.0, 0.25, 1.25))
    region_minus: Region = field(default_factory=lambda: Region(-2.0, -1.0, -0.55, 0.45))
    region_grid: int = 24

    def __post_init__(self):
        for name in ("x0", "y0", "l1", "l2", "mass", "hbar", "v"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.region_plus.overlaps(self.region_minus):
            raise ValidationError("detector regions must be disjoint")
        if self.region_grid < 2:
            raise ValidationError("region quadrature grid too coarse")

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi * self.hbar / (self.mass * self.v)


def _hole_region_amplitude(g: GeometryFourHole, sx: int, sy: int, region: Region) -> complex:
    """Coherent endpoint integral of the path amplitude through one hole.

    The phase of the path through hole (hx, hy) to (x, y) is a constant
    plus c (x - hx)^2 plus c (y - hy)^2, so the midpoint sum over the
    region's n x n cells is a product of two n-point sums.
    """
    hx, hy = sx * g.x0, sy * g.y0
    xs, ys, cell = region.nodes(g.region_grid)
    s1 = g.mass * (g.l1 ** 2 + hx ** 2 + hy ** 2) * (g.v / (2.0 * g.l1))
    half_rate = g.v / (2.0 * g.l2)   # 1 / (2 dt) of the second segment
    const = (s1 + g.mass * g.l2 ** 2 * half_rate) / g.hbar
    c = g.mass * half_rate / g.hbar
    return (cmath.rect(cell, const) * complex(cis(c * (xs - hx) ** 2).sum())
            * complex(cis(c * (ys - hy) ** 2).sum()))


def four_hole_amplitudes(g: GeometryFourHole) -> np.ndarray:
    """(s_x, s_A, s_y) amplitudes, sign +1 at index 0: hole (s_x x0, s_y y0)
    into region s_A."""
    return np.array([[[_hole_region_amplitude(g, sx, sy, region) for sy in (1, -1)]
                      for region in (g.region_plus, g.region_minus)] for sx in (1, -1)])


def four_hole_table(g: GeometryFourHole, y_coherent: bool) -> dict[tuple[int, int], float]:
    """Joint table P(s_x, s_A), normalized over the four cells.

    With y-coherence on, the amplitudes through the unobserved +/-y0 holes
    are summed before squaring; off, they are squared first: the two-slit
    coherent/which-path distinction, from the same `pair_tables`.
    """
    coherent, which_path = pair_tables(four_hole_amplitudes(g))
    table = coherent if y_coherent else which_path
    return {(sx, sa): float(table[i, j])
            for i, sx in enumerate((1, -1)) for j, sa in enumerate((1, -1))}


def write_pattern_csv(p: ScreenPattern, path) -> None:
    write_csv(path, ("bin_center", "probability"), (p.bin_centers, p.probabilities))

