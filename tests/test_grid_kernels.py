"""The grid kernels against their complex-exp and full-grid oracles.

`slit_wave`, `lift` and `project_p` build each phase as a real array and
turn it into exp(i phase) with `interference.cis`.  The oracles below are
the direct forms: the whole phase grid at once, divided by hbar as a
complex array and passed to complex `np.exp`.  The results must be equal
bit for bit.  The four-hole amplitude is a product of two 1-D sums; its
oracle is the midpoint sum over the full n x n grid, which rounds
differently, so it is compared within a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hvqm import pathint
from hvqm.interference import cis
from hvqm.pathint import Geometry2Slit, GeometryFourHole, four_hole_table, slit_wave
from hvqm.phasespace import ExtendedState, WaveFunction, lift, project_p, to_momentum


def reference_slit_wave(g: Geometry2Slit, slit: str) -> np.ndarray:
    k = g.quadrature_points
    c = -g.slit_separation / 2.0 if slit == "L" else g.slit_separation / 2.0
    y = c - g.slit_width / 2.0 + (np.arange(k) + 0.5) * (g.slit_width / k)
    x = g.bin_centers()
    s1 = g.mass * (g.l1 ** 2 + y ** 2) * (g.v / (2.0 * g.l1))
    s2 = g.mass * (g.l2 ** 2 + (x[:, None] - y[None, :]) ** 2) * (g.v / (2.0 * g.l2))
    phases = np.exp(1j * (s1[None, :] + s2) / g.hbar)
    return (g.slit_width / k) * phases.sum(axis=1)


def reference_lift(wf: WaveFunction) -> np.ndarray:
    xi = to_momentum(wf)
    phase = np.exp(1j * np.outer(wf.r_values, xi.p_values) / wf.hbar)
    return phase * (xi.values[None, :] / math.sqrt(2.0 * math.pi * wf.hbar))


def reference_project_p(state: ExtendedState) -> np.ndarray:
    phase = np.exp(-1j * np.outer(state.r_values, state.p_values) / state.hbar)
    raw = (state.coefficients * phase).sum(axis=0)
    return raw / math.sqrt(float(np.sum(np.abs(raw) ** 2) * state.dp))


def grid_hole_region_amplitude(g: GeometryFourHole, sx: int, sy: int, region) -> complex:
    """The path amplitude summed over every cell of the n x n grid."""
    hole = np.array([sx * g.x0, sy * g.y0])
    xs, ys, cell = region.nodes(g.region_grid)
    gx, gy = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    s1 = g.mass * (g.l1 ** 2 + hole @ hole) * (g.v / (2.0 * g.l1))
    d2 = (gx - hole[0]) ** 2 + (gy - hole[1]) ** 2
    s2 = g.mass * (g.l2 ** 2 + d2) * (g.v / (2.0 * g.l2))
    return cell * complex(np.exp(1j * (s1 + s2) / g.hbar).sum())


def test_cis_is_complex_exp():
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e3, 1e6, 1e9):
        t = rng.uniform(-scale, scale, size=(64, 1024))
        assert np.array_equal(cis(t), np.exp(1j * t))
    edge = np.array([0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, 1e-300, 1e15])
    assert np.array_equal(cis(edge), np.exp(1j * edge))


# bins that are and are not a multiple of a chunk's rows, and a K above
# _SLIT_CELLS, which takes one row per chunk
@pytest.mark.parametrize("bins,k", [(16, 1), (512, 64), (1000, 77), (3000, 64),
                                    (20, pathint._SLIT_CELLS + 3)])
@pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (1.3, 0.7)])
def test_slit_wave_is_the_complex_exp_sum(bins, k, mass, hbar):
    g = Geometry2Slit(bins=bins, quadrature_points=k, mass=mass, hbar=hbar)
    for slit in ("L", "R"):
        assert np.array_equal(slit_wave(g, slit), reference_slit_wave(g, slit))


def test_slit_wave_memory_does_not_grow_with_bins():
    g = Geometry2Slit(bins=1 << 16, quadrature_points=64)   # 2^22 phases
    tracemalloc.start()
    try:
        slit_wave(g, "L")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("m", [2, 64, 1024])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_lift_and_project_p_are_the_complex_exp_grids(m, hbar):
    rng = np.random.default_rng(m)
    wf = WaveFunction(rng.normal(size=m) + 1j * rng.normal(size=m), 0.5, hbar).normalized()
    state = lift(wf)
    assert np.array_equal(state.coefficients, reference_lift(wf))
    assert np.array_equal(project_p(state).values, reference_project_p(state))
    # a grid that is not a lifted state
    other = ExtendedState(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), 0.5, hbar)
    assert np.array_equal(project_p(other).values, reference_project_p(other))


@pytest.mark.parametrize("n", [2, 24, 400, 1024])
def test_four_hole_separable_sum_is_the_grid_sum(monkeypatch, n):
    g = GeometryFourHole(region_grid=n)
    regions = {1: g.region_plus, -1: g.region_minus}
    grid_amps = {(sx, sy, sa): grid_hole_region_amplitude(g, sx, sy, region)
                 for sx in (1, -1) for sy in (1, -1) for sa, region in regions.items()}
    for (sx, sy, sa), want in grid_amps.items():
        region = regions[sa]
        # no amplitude exceeds the region's area: each cell has modulus cell
        area = (region.x_max - region.x_min) * (region.y_max - region.y_min)
        assert abs(pathint._hole_region_amplitude(g, sx, sy, region) - want) <= 1e-10 * area
    tables = [four_hole_table(g, coherent) for coherent in (True, False)]
    monkeypatch.setattr(pathint, "four_hole_amplitudes", lambda _: grid_amps)
    for coherent, got in zip((True, False), tables):
        # tables sum to 1, so this is relative to their total
        want = four_hole_table(g, coherent)
        assert max(abs(got[key] - want[key]) for key in want) <= 1e-10
