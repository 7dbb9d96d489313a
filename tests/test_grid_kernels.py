"""The grid kernels against their complex-exp and full-grid oracles.

`lift` and `project_p` take each cell's plane-wave factor from the M roots
of unity, by the cell's integer residue (j - M/2)(k - M/2) mod M.  Their
oracles apply complex `np.exp(2 pi i n / M)` at each residue n and must
agree bit for bit; against the old route, complex `np.exp` of the rounded
phase r_j p_k / hbar, they agree within a bound set by the largest phase.
`slit_pair` sums each bin by a chirp-z transform and the four-hole
amplitude is a product of two 1-D sums; their oracles are the explicit
bins x K and n x n midpoint sums, which round differently, so they are
compared within a tolerance.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hvqm import pathint, runner
from hvqm.config import parse_config
from hvqm.interference import _fft, cis
from hvqm.pathint import Geometry2Slit, GeometryFourHole, four_hole_table, slit_pair
from hvqm.phasespace import ExtendedState, WaveFunction, lift, project_p, to_momentum
from hvqm.runner import run_experiment

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def reference_slit_wave(g: Geometry2Slit, slit: str) -> np.ndarray:
    k = g.quadrature_points
    c = -g.slit_separation / 2.0 if slit == "L" else g.slit_separation / 2.0
    y = c - g.slit_width / 2.0 + (np.arange(k) + 0.5) * (g.slit_width / k)
    x = g.bin_centers()
    s1 = g.mass * (g.l1 ** 2 + y ** 2) * (g.v / (2.0 * g.l1))
    s2 = g.mass * (g.l2 ** 2 + (x[:, None] - y[None, :]) ** 2) * (g.v / (2.0 * g.l2))
    phases = np.exp(1j * (s1[None, :] + s2) / g.hbar)
    return (g.slit_width / k) * phases.sum(axis=1)


def root_of_unity_grid(m: int, sign: int) -> np.ndarray:
    """exp(sign 2 pi i n / M) at each cell's residue n = (j - M/2)(k - M/2) mod M."""
    offsets = np.arange(m) - m // 2
    n = np.outer(offsets, offsets) % m
    return np.exp(sign * 2j * np.pi * n / m)


def rounded_phase_grid(m: int, dr: float, hbar: float, sign: int) -> np.ndarray:
    """exp(sign i r_j p_k / hbar), each phase rounded from the rounded
    r_j and p_k."""
    r = (np.arange(m) - m // 2) * dr
    p = (np.arange(m) - m // 2) * (2.0 * math.pi * hbar / (m * dr))
    return np.exp(sign * 1j * np.outer(r, p) / hbar)


def reference_lift(wf: WaveFunction, grid: np.ndarray) -> np.ndarray:
    xi = to_momentum(wf)
    return grid * (xi.values[None, :] / math.sqrt(2.0 * math.pi * wf.hbar))


def column_sums(state: ExtendedState, grid: np.ndarray) -> np.ndarray:
    return (state.coefficients * grid).sum(axis=0)


def ray(raw: np.ndarray, dp: float) -> np.ndarray:
    return raw / math.sqrt(float(np.sum(np.abs(raw) ** 2) * dp))


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


def explicit_dft(x: np.ndarray, sign: float) -> np.ndarray:
    """sum_t x_t exp(sign 2 pi i j t / n) along the last axis, the phase of
    each term taken at its residue j t mod n, a few rows of j at a time."""
    n = x.shape[-1]
    roots = np.exp(sign * 2j * np.pi * np.arange(n) / n)
    t = np.arange(n)
    return np.concatenate([x @ roots[np.outer(t, rows) % n]
                           for rows in np.array_split(t, max(1, n // 128))], axis=-1)


@pytest.mark.parametrize("size", [1 << p for p in range(12)])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_fft_is_the_explicit_dft(size, sign):
    """Both signs, sizes 1 to 2048, and a leading batch axis of three rows
    behind the (real, imaginary) plane axis."""
    rng = np.random.default_rng(size)
    x = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
    got = _fft(np.stack([x.real, x.imag]), sign)
    want = explicit_dft(x, sign)
    # each output is a sum of size terms of modulus at most max |x|
    tol = 8 * np.finfo(float).eps * size * np.abs(x).max()
    assert np.abs((got[0] + 1j * got[1]) - want).max() <= tol


# odd and even sizes, K far above bins, and the two shapes at the cap of
# bins x K phases: the most points per bin and the most bins
@pytest.mark.parametrize("bins,k", [(16, 1), (512, 64), (1000, 77), (3000, 64),
                                    (20, 65539), (65536, 64), (1 << 22, 1)])
@pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (1.3, 0.7)])
def test_slit_wave_is_the_complex_exp_sum(bins, k, mass, hbar):
    g = Geometry2Slit(bins=bins, quadrature_points=k, mass=mass, hbar=hbar)
    for got, slit in zip(slit_pair(g), ("L", "R")):
        want = reference_slit_wave(g, slit)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_shipped_twoslit_outputs_are_the_oracle_patterns(tmp_path):
    """The shipped config's CSVs and dark bins against patterns built from
    the explicit sums: unlike the sha256 pins, this does not depend on the
    last bits of numpy's arithmetic."""
    cfg = parse_config(CONFIG_DIR / "twoslit.cfg")
    run_experiment(cfg, tmp_path)
    g = runner._geometry(cfg, Geometry2Slit)
    left, right = (reference_slit_wave(g, slit) for slit in ("L", "R"))
    want = {mode: pathint.ScreenPattern(g.bin_centers(), raw / raw.sum(), mode)
            for mode, raw in (("coherent", np.abs(left + right) ** 2),
                              ("which-path", np.abs(left) ** 2 + np.abs(right) ** 2))}
    for file_name, mode in (("coherent.csv", "coherent"), ("whichpath.csv", "which-path")):
        rows = np.loadtxt(tmp_path / file_name, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], g.bin_centers())
        probabilities = want[mode].probabilities
        assert np.abs(rows[:, 1] - probabilities).max() <= 1e-9 * probabilities.max()
    dark = json.loads((tmp_path / "dark_regions.json").read_text())
    assert dark["bins"] == pathint.dark_region_finder(
        want["coherent"], want["which-path"], cfg.get_float("experiment", "dark_eps"))


# the bytes of the slit waves and of the tables squared from them and from
# the four-hole amplitudes, as hex by name
SIMD_PROBE = """
import json, sys
import numpy as np
from hvqm.pathint import (Geometry2Slit, GeometryFourHole, four_hole_table,
                          screen_patterns, slit_pair)
from hvqm.quasiprob import born_pair_marginal, solve_weights
from hvqm.spin import DirectionSet
arrays = {"slit_pair": slit_pair(Geometry2Slit(bins=1000, quadrature_points=77))}
for p in screen_patterns(Geometry2Slit()):
    arrays[p.mode] = p.probabilities
for coherent in (True, False):
    arrays[f"four_hole_table {coherent}"] = np.array(
        list(four_hole_table(GeometryFourHole(), coherent).values()))
dirs = DirectionSet.from_planar_angles(0.37 * j + 0.1 * j * j for j in range(12))
arrays["solve_weights"] = solve_weights(dirs).weights
arrays["born_pair_marginal"] = np.array(list(born_pair_marginal(dirs, 2, 9).values()))
json.dump({name: a.tobytes().hex() for name, a in arrays.items()}, sys.stdout)
"""


def test_slit_pair_bits_do_not_depend_on_numpy_simd():
    """numpy's SIMD loops round complex products and complex abs
    differently with and without fused multiply-adds.  The slit waves use
    no complex product and no FFT library, only cos, sin and real sums and
    products, and the Born rule squares as re^2 + im^2, so with every
    optional CPU feature of numpy's dispatch turned off neither the waves'
    bits nor those of the screen patterns, four-hole tables, signed weights
    and Born pair cells may move."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(features)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, "-c", SIMD_PROBE], env=child_env,
                           capture_output=True, text=True, timeout=120)
            for child_env in (env, {**env, "NPY_DISABLE_CPU_FEATURES": ""})]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    simd_off, simd_on = (json.loads(proc.stdout) for proc in runs)
    for name, bits in simd_on.items():
        assert simd_off[name] == bits, name


def test_slit_wave_memory_does_not_grow_with_bins():
    g = Geometry2Slit(bins=1 << 16, quadrature_points=64)   # 2^22 phases
    tracemalloc.start()
    try:
        slit_pair(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def lifted_and_other(m: int, hbar: float):
    """A wavefunction, its lifted state and a grid that is not a lifted state."""
    rng = np.random.default_rng(m)
    wf = WaveFunction(rng.normal(size=m) + 1j * rng.normal(size=m), 0.5, hbar).normalized()
    other = ExtendedState(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), 0.5, hbar)
    return wf, lift(wf), other


@pytest.mark.parametrize("m", [2, 64, 1024])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_lift_and_project_p_are_the_complex_exp_grids(m, hbar):
    """Bit for bit: complex np.exp of 2 pi i n / M at each integer residue."""
    wf, state, other = lifted_and_other(m, hbar)
    assert np.array_equal(state.coefficients, reference_lift(wf, root_of_unity_grid(m, 1)))
    for s in (state, other):
        want = ray(column_sums(s, root_of_unity_grid(m, -1)), s.dp)
        assert np.array_equal(project_p(s).values, want)


@pytest.mark.parametrize("m", [2, 64, 1024])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_lift_and_project_p_are_near_the_rounded_phase_grids(m, hbar):
    """The rounded route rounds r_j, dp, p_k, their product and the
    division by hbar, each within eps/2 relative, so its phase is off by at
    most 4 eps relative: 4 eps pi M / 2 at the largest phase, |r_j p_k| / hbar
    = 2 pi (M/2)^2 / M.  cos, sin, the roots of unity and the products add a
    few eps more."""
    eps = np.finfo(float).eps
    tol = 4 * eps * (math.pi * m / 2) + 4 * eps
    wf, state, other = lifted_and_other(m, hbar)
    scale = np.abs(to_momentum(wf).values) / math.sqrt(2.0 * math.pi * hbar)
    old = reference_lift(wf, rounded_phase_grid(m, 0.5, hbar, 1))
    assert np.all(np.abs(state.coefficients - old) <= tol * scale[None, :])
    for s in (state, other):
        # each column sum moves by at most tol sum_j |c_jk|, plus M eps of
        # that for its own rounding; normalizing at most doubles the shift
        raw = column_sums(s, rounded_phase_grid(m, 0.5, hbar, -1))
        norm = math.sqrt(float(np.sum(np.abs(raw) ** 2) * s.dp))
        bound = 2 * (tol + m * eps) * np.abs(s.coefficients).sum(axis=0).max() / norm
        assert np.abs(project_p(s).values - raw / norm).max() <= bound


@pytest.mark.parametrize("n", [2, 24, 400, 1024])
def test_four_hole_separable_sum_is_the_grid_sum(monkeypatch, n):
    g = GeometryFourHole(region_grid=n)
    signs, regions = (1, -1), (g.region_plus, g.region_minus)
    amps = pathint.four_hole_amplitudes(g)
    # axes (s_x, s_A, s_y), sign +1 at index 0
    grid_amps = np.empty_like(amps)
    for i, sx in enumerate(signs):
        for j, region in enumerate(regions):
            # no amplitude exceeds the region's area: each cell has modulus cell
            area = (region.x_max - region.x_min) * (region.y_max - region.y_min)
            for k, sy in enumerate(signs):
                assert amps[i, j, k] == pathint._hole_region_amplitude(g, sx, sy, region)
                grid_amps[i, j, k] = grid_hole_region_amplitude(g, sx, sy, region)
                assert abs(amps[i, j, k] - grid_amps[i, j, k]) <= 1e-10 * area
    tables = [four_hole_table(g, coherent) for coherent in (True, False)]
    monkeypatch.setattr(pathint, "four_hole_amplitudes", lambda _: grid_amps)
    for coherent, got in zip((True, False), tables):
        # tables sum to 1, so this is relative to their total
        want = four_hole_table(g, coherent)
        assert max(abs(got[key] - want[key]) for key in want) <= 1e-10
