import math
from pathlib import Path

import numpy as np
import pytest

from hvqm.errors import ValidationError
from hvqm.phasespace import (ExtendedState, MomentumFunction, WaveFunction,
                             apply_px, apply_x, from_momentum,
                             gaussian_wavefunction, lift, plane_wave, project_p,
                             project_r, ray_overlap, to_momentum, write_grid_csv)

M = 256
DR = 1.0


def read_grid_csv(path) -> np.ndarray:
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()[1:]
    out = np.empty(len(rows), dtype=complex)
    for row in rows:
        i, re, im = row.split(",")
        out[int(i)] = float(re) + 1j * float(im)
    return out


def direct_dft(wf: WaveFunction) -> np.ndarray:
    """Oracle: explicit double-sum transform on the centered grids."""
    r = wf.r_values
    p = (np.arange(wf.m) - wf.m // 2) * wf.dp
    kernel = np.exp(-1j * np.outer(p, r) / wf.hbar)
    return wf.dr / math.sqrt(2 * math.pi * wf.hbar) * (kernel @ wf.values)


def random_normalized(rng, m=M, dr=DR, band_limited=False):
    values = rng.normal(size=m) + 1j * rng.normal(size=m)
    if band_limited:
        # keep only the central half of the spectrum
        wf = WaveFunction(values, dr).normalized()
        xi = to_momentum(wf)
        mask = np.abs(np.arange(m) - m // 2) < m // 4
        filtered = from_momentum(MomentumFunction(xi.values * mask, xi.dp))
        return filtered.normalized()
    return WaveFunction(values, dr).normalized()


class TestTransform:
    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(1)
        wf = random_normalized(rng)
        xi = to_momentum(wf)
        assert np.allclose(xi.values, direct_dft(wf), atol=1e-12)

    def test_roundtrip_inverse(self):
        rng = np.random.default_rng(2)
        wf = random_normalized(rng)
        back = from_momentum(to_momentum(wf))
        assert np.allclose(back.values, wf.values, atol=1e-12)
        assert back.dr == pytest.approx(wf.dr)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            wf = random_normalized(rng)
            xi = to_momentum(wf)
            assert abs(xi.norm_sq() - wf.norm_sq()) < 1e-10

    def test_gaussian_reciprocal_width(self):
        # position width sigma -> momentum width hbar / (2 sigma)
        sigma = 6.0
        wf = gaussian_wavefunction(M, DR, width=sigma)
        xi = to_momentum(wf)
        p = xi.p_values
        prob = np.abs(xi.values) ** 2
        prob /= prob.sum()
        var = float(np.sum(prob * p ** 2) - np.sum(prob * p) ** 2)
        assert math.sqrt(var) == pytest.approx(1.0 / (2 * sigma), rel=1e-3)

    def test_plane_wave_single_momentum_column(self):
        wf = plane_wave(M, DR, mode_index=10)
        xi = to_momentum(wf)
        k = np.argmax(np.abs(xi.values))
        assert k == M // 2 + 10
        others = np.delete(np.abs(xi.values), k)
        assert others.max() <= 1e-10 * abs(xi.values[k])


class TestLiftProject:
    def test_roundtrip_hundred_random_states(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            wf = random_normalized(rng)
            back = project_r(lift(wf))
            worst = max(worst, float(np.max(np.abs(back.values - wf.values))))
        assert worst < 1e-10

    def test_lift_requires_normalization(self):
        wf = WaveFunction(np.ones(M), DR)  # norm far from 1
        with pytest.raises(ValidationError):
            lift(wf)

    def test_lifted_coefficients_structure(self):
        # coefficient(r, p) = xi(p) exp(i p r / hbar) / sqrt(2 pi hbar)
        rng = np.random.default_rng(8)
        wf = random_normalized(rng)
        state = lift(wf)
        xi = to_momentum(wf)
        j, k = 37, 101
        expected = (xi.values[k] / math.sqrt(2 * math.pi)
                    * np.exp(1j * state.p_values[k] * state.r_values[j]))
        assert state.coefficients[j, k] == pytest.approx(expected, abs=1e-12)

    def test_single_cell_state_projects_to_point(self):
        coeffs = np.zeros((M, M), dtype=complex)
        coeffs[40, 70] = 1.0
        state = ExtendedState(coeffs, DR)
        wf = project_r(state)
        assert abs(wf.values[40]) > 0
        assert np.all(wf.values[np.arange(M) != 40] == 0)

    def test_zero_state(self):
        state = ExtendedState(np.zeros((M, M), dtype=complex), DR)
        assert np.all(project_r(state).values == 0)

    def test_plane_wave_lift_supported_on_single_column(self):
        wf = plane_wave(M, DR, mode_index=6)
        state = lift(wf)
        col = M // 2 + 6
        col_mass = np.abs(state.coefficients[:, col]).sum()
        total = np.abs(state.coefficients).sum()
        assert col_mass == pytest.approx(total, rel=1e-9)

    def test_delta_state_flat_coefficients(self):
        values = np.zeros(M, dtype=complex)
        values[M // 2] = 1.0 / math.sqrt(DR)
        state = lift(WaveFunction(values, DR))
        mags = np.abs(state.coefficients)
        assert mags.std() / mags.mean() < 1e-10


class TestProjectP:
    def test_ray_matches_spectrum(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            wf = random_normalized(rng)
            ray = project_p(lift(wf))
            xi = to_momentum(wf)
            assert 1.0 - ray_overlap(ray.values, xi.values) <= 1e-10

    def test_plane_wave_point_ray(self):
        wf = plane_wave(M, DR, mode_index=-12)
        ray = project_p(lift(wf))
        k = np.argmax(np.abs(ray.values))
        assert k == M // 2 - 12
        others = np.delete(np.abs(ray.values), k)
        assert others.max() <= 1e-9 * abs(ray.values[k])

    def test_lift_linearity_through_ray(self):
        rng = np.random.default_rng(10)
        a = random_normalized(rng)
        b = random_normalized(rng)
        combined = WaveFunction(a.values + b.values, DR).normalized()
        ray = project_p(lift(combined))
        xi_sum = to_momentum(a).values + to_momentum(b).values
        assert 1.0 - ray_overlap(ray.values, xi_sum) <= 1e-10

    def test_lattice_factor_is_m(self):
        # before ray normalization the column sum carries the finite factor M
        rng = np.random.default_rng(11)
        wf = random_normalized(rng)
        state = lift(wf)
        phase = np.exp(-1j * np.outer(state.r_values, state.p_values))
        raw = (state.coefficients * phase).sum(axis=0)
        xi = to_momentum(wf)
        expected = xi.values * M / math.sqrt(2 * math.pi)
        assert np.allclose(raw, expected, atol=1e-9)


class TestOperators:
    def test_apply_x_exact_correspondence(self):
        rng = np.random.default_rng(12)
        wf = random_normalized(rng)
        out = project_r(apply_x(lift(wf)))
        assert np.allclose(out.values, wf.r_values * wf.values, atol=1e-10)

    def test_plane_wave_momentum_eigenstate(self):
        wf = plane_wave(M, DR, mode_index=9)
        p0 = 9 * wf.dp
        out = project_r(apply_px(lift(wf)))
        assert np.allclose(out.values, p0 * wf.values, atol=1e-9)

    def test_gaussian_derivative_two_oracles(self):
        rng = np.random.default_rng(13)
        wf = random_normalized(rng, band_limited=True)
        out = project_r(apply_px(lift(wf)))

        # oracle 1: spectral derivative through the direct-sum transform
        p = (np.arange(M) - M // 2) * wf.dp
        xi = direct_dft(wf)
        r = wf.r_values
        kernel = np.exp(1j * np.outer(r, p))
        spectral = wf.dp / math.sqrt(2 * math.pi) * (kernel @ (p * xi))
        assert np.max(np.abs(out.values - spectral)) < 1e-9

        # oracle 2: centered finite differences, O(dr^2)
        centered = (np.roll(wf.values, -1) - np.roll(wf.values, 1)) / (2 * DR)
        fd = -1j * centered
        interior = slice(2, M - 2)
        err = np.max(np.abs(out.values[interior] - fd[interior]))
        assert err < 0.05  # second-order truncation, not spectral accuracy

    def test_apply_x_on_delta(self):
        values = np.zeros(M, dtype=complex)
        j0 = M // 2 + 5
        values[j0] = 1.0 / math.sqrt(DR)
        wf = WaveFunction(values, DR)
        out = project_r(apply_x(lift(wf)))
        expected = wf.r_values[j0] * wf.values[j0]
        assert out.values[j0] == pytest.approx(expected, abs=1e-10)


class TestValidationAndIo:
    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            WaveFunction(np.ones(100), DR)
        with pytest.raises(ValidationError):
            ExtendedState(np.zeros((100, 100), dtype=complex), DR)

    def test_positive_spacing(self):
        with pytest.raises(ValidationError):
            WaveFunction(np.ones(16), 0.0)

    def test_finite_values(self):
        bad = np.ones(16, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValidationError):
            WaveFunction(bad, DR)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        wf = random_normalized(rng, m=64)
        path = tmp_path / "grid.csv"
        write_grid_csv(wf.values, path)
        back = read_grid_csv(path)
        assert np.array_equal(back, wf.values)
        assert path.read_text().splitlines()[0] == "index,real,imag"
