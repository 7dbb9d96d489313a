import dataclasses
import math

import numpy as np
import pytest

from conftest import four_hole_x_marginal
from hvqm import interference
from hvqm.errors import ValidationError
from hvqm.pathint import (Geometry2Slit, GeometryFourHole, Region,
                          ScreenPattern, dark_region_finder, four_hole_table,
                          screen_pattern, slit_pair, write_pattern_csv)


def fraunhofer_dark_positions(g: Geometry2Slit):
    """Zeros of cos^2(pi d x / (lambda l2)) inside the screen."""
    spacing = g.fringe_spacing
    k_max = int(g.screen_half_width / spacing + 1)
    xs = [(k + 0.5) * spacing for k in range(-k_max, k_max + 1)]
    return [x for x in xs if abs(x) < g.screen_half_width]


class TestSlitWave:
    def test_mirror_symmetry_of_moduli(self):
        g = Geometry2Slit()
        amp_l, amp_r = slit_pair(g)
        # |psi_L(x)| = |psi_R(-x)| and the two agree at the symmetric center
        assert np.allclose(np.abs(amp_l), np.abs(amp_r[::-1]), atol=1e-12)
        mid = g.bins // 2
        assert abs(abs(amp_l[mid]) - abs(amp_r[mid])) < 1e-4 * abs(amp_l[mid])

    def test_point_slit_phase_slope(self):
        # d(arg R - arg L)/dx = -2 pi d / (lambda l2) from the first-order
        # action expansion; compare against the numerical slope
        g = Geometry2Slit(slit_width=1e-6, quadrature_points=1)
        amp_l, amp_r = slit_pair(g)
        phase = np.unwrap(np.angle(amp_r) - np.angle(amp_l))
        slopes = np.diff(phase) / g.bin_width
        expected = -2 * math.pi * g.slit_separation / (g.wavelength * g.l2)
        assert np.allclose(slopes, expected, rtol=0.01)

    def test_quadrature_self_convergence(self):
        g = Geometry2Slit()
        a64 = slit_pair(dataclasses.replace(g, quadrature_points=64))[0]
        a128 = slit_pair(dataclasses.replace(g, quadrature_points=128))[0]
        rel = np.abs(a128 - a64) / np.abs(a128)
        assert rel.max() < 1e-6


class TestScreenPattern:
    def test_center_intensity_ratio_is_two(self):
        # raw intensities at the symmetric center: |L+R|^2 = 2 (|L|^2+|R|^2)
        g = Geometry2Slit()
        amp_l, amp_r = slit_pair(g)
        mid = g.bins // 2
        coh = abs(amp_l[mid] + amp_r[mid]) ** 2
        inc = abs(amp_l[mid]) ** 2 + abs(amp_r[mid]) ** 2
        assert coh / inc == pytest.approx(2.0, abs=1e-3)

    def test_normalization(self):
        g = Geometry2Slit()
        for mode in ("coherent", "which-path"):
            p = screen_pattern(g, mode)
            assert p.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p.probabilities >= 0)

    def test_first_dark_fringe_suppressed(self):
        g = Geometry2Slit()
        coh = screen_pattern(g, "coherent")
        wp = screen_pattern(g, "which-path")
        x_dark = g.fringe_spacing / 2  # first zero of cos^2(pi d x / lambda l2)
        i = int(np.argmin(np.abs(g.bin_centers() - x_dark)))
        window = slice(max(0, i - 2), i + 3)
        ratio = (coh.probabilities[window] / wp.probabilities[window]).min()
        assert ratio < 1e-3

    def test_whichpath_has_no_deep_minima(self):
        # central region stays above 10% of a smooth reference envelope
        g = Geometry2Slit()
        wp = screen_pattern(g, "which-path")
        x = g.bin_centers()
        central = np.abs(x) < 2.0
        envelope = wp.probabilities[central].max()
        assert wp.probabilities[central].min() > 0.1 * envelope

    def test_coherent_peak_beats_whichpath_peak(self):
        g = Geometry2Slit()
        coh = screen_pattern(g, "coherent")
        wp = screen_pattern(g, "which-path")
        assert coh.probabilities.max() > wp.probabilities.max()

    def test_fraunhofer_oracle_rms(self):
        # cos^2 fringe x numerical single-slit envelope, central five fringes
        g = Geometry2Slit()
        coh = screen_pattern(g, "coherent")
        x = g.bin_centers()
        # envelope: numerically computed single slit sitting at the origin
        y = 0.0 - g.slit_width / 2 + (np.arange(64) + 0.5) * (g.slit_width / 64)
        s1 = (g.l1 ** 2 + y ** 2) * (g.v / (2 * g.l1))
        s2 = (g.l2 ** 2 + (x[:, None] - y[None, :]) ** 2) * (g.v / (2 * g.l2))
        envelope = np.abs(((g.slit_width / 64)
                           * np.exp(1j * (s1[None, :] + s2))).sum(axis=1)) ** 2
        prediction = envelope * np.cos(
            math.pi * g.slit_separation * x / (g.wavelength * g.l2)) ** 2
        window = np.abs(x) <= 2.5 * g.fringe_spacing
        a = coh.probabilities[window] / coh.probabilities[window].sum()
        b = prediction[window] / prediction[window].sum()
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 0.02

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            screen_pattern(Geometry2Slit(), "mixed")

    def test_pattern_type_validation(self):
        with pytest.raises(ValidationError):
            ScreenPattern(np.arange(4.0), np.array([0.5, 0.5, 0.5, 0.5]), "coherent")

    def test_nan_pattern_is_refused(self):
        with pytest.raises(ValidationError, match="nan"):
            ScreenPattern(np.arange(16.0), np.full(16, math.nan), "coherent")

    def test_negative_zero_passes_and_a_negative_entry_is_named(self):
        ScreenPattern(np.arange(4.0), np.array([-0.0, 0.5, 0.5, 0.0]), "coherent")
        with pytest.raises(ValidationError, match="min -0.25"):
            ScreenPattern(np.arange(4.0), np.array([-0.25, 0.75, 0.5, 0.0]), "coherent")


class TestDarkRegionFinder:
    def test_locates_fraunhofer_minima(self):
        g = Geometry2Slit()
        coh = screen_pattern(g, "coherent")
        wp = screen_pattern(g, "which-path")
        bins = dark_region_finder(coh, wp, eps=1e-3)
        assert bins
        x = g.bin_centers()
        darks = fraunhofer_dark_positions(g)
        for i in bins:
            assert min(abs(x[i] - xd) for xd in darks) <= 0.5 * g.bin_width + 1e-12
        # every predicted minimum inside the screen is found
        for xd in darks:
            assert any(abs(x[i] - xd) <= 0.5 * g.bin_width + 1e-12 for i in bins)

    def test_single_slit_has_no_dark_regions(self):
        g = Geometry2Slit()
        single = np.abs(slit_pair(g)[0]) ** 2
        p = ScreenPattern(g.bin_centers(), single / single.sum(), "coherent")
        assert dark_region_finder(p, p, eps=0.01) == []

    def test_eps_zero_finds_nothing(self):
        g = Geometry2Slit()
        coh = screen_pattern(g, "coherent")
        wp = screen_pattern(g, "which-path")
        assert dark_region_finder(coh, wp, eps=0.0) == []

    def test_binning_mismatch(self):
        g1 = Geometry2Slit()
        g2 = Geometry2Slit(bins=256)
        with pytest.raises(ValidationError):
            dark_region_finder(screen_pattern(g1, "coherent"),
                               screen_pattern(g2, "which-path"), 0.01)


class TestFourHole:
    def test_mirror_symmetric_regions(self):
        # explicit x-mirrored regions: reflection maps (+x0,+A) to (-x0,-A)
        g = GeometryFourHole(region_plus=Region(1.0, 2.0, 0.25, 1.25),
                             region_minus=Region(-2.0, -1.0, 0.25, 1.25))
        for coherent in (True, False):
            t = four_hole_table(g, y_coherent=coherent)
            assert t[(1, 1)] == pytest.approx(t[(-1, -1)], abs=1e-12)
            assert t[(1, -1)] == pytest.approx(t[(-1, 1)], abs=1e-12)

    def test_tables_normalized(self):
        g = GeometryFourHole()
        for coherent in (True, False):
            t = four_hole_table(g, y_coherent=coherent)
            assert sum(t.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= 0 for v in t.values())

    def test_coherence_gap_nonzero_for_generic_geometry(self):
        g = GeometryFourHole()
        coh = four_hole_table(g, y_coherent=True)
        wp = four_hole_table(g, y_coherent=False)
        gap = max(abs(coh[k] - wp[k]) for k in coh)
        assert gap > 10 * 1e-9

    def test_x_marginal_consistency(self):
        g = GeometryFourHole()
        for coherent in (True, False):
            t = four_hole_table(g, y_coherent=coherent)
            xm = four_hole_x_marginal(g, y_coherent=coherent)
            for sx in (1, -1):
                assert t[(sx, 1)] + t[(sx, -1)] == pytest.approx(xm[sx], abs=1e-9)

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValidationError):
            GeometryFourHole(region_plus=Region(-1.0, 1.0, 0.0, 1.0),
                             region_minus=Region(0.0, 2.0, 0.5, 1.5))

    def test_region_validation(self):
        with pytest.raises(ValidationError):
            Region(1.0, 1.0, 0.0, 1.0)


class TestSharedInterferenceHelpers:
    def test_same_functions_power_both_code_paths(self):
        # the slit patterns, the four-hole tables and the spin pair tables
        # the tests hold as an oracle must share the sum-then-square /
        # square-then-sum primitive, not reimplement it
        import conftest
        import hvqm.pathint as pathint_mod
        assert pathint_mod.pair_tables is interference.pair_tables
        assert conftest.pair_tables is interference.pair_tables

    def test_helpers_disagree_on_interfering_input(self):
        # raw coherent |1 -/+ (0.8 - 0.3i)|^2 = 0.13, 3.33; which-path 1.73 each
        amps = np.array([[1.0 + 0.0j, -0.8 + 0.3j], [1.0 + 0.0j, 0.8 - 0.3j]])
        coherent, which_path = interference.pair_tables(amps)
        assert coherent == pytest.approx(np.array([0.13, 3.33]) / 3.46, abs=1e-15)
        assert which_path == pytest.approx([0.5, 0.5], abs=1e-15)


class TestGeometryValidation:
    def test_field_positivity(self):
        with pytest.raises(ValidationError):
            Geometry2Slit(slit_separation=-1.0)
        with pytest.raises(ValidationError):
            Geometry2Slit(bins=8)
        with pytest.raises(ValidationError):
            Geometry2Slit(slit_width=2.0)  # wider than the separation

    def test_wavelength_speed_relation(self):
        g = Geometry2Slit()
        assert g.wavelength == pytest.approx(2 * math.pi * g.hbar / (g.mass * g.v))
        g2 = Geometry2Slit.from_wavelength(0.02)
        assert g2.wavelength == pytest.approx(0.02)

    def test_csv_export(self, tmp_path):
        g = Geometry2Slit(bins=16)
        p = screen_pattern(g, "coherent")
        write_pattern_csv(p, tmp_path / "coherent.csv")
        lines = (tmp_path / "coherent.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bin_center,probability"
        assert len(lines) == 17
