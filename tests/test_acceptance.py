"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from pathlib import Path

import numpy as np

from conftest import (born_pair_marginal, closed_form_w3, four_hole_x_marginal, joint_outcomes,
                      pattern_to_index, planar_amplitudes)
from hvqm import beamline, epr, pathint, phasespace, quasiprob, spin
from hvqm.config import apply_overrides, parse_config
from hvqm.runner import run_experiment
from hvqm.spin import Direction, DirectionSet, pattern_from_index

GOLDEN = (0.0, math.pi / 3, 2 * math.pi / 3)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, \
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit}s budget"


def test_01_quasiprob_golden_values():
    with Budget(1.0):
        dirs = DirectionSet.from_planar_angles(GOLDEN)
        table = quasiprob.solve_weights(dirs)
        for k in range(8):
            p = pattern_from_index(k, 3)
            expected = -1 / 16 if p in ((1, -1, 1), (-1, 1, -1)) else 3 / 16
            assert abs(table.weights[k] - expected) < 1e-10
            assert abs(closed_form_w3(p, GOLDEN) - expected) < 1e-10
    report(1, "solver and closed form give W = -1/16 twice, 3/16 elsewhere")


def test_02_null_amplitude_both_backends():
    with Budget(1.0):
        dirs = DirectionSet.from_planar_angles(GOLDEN)
        k = pattern_to_index((1, -1, 1))
        q = spin.signed_sums(dirs.as_matrix())[k]
        z = planar_amplitudes(GOLDEN)[k]
        assert float(q @ q) < 1e-24
        assert abs(z) ** 2 < 1e-24
    report(2, "amplitude of (+,-,+) vanishes in quaternion and complex backends")


def test_03_born_pair_law_thousand_triples():
    with Budget(5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            ts = rng.uniform(-math.pi, math.pi, size=3)
            dirs = DirectionSet.from_planar_angles(ts)
            pm = born_pair_marginal(ts, 0, 1)
            # Bob reads the negated sign: P(alpha, beta) is the pair law at (alpha, -beta)
            for (alpha, beta), p in joint_outcomes(dirs[0], dirs[1]).items():
                expected = 0.25 * (1 - alpha * beta * math.cos(ts[1] - ts[0]))
                assert abs(p - expected) < 1e-12
                assert abs(p - pm[(alpha, -beta)]) < 1e-12
    report(3, "normalized pair marginals equal (1 + s1 s2 cos d)/4 over 1000 triples")


def test_04_chsh_analytic_montecarlo_and_classical_bound():
    with Budget(60.0):
        settings = epr.tsirelson_settings()
        analytic = epr.chsh(epr.chsh_ensemble(epr.Mode.BORN_ANALYTIC, *settings))
        assert abs(abs(analytic.s) - 2 * math.sqrt(2)) < 1e-12

        mc = epr.chsh(epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, *settings),
                      trials=1_000_000, seed=20240)
        assert abs(mc.s - analytic.s) < 3 * mc.s_stderr

        rng = np.random.default_rng(7)
        distributions = [rng.dirichlet(np.ones(16)) for _ in range(100)]
        for k in range(16):
            vertex = np.zeros(16)
            vertex[k] = 1.0
            distributions.append(vertex)
        for w in distributions:
            e = epr.chsh_ensemble(epr.Mode.CLASSICAL_LHV, *settings, lhv_weights=w)
            assert abs(epr.chsh(e).s) <= 2.0 + 1e-12
    report(4, "|S| = 2 sqrt 2 analytic and MC; 116 classical tables stay at |S| <= 2")


def test_05_no_signaling_marginals():
    with Budget(30.0):
        rng = np.random.default_rng(99)
        for _ in range(100):
            ta, tb = rng.uniform(-math.pi, math.pi, size=2)
            dirs = DirectionSet.from_planar_angles([ta, tb])
            joint = joint_outcomes(dirs[0], dirs[1])
            for beta in (1, -1):
                assert abs(joint[(1, beta)] + joint[(-1, beta)] - 0.5) <= 1e-15
        # empirical check at a few setting pairs
        n = 100_000
        sigma = math.sqrt(0.25 / n)
        for seed, (ta, tb) in enumerate([(0.0, 0.9), (1.3, 2.8), (0.4, 0.4)]):
            e = epr.SingletEnsemble(DirectionSet.from_planar_angles([ta, tb]),
                                    epr.Mode.BORN_SAMPLING)
            _, b = epr.sample_trials(e, 0, 1, seed=500 + seed, n_trials=n)
            assert abs(float(np.mean(b == 1)) - 0.5) < 3 * sigma
    report(5, "Bob's marginal is (1/2, 1/2): exact for 100 pairs, 3 sigma empirically")


def test_06_perfect_anticorrelation_million_trials():
    with Budget(30.0):
        e = epr.SingletEnsemble(DirectionSet.from_planar_angles([0.7, 0.7]),
                                epr.Mode.BORN_SAMPLING)
        a, b = epr.sample_trials(e, 0, 1, seed=606, n_trials=1_000_000)
        assert int(np.sum(a == b)) == 0
    report(6, "zero same-sign outcomes in 10^6 same-direction trials")


def test_07_twoslit_fringes_and_dark_regions():
    with Budget(60.0):
        g = pathint.Geometry2Slit()  # 512 bins, K = 64
        coherent = pathint.screen_pattern(g, "coherent")
        whichpath = pathint.screen_pattern(g, "which-path")
        x = g.bin_centers()

        # Fraunhofer oracle: cos^2 fringe times a numerical single-slit envelope
        y = -g.slit_width / 2 + (np.arange(64) + 0.5) * (g.slit_width / 64)
        s1 = (g.l1 ** 2 + y ** 2) * (g.v / (2 * g.l1))
        s2 = (g.l2 ** 2 + (x[:, None] - y[None, :]) ** 2) * (g.v / (2 * g.l2))
        envelope = np.abs(((g.slit_width / 64)
                           * np.exp(1j * (s1[None, :] + s2))).sum(axis=1)) ** 2
        prediction = envelope * np.cos(
            math.pi * g.slit_separation * x / (g.wavelength * g.l2)) ** 2
        window = np.abs(x) <= 2.5 * g.fringe_spacing
        a = coherent.probabilities[window] / coherent.probabilities[window].sum()
        b = prediction[window] / prediction[window].sum()
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 0.02

        dark = pathint.dark_region_finder(coherent, whichpath, eps=1e-3)
        assert dark
        spacing = g.fringe_spacing
        k_max = int(g.screen_half_width / spacing + 1)
        minima = [(k + 0.5) * spacing for k in range(-k_max, k_max + 1)
                  if abs((k + 0.5) * spacing) < g.screen_half_width]
        for i in dark:
            assert min(abs(x[i] - xm) for xm in minima) <= 0.5 * g.bin_width + 1e-12
        for xm in minima:
            assert any(abs(x[i] - xm) <= 0.5 * g.bin_width + 1e-12 for i in dark)

        # the which-path pattern has no such suppressed bins
        assert pathint.dark_region_finder(whichpath, whichpath, eps=0.01) == []
        central = np.abs(x) < 2.0
        assert (whichpath.probabilities[central].min()
                > 0.1 * whichpath.probabilities[central].max())
    report(7, "coherent fringes match the cos^2 oracle within 2% RMS; dark "
              "regions sit on the predicted minima; which-path shows none")


def test_08_four_hole_analogy():
    with Budget(60.0):
        g = pathint.GeometryFourHole()
        coherent = pathint.four_hole_table(g, y_coherent=True)
        whichpath = pathint.four_hole_table(g, y_coherent=False)
        gap = max(abs(coherent[k] - whichpath[k]) for k in coherent)
        assert gap > 10 * 1e-9
        for mode_flag, table in ((True, coherent), (False, whichpath)):
            xm = four_hole_x_marginal(g, y_coherent=mode_flag)
            for sx in (1, -1):
                assert abs(table[(sx, 1)] + table[(sx, -1)] - xm[sx]) < 1e-9
    report(8, f"y-coherent and which-path tables differ (gap {gap:.3f}); "
              "x-marginals consistent to 1e-9")


def test_09_stern_gerlach_blocking():
    with Budget(10.0):
        x_axis = Direction(1.0, 0.0, 0.0)
        y_axis = Direction(0.0, 1.0, 0.0)
        beam = beamline.BeamState.eigenstate(x_axis, 1)

        unblocked = [beamline.split(y_axis), beamline.recombine(-y_axis),
                     beamline.analyze(x_axis)]
        res = beamline.run_sequence(unblocked, beam)
        assert abs(res.probabilities[1] - 1.0) < 1e-12

        blocked = [beamline.split(y_axis, block=-1), beamline.recombine(-y_axis),
                   beamline.analyze(x_axis)]
        res_b = beamline.run_sequence(blocked, beam)
        assert abs(res_b.survival - 0.5) < 1e-12
        assert abs(res_b.probabilities[1] - 0.5) < 1e-12
        assert abs(res_b.probabilities[-1] - 0.5) < 1e-12

        n = 100_000
        counts = beamline.sequence_counts(blocked, beam, n, 909, res_b)
        dist, fraction = beamline.survivor_statistics(counts)
        assert abs(fraction - 0.5) < 3 * math.sqrt(0.25 / n)
        survivors = fraction * n
        assert abs(dist[1] - 0.5) < 3 * math.sqrt(0.25 / survivors)
    report(9, "reconstruction gives certain +x; blocking -y halves survival "
              "and evens the analyzer, analytically and at 10^5 trials")


def test_10_phase_space_construction():
    with Budget(30.0):
        rng = np.random.default_rng(1010)
        worst_roundtrip = 0.0
        for _ in range(100):
            values = rng.normal(size=256) + 1j * rng.normal(size=256)
            wf = phasespace.WaveFunction(values, 1.0).normalized()
            back = phasespace.project_r(phasespace.lift(wf))
            worst_roundtrip = max(worst_roundtrip,
                                  float(np.max(np.abs(back.values - wf.values))))
        assert worst_roundtrip < 1e-10

        # band-limited momentum correspondence against the direct-sum oracle
        wf = phasespace.gaussian_wavefunction(256, 1.0, width=6.0, momentum=0.4)
        p = (np.arange(256) - 128) * wf.dp
        r = (np.arange(256) - 128) * wf.dr
        state = phasespace.lift(wf)
        # the momentum operator multiplies each cell by its p coordinate
        out = phasespace.project_r(phasespace.ExtendedState(
            state.coefficients * p[None, :], state.dr, state.hbar))
        xi = (wf.dr / math.sqrt(2 * math.pi)
              * np.exp(-1j * np.outer(p, r)) @ wf.values)
        spectral = (wf.dp / math.sqrt(2 * math.pi)
                    * np.exp(1j * np.outer(r, p)) @ (p * xi))
        assert float(np.max(np.abs(out.values - spectral))) < 1e-9

        ray = phasespace.project_p(phasespace.lift(wf))
        xi_fft = phasespace.to_momentum(wf)
        assert 1.0 - phasespace.ray_overlap(ray.values, xi_fft.values) <= 1e-10
    report(10, "lift/project round trip < 1e-10 on 100 states; momentum operator "
               "and ray projections within stated tolerances")


def test_11_determinism_across_worker_counts(tmp_path):
    with Budget(60.0):
        for name, log_name in (("chsh_mc.cfg", "trials.jsonl"),
                               ("epr_sampling.cfg", "trials.jsonl"),
                               ("sterngerlach.cfg", "events.jsonl")):
            cfg = apply_overrides(parse_config(CONFIG_DIR / name), trials=20_000)
            logs = []
            for workers in (1, 3):
                out = tmp_path / f"{name}.w{workers}"
                run_experiment(cfg, out, workers=workers)
                logs.append((out / log_name).read_bytes())
            assert logs[0] == logs[1], f"{name}: logs differ across worker counts"
    report(11, "chsh, epr and beamline logs byte-identical for 1 vs 3 workers")
