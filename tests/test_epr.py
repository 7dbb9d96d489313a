import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (angles, closed_form_w3, directions, joint_outcomes,
                      quaternion_pair_probability, sample_trial, sign_matrix,
                      tsirelson_settings)
from hvqm import beamline, epr, quasiprob, rng, runner, shares
from hvqm.config import apply_overrides, parse_config, parse_direction
from hvqm.epr import (CHSH_PAIRS, OUTCOME_PAIRS, Mode, SingletEnsemble, TrialRecord, chsh,
                      chsh_ensemble, correlation, pair_joint_probability, sample_trials,
                      trial_record_json)
from hvqm.errors import NotSampleableError, ValidationError
from hvqm.logcodec import join_lines
from hvqm.spin import Direction, DirectionSet

D0 = Direction.from_planar_angle(0.0)
D60 = Direction.from_planar_angle(math.pi / 3)
D90 = Direction.from_planar_angle(math.pi / 2)


def born_pair(a=0.0, b=math.pi / 3, mode=Mode.BORN_SAMPLING):
    return SingletEnsemble(DirectionSet.from_planar_angles([a, b]), mode)


class TestPairJointProbability:
    def test_same_direction_anticorrelated(self):
        assert pair_joint_probability(D0, D0, 1, 1) == pytest.approx(0.0, abs=1e-15)
        assert pair_joint_probability(D0, D0, -1, -1) == pytest.approx(0.0, abs=1e-15)
        assert pair_joint_probability(D0, D0, 1, -1) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_uniform(self):
        for a in (1, -1):
            for b in (1, -1):
                assert pair_joint_probability(D0, D90, a, b) == pytest.approx(0.25)

    def test_sixty_degrees(self):
        assert pair_joint_probability(D0, D60, 1, 1) == pytest.approx(0.125, abs=1e-15)

    def test_cross_check_against_w_table(self):
        # marginalize the N=3 closed-form table with Bob's sign negated:
        # P(alpha, beta) = sum_s3 W(alpha, -beta, s3)
        ts = (0.0, math.pi / 3, 2 * math.pi / 3)
        for alpha in (1, -1):
            for beta in (1, -1):
                from_table = (closed_form_w3((alpha, -beta, 1), ts)
                              + closed_form_w3((alpha, -beta, -1), ts))
                direct = pair_joint_probability(
                    Direction.from_planar_angle(ts[0]),
                    Direction.from_planar_angle(ts[1]), alpha, beta)
                assert direct == pytest.approx(from_table, abs=1e-12)

    @given(directions(), directions())
    def test_normalized(self, na, nb):
        total = sum(pair_joint_probability(na, nb, a, b)
                    for a in (1, -1) for b in (1, -1))
        assert abs(total - 1.0) <= 1e-15

    @given(directions(), directions())
    def test_bits_of_the_quaternion_route(self, na, nb):
        """The pair law keeps the bits of the elementary quaternion
        amplitudes summed, then squared, and with them every Born
        threshold and analytic correlator."""
        for a, b in OUTCOME_PAIRS:
            got = pair_joint_probability(na, nb, a, b)
            assert got.hex() == quaternion_pair_probability(a, -b, na, nb).hex()


class TestSampling:
    def test_lhv_point_mass_deterministic_readout(self):
        dirs = DirectionSet.from_planar_angles([0.0, 1.0, 2.0])
        w = np.zeros(8)
        w[7] = 1.0  # point mass on (+,+,+)
        e = SingletEnsemble(dirs, Mode.CLASSICAL_LHV, w)
        for trial in range(50):
            rec = sample_trial(e, 0, 0, seed=3, trial=trial)
            assert (rec.a_out, rec.b_out) == (1, -1)

    def test_same_setting_never_same_sign(self):
        e = born_pair(0.3, 0.3)
        a, b = sample_trials(e, 0, 1, seed=11, n_trials=10_000)
        assert np.all(a != b)

    def test_sixty_degree_same_sign_rate(self):
        # P(alpha = beta) = (1 - cos delta)/2 = 1/4 at delta = pi/3
        n = 1_000_000
        e = born_pair(0.0, math.pi / 3)
        a, b = sample_trials(e, 0, 1, seed=5, n_trials=n)
        p_hat = float(np.mean(a == b))
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(p_hat - 0.25) < 3 * sigma

    def test_analytic_modes_refuse_to_sample(self):
        e = SingletEnsemble(DirectionSet.of(D0, D60), Mode.BORN_ANALYTIC)
        with pytest.raises(NotSampleableError):
            sample_trial(e, 0, 1, seed=1, trial=0)
        eq = SingletEnsemble(DirectionSet.of(D0, D60), Mode.QUASIPROB_ANALYTIC)
        with pytest.raises(NotSampleableError):
            sample_trials(eq, 0, 1, seed=1, n_trials=10)

    def test_single_trial_matches_batch(self):
        e = born_pair()
        a, b = sample_trials(e, 0, 1, seed=21, n_trials=64)
        for i in range(64):
            rec = sample_trial(e, 0, 1, seed=21, trial=i)
            assert (rec.a_out, rec.b_out) == (int(a[i]), int(b[i]))

    def test_lhv_validation(self):
        dirs = DirectionSet.from_planar_angles([0.0, 1.0])
        with pytest.raises(ValidationError):
            SingletEnsemble(dirs, Mode.CLASSICAL_LHV, None)
        with pytest.raises(ValidationError):
            SingletEnsemble(dirs, Mode.CLASSICAL_LHV, np.array([0.5, 0.6, -0.1, 0.0]))
        with pytest.raises(ValidationError):
            SingletEnsemble(dirs, Mode.CLASSICAL_LHV, np.array([0.5, 0.6, 0.1, 0.0]))
        with pytest.raises(ValidationError):
            SingletEnsemble(dirs, Mode.BORN_SAMPLING, np.full(4, 0.25))

    def test_nan_weight_is_refused(self):
        """A NaN sum fails the sum check; it would otherwise put every
        sampled trial on one outcome pair."""
        dirs = DirectionSet.from_planar_angles([0.0, 1.0])
        with pytest.raises(ValidationError, match="nan"):
            SingletEnsemble(dirs, Mode.CLASSICAL_LHV, np.array([math.nan, 0.5, 0.25, 0.25]))

    def test_negative_zero_passes_and_a_negative_entry_is_named(self):
        dirs = DirectionSet.from_planar_angles([0.0, 1.0])
        SingletEnsemble(dirs, Mode.CLASSICAL_LHV, np.array([-0.0, 0.5, 0.25, 0.25]))
        with pytest.raises(ValidationError, match="min -0.25"):
            SingletEnsemble(dirs, Mode.CLASSICAL_LHV, np.array([-0.25, 0.75, 0.25, 0.25]))

    def test_record_json_field_order(self):
        rec = epr.TrialRecord(3, 0, 1, 1, -1, "born_sampling")
        assert trial_record_json(rec) == (
            '{"trial":3,"a_setting":0,"b_setting":1,"a_out":1,"b_out":-1,'
            '"mode":"born_sampling"}')


class TestCorrelation:
    def test_same_direction(self):
        e = born_pair(0.4, 0.4, Mode.BORN_ANALYTIC)
        assert correlation(e, 0, 1).value == pytest.approx(-1.0, abs=1e-15)

    def test_orthogonal(self):
        e = born_pair(0.0, math.pi / 2, Mode.BORN_ANALYTIC)
        assert correlation(e, 0, 1).value == pytest.approx(0.0, abs=1e-15)

    def test_forty_five_degrees(self):
        e = born_pair(0.0, math.pi / 4, Mode.BORN_ANALYTIC)
        assert correlation(e, 0, 1).value == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)

    @given(angles, angles)
    @settings(max_examples=30)
    def test_born_analytic_is_minus_cosine(self, ta, tb):
        e = born_pair(ta, tb, Mode.BORN_ANALYTIC)
        assert correlation(e, 0, 1).value == pytest.approx(
            -math.cos(ta - tb), abs=1e-12)

    def test_quasiprob_route_agrees_with_born(self):
        for ta, tb in [(0.0, 0.7), (0.3, 2.0), (1.0, 1.0)]:
            eb = born_pair(ta, tb, Mode.BORN_ANALYTIC)
            eq = born_pair(ta, tb, Mode.QUASIPROB_ANALYTIC)
            assert correlation(eq, 0, 1).value == pytest.approx(
                correlation(eb, 0, 1).value, abs=1e-10)

    def test_sampling_estimate_with_stderr(self):
        e = born_pair(0.0, math.pi / 4)
        est = correlation(e, 0, 1, trials=50_000, seed=2)
        assert est.stderr is not None
        assert abs(est.value - (-math.sqrt(2) / 2)) < 3 * est.stderr

    def test_sampling_needs_seed(self):
        with pytest.raises(ValidationError):
            correlation(born_pair(), 0, 1, trials=100)

    def test_sampling_needs_a_trial(self):
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            correlation(born_pair(), 0, 1, trials=0, seed=1)


class TestChsh:
    def test_analytic_tsirelson(self):
        e = chsh_ensemble(Mode.BORN_ANALYTIC, *tsirelson_settings())
        res = chsh(e)
        assert abs(res.s) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        # gap above the classical bound is strictly positive
        assert abs(res.s) - 2 > 0.8

    def test_quasiprob_table_also_violates(self):
        # the signed table reproduces the same correlators, so the same S
        e = chsh_ensemble(Mode.QUASIPROB_ANALYTIC, *tsirelson_settings())
        assert abs(chsh(e).s) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_born_table_as_classical_weights_halves_s(self):
        # the Born table is a distribution over sign patterns, but read as
        # a classical one it keeps 2/N of each correlator, half at N = 4;
        # the stretch that gives back the pair law goes negative
        dirs = tsirelson_settings()
        born = quasiprob.born_table(DirectionSet.of(*dirs)).probabilities
        e = chsh_ensemble(Mode.CLASSICAL_LHV, *dirs, lhv_weights=born)
        assert chsh(e).s == -1.414213562373095
        assert chsh(chsh_ensemble(Mode.BORN_ANALYTIC, *dirs)).s == -2.82842712474619
        signed = quasiprob.solve_weights(DirectionSet.of(*dirs))
        assert quasiprob.negativity_report(signed).n_negative == 8

    def test_quasiprob_table_off_the_xy_plane(self):
        # settings in the xz-plane: the signed table takes any directions
        dirs = (Direction(0.0, 0.0, 1.0), Direction(1.0, 0.0, 0.0),
                Direction.normalized(1.0, 0.0, 1.0), Direction.normalized(-1.0, 0.0, 1.0))
        signed = chsh(chsh_ensemble(Mode.QUASIPROB_ANALYTIC, *dirs)).s
        assert abs(signed - chsh(chsh_ensemble(Mode.BORN_ANALYTIC, *dirs)).s) <= 1e-12
        assert abs(signed) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_all_settings_equal(self):
        d = Direction.from_planar_angle(1.2)
        e = chsh_ensemble(Mode.BORN_ANALYTIC, d, d, d, d)
        assert chsh(e).s == pytest.approx(-2.0, abs=1e-15)

    def test_s_combination_identity(self):
        e = chsh_ensemble(Mode.BORN_ANALYTIC, *tsirelson_settings())
        res = chsh(e)
        s = (res.correlators[(0, 2)] + res.correlators[(0, 3)]
             + res.correlators[(1, 2)] - res.correlators[(1, 3)])
        assert res.s == s
        assert all(abs(v) <= 1.0 + 1e-12 for v in res.correlators.values())

    def test_lhv_bound_random_distributions(self):
        rng = np.random.default_rng(0)
        dirs = tsirelson_settings()
        for _ in range(100):
            w = rng.random(16)
            w /= w.sum()
            e = chsh_ensemble(Mode.CLASSICAL_LHV, *dirs, lhv_weights=w)
            assert abs(chsh(e).s) <= 2.0 + 1e-12

    def test_lhv_deterministic_vertices_reach_exactly_two(self):
        dirs = tsirelson_settings()
        values = set()
        for k in range(16):
            w = np.zeros(16)
            w[k] = 1.0
            e = chsh_ensemble(Mode.CLASSICAL_LHV, *dirs, lhv_weights=w)
            s = chsh(e).s
            assert abs(s) == pytest.approx(2.0, abs=1e-15)
            values.add(round(s, 12))
        assert values == {2.0, -2.0}

    def test_monte_carlo_within_three_sigma(self):
        e = chsh_ensemble(Mode.BORN_SAMPLING, *tsirelson_settings())
        res = chsh(e, trials=50_000, seed=13)
        assert abs(abs(res.s) - 2 * math.sqrt(2)) < 3 * res.s_stderr

    def test_needs_four_directions(self):
        e = SingletEnsemble(DirectionSet.of(D0, D60), Mode.BORN_ANALYTIC)
        with pytest.raises(ValidationError):
            chsh(e)

    def test_chsh_pairs_layout(self):
        assert CHSH_PAIRS == ((0, 2), (0, 3), (1, 2), (1, 3))


class TestAnalyticChshTable:
    """An analytic CHSH reads its four correlators from one table."""

    def _counted(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _sign_matrix_correlator(weights, ai, bi):
        """The per-correlator route: -(s_a s_b) summed over a sign matrix."""
        signs = sign_matrix(4)
        return float(-(signs[:, ai] * signs[:, bi]) @ weights)

    @given(st.lists(angles, min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_quasiprob_solves_once(self, thetas):
        with pytest.MonkeyPatch.context() as mp:
            solves = self._counted(mp, quasiprob, "solve_weights")
            dirs = [Direction.from_planar_angle(t) for t in thetas]
            res = chsh(chsh_ensemble(Mode.QUASIPROB_ANALYTIC, *dirs))
            assert len(solves) == 1
        weights = quasiprob.solve_weights(DirectionSet.of(*dirs)).weights
        for ai, bi in CHSH_PAIRS:
            assert abs(res.correlators[(ai, bi)]
                       - self._sign_matrix_correlator(weights, ai, bi)) <= 1e-15

    def test_classical_reads_the_weights_without_a_sign_matrix(self):
        w = np.random.default_rng(4).random(16)
        w /= w.sum()
        res = chsh(chsh_ensemble(Mode.CLASSICAL_LHV, *tsirelson_settings(), lhv_weights=w))
        for ai, bi in CHSH_PAIRS:
            assert abs(res.correlators[(ai, bi)]
                       - self._sign_matrix_correlator(w, ai, bi)) <= 1e-15

    @given(st.lists(directions(), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_born_analytic_is_the_pair_law_sum(self, dirs):
        res = chsh(chsh_ensemble(Mode.BORN_ANALYTIC, *dirs))
        for ai, bi in CHSH_PAIRS:
            assert res.correlators[(ai, bi)] == sum(
                a * b * pair_joint_probability(dirs[ai], dirs[bi], a, b)
                for a, b in epr.OUTCOME_PAIRS)


def test_pair_table_is_made_once_per_setting_pair(monkeypatch, tmp_path):
    """A run and its replay, in blocks of 7 trials, share one Born table per
    setting pair."""
    calls = []
    original = epr.pair_joint_probability

    def counted(n_a, n_b, alpha, beta):
        calls.append((n_a, n_b))
        return original(n_a, n_b, alpha, beta)

    monkeypatch.setattr(epr, "pair_joint_probability", counted)
    monkeypatch.setattr(rng, "TILE", 7)
    epr._born_thresholds.cache_clear()
    cfg_path = tmp_path / "chsh.cfg"
    cfg_path.write_text("[experiment]\nkind = chsh\nmode = born_sampling\nseed = 3\n"
                        "trials = 100\n[directions]\na1 = 0.1\na2 = 1.3\nb1 = 2.2\nb2 = 2.9\n",
                        encoding="utf-8")
    cfg = parse_config(cfg_path)
    runner.run_experiment(cfg, tmp_path / "out")
    assert runner.replay_run(tmp_path / "out" / "trials.jsonl", cfg).verdict == "OK"
    dirs = [Direction.from_planar_angle(t) for t in (0.1, 1.3, 2.2, 2.9)]
    assert Counter(calls) == {(dirs[ai], dirs[bi]): 2 for ai, bi in CHSH_PAIRS}


def test_pair_counts_hands_each_tile_of_each_pair_range(monkeypatch):
    """Pair p covers trials p * trials onward.  The pairs share the
    rng.TILE tiles of one trial range: each piece of a pair's range within a
    tile is handed on with its outcome-pair indices and its pair's record
    suffixes, a tile that holds a pair boundary in two pieces, and the
    counts are exactly those handed out."""
    monkeypatch.setattr(rng, "TILE", 7)
    e = chsh_ensemble(Mode.BORN_SAMPLING, *tsirelson_settings())
    blocks = []
    counts = epr.pair_counts(e, CHSH_PAIRS[:2], 5, 20,
                             lambda first, k, suffixes: blocks.append((first, k.copy(), suffixes)))
    # the tile of trials 14-20 holds pair 0's last six and pair 1's first
    assert [(first, len(k)) for first, k, _ in blocks] == [
        (0, 7), (7, 7), (14, 6), (20, 1), (21, 7), (28, 7), (35, 5)]
    for p, (ai, bi) in enumerate(CHSH_PAIRS[:2]):
        a_out, b_out = sample_trials(e, ai, bi, 5, 20, start=20 * p)
        pieces = [b for b in blocks if b[0] // 20 == p]
        k = np.concatenate([b[1] for b in pieces])
        assert [epr.OUTCOME_PAIRS[j] for j in k] == list(zip(a_out.tolist(), b_out.tolist()))
        assert np.array_equal(counts[p], np.bincount(k, minlength=4))
        # each piece's lines are the records of its trials at its pair
        assert b"".join(join_lines(*b) for b in pieces) == b"".join(
            trial_record_json(TrialRecord(20 * p + i, ai, bi, int(a), int(b),
                                          "born_sampling")).encode() + b"\n"
            for i, (a, b) in enumerate(zip(a_out, b_out)))


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# a tile longer than every walk, as rng.TILE is, and tiles of 7 trials
@pytest.mark.parametrize("tile", [1 << 14, 7])
def test_reports_are_the_library_estimates(monkeypatch, tmp_path, tile):
    """The chsh_mc and epr_sampling reports equal epr.chsh and
    epr.correlation on the same ensemble and seed, bit for bit, and the
    sterngerlach report's Monte Carlo block equals the survivor statistics
    of the beamline walk."""
    monkeypatch.setattr(rng, "TILE", tile)
    trials = 3000

    def run(name, keys):
        cfg = apply_overrides(parse_config(CONFIG_DIR / f"{name}.cfg"), trials=trials)
        dirs = [parse_direction(cfg.require("directions", k), k) for k in keys]
        e = SingletEnsemble(DirectionSet.of(*dirs), Mode.BORN_SAMPLING)
        results = runner.run_experiment(cfg, tmp_path / name).results
        return e, cfg.get_int("experiment", "seed"), results

    names = ("a1", "a2", "b1", "b2")
    e, seed, got = run("chsh_mc", names)
    want = chsh(e, trials=trials, seed=seed)
    for (ai, bi), value in want.correlators.items():
        assert got["correlators"][f"E({names[ai]},{names[bi]})"] == value
        assert got["stderrs"][f"E({names[ai]},{names[bi]})"] == want.stderrs[ai, bi]
    assert (got["S"], got["S_stderr"]) == (want.s, want.s_stderr)

    e, seed, got = run("epr_sampling", ("a", "b"))
    want = correlation(e, 0, 1, trials=trials, seed=seed)
    assert (got["E"], got["stderr"]) == (want.value, want.stderr)

    # the shipped beamline: x split keeping +, y split keeping +, -y
    # recombiner, x analyzer, on a +z beam
    cfg = apply_overrides(parse_config(CONFIG_DIR / "sterngerlach.cfg"), trials=trials)
    x, y = Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0)
    seq = [beamline.split(x, block=-1), beamline.split(y, block=-1), beamline.recombine(-y),
           beamline.analyze(x)]
    beam = beamline.BeamState.eigenstate(Direction(0.0, 0.0, 1.0), 1)
    seed = cfg.get_int("experiment", "seed")
    counts = beamline.sequence_counts(seq, beam, trials, seed, beamline.run_sequence(seq, beam))
    dist, fraction = beamline.survivor_statistics(counts)
    got = runner.run_experiment(cfg, tmp_path / "sterngerlach").results["monte_carlo"]
    assert got == {"distribution": {str(s): p for s, p in dist.items()},
                   "survivor_fraction": fraction, "trials": trials}


def test_sampled_chsh_memory_stays_one_block(monkeypatch):
    """A sampled chsh holds one block of trials at a time in each share of
    the walk: on one CPU and on two, its traced peak at 2^20 trials per
    pair is within 1 MiB of the peak at 2^16.  An untraced call at each CPU
    count first fills the workspace pool, whose workspaces outlive the
    call."""
    e = chsh_ensemble(Mode.BORN_SAMPLING, *tsirelson_settings())

    def peak(trials):
        tracemalloc.start()
        try:
            chsh(e, trials=trials, seed=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for cpus in (1, 2):
        monkeypatch.setattr(shares, "_usable_cpus", lambda cpus=cpus: cpus)
        chsh(e, trials=1 << 20, seed=8)
        assert peak(1 << 20) - peak(1 << 16) <= 1 << 20


def bob_marginal(e: SingletEnsemble, a_idx: int, b_idx: int) -> dict[int, float]:
    """Bob's outcome distribution from the joint law, Alice's outcome summed out."""
    joint = joint_outcomes(e.directions[a_idx], e.directions[b_idx])
    return {beta: joint[(1, beta)] + joint[(-1, beta)] for beta in (1, -1)}


class TestConditionalUpdate:
    """Bob's table given Alice's outcome, read off the joint law:
    P(beta | alpha) = (1 - alpha beta n_a . n_b) / 2."""

    @staticmethod
    def given_alice(e: SingletEnsemble, alpha: int) -> dict[int, float]:
        joint = joint_outcomes(e.directions[0], e.directions[1])
        total = joint[(alpha, 1)] + joint[(alpha, -1)]
        return {beta: joint[(alpha, beta)] / total for beta in (1, -1)}

    def test_same_direction_certainty(self):
        table = self.given_alice(born_pair(0.2, 0.2, Mode.BORN_ANALYTIC), 1)
        assert table[-1] == pytest.approx(1.0, abs=1e-15)
        assert table[1] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_uninformative(self):
        table = self.given_alice(born_pair(0.0, math.pi / 2, Mode.BORN_ANALYTIC), 1)
        assert table[1] == pytest.approx(0.5)
        assert table[-1] == pytest.approx(0.5)

    def test_sixty_degrees(self):
        table = self.given_alice(born_pair(0.0, math.pi / 3, Mode.BORN_ANALYTIC), 1)
        assert table[1] == pytest.approx(0.25, abs=1e-15)
        assert table[-1] == pytest.approx(0.75, abs=1e-15)


class TestNoSignaling:
    @given(angles, angles)
    @settings(max_examples=50)
    def test_bob_marginal_exactly_half(self, ta, tb):
        e = born_pair(ta, tb, Mode.BORN_ANALYTIC)
        m = bob_marginal(e, 0, 1)
        assert m[1] == pytest.approx(0.5, abs=1e-15)
        assert m[-1] == pytest.approx(0.5, abs=1e-15)

    def test_empirical_marginal_within_three_sigma(self):
        n = 50_000
        e = born_pair(0.0, 1.1)
        _, b = sample_trials(e, 0, 1, seed=17, n_trials=n)
        sigma = math.sqrt(0.25 / n)
        assert abs(float(np.mean(b == 1)) - 0.5) < 3 * sigma

    def test_marginal_independent_of_alice_setting(self):
        # switch Alice's setting; Bob's analytic marginal cannot move
        dirs = DirectionSet.from_planar_angles([0.0, 1.0, 2.2])
        e = SingletEnsemble(dirs, Mode.BORN_ANALYTIC)
        for a_idx in (0, 1):
            m = bob_marginal(e, a_idx, 2)
            assert m[1] == pytest.approx(0.5, abs=1e-15)
