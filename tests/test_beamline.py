import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import directions, index_events, signs
from hvqm import rng
from hvqm.beamline import (BeamState, SGDevice, TrialEvent, analyze, event_json,
                           monte_carlo_sequence, recombine, run_sequence, sequence_counts,
                           split, survivor_statistics)
from hvqm.errors import SequenceError, ValidationError
from hvqm.logcodec import join_lines
from hvqm.spin import Direction

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


def reconstruction_sequence(block=None):
    """Split in x keeping +, pass through y and -y stages, analyze in x."""
    return [split(X, block=-1), split(Y, block=block), recombine(-Y), analyze(X)]


# --- the 2x2 amplitude walk: the oracle of the closed-form stages -----------

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def projector(n, s):
    """(1 + s n.sigma) / 2 projects onto the s branch of axis n."""
    return 0.5 * (np.eye(2) + s * sum(c * p for c, p in zip(n.as_array(), _PAULI)))


def spinor(axis, s):
    """Normalized s eigenvector of axis.sigma, built from the projector."""
    p = projector(axis, s)
    col = p[:, 0] if abs(p[0, 0]) >= abs(p[1, 1]) else p[:, 1]
    return col / np.linalg.norm(col)


def oracle_walk(devices, axis, s):
    """(survival, P(+1) or None once extinguished) of a well-formed
    sequence, with two complex amplitudes through 2x2 projectors: a blocked
    split projects and renormalizes, an unblocked one keeps both branches
    until the recombine adds them."""
    psi, survival, branches = spinor(axis, s), 1.0, None
    for dev in devices[:-1]:
        if dev.role == "split" and dev.block is None:
            branches = (projector(dev.axis, 1) @ psi, projector(dev.axis, -1) @ psi)
        elif dev.role == "split":
            kept = projector(dev.axis, -dev.block) @ psi
            p_keep = float(np.vdot(kept, kept).real)
            survival *= p_keep
            if p_keep <= 0.0:
                return 0.0, None
            psi = kept / math.sqrt(p_keep)
        elif branches is not None:
            psi, branches = branches[0] + branches[1], None
    born = {b: max(0.0, float(np.vdot(psi, projector(devices[-1].axis, b) @ psi).real))
            for b in (1, -1)}
    return survival, born[1] / (born[1] + born[-1])


@st.composite
def beamlines(draw):
    """Zero to three blocked splits, each on a fresh axis or on the axis of
    the split before it (either branch, so some block both), an unblocked
    split and recombine pair at any place or none, then an analyzer."""
    devices, axis = [], None
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if axis is None or draw(st.booleans()):
            axis = draw(directions())
        devices.append(split(axis, block=draw(signs)))
    if draw(st.booleans()):
        open_axis = draw(directions())
        at = draw(st.integers(0, len(devices)))
        devices[at:at] = [split(open_axis), recombine(open_axis)]
    return devices + [analyze(draw(directions()))]


class TestClosedFormAgainstAmplitudes:
    @given(beamlines(), directions(), signs)
    @settings(max_examples=300)
    def test_closed_form_is_the_2x2_walk(self, devices, axis, s):
        res = run_sequence(devices, BeamState.eigenstate(axis, s))
        survival, p_plus = oracle_walk(devices, axis, s)
        assert abs(res.survival - survival) <= 1e-12
        # a nearly extinguished oracle beam keeps only rounding noise of its
        # direction, so P(+1) is compared where a tenth of a percent survives
        if survival > 1e-3:
            assert abs(res.probabilities[1] - p_plus) <= 1e-12
            assert abs(res.probabilities[-1] - (1.0 - p_plus)) <= 1e-12

    def test_blocking_both_branches_agrees(self):
        for axis in (X, Y, Z, Direction.normalized(1.0, -2.0, 3.0)):
            for s in (1, -1):
                devices = [split(axis, block=-1), split(axis, block=1), analyze(X)]
                res = run_sequence(devices, BeamState.eigenstate(Y, s))
                assert abs(res.survival - oracle_walk(devices, Y, s)[0]) <= 1e-12


class TestEigenstates:
    @given(directions())
    def test_eigenstate_projects_onto_itself(self, axis):
        for s in (1, -1):
            beam = BeamState.eigenstate(axis, s)
            assert beam.bloch == (axis if s == 1 else -axis)
            psi = spinor(axis, s)
            bloch = [float(np.vdot(psi, p @ psi).real) for p in _PAULI]
            assert bloch == pytest.approx(beam.bloch.as_array().tolist(), abs=1e-12)
            assert run_sequence([analyze(axis)], beam).probabilities[s] == pytest.approx(
                1.0, abs=1e-12)

    def test_eigenstate_sign_is_checked(self):
        with pytest.raises(ValidationError):
            BeamState.eigenstate(X, 0)


class TestRunSequence:
    def test_reconstruction_gives_certain_plus_x(self):
        res = run_sequence(reconstruction_sequence(), BeamState.eigenstate(Z, 1))
        assert res.probabilities[1] == pytest.approx(1.0, abs=1e-12)
        assert res.probabilities[-1] == pytest.approx(0.0, abs=1e-12)
        assert res.survival == pytest.approx(0.5, abs=1e-12)  # the x block

    def test_blocking_minus_y_evens_the_outcome(self):
        # from a +x input: survival through the y block is 1/2 and the final
        # x analyzer turns uniform
        seq = [split(Y, block=-1), recombine(-Y), analyze(X)]
        res = run_sequence(seq, BeamState.eigenstate(X, 1))
        assert res.survival == pytest.approx(0.5, abs=1e-12)
        assert res.probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert res.probabilities[-1] == pytest.approx(0.5, abs=1e-12)

    def test_full_golden_sequence_with_block(self):
        res = run_sequence(reconstruction_sequence(block=-1), BeamState.eigenstate(Z, 1))
        assert res.probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert res.survival == pytest.approx(0.25, abs=1e-12)

    def test_blocking_both_branches_extinguishes(self):
        seq = [split(Y, block=-1), split(Y, block=1), analyze(X)]
        res = run_sequence(seq, BeamState.eigenstate(X, 1))
        assert res.extinguished
        assert res.probabilities is None
        assert res.survival == 0.0

    @given(directions(), directions())
    @settings(max_examples=40)
    def test_unblocked_split_recombine_is_identity(self, axis, final):
        # no projection happens, so the result is the direct analysis, exactly
        seq = [split(axis), recombine(axis), analyze(final)]
        beam = BeamState.eigenstate(Z, 1)
        assert run_sequence(seq, beam) == run_sequence([analyze(final)], beam)

    def test_shares_stay_in_unit_interval(self):
        # a unit vector within tolerance dots with itself past 1
        axis = Direction(1.0 + 9e-13, 0.0, 0.0)
        res = run_sequence([analyze(axis)], BeamState.eigenstate(axis, -1))
        assert res.probabilities == {1: 0.0, -1: 1.0}
        res = run_sequence([split(axis, block=1), analyze(X)], BeamState.eigenstate(axis, 1))
        assert res.extinguished and res.stage_survivals == ((0, 0.0),)

    def test_recombine_accepts_antiparallel_axis(self):
        seq = [split(Y), recombine(-Y), analyze(X)]
        res = run_sequence(seq, BeamState.eigenstate(X, 1))
        assert res.probabilities[1] == pytest.approx(1.0, abs=1e-12)

    def test_survival_non_increasing(self):
        seq = [split(X, block=-1), split(Y, block=-1), split(X, block=1),
               analyze(Z)]
        res = run_sequence(seq, BeamState.eigenstate(Z, 1))
        assert 0.0 <= res.survival <= 1.0
        # each recorded stage multiplies survival down
        running = 1.0
        for _, p in res.stage_survivals:
            assert 0.0 <= p <= 1.0 + 1e-12
            running *= p
        assert res.survival == pytest.approx(running, abs=1e-12)


class TestMalformedSequences:
    def test_empty(self):
        with pytest.raises(SequenceError):
            run_sequence([], BeamState.eigenstate(Z, 1))

    def test_missing_final_analyzer(self):
        with pytest.raises(SequenceError):
            run_sequence([split(X)], BeamState.eigenstate(Z, 1))

    def test_recombine_without_split(self):
        with pytest.raises(SequenceError):
            run_sequence([recombine(Y), analyze(X)], BeamState.eigenstate(Z, 1))

    def test_recombine_axis_mismatch(self):
        with pytest.raises(SequenceError):
            run_sequence([split(Y), recombine(X), analyze(X)], BeamState.eigenstate(Z, 1))

    def test_nested_unblocked_split(self):
        with pytest.raises(SequenceError):
            run_sequence([split(Y), split(X), recombine(Y), analyze(X)],
                         BeamState.eigenstate(Z, 1))

    def test_analyze_while_separated(self):
        with pytest.raises(SequenceError):
            run_sequence([split(Y), analyze(X)], BeamState.eigenstate(Z, 1))

    def test_analyzer_mid_sequence(self):
        with pytest.raises(SequenceError):
            run_sequence([analyze(X), analyze(Y)], BeamState.eigenstate(Z, 1))

    def test_block_on_recombine_rejected(self):
        with pytest.raises(ValidationError):
            SGDevice(Y, "recombine", block=1)


def walk_statistics(seq, beam, trials, seed):
    """(distribution among survivors, survivor fraction) of trials
    0 .. trials - 1, as the sterngerlach report gives them."""
    return survivor_statistics(sequence_counts(seq, beam, trials, seed,
                                               run_sequence(seq, beam)))


class TestMonteCarlo:
    def test_unblocked_never_yields_minus_x(self):
        n = 1_000_000
        dist, fraction = walk_statistics(reconstruction_sequence(),
                                         BeamState.eigenstate(Z, 1), n, 4)
        assert fraction == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n))
        assert dist[-1] == 0.0

    def test_blocked_statistics_and_paradox_events(self):
        n = 100_000
        seq, beam = reconstruction_sequence(block=-1), BeamState.eigenstate(Z, 1)
        dist, fraction = walk_statistics(seq, beam, n, 8)
        # survival 1/4 overall; among survivors the -x outcome appears even
        # though no surviving trial touched an obstacle
        assert abs(fraction - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)
        assert abs(dist[-1] - 0.5) < 3 * math.sqrt(0.25 / (n * 0.25))
        events = index_events(monte_carlo_sequence(seq, beam, n, seed=8),
                              run_sequence(seq, beam))
        paradox = [e for e in events if e.absorbed_at is None and e.outcome == -1]
        assert paradox

    def test_replay_bit_identical(self):
        seq = reconstruction_sequence(block=-1)
        k1 = monte_carlo_sequence(seq, BeamState.eigenstate(Z, 1), 5000, seed=3)
        k2 = monte_carlo_sequence(seq, BeamState.eigenstate(Z, 1), 5000, seed=3)
        assert k1.dtype == k2.dtype
        assert np.array_equal(k1, k2)

    def test_different_seeds_differ(self):
        seq = reconstruction_sequence(block=-1)
        k1 = monte_carlo_sequence(seq, BeamState.eigenstate(Z, 1), 5000, seed=3)
        k2 = monte_carlo_sequence(seq, BeamState.eigenstate(Z, 1), 5000, seed=4)
        assert not np.array_equal(k1, k2)

    @given(directions(), directions(), directions())
    @settings(max_examples=10, deadline=None)
    def test_analytic_and_empirical_agree(self, a1, a2, final):
        seq = [split(a1, block=-1), split(a2, block=1), analyze(final)]
        beam = BeamState.eigenstate(Z, 1)
        analytic = run_sequence(seq, beam)
        n = 20_000
        dist, fraction = walk_statistics(seq, beam, n, 12)
        sigma = math.sqrt(max(analytic.survival * (1 - analytic.survival), 1e-12) / n)
        assert abs(fraction - analytic.survival) < 4 * sigma + 1e-9
        if analytic.survival > 0.05:
            survivors = fraction * n
            p = analytic.probabilities[1]
            sigma_p = math.sqrt(max(p * (1 - p), 1e-12) / max(survivors, 1))
            assert abs(dist.get(1, 0.0) - p) < 4 * sigma_p + 1e-9

    def test_extinguished_monte_carlo(self):
        seq, beam = [split(Y, block=-1), split(Y, block=1), analyze(X)], BeamState.eigenstate(X, 1)
        dist, fraction = walk_statistics(seq, beam, 100, 1)
        assert dist == {}
        assert fraction == 0.0
        k = monte_carlo_sequence(seq, beam, trials=100, seed=1)
        assert all(e.absorbed_at is not None
                   for e in index_events(k, run_sequence(seq, beam)))

    def test_walk_hands_each_block(self, monkeypatch):
        """The walk draws rng.TILE trials at a time: each block is handed on
        as the event_json lines of a whole-range draw, and the counts are
        exactly those of its events."""
        monkeypatch.setattr(rng, "TILE", 7)
        seq, beam = reconstruction_sequence(block=-1), BeamState.eigenstate(Z, 1)
        analytic = run_sequence(seq, beam)
        blocks = []
        counts = sequence_counts(seq, beam, 40, 3, analytic,
                                 lambda first, k, suffixes: blocks.append(
                                     (first, join_lines(first, k, suffixes))))
        events = index_events(monte_carlo_sequence(seq, beam, 40, seed=3), analytic)
        assert [first for first, _ in blocks] == [0, 7, 14, 21, 28, 35]
        assert b"".join(lines for _, lines in blocks) == b"".join(
            event_json(e).encode() + b"\n" for e in events)
        outcomes = [e.outcome for e in events if e.absorbed_at is None]
        assert counts.tolist() == [40, len(outcomes), outcomes.count(1), outcomes.count(-1)]

    def test_walk_memory_stays_one_block(self):
        """The walk holds one block of trials at a time: its traced peak at
        2^20 trials is within 1 MiB of the peak at 2^16.  An untraced walk
        first fills the workspace pool, whose workspace outlives the walk."""
        seq, beam = reconstruction_sequence(block=-1), BeamState.eigenstate(Z, 1)
        analytic = run_sequence(seq, beam)
        sequence_counts(seq, beam, 1 << 16, 8, analytic)

        def peak(trials):
            tracemalloc.start()
            try:
                sequence_counts(seq, beam, trials, 8, analytic)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 20) - peak(1 << 16) <= 1 << 20

    @pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor faults")
    def test_repeated_walks_fault_in_no_buffers(self):
        """After a first walk, each 100 000-trial walk takes fewer than 50
        minor faults: its tile buffers come from rng's workspace pool and
        are not faulted in again."""
        import resource   # Unix only

        seq, beam = reconstruction_sequence(block=-1), BeamState.eigenstate(Z, 1)
        analytic = run_sequence(seq, beam)
        sequence_counts(seq, beam, 100_000, 1, analytic)
        for seed in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sequence_counts(seq, beam, 100_000, seed, analytic)
            assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50

    def test_walk_memory_is_its_output(self):
        """Besides its one-byte event indices, a 2^22-trial walk holds one
        tile's buffers: its traced peak is under 8 MiB."""
        seq, beam = reconstruction_sequence(block=-1), BeamState.eigenstate(Z, 1)
        tracemalloc.start()
        try:
            monte_carlo_sequence(seq, beam, 1 << 22, 8)
            assert tracemalloc.get_traced_memory()[1] < 8 << 20
        finally:
            tracemalloc.stop()

    def test_event_json_format(self):
        assert event_json(TrialEvent(4, None, 1)) == \
            '{"trial":4,"absorbed_at":null,"outcome":1}'
        assert event_json(TrialEvent(5, 2, None)) == \
            '{"trial":5,"absorbed_at":2,"outcome":null}'
