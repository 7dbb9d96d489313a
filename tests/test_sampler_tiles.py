"""The sampling layer against untiled oracles, bit for bit.

The oracles below are the straightforward whole-array forms of the draw:
the SplitMix64 uniforms computed over the full counter array at once, the
inverse CDF by `searchsorted(side="right")` followed by a gather, and a
Stern-Gerlach walk that draws every stage for every trial.  Whatever the
sampler does internally (tiles, fused comparisons, drawing only for live
trials), its values and dtypes must equal these exactly.
"""

import gc
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (_CountedThread, categorical, directions, index_events, sample_trial,
                      tsirelson_settings)
from hvqm import beamline, epr, rng, runner, shares
from hvqm.beamline import BeamState, analyze, event_json, recombine, split
from hvqm.cli import main
from hvqm.config import parse_config
from hvqm.errors import ValidationError
from hvqm.runner import run_experiment
from hvqm.spin import Direction, DirectionSet

# lengths are chosen around the sampler's tile boundaries
TILE = getattr(rng, "TILE", 1 << 14)
LENGTHS = (TILE - 1, TILE, TILE + 1, 3 * TILE + 5)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def reference_uniforms(seed, counters, substream=0):
    """The documented draw over the whole counter array in one expression."""
    c = np.asarray(counters, dtype=np.uint64)
    base = (seed * 0x9E3779B97F4A7C15 + (substream + 1) * 0xD1B54A32D192ED03) \
        & 0xFFFFFFFFFFFFFFFF
    with np.errstate(over="ignore"):   # 0-d input computes in numpy scalars
        z = _mix(_mix(np.uint64(base) + (c + np.uint64(1)) * _M1))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _counter_range(start, n):
    return np.uint64(start) + np.arange(n, dtype=np.uint64)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    bits = f"u{got.itemsize}"
    assert np.array_equal(got.view(bits), want.view(bits))


seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)
substreams = st.integers(min_value=-(2 ** 64), max_value=2 ** 64)


class TestUniforms:
    @given(seeds, substreams, st.sampled_from(LENGTHS),
           st.integers(min_value=1, max_value=2 ** 64 - 4 * TILE))
    @settings(max_examples=40, deadline=None)
    def test_tile_lengths_at_nonzero_starts(self, seed, substream, n, start):
        counters = _counter_range(start, n)
        assert_bits_equal(rng.uniforms(seed, counters, substream),
                          reference_uniforms(seed, counters, substream))

    @given(seeds, substreams, st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_dimensional_counter(self, seed, substream, counter):
        c = np.array(counter, dtype=np.uint64)
        got = rng.uniforms(seed, c, substream)
        assert np.shape(got) == ()
        assert_bits_equal(got, reference_uniforms(seed, c, substream))

    @given(seeds, substreams, st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=1500), st.integers(min_value=0, max_value=2 ** 40))
    @settings(max_examples=30, deadline=None)
    def test_two_dimensional_and_strided_counters(self, seed, substream, rows, cols, start):
        grid = _counter_range(start, rows * cols).reshape(rows, cols)
        for counters in (grid, grid.T, grid[:, ::3], grid[::-1, 1::2]):
            got = rng.uniforms(seed, counters, substream)
            assert got.shape == counters.shape
            assert_bits_equal(got, reference_uniforms(seed, counters, substream))

    def test_list_and_python_int_counters(self):
        assert_bits_equal(rng.uniforms(3, [5, 0, 2 ** 64 - 1]),
                          reference_uniforms(3, [5, 0, 2 ** 64 - 1]))
        assert_bits_equal(rng.uniforms(3, 7), reference_uniforms(3, 7))

    def test_empty_counters(self):
        got = rng.uniforms(3, np.zeros((0, 4), dtype=np.uint64))
        assert got.shape == (0, 4)
        assert got.dtype == np.float64


class TestCategorical:
    def test_u_exactly_on_a_boundary(self):
        cum = np.array([0.25, 0.5, 0.75, 1.0])
        u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(0.25, 0), np.nextafter(0.75, 1)])
        k = categorical(cum, u)
        assert np.array_equal(k, np.searchsorted(cum, u, side="right"))
        assert k.tolist() == [0, 1, 2, 3, 0, 3]

    def test_zero_width_intervals(self):
        cum = np.array([0.0, 0.5, 0.5, 1.0, 1.0])
        u = np.array([0.0, 0.1, 0.5, np.nextafter(0.5, 0), 0.9, np.nextafter(1.0, 0)])
        k = categorical(cum, u)
        assert np.array_equal(k, np.searchsorted(cum, u, side="right"))
        # the empty categories 0, 2 and 4 are never returned
        assert set(k.tolist()) <= {1, 3}


_A_OUT = np.array([1, 1, -1, -1], dtype=np.int8)
_B_OUT = np.array([1, -1, 1, -1], dtype=np.int8)


def reference_born(e, ai, bi, seed, n, start):
    cum = np.cumsum(epr.joint_outcome_probs(e.directions[ai], e.directions[bi]))
    cum[-1] = 1.0
    k = np.searchsorted(cum, reference_uniforms(seed, _counter_range(start, n)), side="right")
    return _A_OUT[k], _B_OUT[k]


def reference_lhv(e, ai, bi, seed, n, start):
    cum = np.cumsum(e.lhv_weights)
    cum[-1] = 1.0
    k = np.searchsorted(cum, reference_uniforms(seed, _counter_range(start, n)), side="right")
    return ((2 * ((k >> ai) & 1) - 1).astype(np.int8),
            (-(2 * ((k >> bi) & 1) - 1)).astype(np.int8))


trial_counts = st.one_of(st.sampled_from(LENGTHS), st.integers(min_value=1, max_value=300))
starts = st.integers(min_value=1, max_value=2 ** 40)


class TestSampleTrials:
    @given(st.lists(directions(), min_size=2, max_size=4), st.data(), seeds,
           trial_counts, starts)
    @settings(max_examples=40, deadline=None)
    def test_born_matches_searchsorted_and_gather(self, dirs, data, seed, n, start):
        e = epr.SingletEnsemble(DirectionSet(tuple(dirs)), epr.Mode.BORN_SAMPLING)
        ai = data.draw(st.integers(0, len(dirs) - 1))
        bi = data.draw(st.integers(0, len(dirs) - 1))
        a, b = epr.sample_trials(e, ai, bi, seed, n, start=start)
        want_a, want_b = reference_born(e, ai, bi, seed, n, start)
        assert_bits_equal(a, want_a)
        assert_bits_equal(b, want_b)

    @given(st.integers(min_value=2, max_value=4), st.data(), seeds, trial_counts, starts)
    @settings(max_examples=40, deadline=None)
    def test_lhv_matches_searchsorted(self, n_dirs, data, seed, n, start):
        raw = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
            min_size=1 << n_dirs, max_size=1 << n_dirs).filter(any)))
        w = raw / raw.sum()
        dirs = DirectionSet.from_planar_angles(np.linspace(0.0, 3.0, n_dirs))
        e = epr.SingletEnsemble(dirs, epr.Mode.CLASSICAL_LHV, w)
        ai = data.draw(st.integers(0, n_dirs - 1))
        bi = data.draw(st.integers(0, n_dirs - 1))
        a, b = epr.sample_trials(e, ai, bi, seed, n, start=start)
        want_a, want_b = reference_lhv(e, ai, bi, seed, n, start)
        assert_bits_equal(a, want_a)
        assert_bits_equal(b, want_b)

    def test_single_trial_matches_the_block(self):
        e = epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, *tsirelson_settings())
        a, b = epr.sample_trials(e, 0, 2, 77, TILE + 3, start=TILE - 2)
        for i in (0, 1, 2, TILE + 2):
            rec = sample_trial(e, 0, 2, 77, TILE - 2 + i)
            assert (rec.a_out, rec.b_out) == (a[i], b[i])


def reference_indices(devices, beam, trials, seed, start):
    """Every stage drawn for every trial, then masked by survival: event
    index j for absorption at the j-th blocking stage, S and S + 1 for
    survival with outcome +1 and -1, S the blocking stage count."""
    analytic = beamline.run_sequence(devices, beam)
    stages = len(analytic.stage_survivals)
    counters = _counter_range(start, trials)
    alive = np.ones(trials, dtype=bool)
    k = np.full(trials, -1, dtype=np.int64)
    for j, (idx, p_keep) in enumerate(analytic.stage_survivals):
        hit = alive & (reference_uniforms(seed, counters, idx) >= p_keep)
        k[hit] = j
        alive &= ~hit
    if analytic.probabilities is not None and alive.any():
        u = reference_uniforms(seed, counters, len(devices) - 1)
        k[alive] = np.where(u[alive] < analytic.probabilities[1], stages, stages + 1)
    assert np.all(k >= 0)
    return k


@st.composite
def sequences(draw):
    devices = [split(draw(directions()), block=draw(st.sampled_from([1, -1])))
               for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    if draw(st.booleans()):
        axis = draw(directions())
        at = draw(st.integers(0, len(devices)))
        devices[at:at] = [split(axis), recombine(axis)]
    return devices + [analyze(draw(directions()))]


class TestSternGerlach:
    @given(sequences(), directions(), st.sampled_from([1, -1]), seeds,
           st.one_of(st.sampled_from(LENGTHS), st.integers(min_value=1, max_value=300)),
           st.integers(min_value=0, max_value=2 ** 40))
    @settings(max_examples=40, deadline=None)
    def test_events_match_the_full_draw(self, devices, axis, s, seed, trials, start):
        beam = BeamState.eigenstate(axis, s)
        k = beamline.monte_carlo_sequence(devices, beam, trials, seed, start=start)
        assert np.array_equal(k, reference_indices(devices, beam, trials, seed, start))
        assert k.dtype == np.uint8

    def test_more_than_254_blocking_stages(self, tmp_path):
        """300 blocking stages put the survivors' indices, 300 and 301, past
        uint8: the log is the event_json lines of the reference indices,
        and it replays."""
        stages = [f"stage{i + 1} = split {0.1 * (i % 2)} block -" for i in range(300)]
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text("\n".join([
            "[experiment]", "kind = sterngerlach", "input = +z", "seed = 11",
            "trials = 3000", "[sequence]", *stages, "stage301 = analyze z", ""]))
        cfg = parse_config(cfg_path)
        run_experiment(cfg, tmp_path)
        seq = [beamline.split(Direction.from_planar_angle(0.1 * (i % 2)), block=-1)
               for i in range(300)] + [beamline.analyze(Direction(0.0, 0.0, 1.0))]
        beam = BeamState.eigenstate(Direction(0.0, 0.0, 1.0), 1)
        want = reference_indices(seq, beam, 3000, 11, 0)
        assert {0, 299, 300, 301} <= set(want.tolist())   # absorbed first and last, both outcomes
        body = (tmp_path / "events.jsonl").read_bytes().split(b"\n", 1)[1]
        assert body == b"".join(
            event_json(e).encode() + b"\n"
            for e in index_events(want, beamline.run_sequence(seq, beam)))
        assert runner.replay_run(tmp_path / "events.jsonl", cfg).verdict == "OK"


def _boundary_variants(cum, u):
    """cum as it is, then with each boundary strictly inside (0, 1) moved
    onto the nearest draw at or above it in u, then one ulp below and one
    above that draw: the draws sit on, just above and just below the
    boundaries, and boundaries at 0 and at or past 1 stay where they are."""
    inner = (cum > 0) & (cum < 1)
    inner[-1] = False
    pool = np.unique(u)
    snapped = np.where(inner, pool[np.minimum(np.searchsorted(pool, cum), len(pool) - 1)], cum)
    yield cum
    yield snapped
    for toward in (0.0, 1.0):
        yield np.where(inner, np.nextafter(snapped, toward), cum)


def _walk(e, pairs, seed, trials):
    """The pair walk's indices of each pair, joined over its pieces; the
    pieces must cover the flat trial range in order, each handed the record
    suffixes of its own pair."""
    pieces = []
    counts = epr.pair_counts(e, pairs, seed, trials,
                             lambda first, k, suffixes: pieces.append((first, k.copy(), suffixes)))
    assert [first for first, *_ in pieces] == list(
        np.cumsum([0] + [len(k) for _, k, _ in pieces[:-1]]))
    ks = [np.concatenate([k for first, k, _ in pieces if first // trials == p])
          for p in range(len(pairs))]
    assert [suffixes for _, _, suffixes in pieces] == [
        epr._record_suffixes(*pairs[first // trials], e.mode.value) for first, *_ in pieces]
    for k, c in zip(ks, counts):
        assert np.array_equal(c, np.bincount(k, minlength=4))
    return ks


# a tile holds pieces of three pairs, so pair boundaries fall inside tiles
BOUNDARY_TRIALS = TILE // 3 + 1
BOUNDARY_SEED = 2024


class TestBornBoundaries:
    """Born outcomes of draws on and beside every boundary, from
    sample_trials and from the pair walk, against searchsorted and a
    gather over the reference uniforms."""

    @pytest.mark.parametrize("probs", [
        (0.25, 0.25, 0.25, 0.25),
        (0.0, 0.5, 0.5, 0.0),              # zero-width first and last intervals
        (0.5, 0.0, 0.0, 0.5),              # zero-width middle intervals
        (0.0, 0.0, 1.0, 0.0),
        (1e-17, 0.5000000000000001, 0.5000000000000001, 1e-17),   # cum[2] past 1
    ])
    def test_matches_searchsorted_and_gather(self, monkeypatch, probs):
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        e = epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, *tsirelson_settings())
        pairs, trials = epr.CHSH_PAIRS, BOUNDARY_TRIALS
        u = reference_uniforms(BOUNDARY_SEED, np.arange(len(pairs) * trials))
        for edges in _boundary_variants(cum, u):
            monkeypatch.setattr(epr, "_born_thresholds",
                                lambda n_a, n_b, edges=edges: rng.thresholds(edges[:3]))
            k = np.searchsorted(edges, u, side="right")
            a, b = epr.sample_trials(e, 0, 2, BOUNDARY_SEED, len(u))
            assert_bits_equal(a, _A_OUT[k])
            assert_bits_equal(b, _B_OUT[k])
            for p, got in enumerate(_walk(e, pairs, BOUNDARY_SEED, trials)):
                assert np.array_equal(got, k[p * trials:(p + 1) * trials])


class TestLhvBoundaries:
    """The classical pattern index of draws on and beside every boundary,
    from sample_trials and from the pair walk, against `categorical`."""

    @pytest.mark.parametrize("weights", [
        np.full(4, 0.25),
        np.array([0.0, 0.5, 0.5, 0.0]),    # zero-width first and last intervals
        np.array([0.5, 0.0, 0.0, 0.5]),    # zero-width middle intervals
        np.array([0.0, 0.0, 1.0, 0.0]),
        np.array([0.125, 0.0, 0.0, 0.25, 0.0, 0.0, 0.125, 0.0,
                  0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0]),
    ])
    def test_matches_categorical(self, weights):
        bits = len(weights).bit_length() - 1
        dirs = DirectionSet.from_planar_angles(np.linspace(0.0, 3.0, bits))
        pairs = [(ai, bi) for ai in range(bits) for bi in range(bits)]
        trials = BOUNDARY_TRIALS
        u = reference_uniforms(BOUNDARY_SEED, np.arange(len(pairs) * trials))
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        for edges in _boundary_variants(cum, u):
            w = np.diff(edges, prepend=0.0)
            e = epr.SingletEnsemble(dirs, epr.Mode.CLASSICAL_LHV, w)
            cum_w = np.cumsum(w)
            cum_w[-1] = 1.0
            k = categorical(cum_w, u)
            for ai, bi in pairs:
                a, b = epr.sample_trials(e, ai, bi, BOUNDARY_SEED, len(u))
                assert_bits_equal(a, (2 * ((k >> ai) & 1) - 1).astype(np.int8))
                assert_bits_equal(b, (1 - 2 * ((k >> bi) & 1)).astype(np.int8))
            for p, got in enumerate(_walk(e, pairs, BOUNDARY_SEED, trials)):
                ai, bi = pairs[p]
                kp = k[p * trials:(p + 1) * trials]
                assert np.array_equal(got, 2 * (1 - ((kp >> ai) & 1)) + ((kp >> bi) & 1))


# boundaries anywhere in [0, 1], and on the edges of the top-byte buckets
_cut_points = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                        st.integers(min_value=0, max_value=256).map(lambda b: b / 256))


@given(st.lists(_cut_points, max_size=40).map(sorted),
       st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=20))
@example([], [0, 2 ** 64 - 1])
@example([0.25, 0.25, 0.3, 0.3, 0.3], [1 << 62])   # repeats, one on a bucket edge
@example([i / 600 for i in range(600)], [2 ** 64 - 1])   # counts past 255
@settings(max_examples=200, deadline=None)
def test_bucket_count_is_the_threshold_count(cum, states):
    """epr._by_bucket counts, for each state, the thresholds at or below it,
    as comparing each one does: at states on, one below and one above every
    threshold, inside a bucket or on its edge."""
    thresholds = rng.thresholds(cum)
    z = np.array(states + [int(t) + d for t in thresholds for d in (-1, 0, 1)
                           if 0 <= int(t) + d < 2 ** 64], dtype=np.uint64)
    cuts = epr._cuts(thresholds)
    k = np.empty(len(z), dtype=cuts[1].dtype)
    epr._by_bucket(z, cuts, k, np.empty(len(z), dtype=np.uint64))
    want = np.zeros(len(z), dtype=np.int64)
    for t in thresholds:
        want += z >= t
    assert np.array_equal(k, want)


@given(directions(), directions())
@settings(max_examples=200)
def test_joint_outcome_probs_equal_the_four_pair_laws(n_a, n_b):
    want = np.array([epr.pair_joint_probability(n_a, n_b, a, b) for a, b in epr.OUTCOME_PAIRS])
    assert_bits_equal(epr.joint_outcome_probs(n_a, n_b), want)


def _shares(n, cpus):
    """Shares of n trials on `cpus` CPUs: each holds two whole tiles or
    more, and there is one at least."""
    return max(1, min(cpus, n // rng.TILE // 2))


_LHV_WEIGHTS = np.array([0.125, 0.0, 0.0, 0.25, 0.0, 0.0, 0.125, 0.0,
                         0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0])


def _ensembles():
    return [epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, *tsirelson_settings()),
            epr.SingletEnsemble(DirectionSet.from_planar_angles(np.linspace(0.0, 3.0, 4)),
                                epr.Mode.CLASSICAL_LHV, _LHV_WEIGHTS)]


_REFERENCE = {epr.Mode.BORN_SAMPLING: reference_born, epr.Mode.CLASSICAL_LHV: reference_lhv}


class TestShares:
    """The order-free walks split across CPUs in shares of equal trial
    counts, bit for bit as one walk on the calling thread draws them, at
    lengths just around the share and tile boundaries, from odd starts."""

    @pytest.mark.parametrize("tile,n,cpus,want", [
        (TILE, 10 ** 6, 2, [(0, 500000), (500000, 10 ** 6)]),
        (7, 100, 3, [(0, 33), (33, 66), (66, 100)]),
        (7, 27, 5, [(0, 27)]),
        (7, 28, 5, [(0, 14), (14, 28)]),
    ])
    def test_shares_hold_equal_trial_counts(self, monkeypatch, on_cpus, tile, n, cpus, want):
        monkeypatch.setattr(rng, "TILE", tile)
        on_cpus(cpus)
        assert shares._in_shares(n, rng.TILE, lambda lo, hi: (lo, hi), lambda walk: walk) == want

    @pytest.mark.parametrize("tile", [TILE, 7])
    @pytest.mark.parametrize("whole,extra", [(3, 6), (4, -1), (4, 0), (4, 1), (6, 0), (7, 5)])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_sample_trials_match_the_serial_walk(self, monkeypatch, on_cpus, tile, whole,
                                                 extra, cpus):
        monkeypatch.setattr(rng, "TILE", tile)
        n = whole * tile + extra
        for e in _ensembles():
            for ai, bi, start in ((0, 2, 1), (3, 1, 2 ** 40 + 12345)):
                on_cpus(1)
                serial = epr.sample_trials(e, ai, bi, 41, n, start=start)
                assert _CountedThread.started == 0
                on_cpus(cpus)
                shared = epr.sample_trials(e, ai, bi, 41, n, start=start)
                assert _CountedThread.started == _shares(n, cpus) - 1
                _CountedThread.started = 0
                want = _REFERENCE[e.mode](e, ai, bi, 41, n, start)
                for got_s, got, w in zip(serial, shared, want):
                    assert_bits_equal(got_s, w)
                    assert_bits_equal(got, w)

    @pytest.mark.parametrize("trials", [5, 7, 11, 2 * 7 + 3])
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_pair_counts_match_the_serial_walk(self, monkeypatch, on_cpus, trials, cpus):
        """Setting-pair boundaries fall inside tiles and inside shares."""
        monkeypatch.setattr(rng, "TILE", 7)
        n = len(epr.CHSH_PAIRS) * trials
        for e in _ensembles():
            on_cpus(1)
            serial = epr.pair_counts(e, epr.CHSH_PAIRS, 9, trials)
            on_cpus(cpus)
            shared = epr.pair_counts(e, epr.CHSH_PAIRS, 9, trials)
            assert _CountedThread.started == _shares(n, cpus) - 1
            _CountedThread.started = 0
            assert shared.dtype == serial.dtype == np.int64
            assert np.array_equal(shared, serial)
            assert np.array_equal(serial, np.array(
                [np.bincount(k, minlength=4) for k in _walk(e, epr.CHSH_PAIRS, 9, trials)]))

    def test_more_shares_than_cores_with_frequent_switches(self, monkeypatch, on_cpus):
        """Eight shares hand the GIL over every microsecond: no share's
        outcomes or counts are lost or written twice, and no thread outlives
        its walk."""
        monkeypatch.setattr(rng, "TILE", 7)
        e = _ensembles()[0]
        on_cpus(1)
        serial = (epr.sample_trials(e, 0, 2, 5, 1000, start=3),
                  epr.pair_counts(e, epr.CHSH_PAIRS, 5, 250))
        on_cpus(8)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                a, b = epr.sample_trials(e, 0, 2, 5, 1000, start=3)
                assert_bits_equal(a, serial[0][0])
                assert_bits_equal(b, serial[0][1])
                assert np.array_equal(epr.pair_counts(e, epr.CHSH_PAIRS, 5, 250), serial[1])
        finally:
            sys.setswitchinterval(interval)
        assert _CountedThread.started == 20 * 2 * 7
        assert threading.active_count() == before   # every thread joined

    def test_logged_walk_stays_on_the_calling_thread(self, monkeypatch, on_cpus):
        monkeypatch.setattr(rng, "TILE", 7)
        on_cpus(4)
        _walk(_ensembles()[0], epr.CHSH_PAIRS, 9, 50)   # checks the order of the pieces
        assert _CountedThread.started == 0

    def test_one_cpu_starts_no_thread(self, monkeypatch, on_cpus):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was made on one CPU")

        monkeypatch.setattr(rng, "TILE", 7)
        monkeypatch.setattr(threading, "Thread", refuse)
        on_cpus(1)
        for e in _ensembles():
            a, b = epr.sample_trials(e, 0, 2, 41, 200, start=3)
            want_a, want_b = _REFERENCE[e.mode](e, 0, 2, 41, 200, 3)
            assert_bits_equal(a, want_a)
            assert_bits_equal(b, want_b)
            epr.pair_counts(e, epr.CHSH_PAIRS, 9, 50)

    @pytest.mark.parametrize("walk", [
        lambda e: epr.sample_trials(e, 0, 2, 41, 100),
        lambda e: epr.pair_counts(e, epr.CHSH_PAIRS, 41, 25),
    ])
    def test_an_error_in_the_second_share_reaches_the_caller(self, monkeypatch, on_cpus,
                                                             walk):
        original = rng.mixed_tiles

        def failing(seed, start, n, ws):
            tiles = original(seed, start, n, ws)
            if start == 0:
                return tiles

            def fail():
                raise RuntimeError("the second share failed")
                yield   # a generator: it raises when its share reads it

            return fail()

        monkeypatch.setattr(rng, "TILE", 7)
        monkeypatch.setattr(rng, "mixed_tiles", failing)
        on_cpus(2)
        for e in _ensembles():
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="the second share failed"):
                walk(e)
            assert _CountedThread.started == 1
            _CountedThread.started = 0
            assert threading.active_count() == before

    def test_setting_and_seed_errors_start_no_thread(self, monkeypatch, on_cpus):
        monkeypatch.setattr(rng, "TILE", 7)
        on_cpus(2)
        for e in _ensembles():
            with pytest.raises(ValidationError, match="setting index 4 out of range"):
                epr.sample_trials(e, 0, 4, 41, 100)
            with pytest.raises(ValidationError, match="setting index 4 out of range"):
                epr.pair_counts(e, [(0, 1), (4, 0)], 41, 100)
            with pytest.raises(ValueError, match="outside the 64-bit unsigned range"):
                epr.sample_trials(e, 0, 2, 2 ** 64, 100)
            with pytest.raises(ValueError, match="outside the 64-bit unsigned range"):
                epr.pair_counts(e, epr.CHSH_PAIRS, -1, 100)
        assert _CountedThread.started == 0

    def test_cached_thresholds_are_made_on_the_calling_thread(self, monkeypatch, on_cpus):
        threads = []
        for name in ("joint_outcome_probs", "_cuts"):
            original = getattr(epr, name)
            monkeypatch.setattr(epr, name, lambda *a, original=original: threads.append(
                threading.current_thread()) or original(*a))
        epr._born_thresholds.cache_clear()
        monkeypatch.setattr(rng, "TILE", 7)
        on_cpus(2)
        for e in _ensembles():
            epr.pair_counts(e, epr.CHSH_PAIRS, 41, 100)
            epr.sample_trials(e, 1, 2, 41, 100)
        assert _CountedThread.started == 4
        assert len(threads) == 5   # four Born pairs, one classical table
        assert set(threads) == {threading.main_thread()}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_memory_stays_one_tile_a_share(self, on_cpus, cpus):
        """Besides its two int8 outputs, sample_trials holds one tile's
        buffers a share: its traced peak at 2^22 trials is within 1 MiB of
        the peak at 2^18.  An untraced call first fills the workspace pool,
        whose workspaces outlive the call."""
        e = _ensembles()[0]
        on_cpus(cpus)
        epr.sample_trials(e, 0, 2, 8, 1 << 18)

        def peak(n):
            tracemalloc.start()
            try:
                epr.sample_trials(e, 0, 2, 8, n)
                return tracemalloc.get_traced_memory()[1] - 2 * n
            finally:
                tracemalloc.stop()

        assert peak(1 << 22) - peak(1 << 18) <= 1 << 20


@pytest.fixture
def pool(monkeypatch):
    """An empty workspace pool for the test, the one rng's walks share."""
    monkeypatch.setattr(rng, "_POOL", [])
    return rng._POOL


class TestWorkspacePool:
    """Every walk takes one workspace from rng's pool at its making and
    gives it back when it ends, however it ends."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5, 8])
    def test_pool_holds_the_most_shares_of_any_call(self, monkeypatch, on_cpus, pool, cpus):
        """Shares hand the GIL over every microsecond while they take and
        give workspaces: none is lost or pooled twice."""
        monkeypatch.setattr(rng, "TILE", 7)
        on_cpus(cpus)
        most = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i, e in zip(range(20), itertools.cycle(_ensembles())):
                n = 30 + 97 * i   # from one share to `cpus`
                epr.sample_trials(e, 0, 2, i, n)
                epr.pair_counts(e, epr.CHSH_PAIRS, i, n // 4)
                most = max(most, _shares(n, cpus), _shares(n // 4 * 4, cpus))
                assert len(pool) == most
        finally:
            sys.setswitchinterval(interval)
        assert most == cpus
        assert len({id(ws) for ws in pool}) == len(pool)

    def test_tampered_replay_gives_its_workspace_back(self, capsys, tmp_path, monkeypatch,
                                                      pool):
        """The replay raises inside on_block at the fourth of 29 tiles; with
        the cyclic collector off, the abandoned walk still returns its
        workspace."""
        monkeypatch.setattr(rng, "TILE", 7)
        cfg = tmp_path / "chsh.cfg"
        cfg.write_text("[experiment]\nkind = chsh\nmode = born_sampling\nseed = 3\n"
                       "trials = 50\n[directions]\na1 = 1.5\na2 = 0.0\nb1 = 0.7\nb2 = 2.3\n",
                       encoding="utf-8")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        log = tmp_path / "out" / "trials.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[23] = lines[23].replace('"trial":22,', '"trial":23,')
        log.write_text("".join(lines), encoding="utf-8")
        held = list(pool)
        assert len(held) == 1
        enabled = gc.isenabled()
        gc.disable()
        try:
            capsys.readouterr()
            assert main(["replay", str(log), str(cfg)]) == 1
            assert pool == held
        finally:
            if enabled:
                gc.enable()
        assert '"first_bad_line": 24' in capsys.readouterr().out

    @pytest.mark.parametrize("end", ["close", "drop"])
    def test_abandoned_walk_gives_its_workspace_back(self, monkeypatch, pool, end):
        monkeypatch.setattr(rng, "TILE", 7)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for e in _ensembles():
                walk = epr._pair_tiles(e, epr.CHSH_PAIRS, 9, 50, 0, 0, 200)
                assert pool == []
                next(walk)
                if end == "close":
                    walk.close()
                else:
                    del walk
                assert len(pool) == 1
                pool.clear()
        finally:
            if enabled:
                gc.enable()

    def test_two_live_walks_share_no_buffer(self, monkeypatch, pool):
        """Two walks read piece by piece in turn give what each gives
        read alone."""
        monkeypatch.setattr(rng, "TILE", 7)
        for e in _ensembles():
            pool.clear()
            walks = (lambda: epr._pair_tiles(e, epr.CHSH_PAIRS, 9, 50, 0, 0, 200),
                     lambda: epr._pair_tiles(e, ((1, 3), (0, 2)), 10, 40, 5, 3, 80))
            alone = [[(p, first, k.copy()) for p, first, k in walk()] for walk in walks]
            taken = len(pool)
            together = [[], []]
            for pieces in itertools.zip_longest(*(walk() for walk in walks)):
                for got, piece in zip(together, pieces):
                    if piece is not None:
                        got.append((piece[0], piece[1], piece[2].copy()))
            for got, want in zip(together, alone):
                assert [(p, first) for p, first, _ in got] == [(p, first) for p, first, _ in want]
                for (*_, k), (*_, w) in zip(got, want):
                    assert_bits_equal(k, w)
            assert (taken, len(pool)) == (1, 2)


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor faults")
def test_repeated_draws_fault_in_only_their_outputs(monkeypatch):
    """With two shares, five 10^6-trial sample_trials calls after a first
    take fewer than 1.1 times the minor faults of their two int8 outputs:
    the tile buffers are not handed back to the system and faulted in
    again on every call."""
    import resource   # Unix only

    monkeypatch.setattr(shares, "_usable_cpus", lambda: 2)
    e = _ensembles()[0]
    n = 10 ** 6
    epr.sample_trials(e, 0, 2, 1, n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for seed in range(5):
        epr.sample_trials(e, 0, 2, seed, n)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1.1 * 5 * 2 * n / 4096
