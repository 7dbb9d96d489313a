"""The sampling layer against untiled oracles, bit for bit.

The oracles below are the straightforward whole-array forms of the draw:
the SplitMix64 uniforms computed over the full counter array at once, the
inverse CDF by `searchsorted(side="right")` followed by a gather, and a
Stern-Gerlach walk that draws every stage for every trial.  Whatever the
sampler does internally (tiles, fused comparisons, drawing only for live
trials), its values and dtypes must equal these exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import categorical, directions
from hvqm import beamline, epr, rng
from hvqm.beamline import BeamState, analyze, recombine, split
from hvqm.spin import DirectionSet

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
        assert rng.uniform(seed, counter, substream) == float(
            reference_uniforms(seed, c, substream))

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
        e = epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, *epr.tsirelson_settings())
        a, b = epr.sample_trials(e, 0, 2, 77, TILE + 3, start=TILE - 2)
        for i in (0, 1, 2, TILE + 2):
            rec = epr.sample_trial(e, 0, 2, 77, TILE - 2 + i)
            assert (rec.a_out, rec.b_out) == (a[i], b[i])


def reference_events(devices, beam, trials, seed, start):
    """Every stage drawn for every trial, then masked by survival."""
    analytic = beamline.run_sequence(devices, beam)
    counters = _counter_range(start, trials)
    alive = np.ones(trials, dtype=bool)
    absorbed_at = np.full(trials, -1, dtype=np.int64)
    for idx, p_keep in analytic.stage_survivals:
        hit = alive & (reference_uniforms(seed, counters, idx) >= p_keep)
        absorbed_at[hit] = idx
        alive &= ~hit
    outcome = np.zeros(trials, dtype=np.int64)
    if analytic.probabilities is not None and alive.any():
        u = reference_uniforms(seed, counters, len(devices) - 1)
        outcome[alive] = np.where(u[alive] < analytic.probabilities[1], 1, -1)
    return beamline.Events(start, absorbed_at, outcome)


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
        _, _, events = beamline.monte_carlo_sequence(devices, beam, trials, seed, start=start)
        want = reference_events(devices, beam, trials, seed, start)
        assert events == want
        assert events.absorbed_at.dtype == want.absorbed_at.dtype
        assert events.outcome.dtype == want.outcome.dtype


class TestBornBoundaries:
    """The fused Born comparison on uniforms on and beside every boundary."""

    @pytest.mark.parametrize("probs", [
        (0.25, 0.25, 0.25, 0.25),
        (0.0, 0.5, 0.5, 0.0),              # zero-width first and last intervals
        (0.5, 0.0, 0.0, 0.5),              # zero-width middle intervals
        (0.0, 0.0, 1.0, 0.0),
        (1e-17, 0.5000000000000001, 0.5000000000000001, 1e-17),   # cum[2] past 1
    ])
    def test_matches_searchsorted_and_gather(self, probs):
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        edges = np.concatenate([cum[:3], np.nextafter(cum[:3], 0), np.nextafter(cum[:3], 1)])
        u = np.unique(np.concatenate([[0.0, np.nextafter(1.0, 0)], edges]))
        u = u[(u >= 0) & (u < 1)]
        a, b = np.empty(len(u), dtype=np.int8), np.empty(len(u), dtype=np.int8)
        epr._born_outcomes(u, cum, a, b, np.empty(len(u), dtype=np.bool_))
        k = np.searchsorted(cum, u, side="right")
        assert_bits_equal(a, _A_OUT[k])
        assert_bits_equal(b, _B_OUT[k])

    def test_uniforms_write_into_out(self):
        out = np.empty((3, 5))
        got = rng.uniforms(9, np.arange(15).reshape(3, 5), 2, out=out)
        assert got is out
        assert_bits_equal(out, reference_uniforms(9, np.arange(15).reshape(3, 5), 2))

    @pytest.mark.parametrize("out", [np.empty(14), np.empty((3, 5), dtype=np.float32),
                                     np.empty((5, 3)).T])
    def test_unusable_out_is_refused(self, out):
        with pytest.raises(ValueError):
            rng.uniforms(9, np.arange(15).reshape(3, 5), out=out)


class TestLhvBoundaries:
    """The classical pattern index by threshold counts, on and beside every
    boundary, against `categorical`."""

    @pytest.mark.parametrize("weights", [
        np.full(4, 0.25),
        np.array([0.0, 0.5, 0.5, 0.0]),    # zero-width first and last intervals
        np.array([0.5, 0.0, 0.0, 0.5]),    # zero-width middle intervals
        np.array([0.0, 0.0, 1.0, 0.0]),
        np.array([0.125, 0.0, 0.0, 0.25, 0.0, 0.0, 0.125, 0.0,
                  0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0]),
    ])
    def test_matches_categorical(self, weights):
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        inner = cum[:-1]
        edges = np.concatenate([inner, np.nextafter(inner, 0), np.nextafter(inner, 1)])
        u = np.unique(np.concatenate([[0.0, np.nextafter(1.0, 0)], edges]))
        u = u[(u >= 0) & (u < 1)]
        k = categorical(cum, u)
        bits = len(weights).bit_length() - 1
        for ai in range(bits):
            for bi in range(bits):
                a, b = np.empty(len(u), dtype=np.int8), np.empty(len(u), dtype=np.int8)
                epr._lhv_outcomes(u, cum, ai, bi, a, b, np.empty(len(u), dtype=np.bool_))
                assert_bits_equal(a, (2 * ((k >> ai) & 1) - 1).astype(np.int8))
                assert_bits_equal(b, (1 - 2 * ((k >> bi) & 1)).astype(np.int8))


@given(directions(), directions())
@settings(max_examples=200)
def test_joint_outcome_probs_equal_the_four_pair_laws(n_a, n_b):
    want = np.array([epr.pair_joint_probability(n_a, n_b, a, b) for a, b in epr.OUTCOME_PAIRS])
    assert_bits_equal(epr.joint_outcome_probs(n_a, n_b), want)
