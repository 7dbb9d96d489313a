import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import categorical
from hvqm import rng
from hvqm.rng import uniforms


def test_deterministic():
    a = uniforms(42, np.arange(1000))
    b = uniforms(42, np.arange(1000))
    assert np.array_equal(a, b)


def test_frozen_golden_values():
    # the bit-level contract: stored trial logs replay against these exact
    # streams, so any change to the mixing function is a breaking change
    assert [float(v) for v in uniforms(42, np.arange(4))] == [
        0.5038767396788374, 0.2856072223183217,
        0.18335707459823825, 0.7770924853008961]
    assert [float(v) for v in uniforms(2 ** 64 - 1, np.arange(2), substream=3)] == [
        0.25465144431316533, 0.035427807456412386]


def test_pure_function_of_counter():
    # any chunking of the counter range gives the same per-index values
    full = uniforms(7, np.arange(100))
    lo = uniforms(7, np.arange(0, 37))
    hi = uniforms(7, np.arange(37, 100))
    assert np.array_equal(full, np.concatenate([lo, hi]))
    shuffled = uniforms(7, np.array([5, 1, 99]))
    assert shuffled[0] == full[5]
    assert shuffled[1] == full[1]
    assert shuffled[2] == full[99]


def test_scalar_matches_vector():
    vec = uniforms(123, np.arange(10), substream=2)
    for i in range(10):
        assert float(uniforms(123, i, substream=2)) == vec[i]


def test_seed_and_substream_decorrelate():
    base = uniforms(1, np.arange(100))
    assert not np.array_equal(base, uniforms(2, np.arange(100)))
    assert not np.array_equal(base, uniforms(1, np.arange(100), substream=1))


def test_range_and_moments():
    u = uniforms(99, np.arange(200_000))
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # mean 1/2 and variance 1/12 within ~5 sigma
    assert abs(u.mean() - 0.5) < 5 * (1 / 12) ** 0.5 / 200_000 ** 0.5
    assert abs(u.var() - 1 / 12) < 0.001


def test_seed_range_validated():
    with pytest.raises(ValueError):
        uniforms(-1, np.arange(3))
    with pytest.raises(ValueError):
        uniforms(2 ** 64, np.arange(3))


def test_categorical_never_hits_zero_width_intervals():
    cum = np.array([0.0, 0.5, 1.0, 1.0])  # categories 0 and 3 have zero mass
    u = uniforms(5, np.arange(100_000))
    k = categorical(cum, u)
    assert k.min() >= 1
    assert k.max() <= 2
    assert abs(np.mean(k == 1) - 0.5) < 0.01


# boundaries c in [0, 1] and just past it: any double, the dyadic k 2^-53
# a draw can equal, and the doubles either side of those
_dyadic = st.integers(min_value=0, max_value=2 ** 53).map(lambda k: k * 2.0 ** -53)
boundaries = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), _dyadic,
    _dyadic.map(lambda c: float(np.nextafter(c, 0.0))),
    _dyadic.map(lambda c: float(np.nextafter(c, 2.0))))
states = st.integers(min_value=0, max_value=2 ** 64 - 1)


@given(boundaries, states)
@example(0.0, 0)                                # always reached
@example(0.0, 2 ** 64 - 1)
@example(1.0, 2 ** 64 - 1)                      # never reached
@example(float(np.nextafter(1.0, 2.0)), 2 ** 64 - 1)   # past 1, as a rounded Born sum can be
@example(float(np.nextafter(1.0, 0.0)), 2 ** 64 - 1)
@example(5e-324, 2 ** 11)
@settings(max_examples=500, deadline=None)
def test_threshold_rule(c, z):
    """(z >= T(c)) == ((z >> 11) 2^-53 >= c) for the state z, at z, at
    T(c) - 1 and at T(c); a boundary at or past 1 has no threshold and is
    never reached."""
    found = rng.thresholds([c])
    assert len(found) == (c < 1.0)
    for t in found:
        assert t.shape == () and t.dtype == np.uint64
    z = np.array([z] + [int(t) + d for t in found for d in (-1, 0) if int(t) + d >= 0],
                 dtype=np.uint64)
    reached = np.zeros(len(z), dtype=bool)
    for t in found:
        reached |= z >= t
    assert np.array_equal(reached, (z >> np.uint64(11)) * 2.0 ** -53 >= c)


def test_thresholds_keep_order_and_repeats():
    cum = np.array([-1e-17, 0.0, 0.25, 0.25, 0.75, 1.0, 1.0000000000000002])
    assert [int(t) for t in rng.thresholds(cum)] == [0, 0, 1 << 62, 1 << 62, 3 << 62]
