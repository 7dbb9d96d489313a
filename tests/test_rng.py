import numpy as np
import pytest

from conftest import categorical
from hvqm.rng import uniform, uniforms


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
        assert uniform(123, i, substream=2) == vec[i]


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
