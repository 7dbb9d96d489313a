"""Counter-based randomness.

Every draw is a pure function of (seed, counter, substream): no generator
state is carried between trials, so trial i's randomness is identical no
matter how the trial range is chunked across workers or in what order the
chunks run.  The mixing function is the SplitMix64 finalizer applied twice,
which is enough avalanche to decorrelate the linearly-spaced inputs.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15       # 2^64 / golden ratio, odd
_SUBSTREAM_SALT = 0xD1B54A32D192ED03

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# ufunc operands as 0-d arrays: numpy sets up a call on them faster than on
# scalars, and that set-up is most of the cost of a few hundred draws
_M1_U, _M2_U, _S11, _S27, _S30, _S31 = (np.array(v, dtype=np.uint64)
                                        for v in (_M1, _M2, 11, 27, 30, 31))
_ULP = np.array(2.0 ** -53)

# Counters per tile, and trials per block of epr.pair_counts and of a trial
# log.  A tile's uint64 scratch and float64 output (128 KiB each) stay in
# cache through the twenty passes of the mix; whole-array passes over 10^6
# counters run from main memory.  The tile changes no bit of any draw.
TILE = 1 << 14


def _draw_tile(c: np.ndarray, offset: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """out[i] = top 53 bits of mix(mix(c[i] * M1 + offset)) as a [0, 1) double.

    All four are 1-D and of one length; z is uint64 scratch, and out doubles
    as the second scratch buffer until the last pass.
    """
    t = out.view(np.uint64)
    np.multiply(c, _M1_U, z)
    np.add(z, offset, z)
    for _ in range(2):   # the SplitMix64 finalizer, twice
        np.right_shift(z, _S30, t)
        np.bitwise_xor(z, t, z)
        np.multiply(z, _M1_U, z)
        np.right_shift(z, _S27, t)
        np.bitwise_xor(z, t, z)
        np.multiply(z, _M2_U, z)
        np.right_shift(z, _S31, t)
        np.bitwise_xor(z, t, z)
    np.right_shift(z, _S11, z)
    # exact: z < 2^53 converts without rounding, from int64 faster than uint64
    np.multiply(z.view(np.int64), _ULP, out)


def uniforms(seed: int, counters, substream: int = 0, out: np.ndarray | None = None
             ) -> np.ndarray:
    """Uniform [0, 1) doubles for an array of counters, in its shape.

    `counters` is typically a range of trial indices; `substream` separates
    independent draws belonging to the same trial (e.g. one per beamline
    stage).  Counter c draws the top 53 bits of mix(mix(base + (c + 1) M1))
    in uint64 arithmetic, where base mixes the seed and substream and mix is
    the SplitMix64 finalizer.  The counters are processed TILE at a time;
    `out`, a C-contiguous float64 array of the counters' shape, receives the
    draws when given.
    """
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed {seed} outside the 64-bit unsigned range")
    c = np.asarray(counters, dtype=np.uint64)
    if out is None:
        out = np.empty(c.shape)
    elif out.shape != c.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of the counters' shape")
    # scalar part in Python ints: wrapping uint64 scalars would warn in numpy;
    # (c + 1) M1 + base is computed as c M1 + (base + M1)
    offset = np.array((seed * _GOLDEN + (substream + 1) * _SUBSTREAM_SALT + _M1) & _MASK,
                      dtype=np.uint64)
    flat, dest = c.reshape(-1), out.reshape(-1)
    n = flat.size
    z = np.empty(min(n, TILE), dtype=np.uint64)
    for lo in range(0, n, TILE):
        hi = min(lo + TILE, n)
        _draw_tile(flat[lo:hi], offset, z[:hi - lo], dest[lo:hi])
    return out


def uniform(seed: int, counter: int, substream: int = 0) -> float:
    """Scalar convenience wrapper; bit-identical to the vector path."""
    return float(uniforms(seed, np.array([counter], dtype=np.uint64), substream)[0])

