"""Counter-based randomness.

Every draw is a pure function of (seed, counter, substream): no generator
state is carried between trials, so trial i's randomness is identical no
matter how the trial range is chunked across workers or in what order the
chunks run.  The mixing function is the SplitMix64 finalizer applied twice,
which is enough avalanche to decorrelate the linearly-spaced inputs.
"""

from __future__ import annotations

import math

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

# Counters per tile.  A tile's uint64 state and scratch (512 KiB each) stay
# in a core's 2 MiB L2 through the sixteen passes of the mix; whole-array
# passes over 10^6 counters run from main memory.  Each pass is one ufunc
# call, and numpy releases the GIL only inside a call, so threads that mix
# tiles of their own gain only where the calls are long: over 2^23 states
# on a 2-vCPU Xeon (best of 7), two threads ran 0.86-0.96 times as fast as
# one at 2^14-state tiles and 1.31-1.92 times as fast at 2^16, where one
# thread is no slower (5.2-6.8 against 6.0-6.3 ns a state).  The tile
# changes no bit of any draw.
TILE = 1 << 16


def _offset(seed: int, substream: int) -> int:
    """base + M1, where base mixes the seed and substream: counter c's
    unmixed state is c M1 + offset."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed {seed} outside the 64-bit unsigned range")
    # in Python ints: wrapping uint64 scalars would warn in numpy
    return (seed * _GOLDEN + (substream + 1) * _SUBSTREAM_SALT + _M1) & _MASK


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """The SplitMix64 finalizer, twice, on z in place; t is uint64 scratch
    of z's length."""
    for _ in range(2):
        np.right_shift(z, _S30, t)
        np.bitwise_xor(z, t, z)
        np.multiply(z, _M1_U, z)
        np.right_shift(z, _S27, t)
        np.bitwise_xor(z, t, z)
        np.multiply(z, _M2_U, z)
        np.right_shift(z, _S31, t)
        np.bitwise_xor(z, t, z)


def uniforms(seed: int, counters, substream: int = 0) -> np.ndarray:
    """Uniform [0, 1) doubles for an array of counters, in its shape.

    `counters` is typically a range of trial indices; `substream` separates
    independent draws belonging to the same trial (e.g. one per beamline
    stage).  Counter c draws the top 53 bits of its mixed state
    z = mix(mix(base + (c + 1) M1)) in uint64 arithmetic, where base mixes
    the seed and substream and mix is the SplitMix64 finalizer.  The
    counters are processed TILE at a time.
    """
    offset = np.array(_offset(seed, substream), dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    out = np.empty(c.shape)
    flat, dest = c.reshape(-1), out.reshape(-1)
    n = flat.size
    z = np.empty(min(n, TILE), dtype=np.uint64)
    for lo in range(0, n, TILE):
        hi = min(lo + TILE, n)
        zt, dt = z[:hi - lo], dest[lo:hi]
        np.multiply(flat[lo:hi], _M1_U, zt)
        np.add(zt, offset, zt)
        _mix(zt, dt.view(np.uint64))   # the output doubles as scratch
        np.right_shift(zt, _S11, zt)
        # exact: z < 2^53 converts without rounding, from int64 faster than uint64
        np.multiply(zt.view(np.int64), _ULP, dt)
    return out


class Workspace:
    """The TILE-length buffers of one live walk: the mixed states `z` and
    their scratch `t`, which mixed_tiles fills, and any buffer its reader
    asks for by name (`buffer`), made at the first such request.  Walks
    take them from one pool and give them back when they end
    (take_workspace, give_workspace), so a process faults a workspace's
    pages in once, not once a walk; a walk under one tile touches only its
    length of each buffer."""

    def __init__(self):
        self.z = np.empty(TILE, dtype=np.uint64)
        self.t = np.empty(TILE, dtype=np.uint64)
        self._named: dict[str, np.ndarray] = {}

    def buffer(self, name: str, dtype) -> np.ndarray:
        """The workspace's buffer `name` of `dtype`, kept for later walks."""
        b = self._named.get(name)
        if b is None or b.dtype != dtype:
            b = self._named[name] = np.empty(len(self.z), dtype=dtype)
        return b


# The workspaces of the walks that have ended, kept for the life of the
# process: as many as were ever live at once.  list.pop and list.append are
# atomic, so threads share it without a lock.
_POOL: list[Workspace] = []


def take_workspace() -> Workspace:
    """A workspace of the pool, or a new one; one whose size is not the
    current TILE is dropped."""
    while True:
        try:
            ws = _POOL.pop()
        except IndexError:
            return Workspace()
        if len(ws.z) == TILE:
            return ws


def give_workspace(ws: Workspace) -> None:
    """Back to the pool, unless TILE has changed since it was made."""
    if len(ws.z) == TILE:
        _POOL.append(ws)


_STRIDE = np.zeros(0, dtype=np.uint64)


def _stride(m: int) -> np.ndarray:
    """i M1 for i < m, read-only: a view of one table, rebuilt only when a
    walk needs more of it, at the next power of two, so a small walk's
    table stays small.  Two threads may both rebuild it; each slices the
    table it read or built, so either result is whole."""
    global _STRIDE
    s = _STRIDE
    if len(s) < m:
        s = np.arange(1 << (m - 1).bit_length(), dtype=np.uint64)
        np.multiply(s, _M1_U, s)
        s.flags.writeable = False
        _STRIDE = s
    return s[:m]


def mixed_tiles(seed: int, start: int, n: int, ws: Workspace, substream: int = 0):
    """The mixed states z of counters start, ..., start + n - 1 of
    `substream`, TILE at a time: an iterator of (lo, z) with z[i] the state
    of counter start + lo + i, the one `uniforms` draws (z >> 11) 2^-53 from.
    Consecutive counters' states before the mix are one stride i M1 apart,
    so a tile's is one add; z is ws.z, overwritten by the next tile, and
    ws.t the mix's scratch.  The seed is checked at the call; the tiles are
    mixed as the iterator is read, on whichever thread reads it.
    """
    offset = _offset(seed, substream)
    stride = _stride(min(n, TILE))

    def tiles():
        for lo in range(0, n, TILE):
            m = min(TILE, n - lo)
            z = ws.z[:m]
            first = np.array((offset + (start + lo) * _M1) & _MASK, dtype=np.uint64)
            np.add(stride[:m], first, z)
            _mix(z, ws.t[:m])
            yield lo, z

    return tiles()


def thresholds(cum) -> tuple[np.ndarray, ...]:
    """The uint64 thresholds of the boundaries in `cum` below 1, in order.

    For a state z and its uniform u = (z >> 11) 2^-53, u >= c exactly when
    z >= ceil(c 2^53) 2^11: z >> 11 is an integer, and c 2^53 is exact.  A
    boundary at or past 1 is never reached (u < 1) and has none; one at or
    below 0 is always reached, and has 0.  So the count of thresholds at or
    below z is the count of boundaries at or below u.  Each is a 0-d uint64
    array, so no numpy version compares it with z in float64.
    """
    return tuple(np.array(max(0, math.ceil(c * 2.0 ** 53)) << 11, dtype=np.uint64)
                 for c in np.asarray(cum, dtype=np.float64).tolist() if c < 1.0)
