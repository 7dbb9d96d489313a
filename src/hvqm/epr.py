"""Singlet-pair ensembles, trial sampling, correlators and the CHSH harness.

A generated pair carries opposite hidden sign patterns: when Alice's
particle reads s at direction n, Bob's reads -s at the same direction.  The
joint outcome law for settings (n_a, n_b) is therefore the pair Born rule
with Bob's sign negated, |alpha n_a - beta n_b|^2 / 8:

    P(alpha, beta) = (1 - alpha beta n_a . n_b) / 4

Four interchangeable modes:

* born_analytic      -- expectation values straight from the law above
* born_sampling      -- per-trial draws of (alpha, beta) for the settings
                        actually chosen; only measured pairs are realized
* classical_lhv      -- draws a full sign pattern from a supplied positive
                        distribution, outcomes read off deterministically
* quasiprob_analytic -- correlators from the signed weight table; refuses
                        to sample (negative weights cannot be drawn from)

Randomness is counter-based: trial i uses uniforms(seed, i), so logs are
bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quasiprob, rng, shares
from .errors import NotSampleableError, ValidationError
from .logcodec import index_counts, suffix_of
from .spin import Direction, DirectionSet

LHV_SUM_TOL = 1e-12

# fixed outcome-pair order used by the inverse-CDF sampler and the logs
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ONE = np.array(1, dtype=np.int8)
# OUTCOME_PAIRS indices as 0-d operands
_ONE_U8, _TWO = (np.array(j, dtype=np.uint8) for j in (1, 2))


class Mode(Enum):
    BORN_ANALYTIC = "born_analytic"
    BORN_SAMPLING = "born_sampling"
    CLASSICAL_LHV = "classical_lhv"
    QUASIPROB_ANALYTIC = "quasiprob_analytic"

    @property
    def is_sampling(self) -> bool:
        return self in (Mode.BORN_SAMPLING, Mode.CLASSICAL_LHV)


@dataclass(frozen=True, eq=False)
class SingletEnsemble:
    """Direction set plus the statistical mode used to answer queries."""

    directions: DirectionSet
    mode: Mode
    lhv_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.mode is Mode.CLASSICAL_LHV:
            n = len(self.directions)
            w = self.lhv_weights
            if w is None or w.shape != (1 << n,):
                raise ValidationError(
                    f"classical mode needs {1 << n} pattern weights for N={n}")
            low = float(w.min())
            if not low >= 0:   # a NaN entry fails too
                raise ValidationError(
                    f"classical distribution entries must be >= 0, min {low!r}")
            if not abs(float(w.sum()) - 1.0) <= LHV_SUM_TOL:   # a NaN sum fails too
                raise ValidationError(
                    f"classical distribution sums to {float(w.sum())!r}, expected 1")
        elif self.lhv_weights is not None:
            raise ValidationError("lhv_weights only apply to classical_lhv mode")

    @functools.cached_property
    def _pattern_cuts(self) -> tuple[np.ndarray, np.ndarray]:
        """_cuts of the cumulative classical weights but the last (1 up to
        rounding), made once for every walk of the ensemble."""
        return _cuts(rng.thresholds(np.cumsum(self.lhv_weights)[:-1]))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    a_setting: int
    b_setting: int
    a_out: int
    b_out: int
    mode: str


def trial_record_json(rec: TrialRecord) -> str:
    """One JSONL line; key order is part of the log format."""
    return json.dumps({
        "trial": rec.trial,
        "a_setting": rec.a_setting,
        "b_setting": rec.b_setting,
        "a_out": rec.a_out,
        "b_out": rec.b_out,
        "mode": rec.mode,
    }, separators=(",", ":"))


@functools.lru_cache(maxsize=64)
def _record_suffixes(a_setting: int, b_setting: int, mode: str) -> tuple[bytes, ...]:
    """What follows '{"trial":N' in a log line, per outcome pair."""
    return tuple(suffix_of(trial_record_json(TrialRecord(0, a_setting, b_setting, a, b, mode)))
                 for a, b in OUTCOME_PAIRS)


def pair_joint_probability(n_a: Direction, n_b: Direction, alpha: int, beta: int) -> float:
    """(1 - alpha beta n_a . n_b) / 4: Bob carries the negated hidden sign.

    The Born rule on the pair amplitude alpha n_a - beta n_b, the pattern's
    signed sum over the two directions: |alpha n_a - beta n_b|^2 =
    2 (1 - alpha beta n_a . n_b), over the four outcome pairs' total of 8.
    """
    x = alpha * n_a.nx - beta * n_b.nx
    y = alpha * n_a.ny - beta * n_b.ny
    z = alpha * n_a.nz - beta * n_b.nz
    return (x * x + y * y + z * z) / 8.0


def joint_outcome_probs(n_a: Direction, n_b: Direction) -> np.ndarray:
    """The four joint probabilities in OUTCOME_PAIRS order.

    Negating both signs negates the pair amplitude exactly, so
    P(-alpha, -beta) is P(alpha, beta) to the bit and is not recomputed.
    """
    same, opposite = (pair_joint_probability(n_a, n_b, 1, beta) for beta in (1, -1))
    return np.array([same, opposite, opposite, same])


def _check_setting(e: SingletEnsemble, idx: int) -> Direction:
    if not 0 <= idx < len(e.directions):
        raise ValidationError(f"setting index {idx} out of range for N={len(e.directions)}")
    return e.directions[idx]


# a mixed state's bucket is its top byte
_BUCKET_SHIFT = np.array(56, dtype=np.uint64)
_BUCKET_FIRST = np.array([b << 56 for b in range(256)], dtype=np.uint64)
_BUCKET_LAST = _BUCKET_FIRST | np.array((1 << 56) - 1, dtype=np.uint64)


def _cuts(thresholds) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, table) for _by_bucket: the nondecreasing
    rng.thresholds as one uint64 array, and per bucket b the count of them
    at or below every state in it, or len(thresholds) + 1 where one of
    them falls inside the bucket."""
    t = np.array(thresholds, dtype=np.uint64)
    first, last = (np.searchsorted(t, edges, side="right")
                   for edges in (_BUCKET_FIRST, _BUCKET_LAST))
    table = np.where(first == last, first, len(t) + 1)
    return t, table.astype(np.min_scalar_type(len(t) + 1))


@functools.lru_cache(maxsize=256)
def _born_thresholds(n_a: Direction, n_b: Direction) -> tuple[np.ndarray, ...]:
    """rng.thresholds of the cumulative pair Born probabilities of one
    setting pair, in OUTCOME_PAIRS order, but the last (1 up to rounding,
    which every uniform is below).  Shared by every walk at the pair."""
    return rng.thresholds(np.cumsum(joint_outcome_probs(n_a, n_b))[:3])


def _signs(out: np.ndarray) -> None:
    """Turn an int8 array holding 1 where the outcome is -1, and 0 where it
    is +1, into the outcomes: 1 - 2 g as (-g) | 1."""
    np.negative(out, out)
    np.bitwise_or(out, _ONE, out)


def _at_or_below(z: np.ndarray, thresholds, k: np.ndarray, above: np.ndarray) -> None:
    """k[i] = the number of thresholds at or below z[i]; k is uint8,
    `above` bool scratch of z's length."""
    if not thresholds:
        k.fill(0)
        return
    np.greater_equal(z, thresholds[0], k.view(np.bool_))
    for t in thresholds[1:]:
        np.greater_equal(z, t, above)
        np.add(k, above, k)


def _by_bucket(z: np.ndarray, cuts, k: np.ndarray, bucket: np.ndarray) -> None:
    """k[i] = the number of the _cuts' thresholds at or below z[i], read
    from the table of z[i]'s bucket, and counted one by one only in a
    bucket a threshold falls inside; k has the table's dtype, `bucket` is
    uint64 scratch of z's length.  The fifteen uint64 compares of a
    four-direction pattern cost five times this a tile (6.5 us each over
    16 384 states, 2-vCPU Xeon); the three of a Born pair cost no more than
    it, so a Born pair compares (_at_or_below)."""
    thresholds, table = cuts
    np.right_shift(z, _BUCKET_SHIFT, bucket)
    np.take(table, bucket.view(np.int64), out=k, mode="clip")
    split = np.flatnonzero(k > len(thresholds))
    k[split] = np.searchsorted(thresholds, z[split], side="right")


def _pair_tiles(e: SingletEnsemble, pairs, seed: int, trials: int, start: int,
                lo: int, hi: int):
    """Outcome-pair indices of trials start + lo ... start + hi - 1 of the
    setting pairs' range, in which pair p takes trials start + p * trials
    onward.

    An iterator of (p, first, k) for each piece of a pair's range within
    one rng.TILE tile, tiles counted from lo: trial first + i drew
    OUTCOME_PAIRS[k[i]].  Each tile is mixed once whatever pairs it covers.
    The cumulative probabilities sum nonnegative terms, so they are
    nondecreasing, and every uniform u is below the last, 1; the
    inverse-CDF index searchsorted(cum, u, side="right") is then the count
    of the other boundaries at or below u, which is the count of their
    rng.thresholds at or below the tile's mixed state.  A Born pair
    compares its own three.  A classical pattern index counts the weights'
    boundaries, the same for every pair, once per tile, by the state's top
    byte (_by_bucket); bit i of it is s_i = +1, Bob carries the negated
    sign, and each pair reads its k off the pattern through a 2^N-entry
    table.  k is one buffer, overwritten by the next piece.  The settings
    and the seed are checked, the ensemble's cached thresholds made, and a
    workspace taken from rng's pool (rng.take_workspace) at the call: its
    z and t mix the tiles, and its k and above, or k, pattern and bucket
    for a classical walk, are the buffers here.  The tiles are drawn as the
    iterator is read, on whichever thread reads it, and the workspace goes
    back to the pool when the iterator is exhausted, closed or collected.
    """
    for ai, bi in pairs:
        _check_setting(e, ai)
        _check_setting(e, bi)
    if e.mode is Mode.BORN_SAMPLING:
        cuts = [_born_thresholds(e.directions[ai], e.directions[bi]) for ai, bi in pairs]
    elif e.mode is Mode.CLASSICAL_LHV:
        cuts = e._pattern_cuts
        patterns = np.arange(len(e.lhv_weights))
        tables = [(2 * (((patterns >> ai) & 1) == 0) + ((patterns >> bi) & 1)).astype(np.uint8)
                  for ai, bi in pairs]
    else:
        raise NotSampleableError(
            f"mode {e.mode.value} is analytic only; signed or implicit weights "
            "cannot be drawn from")
    ws = rng.take_workspace()
    k = ws.buffer("k", np.uint8)
    if e.mode is Mode.BORN_SAMPLING:
        above = ws.buffer("above", np.bool_)
    else:
        pattern = ws.buffer("pattern", cuts[1].dtype)
        bucket = ws.buffer("bucket", np.uint64)
    tiles = rng.mixed_tiles(seed, start + lo, hi - lo, ws)

    def pieces():
        try:
            for t, z in tiles:
                t += lo
                u = t + len(z)
                if e.mode is Mode.CLASSICAL_LHV:
                    _by_bucket(z, cuts, pattern[:len(z)], bucket[:len(z)])
                for p in range(t // trials, (u - 1) // trials + 1):
                    a, b = max(t, p * trials) - t, min(u, (p + 1) * trials) - t
                    if e.mode is Mode.BORN_SAMPLING:
                        _at_or_below(z[a:b], cuts[p], k[a:b], above[a:b])
                    else:
                        np.take(tables[p], pattern[a:b], out=k[a:b], mode="clip")
                    yield p, start + t + a, k[a:b]
        finally:
            rng.give_workspace(ws)

    return pieces()


def sample_trials(e: SingletEnsemble, a_idx: int, b_idx: int, seed: int,
                  n_trials: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Outcome arrays for trials [start, start + n_trials).

    Each trial is a pure function of (seed, index), so the range is drawn
    rng.TILE trials at a time, in shares across the usable CPUs
    (shares._in_shares), with every bit as a whole-range draw gives it.
    """
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    pairs = ((a_idx, b_idx),)
    a_out = np.empty(n_trials, dtype=np.int8)
    b_out = np.empty(n_trials, dtype=np.int8)

    def share(pieces):
        for _, first, k in pieces:
            lo = first - start
            a, b = a_out[lo:lo + len(k)], b_out[lo:lo + len(k)]
            np.greater_equal(k, _TWO, a.view(np.bool_))   # k >= 2: a_out = -1
            np.bitwise_and(k, _ONE_U8, b.view(np.uint8))   # k odd: b_out = -1
            _signs(a)
            _signs(b)

    shares._in_shares(n_trials, rng.TILE,
                      lambda lo, hi: _pair_tiles(e, pairs, seed, n_trials, start, lo, hi),
                      share)
    return a_out, b_out


def pair_counts(e: SingletEnsemble, pairs, seed: int | None, trials: int,
                on_block=None) -> np.ndarray:
    """Outcome-pair counts, one row per setting pair; pair p takes trials
    p * trials onward.  They are drawn and counted one rng.TILE tile at a
    time, so memory stays one tile a share; on_block(first, k, suffixes)
    gets each piece of a pair's range within a tile, in trial order, from
    one walk on the calling thread: trial first + i's log line is
    '{"trial":N' + suffixes[k[i]], its outcome pair OUTCOME_PAIRS[k[i]],
    k valid only during the call.  Without on_block the range is counted in
    shares across the usable CPUs (shares._in_shares), and their counts
    summed."""
    if seed is None:
        raise ValidationError("sampling requires a seed")
    if trials < 1:
        raise ValidationError("trials must be >= 1")

    def share(pieces):
        counts = np.zeros((len(pairs), 4), dtype=np.int64)
        for p, first, k in pieces:
            if on_block is not None:
                on_block(first, k, _record_suffixes(*pairs[p], e.mode.value))
            counts[p] += index_counts(k, len(OUTCOME_PAIRS))
        return counts

    return functools.reduce(np.add, shares._in_shares(
        len(pairs) * trials, rng.TILE,
        lambda lo, hi: _pair_tiles(e, pairs, seed, trials, 0, lo, hi),
        share, ordered=on_block is not None))


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    stderr: float | None = None   # None for analytic modes
    trials: int | None = None


def _analytic_correlators(e: SingletEnsemble, pairs) -> list[float]:
    """Exact E(a, b) of each setting pair; a signed or classical table is
    solved or read once for all of them."""
    if e.mode is Mode.BORN_ANALYTIC:
        return [sum(a * b * pair_joint_probability(e.directions[ai], e.directions[bi], a, b)
                    for a, b in OUTCOME_PAIRS) for ai, bi in pairs]
    if e.mode is Mode.QUASIPROB_ANALYTIC:
        weights = quasiprob.solve_weights(e.directions).weights
    elif e.mode is Mode.CLASSICAL_LHV:
        weights = e.lhv_weights
    else:
        raise ValidationError(f"no analytic correlator for mode {e.mode.value}")
    # Bob carries the negated sign: E(a, b) = sum_k -s_a s_b w_k, and
    # s_a s_b = -1 where bits a and b of pattern k differ; fsum is
    # correctly rounded, so no kernel's summation order shows in the bits
    weights = weights.tolist()
    return [math.fsum(w if ((k >> ai) ^ (k >> bi)) & 1 else -w for k, w in enumerate(weights))
            for ai, bi in pairs]


def correlation(e: SingletEnsemble, a_idx: int, b_idx: int,
                trials: int | None = None, seed: int | None = None) -> CorrelationEstimate:
    """E(a, b).  Analytic modes are exact; sampling modes need trials+seed
    and draw trials 0 .. trials - 1."""
    _check_setting(e, a_idx)
    _check_setting(e, b_idx)
    if trials is None:
        return CorrelationEstimate(_analytic_correlators(e, [(a_idx, b_idx)])[0])
    return pair_estimate(pair_counts(e, [(a_idx, b_idx)], seed, trials)[0])


def pair_estimate(counts) -> CorrelationEstimate:
    """E(a, b), the mean of a_out * b_out, and its stderr from one setting
    pair's outcome-pair counts in OUTCOME_PAIRS order.  Exact integer sums
    make E equal, bit for bit, to the float mean of the products."""
    pp, pm, mp, mm = (int(c) for c in counts)
    trials = pp + pm + mp + mm
    value = (pp - pm - mp + mm) / trials
    return CorrelationEstimate(value, math.sqrt(max(0.0, 1.0 - value * value) / trials), trials)


# CHSH setting-pair order: (alice index, bob index) into a 4-direction set
# laid out as [a1, a2, b1, b2]
CHSH_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))


@dataclass(frozen=True)
class CHSHResult:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)."""

    correlators: dict[tuple[int, int], float]
    s: float
    stderrs: dict[tuple[int, int], float] | None
    s_stderr: float | None
    trials_per_correlator: int | None
    mode: str


def chsh_ensemble(mode: Mode, a1: Direction, a2: Direction,
                  b1: Direction, b2: Direction,
                  lhv_weights: np.ndarray | None = None) -> SingletEnsemble:
    return SingletEnsemble(DirectionSet.of(a1, a2, b1, b2), mode, lhv_weights)


def chsh(e: SingletEnsemble, trials: int | None = None,
         seed: int | None = None) -> CHSHResult:
    """Combine the four correlators of a 4-direction ensemble into S.

    The sampled correlators take disjoint trial ranges, as pair_counts lays
    them out, so a full run replays from (seed, trials) alone.
    """
    if len(e.directions) != 4:
        raise ValidationError("CHSH needs exactly four directions [a1, a2, b1, b2]")
    if trials is None:
        correlators = dict(zip(CHSH_PAIRS, _analytic_correlators(e, CHSH_PAIRS)))
        return CHSHResult(correlators, chsh_s(correlators.values()), None, None, None,
                          e.mode.value)
    return chsh_estimate(pair_counts(e, CHSH_PAIRS, seed, trials), e.mode.value)


def chsh_estimate(counts, mode: str) -> CHSHResult:
    """S and its stderr from the outcome-pair counts of the CHSH_PAIRS, one
    row per pair, each pair_estimate'd."""
    estimates = [pair_estimate(c) for c in counts]
    values, stderrs = [x.value for x in estimates], [x.stderr for x in estimates]
    return CHSHResult(dict(zip(CHSH_PAIRS, values)), chsh_s(values),
                      dict(zip(CHSH_PAIRS, stderrs)), math.sqrt(sum(v * v for v in stderrs)),
                      estimates[0].trials, mode)


def chsh_s(correlators) -> float:
    """S from the four correlators in CHSH_PAIRS order."""
    e11, e12, e21, e22 = correlators
    return e11 + e12 + e21 - e22


def tsirelson_settings() -> tuple[Direction, Direction, Direction, Direction]:
    """Planar settings reaching |S| = 2 sqrt(2) with this S combination.

    Angles: a1 = pi/2, a2 = 0, b1 = pi/4, b2 = 3 pi/4.
    """
    return (Direction.from_planar_angle(math.pi / 2),
            Direction.from_planar_angle(0.0),
            Direction.from_planar_angle(math.pi / 4),
            Direction.from_planar_angle(3 * math.pi / 4))

