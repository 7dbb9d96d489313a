"""Singlet-pair ensembles, trial sampling, correlators and the CHSH harness.

A generated pair carries opposite hidden sign patterns: when Alice's
particle reads s at direction n, Bob's reads -s at the same direction.  The
joint outcome law for settings (n_a, n_b) is therefore the pair Born rule
with Bob's sign negated:

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

from . import quasiprob, rng
from .errors import NotSampleableError, ValidationError
from .logcodec import join_lines, suffix_of
from .spin import Direction, DirectionSet, born_pair_probability, sign_matrix

LHV_SUM_TOL = 1e-12

# fixed outcome-pair order used by the inverse-CDF sampler and the logs
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ONE = np.array(1, dtype=np.int8)


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
            if np.any(w < 0):
                raise ValidationError("classical distribution entries must be >= 0")
            if abs(float(w.sum()) - 1.0) > LHV_SUM_TOL:
                raise ValidationError(
                    f"classical distribution sums to {float(w.sum())!r}, expected 1")
        elif self.lhv_weights is not None:
            raise ValidationError("lhv_weights only apply to classical_lhv mode")


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


def outcome_counts(a_out: np.ndarray, b_out: np.ndarray) -> np.ndarray:
    """Trials per outcome pair, in OUTCOME_PAIRS order."""
    a_neg, b_neg = a_out < 0, b_out < 0
    na, nb = np.count_nonzero(a_neg), np.count_nonzero(b_neg)
    mm = np.count_nonzero(a_neg & b_neg)
    return np.array([len(a_neg) - na - nb + mm, nb - mm, na - mm, mm], dtype=np.int64)


@functools.lru_cache(maxsize=64)
def _record_suffixes(a_setting: int, b_setting: int, mode: str) -> tuple[bytes, ...]:
    """What follows '{"trial":N' in a log line, per outcome pair."""
    return tuple(suffix_of(trial_record_json(TrialRecord(0, a_setting, b_setting, a, b, mode)))
                 for a, b in OUTCOME_PAIRS)


def encode_block(start: int, a_out: np.ndarray, b_out: np.ndarray,
                 a_setting: int, b_setting: int, mode: str) -> bytes:
    """Log lines of trials start, start + 1, ... at one setting pair.

    Byte for byte the trial_record_json lines, each ended by a newline.
    """
    k = 2 * (np.asarray(a_out) < 0) + (np.asarray(b_out) < 0)   # OUTCOME_PAIRS position
    return join_lines(start, k, _record_suffixes(a_setting, b_setting, mode))


def pair_joint_probability(n_a: Direction, n_b: Direction, alpha: int, beta: int) -> float:
    """(1 - alpha beta n_a . n_b) / 4: Bob carries the negated hidden sign."""
    return born_pair_probability(alpha, -beta, n_a, n_b)


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


@functools.lru_cache(maxsize=256)
def _born_cdf(n_a: Direction, n_b: Direction) -> np.ndarray:
    """Cumulative pair Born probabilities of one setting pair, in
    OUTCOME_PAIRS order.  Shared by every block drawn at the pair, so
    read-only."""
    cum = np.cumsum(joint_outcome_probs(n_a, n_b))
    cum[-1] = 1.0  # guard the last inverse-CDF boundary against rounding
    cum.flags.writeable = False
    return cum


def _sampling_cdf(e: SingletEnsemble, a_idx: int, b_idx: int) -> np.ndarray:
    if e.mode is Mode.BORN_SAMPLING:
        return _born_cdf(e.directions[a_idx], e.directions[b_idx])
    if e.mode is not Mode.CLASSICAL_LHV:
        raise NotSampleableError(
            f"mode {e.mode.value} is analytic only; signed or implicit weights "
            "cannot be drawn from")
    cum = np.cumsum(e.lhv_weights)
    cum[-1] = 1.0
    return cum


def _signs(a_out: np.ndarray, b_out: np.ndarray) -> None:
    """Turn int8 arrays holding 1 where the outcome is -1, and 0 where it is
    +1, into the outcomes: 1 - 2 g as (-g) | 1."""
    for out in (a_out, b_out):
        np.negative(out, out)
        np.bitwise_or(out, _ONE, out)


def _born_outcomes(u: np.ndarray, cum: np.ndarray, a_out: np.ndarray, b_out: np.ndarray,
                   above: np.ndarray) -> None:
    """Born outcomes of uniforms u into the int8 arrays a_out and b_out.

    Pair k of OUTCOME_PAIRS has a_out = -1 for k >= 2 and b_out = -1 for odd
    k.  cum[:3] sums nonnegative probabilities, so it is nondecreasing, and
    every u is below cum[3] = 1 (and below cum[2] where rounding put it past
    1).  The inverse-CDF index k = searchsorted(cum, u, side="right") is
    then the count of [u >= cum[0]], [u >= cum[1]] and [u >= cum[2]], so
    a_out is 1 - 2 [u >= cum[1]] and b_out is 1 - 2 (k mod 2), the parity
    being the xor of the three.  `above` is bool scratch of u's length.
    """
    c0, c1, c2 = cum[:3].tolist()
    a_neg, b_neg = a_out.view(np.bool_), b_out.view(np.bool_)
    np.greater_equal(u, c1, a_neg)
    np.greater_equal(u, c0, b_neg)
    np.greater_equal(u, c2, above)
    np.not_equal(b_neg, a_neg, b_neg)
    np.not_equal(b_neg, above, b_neg)
    _signs(a_out, b_out)


def _lhv_outcomes(u: np.ndarray, cum: np.ndarray, a_idx: int, b_idx: int,
                  a_out: np.ndarray, b_out: np.ndarray, above: np.ndarray) -> None:
    """Outcomes read off the sign pattern each uniform draws: bit i of the
    pattern index is s_i = +1, and Bob carries the negated sign.

    The weights are nonnegative, so cum is nondecreasing and the pattern
    index searchsorted(cum, u, side="right") is the count of the boundaries
    cum[:-1] at or below u (u < 1 = cum[-1]).  `above` is bool scratch of
    u's length.  The signs are bits of k: a take from int8 sign_matrix
    columns took 7.1-8.0 against 5.2-5.8 ms per 1M trials (2-vCPU Xeon).
    """
    k = np.zeros(len(u), dtype=np.min_scalar_type(len(cum) - 1))
    for c in cum[:-1].tolist():
        np.greater_equal(u, c, above)
        k += above
    np.equal((k >> a_idx) & 1, 0, a_out.view(np.bool_))
    np.equal((k >> b_idx) & 1, 1, b_out.view(np.bool_))
    _signs(a_out, b_out)


def sample_trial(e: SingletEnsemble, a_idx: int, b_idx: int,
                 seed: int, trial: int) -> TrialRecord:
    """Draw a single trial; bit-identical to the batched path."""
    a, b = sample_trials(e, a_idx, b_idx, seed, 1, trial)
    return TrialRecord(trial, a_idx, b_idx, int(a[0]), int(b[0]), e.mode.value)


def sample_trials(e: SingletEnsemble, a_idx: int, b_idx: int, seed: int,
                  n_trials: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Outcome arrays for trials [start, start + n_trials).

    Each trial is a pure function of (seed, index), so the range is drawn
    rng.TILE trials at a time, uniforms and outcomes of a tile together,
    with every bit as a whole-range draw gives it.
    """
    _check_setting(e, a_idx)
    _check_setting(e, b_idx)
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    cum = _sampling_cdf(e, a_idx, b_idx)
    a_out = np.empty(n_trials, dtype=np.int8)
    b_out = np.empty(n_trials, dtype=np.int8)
    size = min(n_trials, rng.TILE)
    u = np.empty(size)
    counters = np.arange(start, start + size, dtype=np.uint64)
    above = np.empty(size, dtype=np.bool_)
    for lo in range(0, n_trials, rng.TILE):
        m = min(rng.TILE, n_trials - lo)
        rng.uniforms(seed, counters[:m], out=u[:m])
        if e.mode is Mode.BORN_SAMPLING:
            _born_outcomes(u[:m], cum, a_out[lo:lo + m], b_out[lo:lo + m], above[:m])
        else:
            _lhv_outcomes(u[:m], cum, a_idx, b_idx, a_out[lo:lo + m], b_out[lo:lo + m],
                          above[:m])
        counters += np.uint64(rng.TILE)
    return a_out, b_out


def pair_counts(e: SingletEnsemble, pairs, seed: int | None, trials: int,
                on_block=None) -> np.ndarray:
    """Outcome-pair counts, one row per setting pair; pair p takes trials
    p * trials onward.  They are drawn and counted one rng.TILE block at a
    time, so memory stays one block; on_block(first, a_out, b_out, ai, bi)
    gets each block."""
    if seed is None:
        raise ValidationError("sampling requires a seed")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    counts = np.zeros((len(pairs), 4), dtype=np.int64)
    for p, (ai, bi) in enumerate(pairs):
        for lo in range(0, trials, rng.TILE):
            first = p * trials + lo
            a_out, b_out = sample_trials(e, ai, bi, seed, min(rng.TILE, trials - lo), first)
            if on_block is not None:
                on_block(first, a_out, b_out, ai, bi)
            counts[p] += outcome_counts(a_out, b_out)
    return counts


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
    # Bob carries the negated sign: E(a, b) = sum_k -s_a s_b w_k
    signs = sign_matrix(len(e.directions))
    return [float(-(signs[:, ai] * signs[:, bi]) @ weights) for ai, bi in pairs]


def correlation(e: SingletEnsemble, a_idx: int, b_idx: int,
                trials: int | None = None, seed: int | None = None) -> CorrelationEstimate:
    """E(a, b).  Analytic modes are exact; sampling modes need trials+seed
    and draw trials 0 .. trials - 1."""
    _check_setting(e, a_idx)
    _check_setting(e, b_idx)
    if trials is None:
        return CorrelationEstimate(_analytic_correlators(e, [(a_idx, b_idx)])[0])
    value = correlator(pair_counts(e, [(a_idx, b_idx)], seed, trials)[0])
    return CorrelationEstimate(value, correlator_stderr(value, trials), trials)


def correlator(counts) -> float:
    """Mean of a_out * b_out over trials counted in OUTCOME_PAIRS order.

    Exact integer sums make this equal, bit for bit, to the float mean of
    the products.
    """
    pp, pm, mp, mm = (int(c) for c in counts)
    return (pp - pm - mp + mm) / (pp + pm + mp + mm)


def correlator_stderr(value: float, trials: int) -> float:
    return math.sqrt(max(0.0, 1.0 - value * value) / trials)


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
    values = [correlator(c) for c in pair_counts(e, CHSH_PAIRS, seed, trials)]
    stderrs = [correlator_stderr(v, trials) for v in values]
    return CHSHResult(dict(zip(CHSH_PAIRS, values)), chsh_s(values),
                      dict(zip(CHSH_PAIRS, stderrs)), chsh_s_stderr(stderrs), trials,
                      e.mode.value)


def chsh_s(correlators) -> float:
    """S from the four correlators in CHSH_PAIRS order."""
    e11, e12, e21, e22 = correlators
    return e11 + e12 + e21 - e22


def chsh_s_stderr(stderrs) -> float:
    return math.sqrt(sum(v * v for v in stderrs))


def tsirelson_settings() -> tuple[Direction, Direction, Direction, Direction]:
    """Planar settings reaching |S| = 2 sqrt(2) with this S combination.

    Angles: a1 = pi/2, a2 = 0, b1 = pi/4, b2 = 3 pi/4.
    """
    return (Direction.from_planar_angle(math.pi / 2),
            Direction.from_planar_angle(0.0),
            Direction.from_planar_angle(math.pi / 4),
            Direction.from_planar_angle(3 * math.pi / 4))


def conditional_update(e: SingletEnsemble, a_idx: int, alpha: int,
                       b_idx: int) -> dict[int, float]:
    """Bob's predictive table given Alice's observed outcome.

    P(beta | alpha) = (1 - alpha beta n_a . n_b) / 2.  This is a filter on
    the recorded information: Bob's unconditional marginal stays (1/2, 1/2).
    """
    if e.mode not in (Mode.BORN_ANALYTIC, Mode.BORN_SAMPLING):
        raise ValidationError("conditional update is defined for Born modes")
    n_a = _check_setting(e, a_idx)
    n_b = _check_setting(e, b_idx)
    if alpha not in (1, -1):
        raise ValidationError("alpha must be +1 or -1")
    joint = {beta: pair_joint_probability(n_a, n_b, alpha, beta) for beta in (1, -1)}
    total = joint[1] + joint[-1]
    return {beta: joint[beta] / total for beta in (1, -1)}


def bob_marginal(e: SingletEnsemble, a_idx: int, b_idx: int) -> dict[int, float]:
    """Bob's outcome distribution with Alice's outcome summed out.

    Exactly (1/2, 1/2) for every setting pair: the no-signaling surface.
    """
    n_a = _check_setting(e, a_idx)
    n_b = _check_setting(e, b_idx)
    return {beta: sum(pair_joint_probability(n_a, n_b, alpha, beta)
                      for alpha in (1, -1))
            for beta in (1, -1)}
