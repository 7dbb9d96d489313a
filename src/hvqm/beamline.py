"""Sequential Stern-Gerlach beamlines with optional branch blocking.

A pure spin-1/2 beam is carried as its Bloch vector r, the direction its
spin points along; the branch s of axis n holds the share (1 + s n.r)/2 of
it.  A split device separates the beam into the two branches of its axis;
an unblocked split followed by a matching recombine leaves r as it was (no
projection happens), while a block absorbs one branch, multiplying the
survival weight by the kept branch's share and turning r into the kept
branch's axis.  The final device is an analyzer returning Born
probabilities on whatever survived.

Every Monte Carlo trial draws once per blocking stage and once for the
analyzer, a counter-based state compared with a share's rng.thresholds,
so event logs replay bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import SequenceError, ValidationError
from .logcodec import index_counts, suffix_of
from .spin import Direction, check_sign

AXIS_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class SGDevice:
    axis: Direction
    role: str                 # "split" | "recombine" | "analyze"
    block: int | None = None  # +1 blocks the + branch, -1 the - branch

    def __post_init__(self):
        if self.role not in ("split", "recombine", "analyze"):
            raise ValidationError(f"unknown device role {self.role!r}")
        if self.block is not None:
            if self.role != "split":
                raise ValidationError("blocking is only meaningful on split stages")
            if self.block not in (1, -1):
                raise ValidationError("block must be +1 or -1")


def split(axis: Direction, block: int | None = None) -> SGDevice:
    return SGDevice(axis, "split", block)


def recombine(axis: Direction) -> SGDevice:
    return SGDevice(axis, "recombine")


def analyze(axis: Direction) -> SGDevice:
    return SGDevice(axis, "analyze")


@dataclass(frozen=True)
class BeamState:
    """A pure spin state as its Bloch vector, plus a survival weight."""

    bloch: Direction
    survival: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.survival <= 1.0 + 1e-12:
            raise ValidationError("survival weight must lie in [0, 1]")

    @classmethod
    def eigenstate(cls, axis: Direction, s: int) -> "BeamState":
        """The s eigenstate of axis.sigma: Bloch vector s * axis."""
        return cls(axis if check_sign(s) == 1 else -axis)


@dataclass(frozen=True)
class SequenceResult:
    probabilities: dict[int, float] | None   # None when the beam is extinguished
    survival: float
    extinguished: bool
    stage_survivals: tuple[tuple[int, float], ...]  # (device index, conditional p)


def _share(c: float) -> float:
    """(1 + c)/2, the share of the branch whose axis has cosine c with the
    Bloch vector; two unit vectors' cosine can pass +/-1 by rounding, so
    the share is kept in [0, 1]."""
    return min(1.0, max(0.0, (1.0 + c) / 2))


def _axes_aligned(a: Direction, b: Direction) -> bool:
    return abs(abs(a.dot(b)) - 1.0) <= AXIS_MATCH_TOL


def run_sequence(devices: Sequence[SGDevice], beam: BeamState) -> SequenceResult:
    """Walk the device list analytically.

    Raises SequenceError for malformed lists: no analyzer at the end, a
    recombine without a matching preceding split, nested unblocked splits,
    or analyzing while the beam is still separated.
    """
    if not devices:
        raise SequenceError("empty device sequence")
    if devices[-1].role != "analyze":
        raise SequenceError("the final device must be an analyzer")
    if any(d.role == "analyze" for d in devices[:-1]):
        raise SequenceError("analyzer before the end of the sequence")

    r = beam.bloch
    survival = beam.survival
    stage_survivals: list[tuple[int, float]] = []
    separated = False                    # inside an unblocked split
    open_axis: Direction | None = None   # most recent split not yet recombined

    for idx, dev in enumerate(devices[:-1]):
        if dev.role == "split":
            if separated:
                raise SequenceError("split while the beam is already separated")
            open_axis = dev.axis
            if dev.block is None:
                separated = True
                continue
            p_keep = _share(-dev.block * dev.axis.dot(r))
            stage_survivals.append((idx, p_keep))
            survival *= p_keep
            if p_keep <= 0.0:
                return SequenceResult(None, 0.0, True, tuple(stage_survivals))
            r = -dev.axis if dev.block == 1 else dev.axis
        elif dev.role == "recombine":
            if open_axis is None:
                raise SequenceError("recombine without a matching split")
            if not _axes_aligned(dev.axis, open_axis):
                raise SequenceError(
                    "recombine axis does not match the open split axis")
            separated = False
            open_axis = None

    if separated:
        raise SequenceError("cannot analyze a beam that is still separated")
    c = devices[-1].axis.dot(r)
    return SequenceResult({1: _share(c), -1: _share(-c)}, survival,
                          False, tuple(stage_survivals))


@dataclass(frozen=True)
class TrialEvent:
    trial: int
    absorbed_at: int | None   # device index of the absorbing block, if any
    outcome: int | None       # analyzer outcome for surviving trials


def event_json(e: TrialEvent) -> str:
    return json.dumps({
        "trial": e.trial,
        "absorbed_at": e.absorbed_at,
        "outcome": e.outcome,
    }, separators=(",", ":"))


def event_suffixes(analytic: SequenceResult) -> tuple[bytes, ...]:
    """What follows '{"trial":N' in an event line, per event index: index
    j < S, with S = len(analytic.stage_survivals), is absorption at the
    j-th blocking stage, and S and S + 1 are survival with outcome +1 and
    -1."""
    events = [TrialEvent(0, idx, None) for idx, _ in analytic.stage_survivals]
    events += [TrialEvent(0, None, 1), TrialEvent(0, None, -1)]
    return tuple(suffix_of(event_json(e)) for e in events)


def monte_carlo_sequence(devices: Sequence[SGDevice], beam: BeamState,
                         trials: int, seed: int, start: int = 0,
                         analytic: SequenceResult | None = None) -> np.ndarray:
    """Per-trial stochastic walk; blocked branches absorb the particle.

    Returns the event index of trials start, start + 1, ..., into
    event_suffixes(analytic), in the smallest unsigned dtype that holds
    them; pass the analytic walk, whose stage shares the draws use, as
    `analytic` when it is already known.  Each stage draws for every trial
    from rng.mixed_tiles of its substream, in a pooled workspace: k starts
    at S, the analyzer writes S + 1 where the state is at or past
    rng.thresholds of P(+1), then each blocking stage, last first, its j
    where the state is at or past its kept share's, so a trial keeps the
    first stage that absorbs it.  sequence_counts walks a block at a time.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if analytic is None:
        analytic = run_sequence(devices, beam)   # also validates the sequence

    stages = len(analytic.stage_survivals)
    draws = [(len(devices) - 1, stages + 1, (analytic.probabilities or {1: 1.0})[1])]
    draws += [(idx, j, p) for j, (idx, p) in reversed(list(enumerate(analytic.stage_survivals)))]
    k = np.full(trials, stages, dtype=np.min_scalar_type(stages + 1))
    ws = rng.take_workspace()
    try:
        hit, keep = ws.buffer("above", np.bool_), ws.buffer("keep", k.dtype)
        for substream, event, share in draws:
            for t in rng.thresholds([share]):   # none at a share of 1: nothing written
                for lo, z in rng.mixed_tiles(seed, start, trials, ws, substream):
                    # k = event where hit: ((k ^ event) & (hit - 1)) ^ event, not a masked store
                    kt, m = k[lo:lo + len(z)], keep[:len(z)]
                    np.subtract(np.greater_equal(z, t, hit[:len(z)]), 1, m, dtype=k.dtype)
                    np.bitwise_and(np.bitwise_xor(kt, event, kt), m, kt)
                    np.bitwise_xor(kt, event, kt)
    finally:
        rng.give_workspace(ws)
    return k


def sequence_counts(devices: Sequence[SGDevice], beam: BeamState, trials: int, seed: int,
                    analytic: SequenceResult, on_block=None) -> np.ndarray:
    """Trials, survivors, and survivors with outcome +1 and -1 among trials
    0 .. trials - 1, drawn by monte_carlo_sequence one rng.TILE block at a
    time, so memory stays one block; `analytic` is run_sequence(devices,
    beam).  on_block(first, k, suffixes) gets each block: trial first + i's
    log line is '{"trial":N' + suffixes[k[i]], k valid only during the
    call."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    suffixes = event_suffixes(analytic)
    counts = np.zeros(len(suffixes), dtype=np.int64)
    for lo in range(0, trials, rng.TILE):
        k = monte_carlo_sequence(devices, beam, min(rng.TILE, trials - lo), seed,
                                 start=lo, analytic=analytic)
        if on_block is not None:
            on_block(lo, k, suffixes)
        counts += index_counts(k, len(suffixes))
        del k   # free the block before the next one is drawn
    plus, minus = counts[-2:]
    return np.array([trials, plus + minus, plus, minus], dtype=np.int64)


def survivor_statistics(counts) -> tuple[dict[int, float], float]:
    """(outcome distribution among survivors, survivor fraction) from
    sequence_counts; the distribution is empty when nothing survives."""
    trials, n_alive, n_plus, n_minus = (int(c) for c in counts)
    if n_alive == 0:
        return {}, 0.0
    return {1: n_plus / n_alive, -1: n_minus / n_alive}, n_alive / trials
