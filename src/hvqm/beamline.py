"""Sequential Stern-Gerlach beamlines with optional branch blocking.

A pure spin-1/2 beam is carried as its Bloch vector r, the direction its
spin points along; the branch s of axis n holds the share (1 + s n.r)/2 of
it.  A split device separates the beam into the two branches of its axis;
an unblocked split followed by a matching recombine leaves r as it was (no
projection happens), while a block absorbs one branch, multiplying the
survival weight by the kept branch's share and turning r into the kept
branch's axis.  The final device is an analyzer returning Born
probabilities on whatever survived.

Monte Carlo trials draw one uniform per blocked stage they reach plus one
for the analyzer if they survive, all counter-based, so event logs replay
bit-identically.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import SequenceError, ValidationError
from .logcodec import join_lines, suffix_of
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

    @classmethod
    def plus_x(cls) -> "BeamState":
        return cls(Direction(1.0, 0.0, 0.0))

    @classmethod
    def plus_z(cls) -> "BeamState":
        return cls(Direction(0.0, 0.0, 1.0))


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


@functools.lru_cache(maxsize=256)
def _event_suffix(absorbed_at: int, outcome: int) -> bytes:
    """What follows '{"trial":N' in an event line; -1 and 0 stand for null."""
    return suffix_of(event_json(TrialEvent(0, absorbed_at if absorbed_at >= 0 else None,
                                           outcome if outcome else None)))


def encode_events(start: int, absorbed_at: np.ndarray, outcome: np.ndarray) -> bytes:
    """Event lines of trials start, start + 1, ...: byte for byte the
    event_json lines, each ended by a newline.  absorbed_at is -1 and
    outcome 0 where the event has none."""
    codes = ((np.asarray(absorbed_at, dtype=np.int64) + 1) * 3
             + np.asarray(outcome, dtype=np.int64) + 1)
    # the codes are small: a count of each ranks the ones present in
    # ascending order without sorting the block
    present = np.bincount(codes) > 0
    rank = np.cumsum(present) - 1
    return join_lines(start, rank[codes],
                      [_event_suffix(int(c) // 3 - 1, int(c) % 3 - 1)
                       for c in np.flatnonzero(present)])


@dataclass(frozen=True, eq=False)
class Events:
    """Event log of trials start, start + 1, ... as arrays: absorbed_at is
    -1 and outcome 0 where the event has none.  Iterating gives TrialEvents;
    `counts` is their event_counts, computed on first use."""

    start: int
    absorbed_at: np.ndarray
    outcome: np.ndarray

    def __iter__(self):
        return (TrialEvent(self.start + i, x if x >= 0 else None, o if o else None)
                for i, (x, o) in enumerate(zip(self.absorbed_at.tolist(),
                                               self.outcome.tolist())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        return (self.start == other.start
                and np.array_equal(self.absorbed_at, other.absorbed_at)
                and np.array_equal(self.outcome, other.outcome))

    __hash__ = None

    def encode(self) -> bytes:
        return encode_events(self.start, self.absorbed_at, self.outcome)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        return event_counts(self.absorbed_at, self.outcome)


def monte_carlo_sequence(devices: Sequence[SGDevice], beam: BeamState,
                         trials: int, seed: int, start: int = 0,
                         analytic: SequenceResult | None = None
                         ) -> tuple[dict[int, float], float, Events]:
    """Per-trial stochastic walk; blocked branches absorb the particle.

    Returns (empirical outcome distribution among survivors, survivor
    fraction, event log).  Stage thresholds come from the analytic walk,
    since the conditional state is deterministic given survival; pass it
    as `analytic` when it is already known.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if analytic is None:
        analytic = run_sequence(devices, beam)   # also validates the sequence

    # each stage draws only for the trials still alive at it: a draw is a pure
    # function of (seed, counter, substream), so skipping the others changes
    # no event
    live = np.arange(trials)
    absorbed_at = np.full(trials, -1, dtype=np.int64)
    for idx, p_keep in analytic.stage_survivals:
        hit = rng.uniforms(seed, live + start, substream=idx) >= p_keep
        absorbed_at[live[hit]] = idx
        live = live[~hit]

    outcome = np.zeros(trials, dtype=np.int64)
    if analytic.probabilities is not None and live.size:
        u = rng.uniforms(seed, live + start, substream=len(devices) - 1)
        outcome[live] = np.where(u < analytic.probabilities[1], 1, -1)

    events = Events(start, absorbed_at, outcome)
    dist, fraction = survivor_statistics(events.counts)
    return dist, fraction, events


def event_counts(absorbed_at: np.ndarray, outcome: np.ndarray) -> np.ndarray:
    """Trials, survivors, and survivors with outcome +1 and -1."""
    alive = absorbed_at < 0
    return np.array([len(alive), np.count_nonzero(alive),
                     np.count_nonzero(alive & (outcome == 1)),
                     np.count_nonzero(alive & (outcome == -1))], dtype=np.int64)


def survivor_statistics(counts) -> tuple[dict[int, float], float]:
    """(outcome distribution among survivors, survivor fraction) from
    event_counts; the distribution is empty when nothing survives."""
    trials, n_alive, n_plus, n_minus = (int(c) for c in counts)
    if n_alive == 0:
        return {}, 0.0
    return {1: n_plus / n_alive, -1: n_minus / n_alive}, n_alive / trials
