import math
import threading

import numpy as np
import pytest
from hypothesis import strategies as st

from hvqm import shares
from hvqm.beamline import TrialEvent
from hvqm.epr import (OUTCOME_PAIRS, SingletEnsemble, TrialRecord, joint_outcome_probs,
                      sample_trials)
from hvqm.errors import ValidationError
from hvqm.interference import _cis_planes, _rotate, cis, pair_tables
from hvqm.pathint import _hole_region_amplitude
from hvqm.phasespace import MomentumFunction, WaveFunction, _centred
from hvqm.spin import Direction, DirectionSet, check_sign, pattern_from_index, signed_sums

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi,
                   allow_nan=False, allow_infinity=False)

signs = st.sampled_from([1, -1])


class _CountedThread(threading.Thread):
    """threading.Thread that counts the threads started."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture
def on_cpus(monkeypatch):
    """on_cpus(n) makes the unlogged walks and the grid kernels see n usable
    CPUs; _CountedThread.started then counts the threads they start."""
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", 0)
    return lambda n: monkeypatch.setattr(shares, "_usable_cpus", lambda: n)


@st.composite
def directions(draw):
    """Uniform-ish unit vectors via (cos polar, azimuth)."""
    u = draw(st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False))
    phi = draw(angles)
    s = math.sqrt(max(0.0, 1.0 - u * u))
    return Direction.normalized(s * math.cos(phi), s * math.sin(phi), u)


def random_directions(n):
    """N fixed 3-D directions, none of them planar."""
    rng = np.random.default_rng(1000 + n)
    return DirectionSet(tuple(Direction.normalized(*rng.normal(size=3)) for _ in range(n)))


def pair_marginal_probability(s_i: int, s_j: int, theta_i: float, theta_j: float) -> float:
    """Planar pairwise law (1 + s_i s_j cos(theta_j - theta_i)) / 4."""
    return 0.25 * (1.0 + s_i * s_j * math.cos(theta_j - theta_i))


def quaternion_pair_probability(s1: int, s2: int, n1: Direction, n2: Direction) -> float:
    """The pair Born rule by the quaternion route: the elementary amplitudes
    s (n_x I + n_y J + n_z K) of the two directions summed component by
    component, then |q|^2 / 8 as w^2 + x^2 + y^2 + z^2."""
    q1 = (0.0, s1 * n1.nx, s1 * n1.ny, s1 * n1.nz)
    q2 = (0.0, s2 * n2.nx, s2 * n2.ny, s2 * n2.nz)
    w, x, y, z = (a + b for a, b in zip(q1, q2))
    return (w * w + x * x + y * y + z * z) / 8.0


def joint_outcomes(n_a: Direction, n_b: Direction) -> dict[tuple[int, int], float]:
    """epr.joint_outcome_probs keyed by the outcome pair (alpha, beta)."""
    return dict(zip(OUTCOME_PAIRS, joint_outcome_probs(n_a, n_b)))


def planar_amplitudes(angles) -> np.ndarray:
    """Complex backend: row k = sum_j s_j e^{i theta_j}, s = pattern_from_index(k, N)."""
    return signed_sums(cis(np.array(angles, dtype=float)))


def pair_cells(angles, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum-then-square and square-then-sum 2x2 tables of (s_i, s_j) for
    planar directions at `angles`, each normalized; position 0 on an axis
    is s = -1.  The completions sharing (s_i, s_j) are the alternatives."""
    n = len(angles)
    amps = planar_amplitudes(angles).reshape((2,) * n)
    cells = np.moveaxis(amps, (n - 1 - i, n - 1 - j), (0, 1)).reshape(2, 2, -1)
    return pair_tables(cells)


def born_pair_marginal(angles, i: int, j: int) -> dict[tuple[int, int], float]:
    """Oracle: the Born pair law by sum-then-square over the unobserved
    indices, keyed by (s_i, s_j); (1 + s_i s_j cos(theta_j - theta_i)) / 4."""
    coherent = pair_cells(angles, i, j)[0]
    return {(si, sj): float(coherent[(si + 1) // 2, (sj + 1) // 2])
            for si in (1, -1) for sj in (1, -1)}


def interference_gap(angles, i: int, j: int) -> float:
    """Max difference between the sum-then-square and square-then-sum
    pair tables: the cross terms of the coherent sum."""
    coherent, incoherent = pair_cells(angles, i, j)
    return float(np.abs(coherent - incoherent).max())


def radix2_fft(x: np.ndarray, sign: float) -> np.ndarray:
    """The bit oracle of interference._fft: the same radix-2 Stockham
    passes in x's own layout, batch outermost, each pass's turns built on
    their own as cos and sin of sign pi j / n.  Column t of the (n, c)
    view holds the n-point DFT of x[t::c] after the pass that reaches
    length n.  x is overwritten."""
    *lead, size = x.shape
    src, dst = x.reshape(*lead, 1, size), None
    n = 1
    while n < size:
        c = size // (2 * n)
        src = src.reshape(*lead, n, 2 * c)
        even, odd = src[..., :c], src[..., c:]
        if n > 1:
            _rotate(odd, _cis_planes(sign * math.pi / n * np.arange(n))[..., None])
        if dst is None:
            dst = np.empty_like(src)
        out = dst.reshape(*lead, 2, n, c)
        np.add(even, odd, out=out[..., 0, :, :])
        np.subtract(even, odd, out=out[..., 1, :, :])
        src, dst = out, src
        n *= 2
    return src.reshape(x.shape)


def flatnonzero_first_diff_line(want: bytes, got: bytes) -> int:
    """The oracle of runner._first_diff_line: every differing byte's index
    by flatnonzero, then the line of the first."""
    m = min(len(want), len(got))
    diff = np.flatnonzero(np.frombuffer(want, dtype=np.uint8, count=m)
                          != np.frombuffer(got, dtype=np.uint8, count=m))
    return want.count(b"\n", 0, int(diff[0]) if len(diff) else m)


def centred_grid(m: int, step: float) -> np.ndarray:
    """The lattice (j - M/2) step, j = 0 .. M-1: the r_j of a wavefunction
    for step dr, the p_k of a momentum function for step dp."""
    return (np.arange(m) - m // 2) * step


def from_momentum(mf: MomentumFunction) -> WaveFunction:
    """Inverse of phasespace.to_momentum on the matching position grid."""
    dr = 2.0 * math.pi * mf.hbar / (mf.m * mf.dp)
    psi = _centred(np.fft.ifft, mf.values, mf.dp * mf.m / math.sqrt(2.0 * math.pi * mf.hbar))
    return WaveFunction(psi, dr, mf.hbar)


def pattern_cells(values: np.ndarray, n: int, idx) -> np.ndarray:
    """Oracle of quasiprob's marginals: sums of a 2^n table over every
    index not in `idx`, one multi-axis reduction.

    Axis p of the result is index idx[p]; position 0 on it is s = -1 and
    position 1 is s = +1.  Row k of the table is pattern_from_index(k, n),
    so the table reshapes to blocks of free indices between the kept ones,
    most significant first; the free blocks are summed away, the leading
    one first because it is the largest contiguous reduction.
    """
    kept = sorted(idx, reverse=True)
    shape, edge = [], n
    for i in kept:
        shape += [1 << (edge - 1 - i), 2]
        edge = i
    shape.append(1 << edge)
    cells = np.asarray(values).reshape(shape).sum(axis=0)
    cells = cells.sum(axis=tuple(range(1, len(shape) - 1, 2)))
    return cells.transpose([kept.index(i) for i in idx])


def sign_keyed(cells: np.ndarray) -> dict[tuple[int, ...], float]:
    """Cells with position 0 = sign -1 on each axis, keyed by sign tuples in
    pattern-integer order, one pattern_from_index call per cell."""
    keys = (pattern_from_index(k, cells.ndim) for k in range(1 << cells.ndim))
    return {p: float(cells[tuple((s + 1) // 2 for s in p)]) for p in keys}


def pair_law_residual(dirs: DirectionSet, weights: np.ndarray) -> float:
    """Oracle of check_pair_law: the largest |total - 1| and
    |cell - (1 + s_i s_j n_i . n_j) / 4|, one pattern_cells reduction per
    pair i < j."""
    n = len(dirs)
    worst = abs(float(np.sum(weights)) - 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            c = dirs[i].dot(dirs[j])
            # position 0 on each axis is s = -1, so s_i s_j is + on the diagonal
            want = 0.25 * (1.0 + np.array([[c, -c], [-c, c]]))
            worst = max(worst, float(np.abs(pattern_cells(weights, n, (i, j)) - want).max()))
    return worst


def check_pattern(pattern, n: int) -> tuple[int, ...]:
    """The signs of a sign pattern of n directions, checked."""
    if len(pattern) != n:
        raise ValidationError(
            f"sign pattern has length {len(pattern)}, direction set has {n}")
    return tuple(check_sign(s) for s in pattern)


def pattern_to_index(pattern) -> int:
    """Table row of a sign pattern: bit j is set where s_j = +1, the
    inverse of spin.pattern_from_index."""
    return sum(1 << j for j, s in enumerate(pattern) if s == 1)


def index_events(k, analytic, start: int = 0) -> list[TrialEvent]:
    """The events that beamline event indices k of trials start, start + 1,
    ... stand for: index j below the stage count S is absorption at the
    j-th blocking stage of `analytic`, S and S + 1 survival with outcome +1
    and -1."""
    stages = [idx for idx, _ in analytic.stage_survivals]
    return [TrialEvent(start + i, stages[j], None) if j < len(stages)
            else TrialEvent(start + i, None, 1 if j == len(stages) else -1)
            for i, j in enumerate(np.asarray(k).tolist())]


def closed_form_w3(pattern, angles) -> float:
    """Exact 3-direction planar weight; the N = 3 case of solve_weights.

    W(s1,s2,s3) = [1 + s1 s2 cos(t2-t1) + s1 s3 cos(t3-t1) + s2 s3 cos(t3-t2)] / 8
    """
    if len(angles) != 3:
        raise ValidationError("closed form is specific to N=3")
    s1, s2, s3 = check_pattern(pattern, 3)
    t1, t2, t3 = angles
    return (1.0
            + s1 * s2 * math.cos(t2 - t1)
            + s1 * s3 * math.cos(t3 - t1)
            + s2 * s3 * math.cos(t3 - t2)) / 8.0


def four_hole_x_marginal(g, y_coherent):
    """P(s_x) from the hole-to-region amplitudes, cell by cell: the two
    y-holes' amplitudes summed then squared (y-coherent) or squared then
    summed, added over both regions and normalized over s_x."""
    raw = {}
    for sx in (1, -1):
        raw[sx] = 0.0
        for region in (g.region_plus, g.region_minus):
            up = _hole_region_amplitude(g, sx, 1, region)
            down = _hole_region_amplitude(g, sx, -1, region)
            raw[sx] += abs(up + down) ** 2 if y_coherent else abs(up) ** 2 + abs(down) ** 2
    total = raw[1] + raw[-1]
    return {sx: value / total for sx, value in raw.items()}


def categorical(cum_probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to category indices via the inverse CDF.

    `cum_probs` is the cumulative sum of the category probabilities.
    Zero-probability categories occupy empty intervals and are never hit.
    The classical sampler in `epr` counts thresholds instead, with the same
    result; this is the reference its tests compare against.
    """
    return np.searchsorted(cum_probs, u, side="right")


def sample_trial(e: SingletEnsemble, a_idx: int, b_idx: int,
                 seed: int, trial: int) -> TrialRecord:
    """Draw a single trial, the per-trial oracle of the tiled and threaded
    walks: a trial is a pure function of (seed, index)."""
    a, b = sample_trials(e, a_idx, b_idx, seed, 1, trial)
    return TrialRecord(trial, a_idx, b_idx, int(a[0]), int(b[0]), e.mode.value)
