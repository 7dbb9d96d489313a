"""Checks of the program's outputs, made apart from the program.

Nothing here calls hvqm.  Every check tests a property the method must
have (a closed form, a conservation law, the documented log format or the
documented counter-based draw); none compares against a stored copy of an
earlier output.  A failed check raises CheckError with a message that names
the output and the property.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    """An output of the program does not have a property it must have."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- the documented counter-based draw, in plain Python integers ----------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0xD1B54A32D192ED03
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix_finalizer(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX1) & _M64
    z ^= z >> 27
    z = (z * _MIX2) & _M64
    return z ^ (z >> 31)


def draw(seed: int, counter: int, substream: int = 0) -> float:
    """Uniform [0, 1) for one trial counter.

    The counter is spread by the odd multiplier, offset by the seed and the
    substream salt, passed twice through the SplitMix64 finalizer, and the
    top 53 bits become the mantissa.
    """
    z = (seed * _GOLDEN + (substream + 1) * _SALT + (counter + 1) * _MIX1) & _M64
    z = _splitmix_finalizer(_splitmix_finalizer(z))
    return (z >> 11) * 2.0 ** -53


def inverse_cdf(probs, u: float) -> int:
    """Index of the category whose cumulative interval holds u."""
    total = 0.0
    for k, p in enumerate(probs[:-1]):
        total += p
        if u < total:
            return k
    return len(probs) - 1


# outcome-pair order of the sampler and the logs: (a_out, b_out)
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CHSH_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))
CHSH_NAMES = ("E(a1,b1)", "E(a1,b2)", "E(a2,b1)", "E(a2,b2)")


def singlet_pair_probs(theta_a: float, theta_b: float):
    """P(a, b) = (1 - a b cos(theta_a - theta_b)) / 4 in OUTCOME_PAIRS order."""
    c = math.cos(theta_a - theta_b)
    return [(1.0 - a * b * c) / 4.0 for a, b in OUTCOME_PAIRS]


def born_outcome(seed: int, trial: int, theta_a: float, theta_b: float):
    k = inverse_cdf(singlet_pair_probs(theta_a, theta_b), draw(seed, trial))
    return OUTCOME_PAIRS[k]


def lhv_outcome(seed: int, trial: int, weights, a_idx: int, b_idx: int):
    """Pattern k carries s_j = +1 iff bit j is set; Bob reads the negated sign."""
    k = inverse_cdf(weights, draw(seed, trial))
    a = 1 if (k >> a_idx) & 1 else -1
    b = 1 if (k >> b_idx) & 1 else -1
    return a, -b


# --- Stern-Gerlach survival from 2x2 projectors ----------------------------

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0),
        "-x": (-1.0, 0.0, 0.0), "-y": (0.0, -1.0, 0.0), "-z": (0.0, 0.0, -1.0)}


def _projector(axis, s: int) -> np.ndarray:
    n_sigma = sum(c * p for c, p in zip(AXES[axis], _PAULI))
    return 0.5 * (np.eye(2) + s * n_sigma)


@dataclass(frozen=True)
class BeamlinePrediction:
    keeps: tuple[tuple[int, float], ...]   # (device index, kept share) per block
    survival: float
    p_plus: float                          # analyzer + share among survivors


def beamline_prediction(input_axis: str, input_sign: int, stages) -> BeamlinePrediction:
    """Walk blocked splits and a final analyzer; `stages` are (role, axis, block).

    Only sequences whose splits are all blocked are handled: a blocked split
    projects, and its recombiner leaves the single kept branch unchanged.
    """
    p = _projector(input_axis, input_sign)
    psi = p[:, 0] if abs(p[0, 0]) >= abs(p[1, 1]) else p[:, 1]
    psi = psi / np.linalg.norm(psi)
    keeps, survival = [], 1.0
    for idx, (role, axis, block) in enumerate(stages[:-1]):
        if role == "split":
            require(block is not None, "prediction handles blocked splits only")
            kept = _projector(axis, -block) @ psi
            share = float(np.vdot(kept, kept).real)
            keeps.append((idx, share))
            survival *= share
            psi = kept / math.sqrt(share)
    role, axis, _ = stages[-1]
    plus = _projector(axis, 1) @ psi
    return BeamlinePrediction(tuple(keeps), survival, float(np.vdot(plus, plus).real))


def beamline_outcome(seed: int, trial: int, pred: BeamlinePrediction, n_devices: int):
    """(absorbed_at, outcome): one draw per blocked stage, then the analyzer's."""
    for idx, share in pred.keeps:
        if draw(seed, trial, substream=idx) >= share:
            return idx, None
    u = draw(seed, trial, substream=n_devices - 1)
    return None, (1 if u < pred.p_plus else -1)


# --- configs: canonical hash as documented in the config format ------------

def canonical_hash(sections: dict[str, dict[str, str]]) -> str:
    """sha256 of sorted section.key=value lines, placement keys left out."""
    lines = sorted(f"{s}.{k}={v.strip()}" for s, kv in sections.items()
                   for k, v in kv.items()
                   if (s, k) not in (("experiment", "out_dir"), ("experiment", "workers")))
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


# --- trial-log reader --------------------------------------------------------

_INT = r"(0|[1-9][0-9]*)"
_PAIR_LINE = re.compile(r'\{"trial":' + _INT + r',"a_setting":([0-9]),"b_setting":([0-9]),'
                        r'"a_out":(1|-1),"b_out":(1|-1),"mode":"([a-z_]+)"\}')
_EVENT_LINE = re.compile(r'\{"trial":' + _INT + r',"absorbed_at":(null|0|[1-9][0-9]*),'
                         r'"outcome":(null|1|-1)\}')


@dataclass
class LogSummary:
    header: dict
    # chsh/epr: per block, the counts of the four outcome pairs
    blocks: list = field(default_factory=list)
    # sterngerlach: survivors, + outcomes among them
    alive: int = 0
    plus: int = 0
    sampled: dict = field(default_factory=dict)   # trial -> parsed record


def _lines(path: Path):
    """Body lines without their newline; a last line lacking one is an error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header_line = fh.readline()
        require(header_line.endswith("\n"), f"{path.name}: header line is not terminated")
        yield header_line[:-1]
        for n, line in enumerate(fh, start=2):
            require(line.endswith("\n"), f"{path.name}: line {n} is not terminated")
            yield line[:-1]


def read_pair_log(path, kind: str, blocks, trials: int, mode: str,
                  sample=()) -> LogSummary:
    """Stream a chsh or epr log and check its structure line by line.

    `blocks` lists the (a_setting, b_setting) pair of each block of `trials`
    records.  Trial indices must run 0 .. len(blocks)*trials - 1, in order,
    once each; every line must be in the canonical compact form.
    """
    path = Path(path)
    lines = _lines(path)
    header = json.loads(next(lines))
    require(header.get("kind") == kind, f"{path.name}: header kind {header.get('kind')!r}")
    summary = LogSummary(header)
    want = set(sample)
    counts = [[0, 0, 0, 0] for _ in blocks]
    expected = 0
    for n, line in enumerate(lines, start=2):
        m = _PAIR_LINE.fullmatch(line)
        require(m is not None, f"{path.name}: line {n} is not a canonical trial record")
        trial, a_set, b_set, a_out, b_out, rec_mode = m.groups()
        trial = int(trial)
        require(trial == expected, f"{path.name}: line {n} has trial {trial}, expected {expected}")
        block = trial // trials
        require(block < len(blocks), f"{path.name}: line {n} is past the last block")
        require((int(a_set), int(b_set)) == blocks[block],
                f"{path.name}: line {n} has settings ({a_set},{b_set}), "
                f"block {block} is {blocks[block]}")
        require(rec_mode == mode, f"{path.name}: line {n} has mode {rec_mode!r}")
        pair = (int(a_out), int(b_out))
        counts[block][OUTCOME_PAIRS.index(pair)] += 1
        if trial in want:
            summary.sampled[trial] = pair
        expected += 1
    require(expected == len(blocks) * trials,
            f"{path.name}: {expected} records, expected {len(blocks) * trials}")
    summary.blocks = counts
    return summary


def read_event_log(path, trials: int, sample=()) -> LogSummary:
    """Stream a Stern-Gerlach event log; same ordering rules as read_pair_log."""
    path = Path(path)
    lines = _lines(path)
    header = json.loads(next(lines))
    require(header.get("kind") == "sterngerlach",
            f"{path.name}: header kind {header.get('kind')!r}")
    summary = LogSummary(header)
    want = set(sample)
    expected = 0
    for n, line in enumerate(lines, start=2):
        m = _EVENT_LINE.fullmatch(line)
        require(m is not None, f"{path.name}: line {n} is not a canonical event record")
        trial, absorbed, outcome = m.groups()
        trial = int(trial)
        require(trial == expected, f"{path.name}: line {n} has trial {trial}, expected {expected}")
        require((absorbed == "null") != (outcome == "null"),
                f"{path.name}: line {n} must carry exactly one of absorbed_at and outcome")
        if outcome != "null":
            summary.alive += 1
            summary.plus += outcome == "1"
        if trial in want:
            summary.sampled[trial] = (None if absorbed == "null" else int(absorbed),
                                      None if outcome == "null" else int(outcome))
        expected += 1
    require(expected == trials, f"{path.name}: {expected} records, expected {trials}")
    return summary


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def _sample(total: int, size: int = 64) -> list[int]:
    """Trial indices spread over the log, the same for every run."""
    return sorted({(k * 7919 + 13) % total for k in range(size)})


def _results(log_path: Path, summary: LogSummary, sections) -> dict:
    """The header must carry the config's canonical hash and seed; returns
    the `results` of the report.json beside the log."""
    require(summary.header.get("config_hash") == canonical_hash(sections),
            f"{log_path.name}: header config hash differs from the canonical hash")
    require(summary.header.get("seed") == int(sections["experiment"]["seed"]),
            f"{log_path.name}: header seed")
    return json.loads((log_path.parent / "report.json").read_text(encoding="utf-8"))["results"]


def correlator(counts) -> float:
    """Mean of a*b over a block, from its four outcome-pair counts."""
    same = counts[0] + counts[3]
    return (same - (counts[1] + counts[2])) / sum(counts)


def check_chsh_log(log_path, sections, trials: int, mode: str, thetas,
                   lhv_weights=None) -> LogSummary:
    """Structure, statistics against report.json, physics and sampled draws.

    `thetas` are the planar angles of (a1, a2, b1, b2).
    """
    log_path = Path(log_path)
    seed = int(sections["experiment"]["seed"])
    s = read_pair_log(log_path, "chsh", CHSH_PAIRS, trials, mode, _sample(4 * trials))
    res = _results(log_path, s, sections)
    values = [correlator(c) for c in s.blocks]
    for name, value in zip(CHSH_NAMES, values):
        require(close(res["correlators"][name], value),
                f"{name}: report {res['correlators'][name]!r}, log gives {value!r}")
        stderr = math.sqrt(max(0.0, 1.0 - value * value) / trials)
        require(close(res["stderrs"][name], stderr), f"stderr of {name}")
    big_s = values[0] + values[1] + values[2] - values[3]
    require(close(res["S"], big_s), f"S: report {res['S']!r}, log gives {big_s!r}")
    s_err = math.sqrt(sum((1.0 - v * v) / trials for v in values))
    require(close(res["S_stderr"], s_err), "S_stderr")
    require(res["trials_per_correlator"] == trials, "trials_per_correlator")
    if mode == "born_sampling":
        require(abs(abs(big_s) - 2.0 * math.sqrt(2.0)) <= 5.0 * s_err,
                f"|S| = {abs(big_s)!r} is not within 5 standard errors of 2 sqrt 2")
    else:
        require(abs(big_s) <= 2.0 + 5.0 * s_err,
                f"classical |S| = {abs(big_s)!r} exceeds 2 + 5 standard errors")
    for trial, got in s.sampled.items():
        ai, bi = CHSH_PAIRS[trial // trials]
        if mode == "born_sampling":
            want = born_outcome(seed, trial, thetas[ai], thetas[bi])
        else:
            want = lhv_outcome(seed, trial, lhv_weights, ai, bi)
        require(got == want, f"{log_path.name}: trial {trial} is {got}, the draw gives {want}")
    return s


def check_epr_log(log_path, sections, trials: int, theta_a: float,
                  theta_b: float) -> LogSummary:
    log_path = Path(log_path)
    seed = int(sections["experiment"]["seed"])
    s = read_pair_log(log_path, "epr", ((0, 1),), trials, "born_sampling", _sample(trials))
    res = _results(log_path, s, sections)
    counts = s.blocks[0]
    value = correlator(counts)
    require(close(res["E"], value), f"E: report {res['E']!r}, log gives {value!r}")
    sigma = math.sqrt(max(0.0, 1.0 - value * value) / trials)
    require(close(res["stderr"], sigma), "stderr")
    require(res["counts"] == dict(zip(("++", "+-", "-+", "--"), counts)), "counts")
    require(res["trials"] == trials, "trials")
    expected = -math.cos(theta_a - theta_b)
    require(abs(value - expected) <= 5.0 * math.sqrt((1 - expected ** 2) / trials),
            f"E = {value!r} is not within 5 sigma of {expected!r}")
    for trial, got in s.sampled.items():
        want = born_outcome(seed, trial, theta_a, theta_b)
        require(got == want, f"{log_path.name}: trial {trial} is {got}, the draw gives {want}")
    return s


def check_sterngerlach_log(log_path, sections, trials: int, input_state: str,
                           stages) -> LogSummary:
    """`input_state` is like '+z'; `stages` are (role, axis, block) tuples."""
    log_path = Path(log_path)
    seed = int(sections["experiment"]["seed"])
    s = read_event_log(log_path, trials, _sample(trials))
    mc = _results(log_path, s, sections)["monte_carlo"]
    fraction = s.alive / trials
    require(close(mc["survivor_fraction"], fraction),
            f"survivor fraction: report {mc['survivor_fraction']!r}, log gives {fraction!r}")
    if s.alive:
        dist = {"1": s.plus / s.alive, "-1": (s.alive - s.plus) / s.alive}
        require(all(close(mc["distribution"][k], v) for k, v in dist.items()),
                "analyzer distribution")
    require(mc["trials"] == trials, "trials")
    pred = beamline_prediction(input_state[1:], 1 if input_state[0] == "+" else -1, stages)
    sigma = math.sqrt(pred.survival * (1 - pred.survival) / trials)
    require(abs(fraction - pred.survival) <= 5.0 * sigma,
            f"survivor fraction {fraction!r} is not within 5 sigma of {pred.survival!r}")
    for trial, got in s.sampled.items():
        want = beamline_outcome(seed, trial, pred, len(stages))
        require(got == want, f"{log_path.name}: trial {trial} is {got}, the draw gives {want}")
    return s


def same_bytes(a, b) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(1 << 20), fb.read(1 << 20)
            if x != y:
                return False
            if not x:
                return True


# --- analytic kernels ----------------------------------------------------

def sign_rows(n: int) -> np.ndarray:
    """(2^n, n) signs; row k has s_j = +1 iff bit j of k is set."""
    k = np.arange(1 << n)[:, None]
    return np.where((k >> np.arange(n)) & 1, 1.0, -1.0)


def closed_form_weights(thetas) -> np.ndarray:
    """W(s) = 2^-N [1 + sum_{i<j} s_i s_j cos(theta_j - theta_i)]."""
    n = len(thetas)
    s = sign_rows(n)
    w = np.ones(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            w += s[:, i] * s[:, j] * math.cos(thetas[j] - thetas[i])
    return w / (1 << n)


def check_weight_table(weights, thetas) -> None:
    w = np.asarray(weights)
    want = closed_form_weights(thetas)
    gap = float(np.max(np.abs(w - want)))
    require(gap <= 1e-12, f"weight table is {gap:.3e} from the closed form (N={len(thetas)})")
    s = sign_rows(len(thetas))
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            c = math.cos(thetas[j] - thetas[i])
            for si in (1, -1):
                for sj in (1, -1):
                    p = float(w[(s[:, i] == si) & (s[:, j] == sj)].sum())
                    require(abs(p - 0.25 * (1 + si * sj * c)) <= 1e-10,
                            f"pair ({i},{j}) cell ({si},{sj}) is {p!r}")


def check_marginal(marg: dict, weights, n: int, indices) -> None:
    """Each key is a sign tuple over `indices`; value is the summed weight."""
    s = sign_rows(n)
    require(len(marg) == 1 << len(indices), "marginal has the wrong number of cells")
    for key, value in marg.items():
        mask = np.ones(1 << n, dtype=bool)
        for sign, i in zip(key, indices):
            mask &= s[:, i] == sign
        require(abs(value - float(np.asarray(weights)[mask].sum())) <= 1e-12,
                f"marginal cell {key} over {tuple(indices)}")


def check_born_table(probs, vectors, rows) -> None:
    """Nonnegative, sums to 1, and sampled rows equal |sum s_j n_j|^2 / (2^N N)."""
    p = np.asarray(probs)
    n = len(vectors)
    require(bool(np.all(p >= 0)), "Born table has a negative entry")
    require(abs(float(p.sum()) - 1.0) <= 1e-12, "Born table does not sum to 1")
    for k in rows:
        v = [0.0, 0.0, 0.0]
        for j, vec in enumerate(vectors):
            sign = 1 if (k >> j) & 1 else -1
            v = [a + sign * b for a, b in zip(v, vec)]
        want = (v[0] ** 2 + v[1] ** 2 + v[2] ** 2) / ((1 << n) * n)
        require(abs(p[k] - want) <= 1e-9 * max(want, 1.0 / (1 << n)),
                f"Born row {k} is {p[k]!r}, expected {want!r}")


def check_marginal_amplitude(q, vectors, fixed: dict) -> None:
    """Equals 2^F sum_fixed s_j n_j, F the number of free indices."""
    free = len(vectors) - len(fixed)
    want = [0.0, 0.0, 0.0]
    for i, sign in fixed.items():
        want = [a + sign * b for a, b in zip(want, vectors[i])]
    want = [(1 << free) * a for a in want]
    got = (q.x, q.y, q.z)
    require(q.w == 0.0, "marginal amplitude has a real part")
    require(all(abs(g - w) <= 1e-9 * (1 << free) for g, w in zip(got, want)),
            f"marginal amplitude {got} differs from {want}")


def cos2_oracle_gap(x, probs, d, w, l1, l2, v, wavelength, k: int,
                    mass: float = 1.0, hbar: float = 1.0) -> float:
    """RMS gap between a coherent pattern and cos^2 fringes times the
    numerical single-slit envelope, inside 2.5 fringe spacings of center."""
    x = np.asarray(x)
    y = -w / 2 + (np.arange(k) + 0.5) * (w / k)
    s1 = mass * (l1 ** 2 + y ** 2) * (v / (2 * l1))
    s2 = mass * (l2 ** 2 + (x[:, None] - y[None, :]) ** 2) * (v / (2 * l2))
    envelope = np.abs(((w / k) * np.exp(1j * (s1[None, :] + s2) / hbar)).sum(axis=1)) ** 2
    prediction = envelope * np.cos(math.pi * d * x / (wavelength * l2)) ** 2
    window = np.abs(x) <= 2.5 * wavelength * l2 / d
    a = np.asarray(probs)[window] / np.asarray(probs)[window].sum()
    b = prediction[window] / prediction[window].sum()
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_distribution(values, what: str) -> None:
    v = np.asarray(list(values), dtype=float)
    require(bool(np.all(v >= 0)), f"{what} has a negative entry")
    require(abs(float(v.sum()) - 1.0) <= 1e-12, f"{what} sums to {float(v.sum())!r}")


def direct_momentum(psi, dr: float, hbar: float = 1.0) -> np.ndarray:
    """xi(p_k) by the direct sum over the centered grids, O(M^2)."""
    m = len(psi)
    r = (np.arange(m) - m // 2) * dr
    p = (np.arange(m) - m // 2) * (2 * math.pi * hbar / (m * dr))
    kernel = np.exp(-1j * np.outer(p, r) / hbar)
    return dr / math.sqrt(2 * math.pi * hbar) * (kernel @ np.asarray(psi))


def ray_gap(a, b) -> float:
    """1 - |<a,b>| / (|a||b|): zero when a and b are the same ray."""
    a, b = np.asarray(a), np.asarray(b)
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def chsh_analytic_s(thetas) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2) with E = -cos(theta_a - theta_b)."""
    e = [-math.cos(thetas[a] - thetas[b]) for a, b in CHSH_PAIRS]
    return e[0] + e[1] + e[2] - e[3]


def min_weight_three(theta: float) -> float:
    """Smallest weight of the table for directions (0, theta, 2 theta)."""
    return float(closed_form_weights((0.0, theta, 2 * theta)).min())


def unit(v) -> tuple[float, float, float]:
    n = math.sqrt(sum(c * c for c in v))
    return tuple(c / n for c in v)
