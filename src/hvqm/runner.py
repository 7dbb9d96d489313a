"""Config-driven experiment execution, trial logs, reports and replay.

Every Monte Carlo kind writes a JSON-lines log whose first line is a header
carrying the canonical config hash; rerunning with the same seed produces a
byte-identical log for any worker count.  `replay` checks that every line
is the canonical record of its trial, recomputes the summary statistics
from the log and checks them against the stored report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, beamline, epr, pathint, phasespace, quasiprob
from .config import (ExperimentConfig, KINDS, config_hash, parse_direction,
                     parse_lhv_weights)
from .errors import ValidationError
from .spin import Direction, DirectionSet

_SETTING_NAMES = {0: "a1", 1: "a2", 2: "b1", 3: "b2"}


def _pair_name(ai: int, bi: int) -> str:
    return f"E({_SETTING_NAMES[ai]},{_SETTING_NAMES[bi]})"


@dataclass(frozen=True)
class RunReport:
    kind: str
    config_hash: str
    results: dict
    duration_s: float
    outputs: tuple[str, ...]
    seed: int | None = None
    trials: int | None = None
    mode: str | None = None
    config: dict | None = None   # effective config echo, overrides applied

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "version": __version__,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "trials": self.trials,
            "mode": self.mode,
            "config": self.config,
            "results": self.results,
            "duration_s": self.duration_s,
            "outputs": list(self.outputs),
        }, indent=2)


def _require_kind(cfg: ExperimentConfig) -> str:
    if not cfg.kind:
        raise ValidationError("missing required field [experiment] kind")
    if cfg.kind not in KINDS:
        raise ValidationError(
            f"unknown experiment kind {cfg.kind!r}; expected one of {', '.join(KINDS)}")
    return cfg.kind


def _seed_of(cfg: ExperimentConfig) -> int:
    seed = cfg.get_int("experiment", "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed {seed} outside the 64-bit unsigned range")
    return seed


# per setting pair: a chsh log of 4 x 10^7 lines takes about 3.6 GB
MAX_TRIALS = 10_000_000


def _trials_of(cfg: ExperimentConfig) -> int:
    trials = cfg.get_int("experiment", "trials")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials = {trials} is past the cap of {MAX_TRIALS}")
    return trials


def _mode_of(cfg: ExperimentConfig, default: str = "born_analytic") -> epr.Mode:
    raw = cfg.get("experiment", "mode", default)
    try:
        return epr.Mode(raw)
    except ValueError:
        raise ValidationError(
            f"unknown mode {raw!r}; expected one of "
            + ", ".join(m.value for m in epr.Mode))


def _chsh_ensemble(cfg: ExperimentConfig) -> epr.SingletEnsemble:
    mode = _mode_of(cfg)
    dirs = [parse_direction(cfg.require("directions", k), f"[directions] {k}")
            for k in ("a1", "a2", "b1", "b2")]
    lhv = None
    if mode is epr.Mode.CLASSICAL_LHV:
        lhv = np.array(parse_lhv_weights(cfg, 4))
    return epr.chsh_ensemble(mode, *dirs, lhv_weights=lhv)


def _epr_ensemble(cfg: ExperimentConfig) -> epr.SingletEnsemble:
    mode = _mode_of(cfg, default="born_sampling")
    dirs = DirectionSet.of(
        parse_direction(cfg.require("directions", "a"), "[directions] a"),
        parse_direction(cfg.require("directions", "b"), "[directions] b"))
    lhv = None
    if mode is epr.Mode.CLASSICAL_LHV:
        lhv = np.array(parse_lhv_weights(cfg, 2))
    return epr.SingletEnsemble(dirs, mode, lhv)


def _quasiprob_directions(cfg: ExperimentConfig) -> DirectionSet:
    section = cfg.sections.get("directions", {})
    keyed = []
    for key, raw in section.items():
        if not key.startswith("theta"):
            raise ValidationError(f"[directions] keys look like theta<k>, got {key!r}")
        try:
            keyed.append((int(key[5:]), raw))
        except ValueError:
            raise ValidationError(f"[directions] keys look like theta<k>, got {key!r}")
    if len(keyed) < 2:
        raise ValidationError("quasiprob needs at least [directions] theta1, theta2")
    angles = []
    for k, raw in sorted(keyed):
        try:
            angles.append(float(raw))
        except ValueError:
            raise ValidationError(f"[directions] theta{k} = {raw!r} is not a number")
    return DirectionSet.from_planar_angles(angles)


def _twoslit_geometry(cfg: ExperimentConfig) -> pathint.Geometry2Slit:
    g = cfg.sections.get("geometry", {})
    default = pathint.Geometry2Slit()
    kwargs = dict(
        slit_separation=cfg.get_float("geometry", "d", default.slit_separation),
        slit_width=cfg.get_float("geometry", "w", default.slit_width),
        l1=cfg.get_float("geometry", "l1", default.l1),
        l2=cfg.get_float("geometry", "l2", default.l2),
        mass=cfg.get_float("geometry", "mass", default.mass),
        hbar=cfg.get_float("geometry", "hbar", default.hbar),
        screen_half_width=cfg.get_float("geometry", "screen_half_width",
                                        default.screen_half_width),
        bins=cfg.get_int("geometry", "bins", default.bins),
        quadrature_points=cfg.get_int("geometry", "quadrature_points",
                                      default.quadrature_points),
    )
    if "wavelength" in g and "v" in g:
        raise ValidationError("give either [geometry] v or wavelength, not both")
    if "wavelength" in g:
        wavelength = cfg.get_float("geometry", "wavelength")
        if wavelength <= 0:
            raise ValidationError("wavelength must be positive")
        kwargs["v"] = 2.0 * math.pi * kwargs["hbar"] / (kwargs["mass"] * wavelength)
    elif "v" in g:
        kwargs["v"] = cfg.get_float("geometry", "v")
    return pathint.Geometry2Slit(**kwargs)


def _region_of(cfg: ExperimentConfig, key: str, default: pathint.Region) -> pathint.Region:
    raw = cfg.get("geometry", key)
    if raw is None:
        return default
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValidationError(f"[geometry] {key} needs 'x_min,x_max,y_min,y_max'")
    try:
        return pathint.Region(*(float(p) for p in parts))
    except ValueError:
        raise ValidationError(f"[geometry] {key} = {raw!r} is not four numbers")


def _fourhole_geometry(cfg: ExperimentConfig) -> pathint.GeometryFourHole:
    default = pathint.GeometryFourHole()
    kwargs = dict(
        x0=cfg.get_float("geometry", "x0", default.x0),
        y0=cfg.get_float("geometry", "y0", default.y0),
        l1=cfg.get_float("geometry", "l1", default.l1),
        l2=cfg.get_float("geometry", "l2", default.l2),
        mass=cfg.get_float("geometry", "mass", default.mass),
        hbar=cfg.get_float("geometry", "hbar", default.hbar),
        region_grid=cfg.get_int("geometry", "region_grid", default.region_grid),
        region_plus=_region_of(cfg, "region_plus", default.region_plus),
        region_minus=_region_of(cfg, "region_minus", default.region_minus),
    )
    if "wavelength" in cfg.sections.get("geometry", {}):
        wavelength = cfg.get_float("geometry", "wavelength")
        if wavelength <= 0:
            raise ValidationError("wavelength must be positive")
        kwargs["v"] = 2.0 * math.pi * kwargs["hbar"] / (kwargs["mass"] * wavelength)
    else:
        kwargs["v"] = cfg.get_float("geometry", "v", default.v)
    return pathint.GeometryFourHole(**kwargs)


_INPUT_STATES = {
    "+x": ((1.0, 0.0, 0.0), 1), "-x": ((1.0, 0.0, 0.0), -1),
    "+y": ((0.0, 1.0, 0.0), 1), "-y": ((0.0, 1.0, 0.0), -1),
    "+z": ((0.0, 0.0, 1.0), 1), "-z": ((0.0, 0.0, 1.0), -1),
}


def _sg_input(cfg: ExperimentConfig) -> beamline.BeamState:
    raw = cfg.get("experiment", "input", "+z").strip().lower()
    if raw not in _INPUT_STATES:
        raise ValidationError(
            f"unknown input state {raw!r}; expected one of {', '.join(_INPUT_STATES)}")
    (nx, ny, nz), s = _INPUT_STATES[raw]
    return beamline.BeamState.eigenstate(Direction(nx, ny, nz), s)


def _sg_devices(cfg: ExperimentConfig) -> list[beamline.SGDevice]:
    section = cfg.sections.get("sequence")
    if not section:
        raise ValidationError("sterngerlach needs a [sequence] section")
    keyed = []
    for key, raw in section.items():
        if not key.startswith("stage"):
            raise ValidationError(f"[sequence] keys look like stage<k>, got {key!r}")
        try:
            keyed.append((int(key[5:]), raw))
        except ValueError:
            raise ValidationError(f"[sequence] keys look like stage<k>, got {key!r}")
    devices = []
    for k, raw in sorted(keyed):
        tokens = raw.split()
        if not tokens:
            raise ValidationError(f"[sequence] stage{k} is empty")
        role = tokens[0]
        if role not in ("split", "recombine", "analyze"):
            raise ValidationError(
                f"[sequence] stage{k}: unknown role {role!r}")
        if len(tokens) < 2:
            raise ValidationError(f"[sequence] stage{k}: missing axis")
        axis = parse_direction(tokens[1], f"[sequence] stage{k} axis")
        block = None
        rest = tokens[2:]
        if rest:
            if role != "split" or len(rest) != 2 or rest[0] != "block" or rest[1] not in ("+", "-"):
                raise ValidationError(
                    f"[sequence] stage{k}: trailing tokens {' '.join(rest)!r} "
                    "(only 'block +' or 'block -' on split stages)")
            block = 1 if rest[1] == "+" else -1
        devices.append(beamline.SGDevice(axis, role, block))
    return devices


def _phasespace_setup(cfg: ExperimentConfig) -> phasespace.WaveFunction:
    m = cfg.get_int("grid", "m", 256)
    dr = cfg.get_float("grid", "dr", 1.0)
    hbar = cfg.get_float("grid", "hbar", 1.0)
    kind = cfg.get("state", "kind", "gaussian")
    if kind == "gaussian":
        return phasespace.gaussian_wavefunction(
            m, dr,
            center=cfg.get_float("state", "center", 0.0),
            width=cfg.get_float("state", "width", 8.0),
            momentum=cfg.get_float("state", "momentum", 0.0),
            hbar=hbar)
    if kind == "plane_wave":
        return phasespace.plane_wave(
            m, dr, cfg.get_int("state", "mode_index", 4), hbar=hbar)
    raise ValidationError(f"unknown [state] kind {kind!r}")


def _setup(cfg: ExperimentConfig) -> tuple[list[str], dict]:
    """Full schema and physics validation, made once per run or replay.

    Returns the diagnostics `validate` prints and the objects the run is
    built from.
    """
    kind = _require_kind(cfg)
    notes = [f"kind: {kind}"]
    built: dict = {}
    if kind in ("chsh", "epr"):
        e = built["ensemble"] = _chsh_ensemble(cfg) if kind == "chsh" else _epr_ensemble(cfg)
        notes.append(f"mode: {e.mode.value}")
        if e.mode.is_sampling:
            built["seed"], built["trials"] = _seed_of(cfg), _trials_of(cfg)
            notes.append(f"seed: {built['seed']}")
            notes.append(("trials per correlator: " if kind == "chsh" else "trials: ")
                         + str(built["trials"]))
    elif kind == "quasiprob":
        dirs = built["directions"] = _quasiprob_directions(cfg)
        notes.append(f"directions: {len(dirs)} planar angles")
    elif kind == "twoslit":
        g = built["geometry"] = _twoslit_geometry(cfg)
        notes.append(f"wavelength: {g.wavelength!r}")
        notes.append(f"fringe spacing lambda*l2/d: {g.fringe_spacing!r}")
        notes.append(
            f"fringes on screen: {2 * g.screen_half_width / g.fringe_spacing:.1f}")
    elif kind == "fourhole":
        g = built["geometry"] = _fourhole_geometry(cfg)
        notes.append(f"wavelength: {g.wavelength!r}")
    elif kind == "sterngerlach":
        devices = built["devices"] = _sg_devices(cfg)
        beam = built["beam"] = _sg_input(cfg)
        # the analytic walk raises on a malformed sequence and sets the
        # Monte Carlo thresholds; it is made here once
        built["analytic"] = beamline.run_sequence(devices, beam)
        built["seed"], built["trials"] = _seed_of(cfg), _trials_of(cfg)
        notes.append(f"devices: {len(devices)}")
        notes.append(f"seed: {built['seed']}")
        notes.append(f"trials: {built['trials']}")
    elif kind == "phasespace":
        wf = built["wavefunction"] = _phasespace_setup(cfg)
        notes.append(f"grid: M={wf.m}, dr={wf.dr!r}")
    return notes, built


def validate_experiment(cfg: ExperimentConfig) -> list[str]:
    """Full schema and physics validation without running; returns diagnostics."""
    return _setup(cfg)[0]


# --- trial logs -------------------------------------------------------------
#
# A log is a header line, then one canonical JSON line per trial: the line
# trial_record_json or event_json gives, written in blocks of CHUNK trials.
# Replay decodes each block, encodes it again and compares the bytes, so a
# body passes only if it is exactly what a run writes for the outcomes it
# holds; the statistics are then recomputed from those outcomes by the same
# functions a run uses.

CHUNK = 16_384


def _chunks(trials: int):
    """(offset, size) of each block of a trial range."""
    for lo in range(0, trials, CHUNK):
        yield lo, min(CHUNK, trials - lo)


def _header_line(kind: str, cfg_hash: str, seed: int) -> str:
    return json.dumps({"kind": kind, "config_hash": cfg_hash, "seed": seed,
                       "version": __version__}, separators=(",", ":")) + "\n"


def _chsh_results(counts: np.ndarray, trials: int) -> dict:
    correlators = {_pair_name(ai, bi): epr.correlator(c)
                   for (ai, bi), c in zip(epr.CHSH_PAIRS, counts)}
    stderrs = {name: epr.correlator_stderr(v, trials) for name, v in correlators.items()}
    return {"correlators": correlators, "stderrs": stderrs,
            "S": epr.chsh_s(correlators.values()),
            "S_stderr": epr.chsh_s_stderr(stderrs.values()),
            "trials_per_correlator": trials}


def _epr_results(counts: np.ndarray, trials: int) -> dict:
    value = epr.correlator(counts[0])
    return {"E": value, "stderr": epr.correlator_stderr(value, trials),
            "counts": {f"{'+' if a > 0 else '-'}{'+' if b > 0 else '-'}": int(c)
                       for (a, b), c in zip(epr.OUTCOME_PAIRS, counts[0])},
            "trials": trials}


_RESULTS = {"chsh": _chsh_results, "epr": _epr_results}


def _sg_results(analytic: beamline.SequenceResult, counts: np.ndarray) -> dict:
    """counts: beamline.event_counts of every trial."""
    dist, fraction = beamline.survivor_statistics(counts)
    return {
        "analytic": {
            "probabilities": (None if analytic.probabilities is None
                              else {str(s): p for s, p in analytic.probabilities.items()}),
            "survival": analytic.survival,
            "extinguished": analytic.extinguished,
        },
        "monte_carlo": {
            "distribution": {str(s): p for s, p in dist.items()},
            "survivor_fraction": fraction,
            "trials": int(counts[0]),
        },
    }


def _pair_chunks(kind: str, trials: int):
    """(block, a setting, b setting, first trial, size) of each chunk of a
    chsh or epr log: one block of trials per setting pair."""
    for block, (ai, bi) in enumerate(epr.CHSH_PAIRS if kind == "chsh" else ((0, 1),)):
        for lo, n in _chunks(trials):
            yield block, ai, bi, block * trials + lo, n


def _write_pairs(fh, kind: str, built: dict, workers: int) -> np.ndarray:
    """Sample and log the trials; returns the outcome-pair counts per block."""
    e, seed, trials = built["ensemble"], built["seed"], built["trials"]
    counts = np.zeros((4 if kind == "chsh" else 1, 4), dtype=np.int64)
    for block, ai, bi, start, n in _pair_chunks(kind, trials):
        a_out, b_out = epr.sample_trials(e, ai, bi, seed, n, start=start, workers=workers)
        counts[block] += epr.outcome_counts(a_out, b_out)
        fh.write(epr.encode_block(start, a_out, b_out, ai, bi, e.mode.value))
    return counts


def _write_events(fh, built: dict) -> np.ndarray:
    """Walk and log the beamline trials; returns their event_counts."""
    counts = np.zeros(4, dtype=np.int64)
    for lo, n in _chunks(built["trials"]):
        _, _, events = beamline.monte_carlo_sequence(
            built["devices"], built["beam"], n, built["seed"], start=lo,
            analytic=built["analytic"])
        counts += beamline.event_counts(events.absorbed_at, events.outcome)
        fh.write(events.encode())
    return counts


def _run_sampling(kind: str, cfg_hash: str, built: dict, out_dir: Path, workers: int):
    log = out_dir / ("events.jsonl" if kind == "sterngerlach" else "trials.jsonl")
    with open(log, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header_line(kind, cfg_hash, built["seed"]))
        if kind == "sterngerlach":
            results = _sg_results(built["analytic"], _write_events(fh, built))
        else:
            results = _RESULTS[kind](_write_pairs(fh, kind, built, workers), built["trials"])
    return results, [log.name]


def _run_singlet(cfg, built: dict, out_dir: Path, workers: int, cfg_hash: str):
    """chsh and epr: a trial log in the sampling modes, exact values otherwise."""
    e = built["ensemble"]
    if e.mode.is_sampling:
        results, outputs = _run_sampling(cfg.kind, cfg_hash, built, out_dir, workers)
        return results, outputs, built["seed"], built["trials"], e.mode.value
    if cfg.kind == "chsh":
        res = epr.chsh(e)
        results = {"correlators": {_pair_name(a, b): v
                                   for (a, b), v in res.correlators.items()},
                   "stderrs": None, "S": res.s, "S_stderr": None,
                   "trials_per_correlator": None}
    else:
        results = {"E": epr.correlation(e, 0, 1).value, "stderr": None, "counts": None,
                   "trials": None}
    return results, [], None, None, e.mode.value


def _run_quasiprob(cfg, built: dict, out_dir: Path, workers: int, cfg_hash: str):
    dirs = built["directions"]
    table = quasiprob.solve_weights(dirs)
    born = quasiprob.born_table(dirs)
    report = quasiprob.negativity_report(table)
    quasiprob.write_table_csv(table, out_dir / "weights.csv")
    (out_dir / "born.csv").write_text(quasiprob.born_csv(born), encoding="utf-8")
    results = {
        "n_directions": len(dirs),
        "min_weight": report.min_weight,
        "negative_patterns": ["(" + ",".join("+" if s > 0 else "-" for s in p) + ")"
                              for p in report.negative_patterns],
    }
    return results, ["weights.csv", "born.csv"], None, None, None


def _run_twoslit(cfg, built: dict, out_dir: Path, workers: int, cfg_hash: str):
    g = built["geometry"]
    eps = cfg.get_float("experiment", "dark_eps", 1e-3)
    coherent = pathint.screen_pattern(g, "coherent")
    whichpath = pathint.screen_pattern(g, "which-path")
    dark = pathint.dark_region_finder(coherent, whichpath, eps)
    pathint.write_pattern_csv(coherent, out_dir / "coherent.csv")
    pathint.write_pattern_csv(whichpath, out_dir / "whichpath.csv")
    centers = g.bin_centers()
    (out_dir / "dark_regions.json").write_text(json.dumps({
        "eps": eps,
        "bins": dark,
        "bin_centers": [float(centers[i]) for i in dark],
    }, indent=2), encoding="utf-8")
    results = {
        "fringe_spacing": g.fringe_spacing,
        "wavelength": g.wavelength,
        "n_dark_bins": len(dark),
        "coherent_max": float(coherent.probabilities.max()),
        "whichpath_max": float(whichpath.probabilities.max()),
    }
    return results, ["coherent.csv", "whichpath.csv", "dark_regions.json"], None, None, None


def _run_fourhole(cfg, built: dict, out_dir: Path, workers: int, cfg_hash: str):
    g = built["geometry"]
    coherent = pathint.four_hole_table(g, y_coherent=True)
    whichpath = pathint.four_hole_table(g, y_coherent=False)
    gap = max(abs(coherent[k] - whichpath[k]) for k in coherent)

    def cells(t):
        return {f"({'+' if sx > 0 else '-'}x0,{'+' if sa > 0 else '-'}A)": v
                for (sx, sa), v in t.items()}

    results = {"coherent": cells(coherent), "whichpath": cells(whichpath),
               "max_cell_gap": gap}
    (out_dir / "fourhole.json").write_text(json.dumps(results, indent=2),
                                           encoding="utf-8")
    return results, ["fourhole.json"], None, None, None


def _run_sterngerlach(cfg, built: dict, out_dir: Path, workers: int, cfg_hash: str):
    results, outputs = _run_sampling("sterngerlach", cfg_hash, built, out_dir, workers)
    return results, outputs, built["seed"], built["trials"], None


def _run_phasespace(cfg, built: dict, out_dir: Path, workers: int, cfg_hash: str):
    wf = built["wavefunction"]
    lifted = phasespace.lift(wf)
    back = phasespace.project_r(lifted)
    xi = phasespace.to_momentum(wf)
    ray = phasespace.project_p(lifted)
    roundtrip = float(np.max(np.abs(back.values - wf.values)))
    parseval = abs(xi.norm_sq() - wf.norm_sq())
    overlap = phasespace.ray_overlap(ray.values, xi.values)
    phasespace.write_grid_csv(wf.values, out_dir / "wavefunction.csv")
    phasespace.write_grid_csv(xi.values, out_dir / "momentum.csv")
    results = {"m": wf.m, "dr": wf.dr,
               "roundtrip_error": roundtrip,
               "parseval_gap": parseval,
               "momentum_ray_overlap": overlap}
    return results, ["wavefunction.csv", "momentum.csv"], None, None, None


_RUNNERS = {
    "chsh": _run_singlet,
    "epr": _run_singlet,
    "quasiprob": _run_quasiprob,
    "twoslit": _run_twoslit,
    "fourhole": _run_fourhole,
    "sterngerlach": _run_sterngerlach,
    "phasespace": _run_phasespace,
}


def run_experiment(cfg: ExperimentConfig, out_dir, workers: int = 1) -> RunReport:
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    _, built = _setup(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(cfg)
    t0 = time.perf_counter()
    results, outputs, seed, trials, mode = _RUNNERS[cfg.kind](cfg, built, out, workers,
                                                              cfg_hash)
    report = RunReport(cfg.kind, cfg_hash, results, time.perf_counter() - t0,
                       tuple(outputs), seed, trials, mode,
                       config={k: dict(v) for k, v in cfg.sections.items()})
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return report


# --- replay ---------------------------------------------------------------

@dataclass(frozen=True)
class ReplayVerdict:
    ok: bool
    hash_ok: bool
    mismatches: tuple[str, ...]     # reported statistics that diverge
    first_bad_line: int | None = None   # 1-based; the header is line 1
    reason: str | None = None

    @property
    def verdict(self) -> str:
        if not self.hash_ok:
            return "HASH_MISMATCH"
        return "OK" if self.ok else "MISMATCH"


class _BadLine(Exception):
    def __init__(self, line: int, reason: str):
        super().__init__(reason)
        self.line, self.reason = line, reason


class _Body:
    """A log body after its header, read in blocks of whole lines, so memory
    stays bounded by the block size whatever the log holds."""

    def __init__(self, fh):
        self._fh = fh
        self._buf = b""
        self.lines = 1   # lines verified so far, the header included

    def _take(self, n: int, longest: int) -> bytes:
        """The next n lines, or fewer if they do not fit in n * longest bytes."""
        if len(self._buf) < n * longest:
            self._buf += self._fh.read(n * longest - len(self._buf))
        ends = np.flatnonzero(np.frombuffer(self._buf, dtype=np.uint8) == ord("\n"))
        cut = int(ends[n - 1]) + 1 if len(ends) >= n else len(self._buf)
        block, self._buf = self._buf[:cut], self._buf[cut:]
        return block

    def verify(self, n: int, longest: int, decode, encode) -> tuple[np.ndarray, ...]:
        """Decode the next n lines and require them to be exactly what
        `encode` makes of the decoded arrays; returns those arrays."""
        block = self._take(n, longest)
        arrays = decode(block)
        want = encode(*arrays).encode()
        if block != want:
            raise _BadLine(self.lines + 1 + _first_diff_line(want, block),
                           "not the canonical record of its trial")
        if len(arrays[0]) < n:
            raise _BadLine(self.lines + 1 + len(arrays[0]), "missing: the log ends early")
        self.lines += n
        return arrays

    def reject(self, bad: np.ndarray, reason: str) -> None:
        """Fail at the first true entry of `bad`, a mask over the lines just
        verified."""
        first = np.flatnonzero(bad)
        if len(first):
            raise _BadLine(self.lines - len(bad) + 1 + int(first[0]), reason)

    def finish(self) -> None:
        if self._buf or self._fh.read(1):
            raise _BadLine(self.lines + 1, "past the last trial")


def _first_diff_line(want: bytes, got: bytes) -> int:
    """0-based index of the first line where two blocks differ."""
    m = min(len(want), len(got))
    diff = np.flatnonzero(np.frombuffer(want, dtype=np.uint8, count=m)
                          != np.frombuffer(got, dtype=np.uint8, count=m))
    return want.count(b"\n", 0, int(diff[0]) if len(diff) else m)


def _replay_pairs(body: _Body, kind: str, built: dict) -> dict:
    mode, trials = built["ensemble"].mode.value, built["trials"]
    counts = np.zeros((4 if kind == "chsh" else 1, 4), dtype=np.int64)
    for block, ai, bi, start, n in _pair_chunks(kind, trials):
        a_out, b_out = body.verify(
            n, epr.longest_record(start + n - 1, ai, bi, mode),
            lambda data: epr.decode_block(data, mode),
            lambda a, b: epr.encode_block(start, a, b, ai, bi, mode))
        counts[block] += epr.outcome_counts(a_out, b_out)
    return _RESULTS[kind](counts, trials)


def _replay_events(body: _Body, built: dict) -> dict:
    analytic, trials = built["analytic"], built["trials"]
    blocking = [idx for idx, _ in analytic.stage_survivals]
    counts = np.zeros(4, dtype=np.int64)
    for lo, n in _chunks(trials):
        absorbed_at, outcome = body.verify(
            n, beamline.longest_event(lo + n - 1, max(blocking, default=-1)),
            beamline.decode_events,
            lambda x, o: beamline.encode_events(lo, x, o))
        # a survivor has an outcome; an absorbed trial has none, and was
        # absorbed at a blocking stage
        body.reject(np.where(absorbed_at < 0, outcome == 0,
                             (outcome != 0) | ~np.isin(absorbed_at, blocking)),
                    "an event this beamline cannot produce")
        counts += beamline.event_counts(absorbed_at, outcome)
    return _sg_results(analytic, counts)


def _diverging(kind: str, want: dict, got: dict) -> list[str]:
    """Reported statistics that differ from the recomputed ones.  The roots
    come straight from the outcomes; the rest are derived from them, so they
    are compared only when the roots agree, and a mismatch names its cause."""
    got_roots = _roots(kind, got)
    bad = [name for name, value in _roots(kind, want).items() if got_roots.get(name) != value]
    return bad or [key for key, value in want.items() if got.get(key) != value]


def _roots(kind: str, results: dict) -> dict:
    if kind == "chsh":
        return results.get("correlators") or {}
    if kind == "epr":
        return {"E": results.get("E"), "counts": results.get("counts")}
    mc = results.get("monte_carlo") or {}
    return {"survivor_fraction": mc.get("survivor_fraction"),
            "distribution": mc.get("distribution")}


def replay_run(log_path, cfg: ExperimentConfig) -> ReplayVerdict:
    """Check a trial log against its config hash and stored report.

    Every line must be the canonical record of its trial, in order, with
    nothing missing or extra; every reported statistic must equal the one
    recomputed from the log's outcomes.
    """
    log = Path(log_path)
    with open(log, "rb") as fh:
        head = fh.readline(1 << 16)   # a header is about 130 bytes
        if not head:
            raise ValidationError(f"log {log} is empty")
        header = json.loads(head)
        cfg_hash = config_hash(cfg)
        if not isinstance(header, dict) or header.get("config_hash") != cfg_hash:
            return ReplayVerdict(False, False, ("config_hash",))
        _, built = _setup(cfg)
        kind = cfg.kind
        if "trials" not in built:
            raise ValidationError(f"cannot replay: this {kind} config writes no trial log")
        report = json.loads((log.parent / "report.json").read_text(encoding="utf-8"))
        body = _Body(fh)
        try:
            if head.decode("utf-8", "replace") != _header_line(kind, cfg_hash, built["seed"]):
                raise _BadLine(1, "not the canonical header")
            if kind == "sterngerlach":
                want = _replay_events(body, built)
            else:
                want = _replay_pairs(body, kind, built)
            body.finish()
        except _BadLine as bad:
            return ReplayVerdict(False, True, (), bad.line, bad.reason)
    mismatches = _diverging(kind, want, report["results"])
    return ReplayVerdict(not mismatches, True, tuple(mismatches))
