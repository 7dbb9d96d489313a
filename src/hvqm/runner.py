"""Config-driven experiment execution, trial logs, reports and replay.

Every Monte Carlo kind writes a JSON-lines log whose first line is a header
carrying the canonical config hash; rerunning with the same seed produces a
byte-identical log for any worker count.  `replay` samples the log again
from the config, requires the file to hold exactly those bytes, and checks
the summary statistics recomputed from them against the stored report.

What each experiment kind does is one `Kind` entry in `KINDS`: a run and a
replay walk its trial log through the same block walker and summarise it
with the same function.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, beamline, epr, pathint, phasespace, quasiprob, rng
from .config import (ExperimentConfig, config_hash, keyed_section, parse_direction,
                     parse_float, parse_lhv_weights)
from .errors import ValidationError
from .interference import pair_tables
from .spin import DirectionSet, pattern_label

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


# per setting pair: a chsh log of 4 x 10^7 lines takes about 3.6 GB
MAX_TRIALS = 10_000_000
# grid sizes: lift's M x M complex grids, a slit's bins x quadrature_points
# phases and a four-hole region's region_grid^2 points.  On a 2-vCPU host a
# run at each cap peaks at 195, 51 and 34 MiB of RSS and takes 0.16,
# 0.6-0.9 and 0.003 s; the slit figures are for 65536 x 64.  At the other
# slit shape, 2^22 x 1, a run peaks at 354 MiB, set by the slit pair's
# planes, and takes 21-23 s, almost all of it in the repr of the two CSVs'
# 16.8 million floats
MAX_GRID_M = 2048
MAX_SLIT_PHASES = 1 << 22
MAX_REGION_GRID = 1024


def _check_cap(what: str, value: int, cap: int) -> None:
    """Fail before anything of the run is allocated."""
    if value > cap:
        raise ValidationError(f"{what} = {value} is past the cap of {cap}")


def _seed_and_trials(cfg: ExperimentConfig, notes: list[str], label: str = "trials") -> dict:
    """The seed and trial count of a kind that logs trials, with their notes."""
    seed = cfg.get_int("experiment", "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed {seed} outside the 64-bit unsigned range")
    trials = cfg.get_int("experiment", "trials")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    _check_cap("trials", trials, MAX_TRIALS)
    notes += [f"seed: {seed}", f"{label}: {trials}"]
    return {"seed": seed, "trials": trials}


def _mode_of(cfg: ExperimentConfig, default: str) -> epr.Mode:
    raw = cfg.get("experiment", "mode", default)
    try:
        return epr.Mode(raw)
    except ValueError:
        raise ValidationError(
            f"unknown mode {raw!r}; expected one of "
            + ", ".join(m.value for m in epr.Mode))


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")


# --- trial logs -------------------------------------------------------------
#
# A log is a header line, then one canonical JSON line per trial: the line
# trial_record_json or event_json gives, written in blocks of rng.TILE
# trials, the sampler's tile.  Every trial is a pure function of the
# config's seed and its own index, so a kind's walker samples and encodes
# each block in order whether it runs or replays, and hands the bytes to
# `log.block`: a run writes them (_Writer), a replay requires the log to
# hold exactly them (_Body).  Either way the walker counts the outcomes, and
# the kind's `summarize` turns the counts into the reported statistics.


def _header_line(kind: str, cfg_hash: str, seed: int) -> bytes:
    return json.dumps({"kind": kind, "config_hash": cfg_hash, "seed": seed,
                       "version": __version__}, separators=(",", ":")).encode() + b"\n"


class _Writer:
    """A log being written: each block's lines go to the file."""

    def __init__(self, fh):
        self._fh = fh

    def block(self, data: bytes, lines: int) -> None:
        self._fh.write(data)


def _pair_walker(pairs):
    """Walker of a chsh or epr log: epr.pair_counts over the setting pairs,
    each block of trials encoded as it is drawn; returns the outcome-pair
    counts of each pair."""

    def walk(log, built: dict) -> np.ndarray:
        def encode(first, a_out, b_out, ai, bi):
            log.block(epr.encode_block(first, a_out, b_out, ai, bi, built["mode"]), len(a_out))

        return epr.pair_counts(built["ensemble"], pairs, built["seed"], built["trials"], encode)

    return walk


def _walk_events(log, built: dict) -> np.ndarray:
    """Walker of a Stern-Gerlach log; returns the event_counts of every trial."""
    trials, counts = built["trials"], np.zeros(4, dtype=np.int64)
    for lo in range(0, trials, rng.TILE):
        n = min(rng.TILE, trials - lo)
        events = beamline.monte_carlo_sequence(built["devices"], built["beam"], n,
                                               built["seed"], start=lo,
                                               analytic=built["analytic"])[2]
        log.block(events.encode(), n)
        counts += events.counts
    return counts


def _chsh_results(built: dict, counts: np.ndarray) -> dict:
    trials = built["trials"]
    correlators = {_pair_name(ai, bi): epr.correlator(c)
                   for (ai, bi), c in zip(epr.CHSH_PAIRS, counts)}
    stderrs = {name: epr.correlator_stderr(v, trials) for name, v in correlators.items()}
    return {"correlators": correlators, "stderrs": stderrs,
            "S": epr.chsh_s(correlators.values()),
            "S_stderr": epr.chsh_s_stderr(stderrs.values()),
            "trials_per_correlator": trials}


def _epr_results(built: dict, counts: np.ndarray) -> dict:
    trials, value = built["trials"], epr.correlator(counts[0])
    return {"E": value, "stderr": epr.correlator_stderr(value, trials),
            "counts": {f"{'+' if a > 0 else '-'}{'+' if b > 0 else '-'}": int(c)
                       for (a, b), c in zip(epr.OUTCOME_PAIRS, counts[0])},
            "trials": trials}


def _sg_results(built: dict, counts: np.ndarray) -> dict:
    """counts: beamline.event_counts of every trial."""
    analytic = built["analytic"]
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


@dataclass(frozen=True)
class TrialLog:
    """A kind's trial log: its file name, the walker a run and a replay
    share, the summary of the walker's counts, and `roots`, the reported
    statistics read straight from the outcomes (the rest derive from them)."""

    name: str
    walk: Callable
    summarize: Callable[[dict, np.ndarray], dict]
    roots: Callable[[dict], dict]


# --- experiment kinds ---------------------------------------------------------

def _singlet_setup(keys: tuple[str, ...], default_mode: str, trials_label: str):
    """chsh and epr: an ensemble over the [directions] keys; a seed and a
    trial count in the sampling modes."""

    def setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
        mode = _mode_of(cfg, default_mode)
        dirs = DirectionSet.of(*(parse_direction(cfg.require("directions", k),
                                                 f"[directions] {k}") for k in keys))
        lhv = None
        if mode is epr.Mode.CLASSICAL_LHV:
            lhv = np.array(parse_lhv_weights(cfg, len(keys)))
        built = {"ensemble": epr.SingletEnsemble(dirs, mode, lhv), "mode": mode.value}
        notes.append(f"mode: {mode.value}")
        if mode.is_sampling:
            built.update(_seed_and_trials(cfg, notes, trials_label))
        return built

    return setup


def _run_chsh(built: dict, out_dir: Path):
    res = epr.chsh(built["ensemble"])
    return {"correlators": {_pair_name(a, b): v for (a, b), v in res.correlators.items()},
            "stderrs": None, "S": res.s, "S_stderr": None,
            "trials_per_correlator": None}, []


def _run_epr(built: dict, out_dir: Path):
    return {"E": epr.correlation(built["ensemble"], 0, 1).value, "stderr": None,
            "counts": None, "trials": None}, []


def _quasiprob_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    keyed = keyed_section(cfg, "directions", "theta")
    if len(keyed) < 2:
        raise ValidationError("quasiprob needs at least [directions] theta1, theta2")
    dirs = DirectionSet.from_planar_angles(cfg.get_float("directions", key)
                                           for _, key in keyed)
    notes.append(f"directions: {len(dirs)} planar angles")
    return {"directions": dirs}


def _run_quasiprob(built: dict, out_dir: Path):
    dirs = built["directions"]
    table = quasiprob.solve_weights(dirs)
    born = quasiprob.born_table(dirs)
    report = quasiprob.negativity_report(table)
    quasiprob.write_table_csv(table, out_dir / "weights.csv")
    quasiprob.write_born_csv(born, out_dir / "born.csv")
    results = {
        "n_directions": len(dirs),
        "min_weight": report.min_weight,
        "negative_patterns": [pattern_label(p) for p in report.negative_patterns],
    }
    return results, ["weights.csv", "born.csv"]


def _region_of(cfg: ExperimentConfig, key: str, default: pathint.Region) -> pathint.Region:
    raw = cfg.get("geometry", key)
    if raw is None:
        return default
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValidationError(f"[geometry] {key} needs 'x_min,x_max,y_min,y_max'")
    return pathint.Region(*(parse_float(p, f"[geometry] {key}") for p in parts))


# [geometry] key of each geometry field not named as it is; a field's default
# gives its type, and v comes from v or wavelength by pathint.speed_from
_GEOMETRY_KEYS = {"slit_separation": "d", "slit_width": "w"}


def _geometry(cfg: ExperimentConfig, cls):
    default = cls()
    kwargs = {}
    for f in dataclasses.fields(cls):
        key, value = _GEOMETRY_KEYS.get(f.name, f.name), getattr(default, f.name)
        if isinstance(value, pathint.Region):
            kwargs[f.name] = _region_of(cfg, key, value)
        elif isinstance(value, int):
            kwargs[f.name] = cfg.get_int("geometry", key, value)
        elif f.name != "v":
            kwargs[f.name] = cfg.get_float("geometry", key, value)
    given = {key: cfg.get_float("geometry", key)
             for key in ("v", "wavelength") if key in cfg.sections.get("geometry", {})}
    kwargs["v"] = pathint.speed_from(given.get("v"), given.get("wavelength"), kwargs["mass"],
                                     kwargs["hbar"]) if given else default.v
    return cls(**kwargs)


def _twoslit_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    g = _geometry(cfg, pathint.Geometry2Slit)
    _check_cap("[geometry] bins x quadrature_points", g.bins * g.quadrature_points,
               MAX_SLIT_PHASES)
    notes += [f"wavelength: {g.wavelength!r}",
              f"fringe spacing lambda*l2/d: {g.fringe_spacing!r}",
              f"fringes on screen: {2 * g.screen_half_width / g.fringe_spacing:.1f}"]
    return {"geometry": g, "dark_eps": cfg.get_float("experiment", "dark_eps", 1e-3)}


def _run_twoslit(built: dict, out_dir: Path):
    g, eps = built["geometry"], built["dark_eps"]
    coherent, whichpath = pathint.screen_patterns(g)
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
    return results, ["coherent.csv", "whichpath.csv", "dark_regions.json"]


def _fourhole_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    g = _geometry(cfg, pathint.GeometryFourHole)
    _check_cap("[geometry] region_grid", g.region_grid, MAX_REGION_GRID)
    notes.append(f"wavelength: {g.wavelength!r}")
    return {"geometry": g}


def _run_fourhole(built: dict, out_dir: Path):
    # both tables from one set of amplitudes; axes (s_x, s_A), sign + first
    coherent, whichpath = pair_tables(pathint.four_hole_amplitudes(built["geometry"]))
    gap = float(np.abs(coherent - whichpath).max())

    def cells(t):
        return {f"({sx}x0,{sa}A)": float(t[i, j])
                for i, sx in enumerate("+-") for j, sa in enumerate("+-")}

    results = {"coherent": cells(coherent), "whichpath": cells(whichpath),
               "max_cell_gap": gap}
    (out_dir / "fourhole.json").write_text(json.dumps(results, indent=2),
                                           encoding="utf-8")
    return results, ["fourhole.json"]


_INPUT_STATES = ("+x", "-x", "+y", "-y", "+z", "-z")


def _sg_device(k: int, raw: str) -> beamline.SGDevice:
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
    return beamline.SGDevice(axis, role, block)


def _sg_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    if not cfg.sections.get("sequence"):
        raise ValidationError("sterngerlach needs a [sequence] section")
    devices = [_sg_device(k, cfg.get("sequence", key))
               for k, key in keyed_section(cfg, "sequence", "stage")]
    raw = cfg.get("experiment", "input", "+z").strip().lower()
    if raw not in _INPUT_STATES:
        raise ValidationError(
            f"unknown input state {raw!r}; expected one of {', '.join(_INPUT_STATES)}")
    beam = beamline.BeamState.eigenstate(parse_direction(raw[1:]), 1 if raw[0] == "+" else -1)
    # the analytic walk raises on a malformed sequence and sets the
    # Monte Carlo thresholds; it is made here once
    built = {"devices": devices, "beam": beam,
             "analytic": beamline.run_sequence(devices, beam)}
    notes.append(f"devices: {len(devices)}")
    return {**built, **_seed_and_trials(cfg, notes)}


def _phasespace_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    m = cfg.get_int("grid", "m", 256)
    _check_cap("[grid] m", m, MAX_GRID_M)
    dr = cfg.get_float("grid", "dr", 1.0)
    hbar = cfg.get_float("grid", "hbar", 1.0)
    kind = cfg.get("state", "kind", "gaussian")
    if kind == "gaussian":
        wf = phasespace.gaussian_wavefunction(
            m, dr,
            center=cfg.get_float("state", "center", 0.0),
            width=cfg.get_float("state", "width", 8.0),
            momentum=cfg.get_float("state", "momentum", 0.0),
            hbar=hbar)
    elif kind == "plane_wave":
        wf = phasespace.plane_wave(m, dr, cfg.get_int("state", "mode_index", 4), hbar=hbar)
    else:
        raise ValidationError(f"unknown [state] kind {kind!r}")
    notes.append(f"grid: M={wf.m}, dr={wf.dr!r}")
    return {"wavefunction": wf}


def _run_phasespace(built: dict, out_dir: Path):
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
    return results, ["wavefunction.csv", "momentum.csv"]


@dataclass(frozen=True)
class Kind:
    """One experiment kind.  `setup(cfg, notes)` reads and checks the config,
    appends what `validate` prints and returns what the run is built from,
    with "seed" and "trials" when the run logs trials; `run(built, out_dir)`
    computes an analytic run and returns (results, output names);
    `log` writes and verifies the trial log of a sampling run."""

    setup: Callable[[ExperimentConfig, list[str]], dict]
    run: Callable | None = None
    log: TrialLog | None = None


KINDS = {
    "chsh": Kind(_singlet_setup(("a1", "a2", "b1", "b2"), "born_analytic",
                                "trials per correlator"), _run_chsh,
                 TrialLog("trials.jsonl", _pair_walker(epr.CHSH_PAIRS), _chsh_results,
                          lambda r: r.get("correlators") or {})),
    "epr": Kind(_singlet_setup(("a", "b"), "born_sampling", "trials"), _run_epr,
                TrialLog("trials.jsonl", _pair_walker(((0, 1),)), _epr_results,
                         lambda r: {"E": r.get("E"), "counts": r.get("counts")})),
    "quasiprob": Kind(_quasiprob_setup, _run_quasiprob),
    "twoslit": Kind(_twoslit_setup, _run_twoslit),
    "fourhole": Kind(_fourhole_setup, _run_fourhole),
    "sterngerlach": Kind(_sg_setup, log=TrialLog(
        "events.jsonl", _walk_events, _sg_results,
        lambda r: {key: (r.get("monte_carlo") or {}).get(key)
                   for key in ("survivor_fraction", "distribution")})),
    "phasespace": Kind(_phasespace_setup, _run_phasespace),
}


def _setup(cfg: ExperimentConfig) -> tuple[Kind, list[str], dict]:
    """Full schema and physics validation, made once per run or replay.

    Returns the kind, the diagnostics `validate` prints and the objects the
    run is built from.
    """
    if not cfg.kind:
        raise ValidationError("missing required field [experiment] kind")
    if cfg.kind not in KINDS:
        raise ValidationError(
            f"unknown experiment kind {cfg.kind!r}; expected one of {', '.join(KINDS)}")
    _check_workers(cfg.get_int("experiment", "workers", 1))
    notes = [f"kind: {cfg.kind}"]
    spec = KINDS[cfg.kind]
    return spec, notes, spec.setup(cfg, notes)


def validate_experiment(cfg: ExperimentConfig) -> list[str]:
    """Full schema and physics validation without running; returns diagnostics."""
    return _setup(cfg)[1]


def run_experiment(cfg: ExperimentConfig, out_dir, workers: int = 1) -> RunReport:
    _check_workers(workers)
    spec, _, built = _setup(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(cfg)
    t0 = time.perf_counter()
    if "trials" in built:
        with open(out / spec.log.name, "wb") as fh:
            fh.write(_header_line(cfg.kind, cfg_hash, built["seed"]))
            results = spec.log.summarize(built, spec.log.walk(_Writer(fh), built))
        outputs = [spec.log.name]
    else:
        results, outputs = spec.run(built, out)
    report = RunReport(cfg.kind, cfg_hash, results, time.perf_counter() - t0,
                       tuple(outputs), built.get("seed"), built.get("trials"),
                       built.get("mode"), config={k: dict(v) for k, v in cfg.sections.items()})
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
    """A log body after its header, read one block at a time, so memory
    stays bounded by the block size whatever the log holds."""

    def __init__(self, fh):
        self._fh = fh
        self.lines = 1   # lines verified so far, the header included

    def block(self, want: bytes, lines: int) -> None:
        """Require the next bytes of the log to be `want`, its next `lines`
        lines."""
        got = self._fh.read(len(want))
        if got != want:
            bad = self.lines + 1 + _first_diff_line(want, got)
            if want.startswith(got) and got[-1:] in (b"", b"\n"):
                raise _BadLine(bad, "missing: the log ends early")
            raise _BadLine(bad, "not the canonical record of its trial")
        self.lines += lines

    def finish(self) -> None:
        if self._fh.read(1):
            raise _BadLine(self.lines + 1, "past the last trial")


def _first_diff_line(want: bytes, got: bytes) -> int:
    """0-based index of the first line where two blocks differ."""
    m = min(len(want), len(got))
    diff = np.flatnonzero(np.frombuffer(want, dtype=np.uint8, count=m)
                          != np.frombuffer(got, dtype=np.uint8, count=m))
    return want.count(b"\n", 0, int(diff[0]) if len(diff) else m)


def _diverging(roots, want: dict, got: dict) -> list[str]:
    """Reported statistics that differ from the recomputed ones.  The roots
    come straight from the outcomes; the rest are derived from them, so they
    are compared only when the roots agree, and a mismatch names its cause."""
    got_roots = roots(got)
    bad = [name for name, value in roots(want).items() if got_roots.get(name) != value]
    return bad or [key for key, value in want.items() if got.get(key) != value]


def replay_run(log_path, cfg: ExperimentConfig) -> ReplayVerdict:
    """Check a trial log against its config hash and stored report.

    The body must be byte for byte what a run of the config writes, with
    nothing missing or extra; every reported statistic must equal the one
    recomputed from those outcomes.
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
        spec, _, built = _setup(cfg)
        if "trials" not in built:
            raise ValidationError(f"cannot replay: this {cfg.kind} config writes no trial log")
        report = json.loads((log.parent / "report.json").read_text(encoding="utf-8"))
        body = _Body(fh)
        try:
            if head != _header_line(cfg.kind, cfg_hash, built["seed"]):
                raise _BadLine(1, "not the canonical header")
            want = spec.log.summarize(built, spec.log.walk(body, built))
            body.finish()
        except _BadLine as bad:
            return ReplayVerdict(False, True, (), bad.line, bad.reason)
    mismatches = _diverging(spec.log.roots, want, report["results"])
    return ReplayVerdict(not mismatches, True, tuple(mismatches))
