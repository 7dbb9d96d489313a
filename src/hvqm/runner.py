"""Config-driven experiment execution, reports and replay.

What each experiment kind does is one `Kind` entry in `KINDS`.  Its run
writes every file through `output(name)`, a block of bytes at a time, and
returns the results, which `report.json` then carries through the same
`output`.  A run's `output` writes a new file; a replay's requires the file
already there to hold exactly those bytes and names its first bad line.  A
run's wall time goes to `telemetry.json`, which replay does not read.

Every Monte Carlo kind writes a JSON-lines log whose first line is a header
carrying the canonical config hash; rerunning with the same seed produces a
byte-identical log for any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, beamline, epr, logcodec, pathint, phasespace, quasiprob
from .config import (ExperimentConfig, config_hash, hashed_sections, keyed_section,
                     parse_direction, parse_float, parse_lhv_weights)
from .errors import HvqmError, ValidationError
from .interference import pair_tables
from .spin import DirectionSet

_SETTING_NAMES = {0: "a1", 1: "a2", 2: "b1", 3: "b2"}


def _pair_name(ai: int, bi: int) -> str:
    return f"E({_SETTING_NAMES[ai]},{_SETTING_NAMES[bi]})"


@dataclass(frozen=True)
class RunReport:
    """What report.json holds, in its order, with the version after the kind."""

    kind: str
    config_hash: str
    seed: int | None
    trials: int | None
    mode: str | None
    config: dict                 # config.hashed_sections, overrides applied
    results: dict
    outputs: tuple[str, ...]     # the kind's files, report.json not among them

    def to_json(self) -> str:
        fields = dict(vars(self))
        return json.dumps({"kind": fields.pop("kind"), "version": __version__, **fields},
                          indent=2)


# per setting pair: a chsh log of 4 x 10^7 lines takes about 3.6 GB
MAX_TRIALS = 10_000_000
# grid sizes: lift's M x M complex grid, a slit's bins x quadrature_points
# phases and a four-hole region's region_grid^2 points.  On a 2-vCPU host a
# run at each cap peaks at 100, 51 and 34 MiB of RSS and takes 0.05-0.06,
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
# trial_record_json or event_json gives.  Every trial is a pure function of
# the config's seed and its own index, so whether it runs or replays, a
# kind's walk is one call of its library walk (epr.pair_counts or
# beamline.sequence_counts), which draws the trials rng.TILE at a time in
# order as indices into a fixed table of line suffixes, counts them with
# logcodec.index_counts and hands each piece's indices and suffixes to its
# on_block.  `_logged` joins those lines in blocks of at most
# logcodec.LOG_BLOCK and writes each block to the log's output; the kind's
# `summarize` maps the library's estimates of the counts onto the reported
# statistics.


def _logged(name: str, walk: Callable[[dict, Callable], np.ndarray],
            summarize: Callable[[dict, np.ndarray], dict],
            analytic: Callable[[dict], dict] | None = None):
    """The run of a kind that logs its trials to the file `name`: the
    header, then the lines of each piece of `walk(built, on_block)`, trial
    first + i's '{"trial":N' + suffixes[k[i]]; returns the summary of the
    counts the walk returns.  A chsh or epr config in an analytic mode has
    no trials, and its run is `analytic(built)`, which writes no file."""

    def run(built: dict, output) -> dict:
        if "trials" not in built:
            return analytic(built)
        with output(name) as log:
            log.write(json.dumps({"kind": built["kind"], "config_hash": built["config_hash"],
                                  "seed": built["seed"], "version": __version__},
                                 separators=(",", ":")).encode() + b"\n")

            def on_block(first: int, k: np.ndarray, suffixes: tuple[bytes, ...]) -> None:
                for lo in range(0, len(k), logcodec.LOG_BLOCK):
                    log.write(logcodec.join_lines(first + lo, k[lo:lo + logcodec.LOG_BLOCK],
                                                  suffixes))

            return summarize(built, walk(built, on_block))

    return run


def _write(output, name: str, blocks) -> None:
    """The file `name` of a run: each of `blocks`, bytes, in turn."""
    with output(name) as f:
        for data in blocks:
            f.write(data)


def _chsh_report(res: epr.CHSHResult) -> dict:
    """A chsh report's results, analytic or sampled."""

    def named(values):
        return None if values is None else {_pair_name(a, b): v for (a, b), v in values.items()}

    return {"correlators": named(res.correlators), "stderrs": named(res.stderrs),
            "S": res.s, "S_stderr": res.s_stderr,
            "trials_per_correlator": res.trials_per_correlator}


def _epr_report(res: epr.CorrelationEstimate, counts) -> dict:
    """An epr report's results; counts are the sampled outcome-pair counts,
    None for an analytic run."""
    return {"E": res.value, "stderr": res.stderr,
            "counts": None if counts is None else {
                f"{'+' if a > 0 else '-'}{'+' if b > 0 else '-'}": int(c)
                for (a, b), c in zip(epr.OUTCOME_PAIRS, counts)},
            "trials": res.trials}


def _sg_results(built: dict, counts: np.ndarray) -> dict:
    """counts: beamline.sequence_counts of every trial."""
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


def _quasiprob_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    keyed = keyed_section(cfg, "directions", "theta")
    if len(keyed) < 2:
        raise ValidationError("quasiprob needs at least [directions] theta1, theta2")
    _check_cap("[directions] keys", len(keyed), quasiprob.MAX_N)
    dirs = DirectionSet.of(*(parse_direction(cfg.require("directions", key),
                                             f"[directions] {key}") for _, key in keyed))
    notes.append(f"directions: {len(dirs)}")
    return {"directions": dirs}


def _run_quasiprob(built: dict, output) -> dict:
    dirs = built["directions"]
    table = quasiprob.solve_weights(dirs)
    report = quasiprob.negativity_report(table)
    _write(output, "weights.csv", quasiprob.table_csv(table))
    _write(output, "born.csv", quasiprob.born_csv(quasiprob.born_table(dirs)))
    return {
        "n_directions": len(dirs),
        "min_weight": report.min_weight,
        "n_negative": report.n_negative,
    }


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


def _run_twoslit(built: dict, output) -> dict:
    g, eps = built["geometry"], built["dark_eps"]
    coherent, whichpath = pathint.screen_patterns(g)
    dark = pathint.dark_region_finder(coherent, whichpath, eps)
    _write(output, "coherent.csv", pathint.pattern_csv(coherent))
    _write(output, "whichpath.csv", pathint.pattern_csv(whichpath))
    centers = g.bin_centers()
    _write(output, "dark_regions.json", [json.dumps({
        "eps": eps,
        "bins": dark,
        "bin_centers": [float(centers[i]) for i in dark],
    }, indent=2).encode()])
    return {
        "fringe_spacing": g.fringe_spacing,
        "wavelength": g.wavelength,
        "n_dark_bins": len(dark),
        "coherent_max": float(coherent.probabilities.max()),
        "whichpath_max": float(whichpath.probabilities.max()),
    }


def _fourhole_setup(cfg: ExperimentConfig, notes: list[str]) -> dict:
    g = _geometry(cfg, pathint.GeometryFourHole)
    _check_cap("[geometry] region_grid", g.region_grid, MAX_REGION_GRID)
    notes.append(f"wavelength: {g.wavelength!r}")
    return {"geometry": g}


def _run_fourhole(built: dict, output) -> dict:
    # both tables from one set of amplitudes; axes (s_x, s_A), sign + first
    coherent, whichpath = pair_tables(pathint.four_hole_amplitudes(built["geometry"]))
    gap = float(np.abs(coherent - whichpath).max())

    def cells(t):
        return {f"({sx}x0,{sa}A)": float(t[i, j])
                for i, sx in enumerate("+-") for j, sa in enumerate("+-")}

    results = {"coherent": cells(coherent), "whichpath": cells(whichpath),
               "max_cell_gap": gap}
    _write(output, "fourhole.json", [json.dumps(results, indent=2).encode()])
    return results


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


def _run_phasespace(built: dict, output) -> dict:
    wf = built["wavefunction"]
    lifted = phasespace.lift(wf)
    back = phasespace.project_r(lifted)
    xi = phasespace.to_momentum(wf)
    ray = phasespace.project_p(lifted)
    roundtrip = float(np.max(np.abs(back.values - wf.values)))
    parseval = abs(xi.norm_sq() - wf.norm_sq())
    overlap = phasespace.ray_overlap(ray.values, xi.values)
    _write(output, "wavefunction.csv", phasespace.grid_csv(wf.values))
    _write(output, "momentum.csv", phasespace.grid_csv(xi.values))
    return {"m": wf.m, "dr": wf.dr,
            "roundtrip_error": roundtrip,
            "parseval_gap": parseval,
            "momentum_ray_overlap": overlap}


@dataclass(frozen=True)
class Kind:
    """One experiment kind.  `setup(cfg, notes)` reads and checks the config,
    appends what `validate` prints and returns what the run is built from,
    with "seed" and "trials" when the run logs trials; `run(built, output)`
    writes each file of the run through `output(name)` and returns the
    results."""

    setup: Callable[[ExperimentConfig, list[str]], dict]
    run: Callable[[dict, Callable], dict]


KINDS = {
    "chsh": Kind(_singlet_setup(("a1", "a2", "b1", "b2"), "born_analytic",
                                "trials per correlator"), _logged(
        "trials.jsonl",
        lambda b, on_block: epr.pair_counts(b["ensemble"], epr.CHSH_PAIRS, b["seed"],
                                            b["trials"], on_block),
        lambda b, counts: _chsh_report(epr.chsh_estimate(counts, b["mode"])),
        lambda b: _chsh_report(epr.chsh(b["ensemble"])))),
    "epr": Kind(_singlet_setup(("a", "b"), "born_sampling", "trials"), _logged(
        "trials.jsonl",
        lambda b, on_block: epr.pair_counts(b["ensemble"], ((0, 1),), b["seed"],
                                            b["trials"], on_block)[0],
        lambda b, counts: _epr_report(epr.pair_estimate(counts), counts),
        lambda b: _epr_report(epr.correlation(b["ensemble"], 0, 1), None))),
    "quasiprob": Kind(_quasiprob_setup, _run_quasiprob),
    "twoslit": Kind(_twoslit_setup, _run_twoslit),
    "fourhole": Kind(_fourhole_setup, _run_fourhole),
    "sterngerlach": Kind(_sg_setup, _logged(
        "events.jsonl",
        lambda b, on_block: beamline.sequence_counts(b["devices"], b["beam"], b["trials"],
                                                     b["seed"], b["analytic"], on_block),
        _sg_results)),
    "phasespace": Kind(_phasespace_setup, _run_phasespace),
}


def _setup(cfg: ExperimentConfig, cfg_hash: str | None = None) -> tuple[Kind, list[str], dict]:
    """Full schema and physics validation, made once per run or replay.

    Returns the kind, the diagnostics `validate` prints and the objects the
    run is built from, with the kind's name and `cfg_hash`.
    """
    if not cfg.kind:
        raise ValidationError("missing required field [experiment] kind")
    if cfg.kind not in KINDS:
        raise ValidationError(
            f"unknown experiment kind {cfg.kind!r}; expected one of {', '.join(KINDS)}")
    _check_workers(cfg.get_int("experiment", "workers", 1))
    notes = [f"kind: {cfg.kind}"]
    spec = KINDS[cfg.kind]
    return spec, notes, {**spec.setup(cfg, notes), "kind": cfg.kind, "config_hash": cfg_hash}


def validate_experiment(cfg: ExperimentConfig) -> list[str]:
    """Full schema and physics validation without running; returns diagnostics."""
    return _setup(cfg)[1]


def _reported(cfg: ExperimentConfig, spec: Kind, built: dict, output) -> RunReport:
    """The kind's run through `output`, then its report.json through the
    same `output`, whether it writes the files or compares them."""
    outputs = []

    def named(name: str):
        outputs.append(name)
        return output(name)

    results = spec.run(built, named)
    report = RunReport(cfg.kind, built["config_hash"], built.get("seed"), built.get("trials"),
                       built.get("mode"), hashed_sections(cfg), results, tuple(outputs))
    _write(output, "report.json", [(report.to_json() + "\n").encode()])
    return report


def run_experiment(cfg: ExperimentConfig, out_dir, workers: int = 1) -> RunReport:
    _check_workers(workers)
    spec, _, built = _setup(cfg, config_hash(cfg))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = _reported(cfg, spec, built, lambda name: logcodec.open_new(out / name))
    with logcodec.open_new(out / "telemetry.json") as f:
        f.write(json.dumps({"duration_s": time.perf_counter() - t0}).encode() + b"\n")
    return report


# --- replay ---------------------------------------------------------------

@dataclass(frozen=True)
class ReplayVerdict:
    ok: bool
    hash_ok: bool
    mismatches: tuple[str, ...]     # the key on the run's first bad line, if it has one
    first_bad_line: int | None = None   # 1-based; a log's header is line 1
    reason: str | None = None

    @property
    def verdict(self) -> str:
        if not self.hash_ok:
            return "HASH_MISMATCH"
        return "OK" if self.ok else "MISMATCH"


class _BadLine(Exception):
    def __init__(self, line: int, reason: str, key: tuple[str, ...] = ()):
        super().__init__(reason)
        self.line, self.reason, self.key = line, reason, key


# the key a line of indented JSON opens with: `json.dumps(indent=2)` puts
# every scalar on a line of its own, after its key
_KEY = re.compile(rb'\s*"([^"]*)":')


class _Compare:
    """A replay's `output`: each write must be the next bytes of the file
    at `path`, and nothing may follow the last.  Memory stays one block
    whatever the file holds; its lines are counted only on a mismatch."""

    def __init__(self, path: Path):
        self._name, self._at = path.name, 0   # bytes verified
        try:
            self._fh = open(path, "rb")
        except FileNotFoundError:
            raise _BadLine(1, f"{self._name}: missing") from None

    def write(self, want: bytes) -> None:
        got = self._fh.read(len(want))
        if got != want:
            k = _first_diff_line(want, got)
            key = _KEY.match(want.split(b"\n", k + 1)[k])
            early = want.startswith(got) and got[-1:] in (b"", b"\n")
            raise _BadLine(self._lines_verified() + 1 + k, f"{self._name}: " + (
                "the file ends early" if early else "not what the run writes"),
                (key[1].decode(),) if key else ())
        self._at += len(want)

    def _lines_verified(self) -> int:
        self._fh.seek(0)
        return sum(self._fh.read(min(1 << 20, self._at - lo)).count(b"\n")
                   for lo in range(0, self._at, 1 << 20))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_) -> None:
        with self._fh:
            if exc_type is None and self._fh.read(1):
                raise _BadLine(self._lines_verified() + 1,
                               f"{self._name}: past the end of what the run writes")


def _first_diff_line(want: bytes, got: bytes) -> int:
    """0-based index of the first line where two blocks differ: the line of
    their first differing byte, found by argmax of the mask, which stops at
    the first True; where one block is a prefix of the other, the line
    where the shorter ends."""
    m = min(len(want), len(got))
    diff = (np.frombuffer(want, dtype=np.uint8, count=m)
            != np.frombuffer(got, dtype=np.uint8, count=m))
    first = int(diff.argmax()) if m else 0
    return want.count(b"\n", 0, first if m and diff[first] else m)


def replay_run(log_path, cfg: ExperimentConfig) -> ReplayVerdict:
    """Check a run's files against its config, given `log_path`, the run's
    report.json or a file the run writes.

    The config hash of the report.json beside `log_path` must be the
    config's; a report that is missing (named in `reason`, or by HvqmError
    if `log_path` is missing too) or not a JSON object has none.  The run is
    made again through the comparing `output`: each file it writes,
    report.json last, must be byte for byte what the directory holds, with
    nothing missing or extra.  telemetry.json is not read.
    """
    log = Path(log_path)
    path = log.parent / "report.json"
    try:
        stored = json.loads(path.read_bytes())
    except FileNotFoundError:
        if not log.exists():
            raise HvqmError(f"{log}: no such file, and no report.json beside it") from None
        return ReplayVerdict(False, False, ("config_hash",), reason=f"{path}: missing")
    except ValueError:
        stored = None
    cfg_hash = config_hash(cfg)
    if not isinstance(stored, dict) or stored.get("config_hash") != cfg_hash:
        return ReplayVerdict(False, False, ("config_hash",))
    spec, _, built = _setup(cfg, cfg_hash)
    try:
        report = _reported(cfg, spec, built, lambda name: _Compare(log.parent / name))
    except _BadLine as bad:
        return ReplayVerdict(False, True, bad.key, bad.line, bad.reason)
    if log.name not in ("report.json", *report.outputs):
        raise ValidationError(f"{log.name} is neither report.json nor a file this config writes")
    return ReplayVerdict(True, True, ())
