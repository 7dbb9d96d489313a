"""The trial-log format is a contract: shipped logs are pinned by sha256.

The hashes were taken from the per-record `json.dumps` writer that the
block encoders replaced; any change to the bytes of a shipped sampling log,
for any worker count, fails here.  The block codecs are checked against the
per-record encoders, which stay the definition of a line, and the CSV
writer against the per-row loop it replaced.  The data files
and results of the shipped analytic configs are pinned the same way, as are
the results of the sampling configs and what `hvqm validate` prints for
every shipped config.
"""

import hashlib
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import closed_form_w3, index_events
from hvqm import beamline, epr, logcodec, pathint, rng, runner
from hvqm.beamline import TrialEvent, event_json
from hvqm.cli import main
from hvqm.config import apply_overrides, parse_config
from hvqm.epr import TrialRecord, trial_record_json
from hvqm.logcodec import suffix_of, write_csv
from hvqm.runner import run_experiment
from hvqm.spin import Direction, pattern_from_index

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# shipped seed and trials of each sampling config
SHIPPED_LOG_SHA256 = {
    "chsh_mc": ("trials.jsonl",
                "eb4f5ce0a91a57f1bd388b2d0d522602b8da4bd7aaf286e6cd4f0c72832f5792"),
    "chsh_lhv": ("trials.jsonl",
                 "e959c8bd1145994a610d18da9a5e5b0c2502489b2055167a1c6aa8544d9c96e2"),
    "epr_sampling": ("trials.jsonl",
                     "40e9848fa3a3bec347942fd0b48f534fa8976c08476fe61966670fbafc69c5fe"),
    "sterngerlach": ("events.jsonl",
                     "00225b6c8b451417067f54fa07698a65d6b45437417963393be4654e7d579ef7"),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(SHIPPED_LOG_SHA256))
def test_shipped_log_sha256(tmp_path, name, workers):
    log_name, want = SHIPPED_LOG_SHA256[name]
    run_experiment(parse_config(CONFIG_DIR / f"{name}.cfg"), tmp_path, workers=workers)
    assert hashlib.sha256((tmp_path / log_name).read_bytes()).hexdigest() == want


# --- the block codecs against the per-record encoders ------------------------

starts = st.integers(min_value=0, max_value=10 ** 12)
modes = st.sampled_from([m.value for m in epr.Mode])
outcomes = st.lists(st.sampled_from([1, -1]), max_size=60)


@st.composite
def outcome_pairs(draw):
    a = draw(outcomes)
    b = draw(st.lists(st.sampled_from([1, -1]), min_size=len(a), max_size=len(a)))
    return np.array(a, dtype=np.int8), np.array(b, dtype=np.int8)


@st.composite
def event_indices(draw):
    """(stages, k): the device indices of up to three blocking stages, and
    event indices into their event_suffixes."""
    stages = tuple(sorted(draw(st.lists(st.integers(min_value=0, max_value=120),
                                        max_size=3, unique=True))))
    k = draw(st.lists(st.integers(min_value=0, max_value=len(stages) + 1), max_size=60))
    return stages, np.array(k, dtype=np.uint8)


@st.composite
def index_arrays(draw):
    """(k, n): uint8 or uint16 indices below n, some of 0 .. n - 1 absent;
    a uint8 n may pass its range."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    n = draw(st.integers(min_value=1, max_value=300 if dtype is np.uint8 else 700))
    present = draw(st.lists(st.integers(min_value=0, max_value=min(n, 256) - 1),
                            min_size=1, unique=True))
    k = draw(st.lists(st.sampled_from(present), max_size=300))
    return np.array(k, dtype=dtype), n


@given(starts, outcome_pairs(), st.integers(0, 3), st.integers(0, 3), modes)
@example(9_995, (np.ones(10, np.int8), -np.ones(10, np.int8)), 0, 2, "born_sampling")
@example(0, (np.ones(0, np.int8), np.ones(0, np.int8)), 1, 3, "classical_lhv")
# across multiples of 10 000 (the digit table's period) and a width change
@example(19_990, (np.ones(25, np.int8), -np.ones(25, np.int8)), 0, 2, "born_sampling")
@example(99_980, (np.resize(np.int8([1, -1, -1]), 45), np.resize(np.int8([-1, 1]), 45)),
         1, 3, "born_sampling")
# near the last trial of a log at the cap: 4 x 10^7 trials
@example(39_999_970, (np.resize(np.int8([1, -1]), 30), np.ones(30, np.int8)), 1, 2,
         "classical_lhv")
@settings(max_examples=200, deadline=None)
def test_encode_block_is_the_joined_records(start, pair, ai, bi, mode):
    a_out, b_out = pair
    want = b"".join(
        trial_record_json(TrialRecord(start + i, ai, bi, int(a), int(b), mode)).encode() + b"\n"
        for i, (a, b) in enumerate(zip(a_out, b_out)))
    k = 2 * (a_out < 0) + (b_out < 0)   # position in OUTCOME_PAIRS
    assert [epr.OUTCOME_PAIRS[j] for j in k] == list(zip(a_out.tolist(), b_out.tolist()))
    assert logcodec.join_lines(start, k.astype(np.uint8),
                               epr._record_suffixes(ai, bi, mode)) == want


def _walk_of(stages) -> beamline.SequenceResult:
    """A surviving walk through blocking stages at these device indices."""
    return beamline.SequenceResult({1: 0.5, -1: 0.5}, 0.5 ** len(stages), False,
                                   tuple((idx, 0.5) for idx in stages))


@given(starts, event_indices())
@example(99_990, ((2, 13), np.array([2, 0, 1, 3] * 5, dtype=np.uint8)))
@example(9_990_000 - 7, ((0,), np.array([1, 0] * 10, dtype=np.uint8)))
@example(39_999_990, ((), np.zeros(10, dtype=np.uint8)))
# one event index; every index of a three-stage sequence
@example(5, ((3,), np.zeros(12, dtype=np.uint8)))
@example(0, ((0, 1, 2), np.array([3, 4, 0, 1, 2], dtype=np.uint8)))
@settings(max_examples=200, deadline=None)
def test_encode_events_is_the_joined_events(start, events):
    stages, k = events
    walk = _walk_of(stages)
    want = b"".join(event_json(e).encode() + b"\n" for e in index_events(k, walk, start))
    assert logcodec.join_lines(start, k, beamline.event_suffixes(walk)) == want


@given(index_arrays())
@example((np.array([255, 255, 255, 0], dtype=np.uint8), 256))
@example((np.array([300, 301, 0, 301], dtype=np.uint16), 302))
@example((np.zeros(0, dtype=np.uint8), 4))
@example((np.full(5, 2, dtype=np.uint8), 4))
@settings(max_examples=200, deadline=None)
def test_index_counts_is_bincount(indices):
    k, n = indices
    got = logcodec.index_counts(k, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.bincount(k, minlength=n))


def test_suffix_of_checks_the_head():
    assert suffix_of('{"trial":0,"outcome":1}') == b',"outcome":1}\n'
    for line in ('{"trial":1,"outcome":1}', '{"trial": 0,"outcome":1}',
                 '{"trials":0,"outcome":1}', '"trial":0'):
        with pytest.raises(ValueError):
            suffix_of(line)


def test_monte_carlo_events_match_the_record_list():
    seq = [beamline.split(Direction(1.0, 0.0, 0.0), block=-1),
           beamline.analyze(Direction(0.0, 1.0, 0.0))]
    beam = beamline.BeamState.eigenstate(Direction(0.0, 0.0, 1.0), 1)
    analytic = beamline.run_sequence(seq, beam)
    k = beamline.monte_carlo_sequence(seq, beam, 500, seed=2, start=40)
    lines = logcodec.join_lines(40, k, beamline.event_suffixes(analytic))
    assert lines == b"".join(event_json(e).encode() + b"\n"
                             for e in index_events(k, analytic, 40))
    assert [json.loads(line)["trial"] for line in lines.splitlines()] == list(range(40, 540))


@pytest.mark.parametrize("name", sorted(SHIPPED_LOG_SHA256))
def test_log_does_not_depend_on_block_size(tmp_path, monkeypatch, name):
    """Tiles of 7 trials, logged in blocks of 3 lines, write the same bytes
    as the defaults, and replay."""
    log_name, _ = SHIPPED_LOG_SHA256[name]
    cfg = apply_overrides(parse_config(CONFIG_DIR / f"{name}.cfg"), trials=100)
    run_experiment(cfg, tmp_path / "default")
    monkeypatch.setattr(rng, "TILE", 7)
    monkeypatch.setattr(logcodec, "LOG_BLOCK", 3)
    run_experiment(cfg, tmp_path / "small")
    assert (tmp_path / "default" / log_name).read_bytes() == (
        tmp_path / "small" / log_name).read_bytes()
    assert runner.replay_run(tmp_path / "small" / log_name, cfg).verdict == "OK"


@pytest.mark.parametrize("name", sorted(SHIPPED_LOG_SHA256))
def test_run_and_replay_memory_stay_one_tile_and_one_log_block(tmp_path, name):
    """A run and a replay hold one tile of draws and one block of log lines
    at a time: at 4 tiles and 5 trials, past a tile per setting pair, their
    traced peaks stay under 80 bytes per trial of a tile (ten int64 arrays)
    plus 300 per line of a log block (three copies of ~100-byte lines)."""
    log_name, _ = SHIPPED_LOG_SHA256[name]
    cfg = apply_overrides(parse_config(CONFIG_DIR / f"{name}.cfg"), trials=4 * rng.TILE + 5)
    bound = 80 * rng.TILE + 300 * logcodec.LOG_BLOCK
    for step in (lambda: run_experiment(cfg, tmp_path),
                 lambda: runner.replay_run(tmp_path / log_name, cfg)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_sterngerlach_counts_each_block_once(tmp_path, monkeypatch):
    calls = []
    counts = beamline.index_counts
    monkeypatch.setattr(beamline, "index_counts",
                        lambda *a: calls.append(1) or counts(*a))
    monkeypatch.setattr(rng, "TILE", 7)
    cfg = apply_overrides(parse_config(CONFIG_DIR / "sterngerlach.cfg"), trials=100)
    run_experiment(cfg, tmp_path)
    assert len(calls) == 15   # blocks of 7 in 100 trials
    calls.clear()
    assert runner.replay_run(tmp_path / "events.jsonl", cfg).verdict == "OK"
    assert len(calls) == 15


def test_twoslit_builds_the_slit_pair_once(tmp_path, monkeypatch):
    calls = []
    pair = pathint.slit_pair
    monkeypatch.setattr(pathint, "slit_pair", lambda g: calls.append(g) or pair(g))
    run_experiment(parse_config(CONFIG_DIR / "twoslit.cfg"), tmp_path)
    assert len(calls) == 1


# --- the analytic configs' outputs ---------------------------------------------

# sha256 of every CSV and JSON file `run` writes for the shipped analytic
# configs, report.json included (its config echo leaves out out_dir and
# workers, and the run's duration is in telemetry.json); the results are
# also pinned below, so a moved report names its statistic
ANALYTIC_OUTPUT_SHA256 = {
    "quasiprob3": {
        "born.csv": "f307ded7a179cebe6f7014588274571fae94bf0a96bd5d48b160c95aeaf6c420",
        "report.json": "096cf74c4a35746b0bc47ba33b567dae8c8b082443b3d1b044d3723df57cab1d",
    },
    "twoslit": {
        # the slit waves' and the patterns' bits follow from cos, sin and
        # real sums and products alone: the patterns square as re^2 + im^2,
        # not through numpy's complex absolute value, whose SIMD loops
        # round differently.  test_grid_kernels checks the CSVs against the
        # explicit sums whatever numpy runs
        "coherent.csv": "48dd9caa8c1f7f2fc4315716833b3d6ab0c24b3399e9bec6e173807973919d43",
        "whichpath.csv": "f933d6eb6f8e6fbd000c0f72f44383c3ace62c36d71ce1b2f3d9df064426e780",
        "dark_regions.json":
            "7be24219577f04ae2b8d8ce7fca08133b38620c2bb80c2a0971eb527a2c17d30",
        "report.json": "935309b9f30818042fb22c84b52890a275b09dd2c2414eb1e0e49398a9674487",
    },
    "fourhole": {
        "fourhole.json": "abadc56ba77d2d275d449eeb46675a2daeac8a2032aa97cdfb96092fc7bf468e",
        "report.json": "0d319867f4b3b6326a4592c578e7c12e614a4dce125af1677114d6c8b0b247e9",
    },
    "phasespace": {
        "wavefunction.csv":
            "a2f70ed660a2271899b91158cb08939a9fa2ddf04b287bd67db42213513a058d",
        "momentum.csv": "0737766ce820cc1e79fb313b761cc7484d8e96b022ce0407f5ee142fba37528e",
        "report.json": "1e3878ea237c871461344a2239ce6ee322a37b5856d964c645ebc1202808e0fb",
    },
}

ANALYTIC_RESULTS = {
    "twoslit": {"fringe_spacing": 1.0, "wavelength": 0.01, "n_dark_bins": 12,
                "coherent_max": 0.003999447805748933,
                "whichpath_max": 0.0019545283427569848},
    "fourhole": {
        "coherent": {"(+x0,+A)": 0.24793313639704545, "(+x0,-A)": 0.047504969283195655,
                     "(-x0,+A)": 0.017133502438852265, "(-x0,-A)": 0.6874283918809067},
        "whichpath": {"(+x0,+A)": 0.4756579173406078, "(+x0,-A)": 0.03176797201698361,
                      "(-x0,+A)": 0.03287049970506407, "(-x0,-A)": 0.4597036109373445},
        "max_cell_gap": 0.22772478094356235},
    "phasespace": {"m": 256, "dr": 1.0, "roundtrip_error": 7.666372934760685e-17,
                   "parseval_gap": 2.220446049250313e-16,
                   "momentum_ray_overlap": 1.0},
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_OUTPUT_SHA256))
def test_analytic_outputs_sha256(tmp_path, name):
    report = run_experiment(parse_config(CONFIG_DIR / f"{name}.cfg"), tmp_path)
    for file_name, want in ANALYTIC_OUTPUT_SHA256[name].items():
        assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == want, file_name
    written = json.loads((tmp_path / "report.json").read_text())["results"]
    if name in ANALYTIC_RESULTS:
        assert written == ANALYTIC_RESULTS[name]
    else:
        # the signed weights and their minimum are checked against the closed form
        assert written["n_directions"] == 3
        assert written["n_negative"] == 2
        thetas = [float(v) for v in parse_config(CONFIG_DIR / f"{name}.cfg")
                  .sections["directions"].values()]
        rows = (tmp_path / "weights.csv").read_text().splitlines()[1:]
        want = [closed_form_w3(pattern_from_index(k, 3), thetas) for k in range(8)]
        assert len(rows) == 8
        for row, w in zip(rows, want):
            assert abs(float(row.rsplit(",", 1)[1]) - w) <= 1e-15, row
        assert abs(written["min_weight"] - min(want)) <= 1e-15
    assert report.results == written


def per_row_csv(header, labels, floats) -> str:
    """The per-row f-string loop the CSV writers used before `write_csv`."""
    out = ",".join(header) + "\n"
    for i, label in enumerate(labels):
        out += label + "".join(f",{float(column[i])!r}" for column in floats) + "\n"
    return out


# one row, and rows on either side of one and two blocks of 16 384
@pytest.mark.parametrize("rows", [1, 16_383, 16_384, 16_385, 2 * 16_384 + 3])
def test_write_csv_is_the_per_row_loop_across_blocks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    labels = np.where(rng.random(rows) < 0.5, "+1", "-1")
    floats = rng.normal(size=(5, rows)) * 10.0 ** rng.integers(-300, 301, size=(5, rows))
    special = [-0.0, 5e-324, 1e300, math.inf, math.nan]
    floats[:, 0], floats[:, -1] = special, special[::-1]
    header = ["label"] + [f"x{j}" for j in range(5)]
    write_csv(tmp_path / "t.csv", header, [labels, *floats])
    want = per_row_csv(header, labels.tolist(), floats)
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


def test_write_csv_writes_through_what_is_not_a_regular_file(tmp_path):
    want = b"x\n1\n2\n"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader opened first lets the writer open the FIFO without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_csv(fifo, ["x"], [np.array([1, 2])])
        assert os.read(reader, 1 << 16) == want
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    null_mode = os.lstat(os.devnull).st_mode
    write_csv(os.devnull, ["x"], [np.array([1, 2])])
    assert os.lstat(os.devnull).st_mode == null_mode
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    write_csv(link, ["x"], [np.array([1, 2])])
    assert link.is_symlink() and target.read_bytes() == want


def test_write_csv_rewrites_a_file_it_cannot_unlink(tmp_path, monkeypatch):
    # as in a read-only directory: the old file is written again in place
    path, twin = tmp_path / "t.csv", tmp_path / "twin.csv"
    path.write_bytes(b"old\n")
    os.link(path, twin)

    def refuse(p, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(p))

    monkeypatch.setattr(os, "unlink", refuse)
    write_csv(path, ["x"], [np.array([1, 2])])
    assert path.read_bytes() == twin.read_bytes() == b"x\n1\n2\n"


# --- the sampling configs' results and every config's validate notes ----------

# report.json results at the shipped seed and trials
SAMPLING_RESULTS = {
    "chsh_lhv": {
        "correlators": {"E(a1,b1)": 0.00368, "E(a1,b2)": -0.0033, "E(a2,b1)": -0.00284,
                        "E(a2,b2)": -0.00028},
        "stderrs": {"E(a1,b1)": 0.0031622562476813928, "E(a1,b2)": 0.003162260441519642,
                    "E(a2,b1)": 0.0031622649073093164, "E(a2,b2)": 0.0031622775362070924},
        "S": -0.00218, "S_stderr": 0.006324529566378832, "trials_per_correlator": 100000},
    "chsh_mc": {
        "correlators": {"E(a1,b1)": -0.70662, "E(a1,b2)": -0.70884, "E(a2,b1)": -0.7078,
                        "E(a2,b2)": 0.70442},
        "stderrs": {"E(a1,b1)": 0.002237606255801051, "E(a1,b2)": 0.0022305735908057372,
                    "E(a2,b1)": 0.002233873675927088, "E(a2,b2)": 0.0022445321641714113},
        "S": -2.82768, "S_stderr": 0.00447330487849867, "trials_per_correlator": 100000},
    "epr_sampling": {
        "E": -0.49963, "stderr": 0.001936969105458319,
        "counts": {"++": 24989, "+-": 75276, "-+": 74687, "--": 25048}, "trials": 200000},
    "sterngerlach": {
        "analytic": {"probabilities": {"1": 0.5, "-1": 0.5}, "survival": 0.25,
                     "extinguished": False},
        "monte_carlo": {"distribution": {"1": 0.5041127615396901, "-1": 0.49588723846030985},
                        "survivor_fraction": 0.25044, "trials": 100000}},
}


@pytest.mark.parametrize("name", sorted(SAMPLING_RESULTS))
def test_sampling_results(tmp_path, name):
    report = run_experiment(parse_config(CONFIG_DIR / f"{name}.cfg"), tmp_path)
    written = json.loads((tmp_path / "report.json").read_text())["results"]
    assert written == SAMPLING_RESULTS[name]
    assert report.results == written


VALIDATE_DIAGNOSTICS = {
    "chsh_lhv": ["kind: chsh", "mode: classical_lhv", "seed: 7",
                 "trials per correlator: 100000"],
    "chsh_mc": ["kind: chsh", "mode: born_sampling", "seed: 42",
                "trials per correlator: 100000"],
    "epr_sampling": ["kind: epr", "mode: born_sampling", "seed: 11", "trials: 200000"],
    "fourhole": ["kind: fourhole", "wavelength: 0.01"],
    "phasespace": ["kind: phasespace", "grid: M=256, dr=1.0"],
    "quasiprob3": ["kind: quasiprob", "directions: 3"],
    "sterngerlach": ["kind: sterngerlach", "devices: 4", "seed: 5", "trials: 100000"],
    "twoslit": ["kind: twoslit", "wavelength: 0.01", "fringe spacing lambda*l2/d: 1.0",
                "fringes on screen: 5.1"],
}


def test_every_shipped_config_is_pinned():
    assert sorted(VALIDATE_DIAGNOSTICS) == sorted(p.stem for p in CONFIG_DIR.glob("*.cfg"))


@pytest.mark.parametrize("name", sorted(VALIDATE_DIAGNOSTICS))
def test_validate_diagnostics(capsys, name):
    assert main(["validate", str(CONFIG_DIR / f"{name}.cfg")]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"status": "ok", "diagnostics": VALIDATE_DIAGNOSTICS[name]}
