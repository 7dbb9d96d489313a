"""Replay checks every file a run writes, report.json included, whatever
its kind.

In the style of test_replay_tamper.py: the outputs of a clean run are
changed, and `hvqm replay`, given the run's report.json (or a file the
run writes), must exit 1 with a JSON last line naming the first bad line, and
name the file on its verdict line.  An edited report also names the key on
that line; a wrong config, or a report with no config hash to read, exits 5.
"""

import contextlib
import io
import json
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

from conftest import nudge_reported
from hvqm import logcodec, pathint, runner
from hvqm.cli import main
from hvqm.config import config_hash, parse_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CHSH_ANALYTIC = ("[experiment]\nkind = chsh\nmode = born_analytic\n[directions]\n"
                 "a1 = 1.5707963267948966\na2 = 0.0\nb1 = 0.7853981633974483\n"
                 "b2 = 2.356194490192345\n")

# kind -> (config text, its outputs, a config edit that changes its hash,
#          the path of a number under the report's results)
KINDS = {
    "quasiprob": ((CONFIG_DIR / "quasiprob3.cfg").read_text(encoding="utf-8"),
                  ["weights.csv", "born.csv"], ("theta3 = 2.0", "theta3 = 2.1"),
                  ("min_weight",)),
    "twoslit": ((CONFIG_DIR / "twoslit.cfg").read_text(encoding="utf-8"),
                ["coherent.csv", "whichpath.csv", "dark_regions.json"],
                ("wavelength = 0.01", "wavelength = 0.011"), ("coherent_max",)),
    "fourhole": ((CONFIG_DIR / "fourhole.cfg").read_text(encoding="utf-8"),
                 ["fourhole.json"], ("region_grid = 24", "region_grid = 25"),
                 ("coherent", "(+x0,+A)")),
    "phasespace": ((CONFIG_DIR / "phasespace.cfg").read_text(encoding="utf-8"),
                   ["wavefunction.csv", "momentum.csv"], ("momentum = 0.3", "momentum = 0.2"),
                   ("roundtrip_error",)),
    "chsh analytic": (CHSH_ANALYTIC, [], ("b2 = 2.356194490192345", "b2 = 2.3"), ("S",)),
}
WITH_FILES = sorted(k for k in KINDS if KINDS[k][1])


def _run(tmp_path, kind):
    cfg = tmp_path / "kind.cfg"
    cfg.write_text(KINDS[kind][0], encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    return tmp_path / "out", cfg


def _replay(capsys, path, cfg):
    capsys.readouterr()
    code = main(["replay", str(path), str(cfg)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[0]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_clean_run_replays_ok_through_its_report(capsys, tmp_path, kind):
    out, cfg = _run(tmp_path, kind)
    assert json.loads((out / "report.json").read_bytes())["outputs"] == KINDS[kind][1]
    for path in [out / "report.json"] + [out / name for name in KINDS[kind][1]]:
        code, payload, _ = _replay(capsys, path, cfg)
        assert (code, payload) == (0, {"status": "ok", "verdict": "OK"})


def _changed_cell(lines, k):
    cells = lines[k].split(",")
    cells[-1] = repr(float(cells[-1]) * 2 + 1)
    return lines[:k] + [",".join(cells)] + lines[k + 1:]


# tamper -> (new lines from the file's lines and a middle line k, 1-based
# number of the first bad line)
TAMPERS = {
    "changed cell": (_changed_cell, lambda lines, k: k + 1),
    "reformatted cell": (lambda lines, k: lines[:k] + [lines[k] + "0"] + lines[k + 1:],
                         lambda lines, k: k + 1),
    "dropped row": (lambda lines, k: lines[:k] + lines[k + 1:], lambda lines, k: k + 1),
    "dropped last row": (lambda lines, k: lines[:-1], lambda lines, k: len(lines)),
    "extra row": (lambda lines, k: lines + [lines[-1]], lambda lines, k: len(lines) + 1),
    "inserted row": (lambda lines, k: lines[:k] + [lines[k]] + lines[k:],
                     lambda lines, k: k + 2),
}
CSV_FILES = [(kind, name) for kind in WITH_FILES for name in KINDS[kind][1]
             if name.endswith(".csv")]


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("kind,name", CSV_FILES)
def test_tampered_csv_names_file_and_first_bad_line(capsys, tmp_path, kind, name, tamper):
    out, cfg = _run(tmp_path, kind)
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    make, first_bad = TAMPERS[tamper]
    k = len(lines) // 2
    path.write_text("".join(line + "\n" for line in make(lines, k)), encoding="utf-8")
    code, payload, verdict = _replay(capsys, out / "report.json", cfg)
    assert code == 1
    assert payload["status"] == "mismatch"
    assert payload["first_bad_line"] == first_bad(lines, k)
    assert payload["statistics"] == []
    assert verdict.startswith(f"replay verdict: MISMATCH at line {first_bad(lines, k)}: {name}:")


@pytest.mark.parametrize("kind,name,old,new", [
    ("fourhole", "fourhole.json", '"max_cell_gap": ', '"max_cell_gap": 1'),
    ("twoslit", "dark_regions.json", '"eps": 0.001', '"eps": 0.002'),
])
def test_tampered_json_output_names_its_line(capsys, tmp_path, kind, name, old, new):
    out, cfg = _run(tmp_path, kind)
    path = out / name
    text = path.read_text(encoding="utf-8")
    line = text[:text.index(old)].count("\n") + 1
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, payload, verdict = _replay(capsys, out / "report.json", cfg)
    assert (code, payload["first_bad_line"]) == (1, line)
    assert f": {name}:" in verdict


@pytest.mark.parametrize("kind", WITH_FILES)
def test_missing_output_names_the_file(capsys, tmp_path, kind):
    out, cfg = _run(tmp_path, kind)
    name = KINDS[kind][1][-1]
    (out / name).unlink()
    code, payload, verdict = _replay(capsys, out / "report.json", cfg)
    assert (code, payload["first_bad_line"]) == (1, 1)
    assert verdict == f"replay verdict: MISMATCH at line 1: {name}: missing"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_edited_result_is_named(capsys, tmp_path, kind):
    """A number of the results changed in place is named by its own key,
    a leaf under a nested object too, at its line of report.json."""
    out, cfg = _run(tmp_path, kind)
    line = nudge_reported(out / "report.json", KINDS[kind][3])
    code, payload, verdict = _replay(capsys, out / "report.json", cfg)
    assert (code, payload["first_bad_line"]) == (1, line)
    assert payload["statistics"] == [KINDS[kind][3][-1]]
    assert verdict == (f"replay verdict: MISMATCH at line {line}: report.json: "
                       "not what the run writes")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_edited_output_list_is_named(capsys, tmp_path, kind):
    """A report that lists a file the run does not write."""
    out, cfg = _run(tmp_path, kind)
    path = out / "report.json"
    text = path.read_text(encoding="utf-8")
    at = text.index('"outputs": [') + len('"outputs": [')
    extra = '"trials.jsonl"' + ("," if KINDS[kind][1] else "")
    path.write_text(text[:at] + extra + text[at:], encoding="utf-8")
    json.loads(path.read_bytes())   # still a JSON report
    code, payload, _ = _replay(capsys, path, cfg)
    assert (code, payload["statistics"]) == (1, ["outputs"])
    assert payload["first_bad_line"] == text[:at].count("\n") + 1


@pytest.mark.parametrize("text", [b"", b"not json\n", b"[1]\n", b'"x"\n', b"\xff\n"],
                         ids=["empty", "not JSON", "list", "string", "not UTF-8"])
def test_report_with_no_hash_to_read_is_hash_mismatch(capsys, tmp_path, text):
    out, cfg = _run(tmp_path, "twoslit")
    (out / "report.json").write_bytes(text)
    code, payload, _ = _replay(capsys, out / "coherent.csv", cfg)
    assert (code, payload) == (5, {"status": "hash_mismatch", "verdict": "HASH_MISMATCH"})


def test_missing_report_is_hash_mismatch_naming_its_path(capsys, tmp_path):
    out, cfg = _run(tmp_path, "fourhole")
    (out / "report.json").unlink()
    code, payload, line = _replay(capsys, out / "fourhole.json", cfg)
    assert (code, payload) == (5, {"status": "hash_mismatch", "verdict": "HASH_MISMATCH"})
    assert line == f"no config hash to read: {out / 'report.json'}: missing"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wrong_config_is_hash_mismatch(capsys, tmp_path, kind):
    out, cfg = _run(tmp_path, kind)
    old, new = KINDS[kind][2]
    other = tmp_path / "other.cfg"
    other.write_text(KINDS[kind][0].replace(old, new), encoding="utf-8")
    assert other.read_text(encoding="utf-8") != KINDS[kind][0]
    code, payload, _ = _replay(capsys, out / "report.json", other)
    assert code == 5
    assert payload["verdict"] == "HASH_MISMATCH"


def test_file_the_run_does_not_write_is_refused(capsys, tmp_path):
    out, cfg = _run(tmp_path, "twoslit")
    (out / "copy.csv").write_bytes((out / "coherent.csv").read_bytes())
    code, payload, _ = _replay(capsys, out / "copy.csv", cfg)
    assert code == 3
    assert "copy.csv" in payload["error"]


LOGGED = {
    "chsh": ("trials.jsonl", "[experiment]\nkind = chsh\nmode = born_sampling\nseed = 1412\n"
             "trials = 50\n[directions]\na1 = 1.5707963267948966\na2 = 0.0\n"
             "b1 = 0.7853981633974483\nb2 = 2.356194490192345\n"),
    "sterngerlach": ("events.jsonl", "[experiment]\nkind = sterngerlach\ninput = +z\n"
                     "seed = 1412\ntrials = 50\n[sequence]\nstage1 = split x block -\n"
                     "stage2 = analyze z\n"),
}


@pytest.mark.parametrize("tamper", ["header not JSON", "empty log", "header hash edited",
                                    "missing log"])
@pytest.mark.parametrize("kind", sorted(LOGGED))
def test_tampered_log_header_is_line_1(capsys, tmp_path, kind, tamper):
    """A log whose header is not JSON, is empty or names another config
    hash (the report still naming this one) ends with a verdict at line 1."""
    name, text = LOGGED[kind]
    cfg = tmp_path / "log.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    log = tmp_path / "out" / name
    header, body = log.read_bytes().split(b"\n", 1)
    if tamper == "missing log":
        log.unlink()
    else:
        new = {"header not JSON": b"not a header\n" + body, "empty log": b"",
               "header hash edited": header.replace(b'"config_hash":"', b'"config_hash":"0', 1)
               + b"\n" + body}[tamper]
        log.write_bytes(new)
    code, payload, verdict = _replay(capsys, log, cfg)
    assert code == 1
    assert payload["first_bad_line"] == 1
    assert f"line 1: {name}:" in verdict


def test_twoslit_replay_peaks_within_one_csv_block_of_its_run(tmp_path):
    """Past two CSV blocks a pattern, a replay holds one block read back
    beside the one it formats; its traced peak stays within that block's
    bytes of the run's."""
    cfg_path = tmp_path / "twoslit.cfg"
    cfg_path.write_text(KINDS["twoslit"][0].replace("bins = 512", "bins = 40000").replace(
        "quadrature_points = 64", "quadrature_points = 4"), encoding="utf-8")
    cfg = parse_config(cfg_path)
    peaks = []
    for step in (lambda: runner.run_experiment(cfg, tmp_path / "out"),
                 lambda: runner.replay_run(tmp_path / "out" / "report.json", cfg)):
        tracemalloc.start()
        try:
            result = step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert result.verdict == "OK"
    pattern = pathint.screen_patterns(runner._geometry(cfg, pathint.Geometry2Slit))[0]
    block = max(map(len, pathint.pattern_csv(pattern)))
    assert len(pattern.probabilities) > 2 * logcodec._CSV_BLOCK
    assert peaks[1] <= peaks[0] + block


# --- every edit of report.json ----------------------------------------------

# kind -> its shipped config; the logged kinds' say 300 trials here
SWEEP = {"chsh": "chsh_mc", "epr": "epr_sampling", "sterngerlach": "sterngerlach",
         "quasiprob": "quasiprob3", "twoslit": "twoslit", "fourhole": "fourhole",
         "phasespace": "phasespace"}
SWEEP_VALUES = (None, [], {}, 0, -1, 1.5, "x", [1], {"a": 1}, True)
OK = (0, {"status": "ok", "verdict": "OK"})


def _main(*argv):
    """`cli.main` in process: its exit code and its last stdout line, which
    must be JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.fixture(scope="module")
def swept_runs(tmp_path_factory):
    """One clean run of each kind: its directory and its config."""
    root = tmp_path_factory.mktemp("sweep")
    runs = {}
    for kind, name in SWEEP.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(re.sub(r"(?m)^trials = \d+$", "trials = 300",
                              (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8")),
                       encoding="utf-8")
        assert _main("run", cfg, "--out-dir", root / name)[0] == 0
        runs[kind] = root / name, cfg
    return runs


def _keys_in(value) -> set:
    """The keys of every object in a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys_in, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys_in, value))
    return set()


def _edits(report: dict):
    """(object, key, value): each top-level key of the report and each key
    of its results set to each of SWEEP_VALUES it does not already hold."""
    for holder in (report, report["results"]):
        for key, old in holder.items():
            for value in SWEEP_VALUES:
                if json.dumps(value) != json.dumps(old):
                    yield holder, key, value


@pytest.mark.parametrize("kind", sorted(SWEEP))
def test_every_report_edit_gets_a_verdict(swept_runs, kind):
    """No edit of report.json replays OK or ends without a JSON verdict: a
    config_hash edit exits 5 and any other 1, at a line that names no key
    or one the clean report holds at or under the edited key.  Each edited
    report is written as a run writes one."""
    out, cfg = swept_runs[kind]
    path = out / "report.json"
    clean = path.read_bytes()
    report = json.loads(clean)
    assert _main("replay", path, cfg) == OK
    try:
        for holder, key, value in _edits(report):
            old, holder[key] = holder[key], value
            path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
            holder[key] = old
            code, payload = _main("replay", path, cfg)
            if key == "config_hash":
                assert (code, payload["verdict"]) == (5, "HASH_MISMATCH"), value
                continue
            assert (code, payload["verdict"]) == (1, "MISMATCH"), (key, value)
            assert payload["first_bad_line"] > 1, (key, value)
            assert set(payload["statistics"]) <= {key} | _keys_in(old), (key, value)
    finally:
        path.write_bytes(clean)
    assert _main("replay", path, cfg) == OK


@pytest.mark.parametrize("kind", sorted(SWEEP))
def test_telemetry_is_not_read(swept_runs, kind):
    out, cfg = swept_runs[kind]
    path = out / "telemetry.json"
    clean = path.read_bytes()
    assert list(json.loads(clean)) == ["duration_s"]
    try:
        for value in SWEEP_VALUES:
            path.write_text(json.dumps({"duration_s": value}), encoding="utf-8")
            assert _main("replay", out / "report.json", cfg) == OK
        path.write_bytes(b"not json")
        assert _main("replay", out / "report.json", cfg) == OK
        path.unlink()
        assert _main("replay", out / "report.json", cfg) == OK
    finally:
        path.write_bytes(clean)


def test_copied_run_through_out_dir_and_workers_replays_ok(tmp_path):
    """--out-dir and --workers are not hashed, so the report does not echo
    them, and the run's directory replays OK wherever it is."""
    cfg = CONFIG_DIR / "chsh_mc.cfg"
    first, moved = tmp_path / "A", tmp_path / "elsewhere" / "B"
    assert _main("run", cfg, "--trials", 300, "--workers", 2, "--out-dir", first)[0] == 0
    assert "out_dir" not in json.loads((first / "report.json").read_bytes())["config"]["experiment"]
    shutil.copytree(first, moved)
    shutil.rmtree(first)
    for path in (moved / "report.json", moved / "trials.jsonl"):
        assert _main("replay", path, cfg, "--trials", 300) == OK


def test_reordered_config_replays_ok(tmp_path):
    """A config with its sections and keys in reverse order hashes alike and
    gets the same report.json, byte for byte."""
    cfg = CONFIG_DIR / "chsh_lhv.cfg"
    sections = parse_config(cfg).sections
    reordered = tmp_path / "reordered.cfg"
    reordered.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in reversed(kv.items()))
        for name, kv in reversed(sections.items())), encoding="utf-8")
    assert config_hash(parse_config(reordered)) == config_hash(parse_config(cfg))
    for name, run_cfg, replay_cfg in (("a", cfg, reordered), ("b", reordered, cfg)):
        assert _main("run", run_cfg, "--trials", 300, "--out-dir", tmp_path / name)[0] == 0
        assert _main("replay", tmp_path / name / "report.json", replay_cfg, "--trials", 300) == OK
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
