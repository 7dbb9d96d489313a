"""Replay checks every file a run writes, whatever its kind.

In the style of test_replay_tamper.py: the outputs of a clean run are
changed, and `hvqm replay`, given the run's report.json (or a file the
run writes), must exit 1 with a JSON last line naming the first bad line, and
name the file on its verdict line.  An edited report names the statistic;
a wrong config exits 5.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from hvqm import logcodec, pathint, runner
from hvqm.cli import main
from hvqm.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CHSH_ANALYTIC = ("[experiment]\nkind = chsh\nmode = born_analytic\n[directions]\n"
                 "a1 = 1.5707963267948966\na2 = 0.0\nb1 = 0.7853981633974483\n"
                 "b2 = 2.356194490192345\n")

# kind -> (config text, its outputs, a config edit that changes its hash,
#          a results key to edit, the statistic that edit is named as)
KINDS = {
    "quasiprob": ((CONFIG_DIR / "quasiprob3.cfg").read_text(encoding="utf-8"),
                  ["weights.csv", "born.csv"], ("theta3 = 2.0", "theta3 = 2.1"),
                  ("min_weight",), "min_weight"),
    "twoslit": ((CONFIG_DIR / "twoslit.cfg").read_text(encoding="utf-8"),
                ["coherent.csv", "whichpath.csv", "dark_regions.json"],
                ("wavelength = 0.01", "wavelength = 0.011"), ("coherent_max",),
                "coherent_max"),
    "fourhole": ((CONFIG_DIR / "fourhole.cfg").read_text(encoding="utf-8"),
                 ["fourhole.json"], ("region_grid = 24", "region_grid = 25"),
                 ("coherent", "(+x0,+A)"), "coherent"),
    "phasespace": ((CONFIG_DIR / "phasespace.cfg").read_text(encoding="utf-8"),
                   ["wavefunction.csv", "momentum.csv"], ("momentum = 0.3", "momentum = 0.2"),
                   ("roundtrip_error",), "roundtrip_error"),
    "chsh analytic": (CHSH_ANALYTIC, [], ("b2 = 2.356194490192345", "b2 = 2.3"),
                      ("S",), "S"),
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
    out, cfg = _run(tmp_path, kind)
    report = json.loads((out / "report.json").read_bytes())
    *path, key = KINDS[kind][3]
    holder = report["results"]
    for step in path:
        holder = holder[step]
    holder[key] += 1e-12
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    code, payload, _ = _replay(capsys, out / "report.json", cfg)
    assert code == 1
    assert payload["statistics"] == [KINDS[kind][4]]
    assert payload["first_bad_line"] is None


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_edited_output_list_is_named(capsys, tmp_path, kind):
    out, cfg = _run(tmp_path, kind)
    report = json.loads((out / "report.json").read_bytes())
    report["outputs"] = report["outputs"][:-1] if report["outputs"] else ["trials.jsonl"]
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    code, payload, _ = _replay(capsys, out / "report.json", cfg)
    assert (code, payload["statistics"]) == (1, ["outputs"])


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
