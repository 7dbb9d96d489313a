"""Replay rejects every changed log body and names the first bad line.

One test per tamper class: the log of a clean run is changed, the report is
kept, and `hvqm replay` must exit 1 with a JSON last line whose
`first_bad_line` is the 1-based number of the first line that is not what
the run wrote (the header is line 1).
"""

import json

import pytest

from hvqm import rng
from hvqm.cli import main

TRIALS = 50

CONFIGS = {
    "chsh": ("trials.jsonl",
             "[experiment]\nkind = chsh\nmode = born_sampling\nseed = 1412\n"
             f"trials = {TRIALS}\n[directions]\na1 = 1.5707963267948966\na2 = 0.0\n"
             "b1 = 0.7853981633974483\nb2 = 2.356194490192345\n"),
    "epr": ("trials.jsonl",
            "[experiment]\nkind = epr\nmode = born_sampling\nseed = 1412\n"
            f"trials = {TRIALS}\n[directions]\na = 0.0\nb = 1.0471975511965976\n"),
    "sterngerlach": ("events.jsonl",
                     "[experiment]\nkind = sterngerlach\ninput = +z\nseed = 1412\n"
                     f"trials = {TRIALS}\n[sequence]\nstage1 = split x block -\n"
                     "stage2 = split y block -\nstage3 = recombine -y\nstage4 = analyze x\n"),
}


def _respace(line):
    return json.dumps(json.loads(line))


def _renumber(line):
    return line.replace('"trial":7,', '"trial":999999,', 1)


# kind, tamper -> (new body from the clean body lines, first bad line)
T = TRIALS
TAMPERS = {
    ("chsh", "drop (a2,b2) block"): (lambda b: b[:3 * T], 3 * T + 2),
    ("chsh", "duplicate (a1,b1) block"): (lambda b: b[:T] + b, T + 2),
    ("chsh", "swap two records"): (lambda b: [b[1], b[0]] + b[2:], 2),
    ("chsh", "reverse body"): (lambda b: b[::-1], 2),
    ("chsh", "empty body"): (lambda b: [], 2),
    ("chsh", "re-serialise one line with spaces"):
        (lambda b: b[:5] + [_respace(b[5])] + b[6:], 7),
    ("chsh", "renumber one trial"): (lambda b: b[:7] + [_renumber(b[7])] + b[8:], 9),
    ("chsh", "trailing partial line"):
        (lambda b: "".join(x + "\n" for x in b) + '{"trial":' + str(4 * T) + ',"a_sett',
         4 * T + 2),
    ("epr", "swap two records"): (lambda b: [b[1], b[0]] + b[2:], 2),
    ("epr", "empty body"): (lambda b: [], 2),
    ("epr", "drop last record"): (lambda b: b[:-1], T + 1),
    ("epr", "duplicate body"): (lambda b: b + b, T + 2),
    ("sterngerlach", "double every event"): (lambda b: [x for x in b for _ in (0, 1)], 3),
    ("sterngerlach", "swap two records"): (lambda b: [b[1], b[0]] + b[2:], 2),
    ("sterngerlach", "empty body"): (lambda b: [], 2),
}


def _run(tmp_path, kind):
    log_name, text = CONFIGS[kind]
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / log_name, cfg


def _replay(capsys, log, cfg):
    capsys.readouterr()
    code = main(["replay", str(log), str(cfg)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _tamper(log, make):
    header, *body = log.read_text(encoding="utf-8").splitlines()
    new = make(body)
    text = new if isinstance(new, str) else "".join(line + "\n" for line in new)
    log.write_text(header + "\n" + text, encoding="utf-8")


@pytest.mark.parametrize("tile", [rng.TILE, 7])
@pytest.mark.parametrize("kind,tamper", sorted(TAMPERS))
def test_tampered_body_names_first_bad_line(capsys, tmp_path, monkeypatch, kind, tamper,
                                            tile):
    monkeypatch.setattr(rng, "TILE", tile)
    log, cfg = _run(tmp_path, kind)
    assert _replay(capsys, log, cfg)[0] == 0
    make, first_bad = TAMPERS[kind, tamper]
    _tamper(log, make)
    code, payload = _replay(capsys, log, cfg)
    assert code == 1
    assert payload["status"] == "mismatch"
    assert payload["first_bad_line"] == first_bad


def test_event_a_beamline_cannot_produce(capsys, tmp_path):
    """A canonical line absorbed at the recombiner (stage index 2) is not an
    event of this beamline, even though survivors and outcomes still agree."""
    log, cfg = _run(tmp_path, "sterngerlach")
    header, *body = log.read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(body) if '"absorbed_at":1,' in line)
    body[k] = body[k].replace('"absorbed_at":1,', '"absorbed_at":2,')
    log.write_text(header + "\n" + "".join(line + "\n" for line in body), encoding="utf-8")
    code, payload = _replay(capsys, log, cfg)
    assert code == 1
    assert payload["first_bad_line"] == k + 2


def test_changed_header_is_line_1(capsys, tmp_path):
    log, cfg = _run(tmp_path, "epr")
    text = log.read_text(encoding="utf-8")
    log.write_text(text.replace('"seed":1412,', '"seed": 1412,', 1), encoding="utf-8")
    code, payload = _replay(capsys, log, cfg)
    assert code == 1
    assert payload["first_bad_line"] == 1


def _first_with(body, text):
    return next(i for i, line in enumerate(body) if text in line)


def _flip_pair(line):
    rec = json.loads(line)
    rec["a_out"], rec["b_out"] = -rec["a_out"], -rec["b_out"]
    return json.dumps(rec, separators=(",", ":"))


# canonical lines that are not the ones the config draws for their trials:
# edit -> (kind, index in the body of the line edited, the edit)
CANONICAL_EDITS = {
    # every statistic stays: the product a_out * b_out is unchanged
    "chsh: both outcomes flipped": ("chsh", lambda b: 2, _flip_pair),
    # survivors, outcomes and counts stay
    "sterngerlach: absorption moved to the other blocking stage": (
        "sterngerlach", lambda b: _first_with(b, '"absorbed_at":0,'),
        lambda x: x.replace('"absorbed_at":0,', '"absorbed_at":1,')),
    "epr: b_out flipped": ("epr", lambda b: _first_with(b, '"b_out":1'),
                           lambda x: x.replace('"b_out":1', '"b_out":-1')),
    "sterngerlach: outcome flipped": ("sterngerlach", lambda b: _first_with(b, '"outcome":1'),
                                      lambda x: x.replace('"outcome":1', '"outcome":-1')),
}


@pytest.mark.parametrize("edit", sorted(CANONICAL_EDITS))
def test_canonical_edit_names_its_line(capsys, tmp_path, edit):
    """A canonical line that is not the one the config draws for its trial
    is named, whether or not a reported statistic changes with it."""
    kind, where, change = CANONICAL_EDITS[edit]
    log, cfg = _run(tmp_path, kind)
    header, *body = log.read_text(encoding="utf-8").splitlines()
    k = where(body)
    body[k] = change(body[k])
    log.write_text(header + "\n" + "".join(line + "\n" for line in body), encoding="utf-8")
    code, payload = _replay(capsys, log, cfg)
    assert code == 1
    assert payload["first_bad_line"] == k + 2
    assert payload["statistics"] == []


def test_edited_report_names_derived_statistic(capsys, tmp_path):
    """With the correlators intact, a changed S is named on its own."""
    log, cfg = _run(tmp_path, "chsh")
    report_path = log.parent / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["results"]["S"] += 1e-12
    report_path.write_text(json.dumps(report), encoding="utf-8")
    code, payload = _replay(capsys, log, cfg)
    assert code == 1
    assert payload["statistics"] == ["S"]
