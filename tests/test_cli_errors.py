"""Usage errors, the trials and workers limits and the single analytic walk of a run."""

import json
from pathlib import Path

import pytest

from hvqm import beamline, runner
from hvqm.cli import main
from hvqm.config import apply_overrides, parse_config
from hvqm.errors import ValidationError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["validate", CONFIG_DIR / "chsh_mc.cfg", "--bogus"],
    ["replay", "trials.jsonl", CONFIG_DIR / "chsh_mc.cfg", "--workers", "3"],
    ["run"],
    ["teleport"],
    [],
])
def test_usage_error_is_exit_2_with_json_line(capsys, argv):
    code, payload = run_cli(capsys, *argv)
    assert code == 2
    assert payload["status"] == "usage_error"
    assert payload["error"]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_trials_past_cap_is_exit_3(capsys, tmp_path, command):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text((CONFIG_DIR / "chsh_mc.cfg").read_text(encoding="utf-8").replace(
        "trials = 100000", "trials = 10000000000"), encoding="utf-8")
    argv = [command, cfg]
    if command == "run":
        argv += ["--out-dir", tmp_path / "out"]
    code, payload = run_cli(capsys, *argv)
    assert code == 3
    assert payload["status"] == "validation_error"
    assert str(runner.MAX_TRIALS) in payload["error"]
    assert not (tmp_path / "out" / "trials.jsonl").exists()


def test_trials_at_cap_validate(tmp_path):
    for name in ("epr_sampling", "sterngerlach"):
        cfg = apply_overrides(parse_config(CONFIG_DIR / f"{name}.cfg"),
                              trials=runner.MAX_TRIALS)
        runner.validate_experiment(cfg)
        with pytest.raises(ValidationError):
            runner.validate_experiment(apply_overrides(cfg, trials=runner.MAX_TRIALS + 1))


def test_sterngerlach_run_walks_the_beamline_once(tmp_path, monkeypatch):
    calls = []
    walk = beamline.run_sequence

    def counted(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(beamline, "run_sequence", counted)
    cfg = apply_overrides(parse_config(CONFIG_DIR / "sterngerlach.cfg"), trials=200_000)
    runner.run_experiment(cfg, tmp_path)
    assert len(calls) == 1


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_exit_3(capsys, tmp_path, workers):
    code, payload = run_cli(capsys, "run", CONFIG_DIR / "chsh_mc.cfg", "--trials", "100",
                            "--out-dir", tmp_path / "out", "--workers", workers)
    assert code == 3
    assert payload["status"] == "validation_error"
    assert "workers" in payload["error"]
    assert not (tmp_path / "out" / "trials.jsonl").exists()
