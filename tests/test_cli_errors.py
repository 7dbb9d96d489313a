"""Usage errors, the trials, grid and workers limits, the v/wavelength rule,
non-finite config numbers, empty direction fields, arithmetic errors and
the single analytic walk of a run."""

import json
import math
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


@pytest.mark.parametrize("name, shipped, past", [
    ("phasespace", "m = 256", "m = 1048576"),
    ("twoslit", "bins = 512", "bins = 1000000000"),
    ("fourhole", "region_grid = 24", "region_grid = 1000000"),
])
def test_grid_past_cap_is_exit_3(capsys, tmp_path, name, shipped, past):
    """validate is asked first: it allocates nothing, whatever the size."""
    cfg = tmp_path / f"{name}.cfg"
    text = (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8")
    assert shipped in text
    cfg.write_text(text.replace(shipped, past), encoding="utf-8")
    for argv in (["validate", cfg], ["run", cfg, "--out-dir", tmp_path / "out"]):
        code, payload = run_cli(capsys, *argv)
        assert code == 3
        assert payload["status"] == "validation_error"
        assert "past the cap" in payload["error"]
    assert not (tmp_path / "out").exists()


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


def _with_experiment_key(tmp_path, name, line):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text((CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8").replace(
        "[experiment]\n", f"[experiment]\n{line}\n"), encoding="utf-8")
    return cfg


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_config_workers_below_one_is_exit_3(capsys, tmp_path, command, workers):
    """`[experiment] workers` in the file applies when no flag is given."""
    argv = [command, _with_experiment_key(tmp_path, "twoslit", f"workers = {workers}")]
    if command == "run":
        argv += ["--out-dir", tmp_path / "out"]
    code, payload = run_cli(capsys, *argv)
    assert code == 3
    assert payload["status"] == "validation_error"
    assert "workers" in payload["error"]
    assert not (tmp_path / "out").exists()


def test_workers_flag_overrides_config(capsys, tmp_path):
    cfg = _with_experiment_key(tmp_path, "chsh_mc", "workers = 0")
    code, payload = run_cli(capsys, "run", cfg, "--trials", "100",
                            "--out-dir", tmp_path / "out", "--workers", "2")
    assert code == 0
    assert payload["status"] == "ok"


@pytest.mark.parametrize("name", ["twoslit", "fourhole"])
def test_both_v_and_wavelength_is_exit_3(capsys, tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text((CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8").replace(
        "wavelength = 0.01", "wavelength = 0.01\nv = 5.0"), encoding="utf-8")
    for argv in (["validate", cfg], ["run", cfg, "--out-dir", tmp_path / "out"]):
        code, payload = run_cli(capsys, *argv)
        assert code == 3
        assert payload["status"] == "validation_error"
        assert "wavelength" in payload["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["twoslit", "fourhole"])
def test_v_alone_sets_the_speed(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text((CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8").replace(
        "wavelength = 0.01", "v = 5.0"), encoding="utf-8")
    notes = runner.validate_experiment(parse_config(cfg))
    assert f"wavelength: {2 * math.pi / 5.0!r}" in notes


def test_validate_reads_dark_eps(capsys, tmp_path):
    """validate reads dark_eps, so it does not pass a config that run rejects for it."""
    cfg = tmp_path / "twoslit.cfg"
    cfg.write_text((CONFIG_DIR / "twoslit.cfg").read_text(encoding="utf-8").replace(
        "dark_eps = 0.001", "dark_eps = abc"), encoding="utf-8")
    code, payload = run_cli(capsys, "validate", cfg)
    assert code == 3
    assert "dark_eps" in payload["error"]


def _edited(tmp_path, name, shipped, edit):
    cfg = tmp_path / f"{name}.cfg"
    text = (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8")
    assert shipped in text
    cfg.write_text(text.replace(shipped, edit), encoding="utf-8")
    return cfg


@pytest.mark.parametrize("name, shipped, edit, key", [
    ("chsh_mc", "a1 = 1.5707963267948966", "a1 = nan", "[directions] a1"),
    ("epr_sampling", "a = 0.0", "a = nan,0,0", "[directions] a"),
    ("twoslit", "l1 = 400.0", "l1 = nan", "[geometry] l1"),
    ("chsh_lhv", "w0 = 0.0625", "w0 = nan", "[lhv] w0"),
    ("fourhole", "x0 = 0.5", "x0 = inf", "[geometry] x0"),
    ("fourhole", "region_plus = 1.0,2.0", "region_plus = 1.0,-inf", "[geometry] region_plus"),
    ("phasespace", "dr = 1.0", "dr = -inf", "[grid] dr"),
])
def test_non_finite_number_is_exit_3(capsys, tmp_path, name, shipped, edit, key):
    cfg = _edited(tmp_path, name, shipped, edit)
    for argv in (["validate", cfg], ["run", cfg, "--out-dir", tmp_path / "out"]):
        code, payload = run_cli(capsys, *argv)
        assert code == 3
        assert payload["status"] == "validation_error"
        assert payload["error"].startswith(key + " = ")
        assert "not a finite number" in payload["error"]
    assert not (tmp_path / "out").exists()


def test_empty_direction_field_is_exit_3(capsys, tmp_path):
    cfg = _edited(tmp_path, "quasiprob3", "theta2 = 1.0471975511965976",
                  "theta2 = 1.0471975511965976,")
    for argv in (["validate", cfg], ["run", cfg, "--out-dir", tmp_path / "out"]):
        code, payload = run_cli(capsys, *argv)
        assert code == 3
        assert payload["status"] == "validation_error"
        assert payload["error"] == "[directions] theta2: empty field in '1.0471975511965976,'"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, shipped, edit, error", [
    ("fourhole", "x0 = 0.5", "x0 = 1e200", "OverflowError"),      # x0 ** 2
    ("twoslit", "l1 = 400.0", "l1 = 1e300", "OverflowError"),     # l1 ** 2
    # the phase constant overflows to inf, which cmath.rect rejects
    ("fourhole", "wavelength = 0.01", "v = 1e300\nhbar = 1e-10", "math domain error"),
])
def test_arithmetic_error_is_exit_4(capsys, tmp_path, name, shipped, edit, error):
    cfg = _edited(tmp_path, name, shipped, edit)
    code, payload = run_cli(capsys, "run", cfg, "--out-dir", tmp_path / "out")
    assert code == 4
    assert payload["status"] == "runtime_error"
    assert error in payload["error"]
