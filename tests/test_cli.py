import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hvqm.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CHSH_CFG = """\
[experiment]
kind = chsh
mode = born_sampling
seed = 42
trials = 5000

[directions]
a1 = 1.5707963267948966
a2 = 0.0
b1 = 0.7853981633974483
b2 = 2.356194490192345
"""


@pytest.fixture
def chsh_cfg(tmp_path):
    path = tmp_path / "chsh.cfg"
    path.write_text(CHSH_CFG, encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    last_json = json.loads(out.strip().splitlines()[-1])
    return code, out, last_json


class TestValidateCommand:
    def test_ok_lists_diagnostics(self, capsys, chsh_cfg):
        code, out, payload = run_cli(capsys, "validate", chsh_cfg)
        assert code == 0
        assert out.startswith("OK")
        assert payload["status"] == "ok"

    def test_all_shipped_configs_validate(self, capsys):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            code, _, payload = run_cli(capsys, "validate", path)
            assert code == 0, path
            assert payload["status"] == "ok"

    def test_parse_error_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a config {{{\n")
        code, _, payload = run_cli(capsys, "validate", bad)
        assert code == 2
        assert payload["status"] == "parse_error"

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "validate", tmp_path / "absent.cfg")
        assert code == 2

    def test_missing_seed_is_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "noseed.cfg"
        cfg.write_text(CHSH_CFG.replace("seed = 42\n", ""))
        code, _, payload = run_cli(capsys, "validate", cfg)
        assert code == 3
        assert "seed" in payload["error"]

    def test_non_unit_direction_is_exit_3_with_norm(self, capsys, tmp_path):
        cfg = tmp_path / "baddir.cfg"
        cfg.write_text(CHSH_CFG.replace("a1 = 1.5707963267948966",
                                        "a1 = 1.0,1.0,0.0"))
        code, _, payload = run_cli(capsys, "validate", cfg)
        assert code == 3
        assert "norm" in payload["error"]

    def test_negative_lhv_weight_is_exit_3_naming_pattern(self, capsys, tmp_path):
        cfg = tmp_path / "badlhv.cfg"
        cfg.write_text(CHSH_CFG.replace("mode = born_sampling",
                                        "mode = classical_lhv")
                       + "\n[lhv]\nw0 = 1.1\nw5 = -0.1\n")
        code, _, payload = run_cli(capsys, "validate", cfg)
        assert code == 3
        assert "(" in payload["error"] and "-" in payload["error"]


class TestRunCommand:
    def test_chsh_run_outputs(self, capsys, chsh_cfg, tmp_path):
        out_dir = tmp_path / "out"
        code, _, payload = run_cli(capsys, "run", chsh_cfg, "--out-dir", out_dir)
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "trials.jsonl").exists()
        report = json.loads((out_dir / "report.json").read_text())
        s = report["results"]["S"]
        stderr = report["results"]["S_stderr"]
        assert abs(abs(s) - 2 * math.sqrt(2)) < 4 * stderr
        assert payload["status"] == "ok"

    def test_rerun_is_byte_identical(self, capsys, chsh_cfg, tmp_path):
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "r1")
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "r2")
        a = (tmp_path / "r1" / "trials.jsonl").read_bytes()
        b = (tmp_path / "r2" / "trials.jsonl").read_bytes()
        assert a == b

    @pytest.mark.parametrize("kind", ["chsh_mc", "twoslit"])
    def test_rerun_replaces_its_outputs(self, capsys, tmp_path, kind):
        """A rerun writes each output as a new file instead of rewriting the
        old one in place, so a hard link keeps the first run's bytes."""
        first = [CONFIG_DIR / f"{kind}.cfg"]
        if kind == "chsh_mc":
            first += ["--trials", "500"]
            second = first + ["--seed", "7"]
        else:
            text = first[0].read_text(encoding="utf-8")
            second = [tmp_path / "twoslit.cfg"]
            second[0].write_text(text.replace("wavelength = 0.01", "wavelength = 0.02"),
                                 encoding="utf-8")
        out, links = tmp_path / "out", tmp_path / "links"

        def run(argv):
            assert run_cli(capsys, "run", *argv, "--out-dir", out)[0] == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            report = json.loads(files.pop("report.json"))
            report.pop("duration_s")
            return files, report

        before = run(first)
        links.mkdir()
        for p in out.iterdir():
            os.link(p, links / p.name)
        linked = {p.name: p.read_bytes() for p in links.iterdir()}
        after = run(second)
        assert {p.name: p.read_bytes() for p in links.iterdir()} == linked
        assert after[1] != before[1]
        assert all(after[0][name] != data for name, data in before[0].items())
        shutil.rmtree(out)
        assert run(second) == after

    def test_worker_count_does_not_change_log(self, capsys, chsh_cfg, tmp_path):
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "w1",
                "--workers", "1")
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "w5",
                "--workers", "5")
        assert ((tmp_path / "w1" / "trials.jsonl").read_bytes()
                == (tmp_path / "w5" / "trials.jsonl").read_bytes())

    def test_seed_override_changes_log(self, capsys, chsh_cfg, tmp_path):
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "s1")
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "s2",
                "--seed", "43")
        assert ((tmp_path / "s1" / "trials.jsonl").read_bytes()
                != (tmp_path / "s2" / "trials.jsonl").read_bytes())

    def test_not_sampleable_is_exit_4(self, capsys, tmp_path):
        cfg = tmp_path / "qp.cfg"
        cfg.write_text(
            "[experiment]\nkind = epr\nmode = quasiprob_analytic\n"
            "seed = 1\ntrials = 10\n[directions]\na = 0.0\nb = 1.0\n")
        # analytic table mode runs fine without sampling...
        code, _, _ = run_cli(capsys, "validate", cfg)
        assert code == 0
        # ...but forcing a sample through the library surface refuses
        from hvqm import epr
        from hvqm.spin import DirectionSet
        e = epr.SingletEnsemble(DirectionSet.from_planar_angles([0.0, 1.0]),
                                epr.Mode.QUASIPROB_ANALYTIC)
        from hvqm.errors import NotSampleableError
        with pytest.raises(NotSampleableError):
            epr.sample_trials(e, 0, 1, seed=1, n_trials=5)

    def test_sterngerlach_run(self, capsys, tmp_path):
        code, _, payload = run_cli(
            capsys, "run", CONFIG_DIR / "sterngerlach.cfg",
            "--out-dir", tmp_path / "sg", "--trials", "2000")
        assert code == 0
        report = json.loads((tmp_path / "sg" / "report.json").read_text())
        mc = report["results"]["monte_carlo"]
        assert abs(mc["survivor_fraction"] - 0.25) < 0.05
        header = (tmp_path / "sg" / "events.jsonl").read_text().splitlines()[0]
        assert json.loads(header)["kind"] == "sterngerlach"

    def test_quasiprob_run_writes_tables(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", CONFIG_DIR / "quasiprob3.cfg",
                             "--out-dir", tmp_path / "qp")
        assert code == 0
        weights = (tmp_path / "qp" / "weights.csv").read_text().splitlines()
        assert weights[0] == "s1,s2,s3,weight"
        assert len(weights) == 9
        report = json.loads((tmp_path / "qp" / "report.json").read_text())
        assert report["results"]["min_weight"] == pytest.approx(-1 / 16, abs=1e-9)

    def test_last_stdout_line_is_json(self, capsys, chsh_cfg, tmp_path):
        _, out, payload = run_cli(capsys, "run", chsh_cfg,
                                  "--out-dir", tmp_path / "j")
        assert isinstance(payload, dict)
        assert payload["config_hash"]


class TestReplayCommand:
    def test_clean_replay_ok(self, capsys, chsh_cfg, tmp_path):
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "out")
        code, out, payload = run_cli(capsys, "replay",
                                     tmp_path / "out" / "trials.jsonl", chsh_cfg)
        assert code == 0
        assert payload["verdict"] == "OK"

    def test_flipped_outcome_is_mismatch_naming_statistic(self, capsys, chsh_cfg,
                                                          tmp_path):
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "out")
        log = tmp_path / "out" / "trials.jsonl"
        lines = log.read_text().splitlines()
        if '"a_out":1' in lines[3]:
            lines[3] = lines[3].replace('"a_out":1', '"a_out":-1')
        else:
            lines[3] = lines[3].replace('"a_out":-1', '"a_out":1')
        log.write_text("\n".join(lines) + "\n")
        code, out, payload = run_cli(capsys, "replay", log, chsh_cfg)
        assert code == 1
        assert payload["verdict"] == "MISMATCH"
        # the line is not what the config writes, so it is named before any
        # statistic is compared
        assert payload["first_bad_line"] == 4
        assert payload["statistics"] == []

    def test_wrong_seed_is_hash_mismatch_exit_5(self, capsys, chsh_cfg, tmp_path):
        run_cli(capsys, "run", chsh_cfg, "--out-dir", tmp_path / "out")
        code, _, payload = run_cli(capsys, "replay",
                                   tmp_path / "out" / "trials.jsonl", chsh_cfg,
                                   "--seed", "99")
        assert code == 5
        assert payload["verdict"] == "HASH_MISMATCH"

    def test_epr_replay(self, capsys, tmp_path):
        cfg = tmp_path / "epr.cfg"
        cfg.write_text(
            "[experiment]\nkind = epr\nmode = born_sampling\nseed = 3\n"
            "trials = 4000\n[directions]\na = 0.0\nb = 0.7\n")
        run_cli(capsys, "run", cfg, "--out-dir", tmp_path / "out")
        code, _, payload = run_cli(capsys, "replay",
                                   tmp_path / "out" / "trials.jsonl", cfg)
        assert code == 0
        assert payload["verdict"] == "OK"

    def test_sterngerlach_replay(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", CONFIG_DIR / "sterngerlach.cfg",
                             "--out-dir", tmp_path / "sg", "--trials", "2000")
        assert code == 0
        code, _, payload = run_cli(capsys, "replay",
                                   tmp_path / "sg" / "events.jsonl",
                                   CONFIG_DIR / "sterngerlach.cfg",
                                   "--trials", "2000")
        assert code == 0
        assert payload["verdict"] == "OK"


class TestRuntimeErrors:
    def test_missing_log_is_exit_4(self, capsys, chsh_cfg, tmp_path):
        code, _, payload = run_cli(capsys, "replay",
                                   tmp_path / "absent.jsonl", chsh_cfg)
        assert code == 4
        assert payload["status"] == "runtime_error"

    def test_analytic_modes_run_without_seed(self, capsys, tmp_path):
        cfg = tmp_path / "analytic.cfg"
        cfg.write_text(
            "[experiment]\nkind = epr\nmode = quasiprob_analytic\n"
            "[directions]\na = 0.0\nb = 0.7853981633974483\n")
        code, _, payload = run_cli(capsys, "run", cfg,
                                   "--out-dir", tmp_path / "out")
        assert code == 0
        e = payload["results"]["E"]
        assert e == pytest.approx(-math.cos(math.pi / 4), abs=1e-10)
        assert not (tmp_path / "out" / "trials.jsonl").exists()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hvqm", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hvqm" in proc.stdout
