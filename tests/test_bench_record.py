"""scripts/bench_record.py writes one BENCH file and fails on a bad run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [m["name"] for m in BENCH["end_to_end"]]


@pytest.fixture
def recorder(monkeypatch):
    """The script as a module, its perfbench runs replaced by `runs`, a
    dict of workload name -> result."""
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = {w["name"]: {"correct": True, "attempted": 22, "failed": 0,
                        "metrics": {n: {"value": 1.0, "unit": "s"} for n in NAMES}}
            for w in BENCH["workloads"]}
    calls = []

    def run_workload(name, seed, seconds):
        calls.append((name, seed, seconds))
        return runs[name]
    monkeypatch.setattr(module, "run_workload", run_workload)
    module.runs, module.calls = runs, calls
    return module


def test_writes_every_workload(recorder, tmp_path, capsys):
    assert recorder.main(["--pr", "7", "--seed", "3", "--seconds", "1",
                          "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert recorder.calls == [(w["name"], 3, 1.0) for w in BENCH["workloads"]]
    assert record["workloads"] == recorder.runs
    assert (record["pr"], record["seed"], record["seconds"]) == (7, 3, 1.0)
    assert record["usable_cpus"] >= 1 and record["numpy"]
    assert "commit" in record and "tracked_changes" in record


def test_an_incorrect_workload_fails(recorder, tmp_path, capsys):
    recorder.runs["scan"]["correct"] = False
    assert recorder.main(["--pr", "7", "--seed", "3", "--out-dir", str(tmp_path)]) == 1
    assert "scan: not correct" in capsys.readouterr().err
    assert (tmp_path / "BENCH_7.json").is_file()


def test_a_missing_metric_fails(recorder, tmp_path, capsys):
    del recorder.runs["kernels"]["metrics"]["op_tail_ms"]
    assert recorder.main(["--pr", "7", "--seed", "3", "--out-dir", str(tmp_path)]) == 1
    assert "kernels: no op_tail_ms" in capsys.readouterr().err


def test_a_run_without_a_result_fails(recorder, tmp_path, capsys):
    recorder.runs["mc_logs"] = {"correct": False, "exit_code": 2}
    assert recorder.main(["--pr", "7", "--seed", "3", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "mc_logs: not correct" in err and "mc_logs: no setup_s" in err
