"""The study scripts under scripts/ run end to end at small sizes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "negativity_scan.py": ["--points", "13"],
    "chsh_angle_scan.py": ["--points", "5"],
    "fringe_profile.py": ["--bins", "128"],
}


def run_script(name: str, tmp_path: Path) -> list[dict]:
    out = tmp_path / (Path(name).stem + ".csv")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *SCRIPTS[name], "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    return rows


@pytest.mark.parametrize("name", ["chsh_angle_scan.py", "fringe_profile.py"])
def test_script_writes_csv(tmp_path, name):
    run_script(name, tmp_path)


def test_negativity_floor_at_pi_over_3(tmp_path):
    rows = run_script("negativity_scan.py", tmp_path)
    assert len(rows) == 13
    at = min(rows, key=lambda r: abs(float(r["theta"]) - math.pi / 3))
    assert abs(float(at["theta"]) - math.pi / 3) <= 1e-12
    assert abs(float(at["min_weight"]) - (-1 / 16)) <= 1e-12
    assert min(float(r["min_weight"]) for r in rows) >= -1 / 16 - 1e-12
