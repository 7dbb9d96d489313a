#!/usr/bin/env python3
"""Run every benchmark workload once and write BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 28 --seed 7 [--seconds 30] [--out-dir .]

Each workload that BENCHMARK.json names runs as `perfbench/run.py
--workload W --seed S --seconds T` from the repository root, one after
another, and its last stdout line is read.  The file holds, per workload,
`correct`, `attempted`, `failed` and every end-to-end metric with its unit,
and for the whole run the commit (and whether tracked files differed from
it), the numpy version and the usable CPU count.  The exit code is 1
unless every workload is correct and carries every end-to-end metric
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """One perfbench run of a workload: its verdict, counts and metrics."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "exit_code": proc.returncode}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def problems(record: dict, bench: dict) -> list[str]:
    """Each workload that is not correct or lacks an end-to-end metric."""
    names = [m["name"] for m in bench["end_to_end"]]
    out = []
    for w in bench["workloads"]:
        result = record["workloads"].get(w["name"], {})
        if result.get("correct") is not True:
            out.append(f"{w['name']}: not correct")
        missing = [n for n in names if n not in result.get("metrics", {})]
        if missing:
            out.append(f"{w['name']}: no {', '.join(missing)}")
    return out


def _git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from hvqm.shares import _usable_cpus

    status = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "pr": args.pr, "seed": args.seed, "seconds": args.seconds,
        "commit": _git("rev-parse", "HEAD"),
        "tracked_changes": None if status is None else bool(status),
        "numpy": numpy.__version__, "usable_cpus": _usable_cpus(),
        "workloads": {w["name"]: run_workload(w["name"], args.seed, args.seconds)
                      for w in bench["workloads"]},
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    found = problems(record, bench)
    for problem in found:
        print(f"bench_record: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
