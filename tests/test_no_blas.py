"""No reported number goes through BLAS.

numpy's OpenBLAS may be a DYNAMIC_ARCH build, which picks its kernel by
CPU at run time, and its kernels sum in different orders; so a dot
product, a norm or a matrix product would make a report's last bits
depend on the machine.  Every reduction in `src/` is numpy's pairwise sum,
`math.fsum` or a Python sum instead.
"""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# numpy names whose work BLAS or LAPACK may do, matched as np.<name> and
# numpy imports; Direction.dot, a Python sum of three products, is not one
BLAS_NAMES = {"dot", "vdot", "inner", "einsum", "linalg", "matmul", "tensordot"}


def _blas_uses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno, f"np.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if alias.name in BLAS_NAMES or "linalg" in node.module:
                    yield node.lineno, f"{node.module}.{alias.name}"


def test_no_src_code_calls_blas():
    uses = [f"{p.relative_to(ROOT)}:{line} {name}"
            for p in sorted(ROOT.glob("src/**/*.py")) for line, name in _blas_uses(p)]
    assert not uses, "BLAS behind a reported number: " + ", ".join(uses)


# a quasiprob_analytic chsh whose correlators some OpenBLAS kernels summed
# to different last bits
QUASIPROB_CHSH = """\
[experiment]
kind = chsh
mode = quasiprob_analytic

[directions]
a1 = 0.3
a2 = 1.9
b1 = 0,0.6,0.8
b2 = -2.2
"""

# OPENBLAS_CORETYPE values and the /proc/cpuinfo flags each kernel needs
CORETYPES = {"Prescott": {"pni"}, "Haswell": {"avx2", "fma"},
             "SkylakeX": {"avx512f", "avx512bw", "avx512vl", "avx512dq", "avx512cd"}}


def _cpu_flags() -> set:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.skipif(sys.platform != "linux" or platform.machine() != "x86_64",
                    reason="forces OpenBLAS's x86-64 kernels")
def test_reports_keep_their_bits_under_every_openblas_kernel(tmp_path):
    """The quasiprob_analytic chsh above and the shipped phasespace run
    write the same `results` under each OpenBLAS kernel this CPU can run;
    OPENBLAS_CORETYPE forces the kernel in the child process only."""
    flags = _cpu_flags()
    coretypes = [name for name, need in CORETYPES.items() if need <= flags]
    if len(coretypes) < 2:
        pytest.skip("this CPU runs fewer than two of the OpenBLAS kernels")
    chsh_cfg = tmp_path / "chsh_quasiprob.cfg"
    chsh_cfg.write_text(QUASIPROB_CHSH)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for cfg in (chsh_cfg, ROOT / "configs" / "phasespace.cfg"):
        results = {}
        for coretype in coretypes:
            out = tmp_path / f"{cfg.stem}_{coretype}"
            proc = subprocess.run(
                [sys.executable, "-m", "hvqm", "run", str(cfg), "--out-dir", str(out)],
                env={**env, "OPENBLAS_CORETYPE": coretype},
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            # each float is written as its repr, so equal text is equal bits
            results[coretype] = json.dumps(
                json.loads((out / "report.json").read_text())["results"], sort_keys=True)
        assert len(set(results.values())) == 1, (cfg.name, results)
