"""The lifted grid and its row sums, filled in row shares across CPUs.

`lift` and `project_r` split the grid's rows with `shares._in_shares`, one
share per usable CPU as long as each holds two whole blocks of
`phasespace._block_rows(m)` rows.  Every cell and every row sum keeps the
bits of the one-CPU result.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from conftest import _CountedThread
from hvqm import phasespace
from hvqm.phasespace import gaussian_wavefunction, lift, project_r


def _wavefunction(m):
    return gaussian_wavefunction(m, 1.0, width=m / 32, momentum=0.3)


def _bits(values):
    return values.view(np.uint64)


# shares on 2, 3 and 5 CPUs: M = 2 is one block, M = 256 two blocks of 128
# rows, M = 512 eight of 64 and M = 1024 thirty-two of 32
@pytest.mark.parametrize("m,want", [(2, (1, 1, 1)), (256, (1, 1, 1)), (512, (2, 3, 4)),
                                    (1024, (2, 3, 5))])
def test_row_shares_keep_the_bits_of_one_cpu(on_cpus, m, want):
    """At M = 512 on 3 CPUs the shares (170, 171 and 171 rows) are not
    whole blocks of 64 rows, so each ends on a cut block."""
    wf = _wavefunction(m)
    on_cpus(1)
    grid = lift(wf)
    rows = project_r(grid).values
    assert _CountedThread.started == 0
    for cpus, count in zip((2, 3, 5), want):
        on_cpus(cpus)
        shared = lift(wf)
        assert np.array_equal(_bits(shared.coefficients), _bits(grid.coefficients))
        assert np.array_equal(_bits(project_r(grid).values), _bits(rows))
        assert _CountedThread.started == 2 * (count - 1)   # lift's and project_r's
        _CountedThread.started = 0


def test_an_error_in_the_second_share_of_lift_reaches_the_caller(monkeypatch, on_cpus):
    original = phasespace._residue_blocks

    def failing(m, lo, hi):
        if lo == 0:
            return original(m, lo, hi)

        def fail():
            raise RuntimeError("the second share failed")
            yield   # a generator: it raises when its share reads it

        return fail()

    monkeypatch.setattr(phasespace, "_residue_blocks", failing)
    on_cpus(2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="the second share failed"):
        lift(_wavefunction(1024))
    assert _CountedThread.started == 1
    assert threading.active_count() == before   # every thread joined


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_lift_holds_the_grid_and_one_residue_block_a_share(on_cpus, cpus):
    """The traced peak of lift at M = 1024, one share per CPU, is the
    complex grid, one uint16 residue block per share with the intp copy of
    it that `take` makes of its indices, and a few M-length vectors (the
    momentum transform, the scale and the roots of unity)."""
    m = 1024
    wf = _wavefunction(m)
    on_cpus(cpus)
    lift(wf)   # numpy's FFT caches its twiddles on a first call
    tracemalloc.start()
    try:
        lift(wf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (2 + 8) * phasespace._block_rows(m) * m
    assert peak <= 16 * m * m + cpus * block + 8 * 16 * m
