"""Contiguous shares of an index range, one per usable CPU, each on a
thread of its own: the one split behind the unlogged singlet walks and
the phase-space grid's rows."""

from __future__ import annotations

import os
import threading


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _in_shares(n: int, unit: int, walk, share, ordered: bool = False) -> list:
    """share(walk(lo, hi)) for contiguous shares [lo, hi) of indices
    0 ... n - 1, in share order.

    Unless the pieces must arrive in index order, the range is split into
    shares of equal index counts, share i from n i // count on: one per
    usable CPU, but no more than the range has pairs of whole units (an
    rng.TILE tile of trials, a block of grid rows).  Every share but the
    first, which the calling thread takes, runs on a thread of its own: a
    share holds the GIL only between its ufunc calls, which the unit makes
    long.  Every walk is made on the calling thread before a thread starts,
    so its checks raise there and what it takes at the call is taken
    whatever the threads' timing; the threads are joined before this
    returns, and an exception in a share is raised here.
    """
    count = 1 if ordered else min(_usable_cpus(), n // unit // 2)
    if count < 2:
        return [share(walk(0, n))]
    bounds = [n * i // count for i in range(count + 1)]
    walks = [walk(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    results, errors = [None] * count, []

    def run(i):
        try:
            results[i] = share(walks[i])
        except BaseException as exc:   # raised again below, in the caller
            errors.append(exc)

    threads = []
    try:
        for i in range(1, count):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        results[0] = share(walks[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results
