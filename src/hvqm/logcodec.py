"""Block codec shared by the trial and event logs.

Within one block of a log every line is '{"trial":N' followed by one of a
few suffixes, picked per trial.  `join_lines` builds a whole block from the
suffixes with numpy instead of formatting one record at a time; the
suffixes come from the per-record encoders, so the bytes are theirs, and
`index_counts` counts the trials of each suffix.  The module holds the
byte formats of the files a run writes: `write_csv` writes every CSV, and
every file a run writes is opened by `open_new`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat
from typing import Sequence

import numpy as np

_HEAD = b'{"trial":'
_PAD = b"\0"   # fills short rows; never part of a line, which is JSON
_LOW = 10_000
# row i holds the four ASCII digits of i, zero-padded
_LOW_DIGITS = (np.arange(_LOW)[:, None] // np.array([1000, 100, 10, 1]) % 10
               + ord("0")).astype(np.uint8)
_CSV_BLOCK = 16_384   # CSV rows formatted and written at a time
# log lines encoded and written, or read and compared, at a time: a block's
# rows and bytes (under 100 KiB) are reused from the heap, where a
# tile-sized block's are faulted in from fresh pages on every block
LOG_BLOCK = 1024


@functools.lru_cache(maxsize=256)
def _template(suffixes: tuple[bytes, ...], digits: int) -> np.ndarray:
    """One row per suffix: the head, room for the trial's digits, the
    suffix, padded to the longest.  Shared, so read-only."""
    head = len(_HEAD) + digits
    rows = np.zeros((len(suffixes), head + max(map(len, suffixes))), dtype=np.uint8)
    rows[:, :len(_HEAD)] = np.frombuffer(_HEAD, dtype=np.uint8)
    for row, tail in zip(rows, suffixes):
        row[head:head + len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    rows.flags.writeable = False
    return rows


def _write_digits(cells: np.ndarray, first: int) -> None:
    """The digits of trials first, first + 1, ... into the rows of cells,
    all of one width.  Runs of trials between multiples of 10 000 share
    their high digits; their low four are consecutive rows of _LOW_DIGITS."""
    width = cells.shape[1]
    if width <= 4:   # trials below 10 000
        cells[:] = _LOW_DIGITS[first:first + len(cells), 4 - width:]
        return
    lo = 0
    while lo < len(cells):
        high, low = divmod(first + lo, _LOW)
        hi = min(len(cells), lo + _LOW - low)
        cells[lo:hi, :width - 4] = np.frombuffer(str(high).encode(), dtype=np.uint8)
        cells[lo:hi, width - 4:] = _LOW_DIGITS[low:low + hi - lo]
        lo = hi


def suffix_of(line: str) -> bytes:
    """What follows '{"trial":0' in `line`, the record of trial 0, with its
    newline: the suffix join_lines writes after each trial's digits."""
    head = _HEAD.decode("ascii") + "0"
    if not line.startswith(head):
        raise ValueError(f"record line {line!r} does not start with {head!r}")
    return (line[len(head):] + "\n").encode("ascii")


def join_lines(start: int, k: np.ndarray, suffixes: Sequence[bytes]) -> bytes:
    """'{"trial":N' + suffixes[k[i]] for N = start + i, joined.

    Each suffix is ASCII and ends with its newline.  Rows are laid out at
    the longest suffix's width, then the padding is dropped.
    """
    suffixes = tuple(suffixes)
    k = np.asarray(k, dtype=np.intp)
    parts = []
    lo, end = start, start + len(k)
    while lo < end:
        digits = len(str(lo))
        hi = min(end, 10 ** digits)   # trial numbers of one width
        rows = _template(suffixes, digits).take(k[lo - start:hi - start], axis=0)
        _write_digits(rows[:, len(_HEAD):len(_HEAD) + digits], lo)
        data = rows.tobytes()
        # freed before the unpadded copy is made, which can then reuse its
        # memory instead of faulting in fresh pages: a full-size chsh_mc run
        # is about a fifth faster for it
        del rows
        parts.append(data.replace(_PAD, b""))
        lo = hi
    return b"".join(parts)


@functools.lru_cache(maxsize=64)
def _nonzero_indices(dtype: np.dtype, n: int) -> tuple[np.ndarray, ...]:
    """Indices 1 .. n - 1 as 0-d arrays, which numpy compares with faster
    than with Python ints, in a dtype that holds both them and `dtype`."""
    dtype = np.promote_types(dtype, np.min_scalar_type(n - 1))
    return tuple(np.array(j, dtype=dtype) for j in range(1, n))


def index_counts(k: np.ndarray, n: int) -> np.ndarray:
    """np.bincount(k, minlength=n) of indices k below n, each a count of
    trials whose line takes suffixes[j] in join_lines.  Counted by one
    compare per nonzero index, index 0 taking the rest: over a tile of
    2^16 uint8 indices and four of them, a third of bincount's time."""
    c = [np.count_nonzero(k == j) for j in _nonzero_indices(k.dtype, n)]
    return np.array([len(k) - sum(c), *c], dtype=np.int64)


def open_new(path, mode: str = "w"):
    """`path` opened for writing as a new file: an old regular file of that
    name is unlinked first, not truncated.  On ext4 a file truncated to 0
    and written again is flushed to disk when it is closed, which makes a
    rewrite cost several times a new file.  Anything else at `path` (a
    symlink, a device such as /dev/null, a FIFO), or a file whose directory
    refuses the unlink, is opened and written through as `open` does.
    Text is UTF-8."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """The header line, then row i: cell i of each column, comma-joined.

    A float column's cells are the repr of each value as a Python float
    (`tolist`); an int or str column's are its values as str.  Rows are
    formatted and written in blocks of _CSV_BLOCK, so no file-sized string
    is built.
    """
    with open_new(path) as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [map(repr if column.dtype.kind == "f" else str,
                         column[lo:lo + _CSV_BLOCK].tolist()) for column in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")
