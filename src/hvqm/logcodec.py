"""Block codec shared by the trial and event logs.

Within one block of a log every line is '{"trial":N' followed by one of a
few suffixes, picked per trial.  `join_lines` builds a whole block from the
suffixes with numpy instead of formatting one record at a time; the
suffixes come from the per-record encoders, so the bytes are theirs.  The
module holds the byte formats of the files a run writes: `write_csv`
writes every CSV.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_HEAD = b'{"trial":'
_PAD = b"\0"   # fills short rows; never part of a line, which is JSON
_LOW = 10_000
# row i holds the four ASCII digits of i, zero-padded
_LOW_DIGITS = (np.arange(_LOW)[:, None] // np.array([1000, 100, 10, 1]) % 10
               + ord("0")).astype(np.uint8)
_CSV_BLOCK = 16_384   # CSV rows formatted and written at a time


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


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """The header line, then row i: cell i of each column, comma-joined.

    A float column's cells are the repr of each value as a Python float
    (`tolist`); an int or str column's are its values as str.  Rows are
    formatted and written in blocks of _CSV_BLOCK, so no file-sized string
    is built.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [map(repr if column.dtype.kind == "f" else str,
                         column[lo:lo + _CSV_BLOCK].tolist()) for column in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")
