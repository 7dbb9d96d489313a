"""Block codec shared by the trial and event logs.

Within one block of a log every line is '{"trial":N' followed by one of a
few suffixes, picked per trial.  `join_lines` builds a whole block from the
suffixes with numpy instead of formatting one record at a time; the
suffixes come from the per-record encoders, so the bytes are theirs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_HEAD = b'{"trial":'
_PAD = b"\0"   # fills short rows; never part of a line, which is JSON


def join_lines(start: int, k: np.ndarray, suffixes: Sequence[str]) -> str:
    """'{"trial":N' + suffixes[k[i]] for N = start + i, joined.

    Each suffix is ASCII and ends with its newline.  Rows are laid out at
    the longest suffix's width, then the padding is dropped.
    """
    tails = [np.frombuffer(s.encode("ascii"), dtype=np.uint8) for s in suffixes]
    k = np.asarray(k, dtype=np.intp)
    parts = []
    lo, end = start, start + len(k)
    while lo < end:
        digits = len(str(lo))
        hi = min(end, 10 ** digits)   # trial numbers of one width
        head = len(_HEAD) + digits
        rows = np.zeros((len(tails), head + max(map(len, tails))), dtype=np.uint8)
        rows[:, :len(_HEAD)] = np.frombuffer(_HEAD, dtype=np.uint8)
        for row, tail in zip(rows, tails):
            row[head:head + len(tail)] = tail
        rows = rows.take(k[lo - start:hi - start], axis=0)
        powers = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
        trials = np.arange(lo, hi, dtype=np.int64)
        rows[:, len(_HEAD):head] = trials[:, None] // powers % 10 + ord("0")
        parts.append(rows.tobytes().replace(_PAD, b""))
        lo = hi
    return b"".join(parts).decode("ascii")


def longest_line(last_trial: int, suffixes: Sequence[str]) -> int:
    """Bytes in the longest line join_lines makes for trials up to last_trial."""
    return len(_HEAD) + len(str(last_trial)) + max(map(len, suffixes))


def line_ends(data: bytes) -> np.ndarray:
    """Index just past each line's text: its newline, or the end of the data
    for a last line without one."""
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if len(buf) and buf[-1] != ord("\n"):
        ends = np.append(ends, len(buf))
    return ends
