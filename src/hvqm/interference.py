"""Sum-then-square vs square-then-sum.

The single distinction that separates coherent from which-path statistics,
shared verbatim by the spin-table and slit-experiment code paths: summing
amplitudes over indistinguishable alternatives before squaring produces the
interference term; squaring first removes it.
"""

from __future__ import annotations

import numpy as np


def coherent_intensity(amplitudes: np.ndarray, axis: int = -1) -> np.ndarray:
    """|sum over alternatives|^2 (alternatives not distinguished)."""
    total = np.sum(amplitudes, axis=axis)
    return np.abs(total) ** 2


def incoherent_intensity(amplitudes: np.ndarray, axis: int = -1) -> np.ndarray:
    """sum over alternatives of |.|^2 (alternatives distinguished)."""
    return np.sum(np.abs(amplitudes) ** 2, axis=axis)


def cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real array, written as cos and sin into the real
    and imaginary parts of one complex array: the same bits as complex
    np.exp of i phase, without building the complex argument."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out
