"""Sum-then-square vs square-then-sum.

The single distinction that separates coherent from which-path statistics,
made once for the spin pair tables, the four-hole tables and the two-slit
screen patterns: summing amplitudes over indistinguishable alternatives
before squaring produces the interference term; squaring first removes it.
"""

from __future__ import annotations

import numpy as np


def _squared_modulus(z: np.ndarray) -> np.ndarray:
    """|z|^2 as re^2 + im^2, each product and the sum rounded on their own:
    complex np.abs rounds differently in each of numpy's SIMD loops."""
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def pair_tables(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coherent |sum|^2 and which-path sum |.|^2 tables of `amplitudes`,
    each normalized over the observed cells.

    The last axis holds the unobserved alternatives; every other axis is an
    observed cell.
    """
    coherent = _squared_modulus(amplitudes.sum(axis=-1))
    coherent /= coherent.sum()
    which_path = _squared_modulus(amplitudes).sum(axis=-1)
    which_path /= which_path.sum()
    return coherent, which_path


def cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for a real array, written as cos and sin into the real
    and imaginary parts of one complex array: the same bits as complex
    np.exp of i phase, without building the complex argument."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out
