"""Sum-then-square vs square-then-sum, and the complex arithmetic under it.

The single distinction that separates coherent from which-path statistics,
made once for the four-hole tables and the two-slit screen patterns (and
for the spin pair tables that the tests hold as an oracle): summing
amplitudes over indistinguishable alternatives before squaring produces
the interference term; squaring first removes it.
"""

from __future__ import annotations

import math

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
    _cis_planes(phase, (out.real, out.imag))
    return out


def _cis_planes(phase: np.ndarray, out=None) -> np.ndarray:
    """exp(i phase) as (cos, sin) planes, into `out` if given: the bits of `cis`."""
    if out is None:
        out = np.empty((2,) + phase.shape)
    np.cos(phase, out=out[0])
    np.sin(phase, out=out[1])
    return out


def _rotate(z: np.ndarray, w: np.ndarray) -> None:
    """z *= w for complex numbers held as (real, imaginary) planes along
    the first axis, w broadcast to z.  Every product and sum is rounded on
    its own; numpy's complex product fuses a multiply and an add on CPUs
    that have FMA, so its last bits depend on the machine."""
    re = z[0] * w[0]
    re -= z[1] * w[1]
    z[1] *= w[0]
    z[1] += z[0] * w[1]
    z[0] = re


def _fft(x: np.ndarray, sign: float) -> np.ndarray:
    """Unnormalized DFT, sum_t x_t exp(sign 2 pi i j t / size), along the
    last axis of (real, imaginary) planes whose length is a power of two.

    Radix-2 Stockham passes: after the pass that reaches length n,
    column t of the (n, c) view holds the n-point DFT of x[t::c].  x is
    overwritten.
    Written out instead of taken from np.fft so that the bits follow from
    cos, sin and rounded sums and products alone: numpy 1.x and 2.x ship
    different pocketfft implementations, which round differently.
    """
    *lead, size = x.shape
    src, dst = x.reshape(*lead, 1, size), None
    n = 1
    while n < size:
        c = size // (2 * n)
        src = src.reshape(*lead, n, 2 * c)
        even, odd = src[..., :c], src[..., c:]
        if n > 1:
            _rotate(odd, _cis_planes(sign * math.pi / n * np.arange(n))[..., None])
        if dst is None:
            dst = np.empty_like(src)
        out = dst.reshape(*lead, 2, n, c)
        np.add(even, odd, out=out[..., 0, :, :])
        np.subtract(even, odd, out=out[..., 1, :, :])
        src, dst = out, src
        n *= 2
    return src.reshape(x.shape)
