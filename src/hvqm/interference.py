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


def _transpose(src: np.ndarray, dst: np.ndarray) -> None:
    """dst = src with axes 1 and 3 swapped, 256 rows (indices of src's
    axis 1) at a time.  numpy copies in dst's order, reading one element
    from each row of src before the next; within a block, those rows'
    cache lines are still there for the next element."""
    for i in range(0, src.shape[1], 256):
        dst[..., i:i + 256] = src[:, i:i + 256].transpose(0, 3, 2, 1)


def _fft(x: np.ndarray, sign: float) -> np.ndarray:
    """Unnormalized DFT, sum_t x_t exp(sign 2 pi i j t / size), along the
    last axis of (real, imaginary) planes whose length is a power of two.

    Radix-2 Stockham passes: the pass that reaches length 2n takes, for
    every DFT index j < n and column t < c = size / 2n, the n-point DFTs
    of columns t and c + t, turns the second by exp(sign pi i j / n) and
    writes their sum and difference to indices j and n + j of column t.
    x is overwritten.

    Each pass runs in whichever of two layouts gives numpy the longer
    contiguous runs.  Batch innermost, (j, t, batch), every run is
    c * batch long; DFT index innermost, (batch, t, j), it is n long.  x
    arrives in the second layout (at n = 1 its columns are its entries).
    A pass takes the first while c * batch >= n, so the early passes of
    any batch and every pass of a large batch of short transforms stay
    long.  Each change of layout is one transpose into the other of the
    two buffers, x's own and one more; a result that ends batch innermost
    is moved back.  Every element gets the same sums and products in
    either layout.

    The turns come from one table, the cos and sin of sign pi k / (size / 2)
    for k < size / 2; pass n reads every c-th entry.  Since c is a power
    of two, sign pi / (size / 2) times j c rounds exactly as sign pi / n
    times j, so the table holds the same bits as a table built per pass.
    Written out instead of taken from np.fft so that the bits follow from
    cos, sin and rounded sums and products alone: numpy 1.x and 2.x ship
    different pocketfft implementations, which round differently.
    """
    size = x.shape[-1]
    if size == 1:
        return x
    batch = x[0].size // size
    half = size // 2
    turns = _cis_planes(sign * math.pi / half * np.arange(half))
    src, spare = x, np.empty_like(x)

    def view(a, inner, n, m):
        return a.reshape((2, n, m, batch) if inner else (2, batch, m, n))

    inner, n = False, 1
    while n < size:
        c = size // (2 * n)
        if (c * batch >= n) != inner:
            _transpose(view(src, inner, n, 2 * c), view(spare, not inner, n, 2 * c))
            src, spare, inner = spare, src, not inner
        s = view(src, inner, n, 2 * c)
        even, odd = s[:, :, :c], s[:, :, c:]
        if inner:
            w = turns[:, ::c, None, None]
            out = spare.reshape(2, 2, n, c, batch)
            low, high = out[:, 0], out[:, 1]
        else:
            w = turns[:, None, None, ::c]
            out = spare.reshape(2, batch, c, 2, n)
            low, high = out[..., 0, :], out[..., 1, :]
        if n > 1:
            _rotate(odd, w)
        np.add(even, odd, out=low)
        np.subtract(even, odd, out=high)
        src, spare = spare, src
        n *= 2
    if inner:
        _transpose(view(src, True, size, 1), view(spare, False, size, 1))
        src = spare
    return src.reshape(x.shape)
