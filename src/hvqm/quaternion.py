"""The value type of a quaternion w + x*I + y*J + z*K.

`spin.marginal_amplitude` returns one: a signed sum of spin directions
n_x*I + n_y*J + n_z*K, pure imaginary, whose real component is zero.
No step of hvqm multiplies two quaternions, so the type carries its four
components and no algebra.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion w + x*I + y*J + z*K with float components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
