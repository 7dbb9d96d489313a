import math

import numpy as np
from hypothesis import strategies as st

from hvqm.pathint import _hole_region_amplitude
from hvqm.quaternion import Quaternion
from hvqm.spin import Direction

finite_components = st.floats(min_value=-10.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False)

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi,
                   allow_nan=False, allow_infinity=False)

signs = st.sampled_from([1, -1])


@st.composite
def quaternions(draw):
    return Quaternion(draw(finite_components), draw(finite_components),
                      draw(finite_components), draw(finite_components))


@st.composite
def directions(draw):
    """Uniform-ish unit vectors via (cos polar, azimuth)."""
    u = draw(st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False))
    phi = draw(angles)
    s = math.sqrt(max(0.0, 1.0 - u * u))
    return Direction.normalized(s * math.cos(phi), s * math.sin(phi), u)


def four_hole_x_marginal(g, y_coherent):
    """P(s_x) from the hole-to-region amplitudes, cell by cell: the two
    y-holes' amplitudes summed then squared (y-coherent) or squared then
    summed, added over both regions and normalized over s_x."""
    raw = {}
    for sx in (1, -1):
        raw[sx] = 0.0
        for region in (g.region_plus, g.region_minus):
            up = _hole_region_amplitude(g, sx, 1, region)
            down = _hole_region_amplitude(g, sx, -1, region)
            raw[sx] += abs(up + down) ** 2 if y_coherent else abs(up) ** 2 + abs(down) ** 2
    total = raw[1] + raw[-1]
    return {sx: value / total for sx, value in raw.items()}


def categorical(cum_probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to category indices via the inverse CDF.

    `cum_probs` is the cumulative sum of the category probabilities.
    Zero-probability categories occupy empty intervals and are never hit.
    The classical sampler in `epr` counts thresholds instead, with the same
    result; this is the reference its tests compare against.
    """
    return np.searchsorted(cum_probs, u, side="right")
