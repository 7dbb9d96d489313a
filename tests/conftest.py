import math

import numpy as np
from hypothesis import strategies as st

from hvqm.epr import SingletEnsemble, TrialRecord, sample_trials
from hvqm.errors import ValidationError
from hvqm.pathint import _hole_region_amplitude
from hvqm.quaternion import Quaternion
from hvqm.spin import Direction, DirectionSet, check_pattern

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


def random_directions(n):
    """N fixed 3-D directions, none of them planar."""
    rng = np.random.default_rng(1000 + n)
    return DirectionSet(tuple(Direction.normalized(*rng.normal(size=3)) for _ in range(n)))


def pair_marginal_probability(s_i: int, s_j: int, theta_i: float, theta_j: float) -> float:
    """Planar pairwise law (1 + s_i s_j cos(theta_j - theta_i)) / 4."""
    return 0.25 * (1.0 + s_i * s_j * math.cos(theta_j - theta_i))


def closed_form_w3(pattern, angles) -> float:
    """Exact 3-direction planar weight; the N = 3 case of solve_weights.

    W(s1,s2,s3) = [1 + s1 s2 cos(t2-t1) + s1 s3 cos(t3-t1) + s2 s3 cos(t3-t2)] / 8
    """
    if len(angles) != 3:
        raise ValidationError("closed form is specific to N=3")
    s1, s2, s3 = check_pattern(pattern, 3)
    t1, t2, t3 = angles
    return (1.0
            + s1 * s2 * math.cos(t2 - t1)
            + s1 * s3 * math.cos(t3 - t1)
            + s2 * s3 * math.cos(t3 - t2)) / 8.0


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


def sample_trial(e: SingletEnsemble, a_idx: int, b_idx: int,
                 seed: int, trial: int) -> TrialRecord:
    """Draw a single trial, the per-trial oracle of the tiled and threaded
    walks: a trial is a pure function of (seed, index)."""
    a, b = sample_trials(e, a_idx, b_idx, seed, 1, trial)
    return TrialRecord(trial, a_idx, b_idx, int(a[0]), int(b[0]), e.mode.value)
