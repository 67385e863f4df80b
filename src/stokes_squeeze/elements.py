"""Optical elements acting on polarization states.

The variable partial polarizer (VPP) is a non-unitary mode-selective
attenuation followed by post-selection; the quarter-wave plate (QWP) and the
generic axis rotation are unitary.  Each element is one function, which
checks its own arguments (the VPP ratio as `spin_core._require_ratio` does).
All functions return fresh states and never mutate their input.

Every unitary goes through the cached S2 eigenbasis of `spin_core`, two
products with its half-size flip blocks per call after two half-size `eigh`s
per N: the QWP is the S2 rotation by -pi/2, and a rotation about any axis is
one Euler product of S1 phases and one S2 rotation.  No dense exponential is
built here, but the blocks hold about (N+1)^2 / 2 entries, so the unitaries
keep the dense bound: N >= 2048 is refused.
"""

from __future__ import annotations

import math

import numpy as np

from .spin_core import (
    PolarizationState,
    SpinSpace,
    _require_choice,
    _require_finite,
    _require_ratio,
    _s1_phases,
    _s2_rotate,
    _unit_direction,
    normalized_state,
)


_SMALLEST_NORMAL = np.finfo(float).tiny


def _vpp_weights(space: SpinSpace, t_ratios) -> np.ndarray:
    """Relative VPP amplitude weights T^(-n), one row per ratio, shape (B, N+1).

    Each row is rescaled so its largest weight is 1; the rescaling leaves the
    output ray unchanged (the state is renormalized anyway) and makes the
    pre-normalization squared norm a true post-selection probability in
    (0, 1].  All rows come from one `np.power` call, elementwise the same
    routine, and so the same bits, as one row at a time.
    """
    t_ratios = np.asarray(t_ratios, dtype=float)
    invalid = t_ratios[~(t_ratios >= 0)]
    if invalid.size:
        _require_ratio(invalid[0])
    k = np.arange(space.dimension, dtype=float)
    # T^(-n) = T^(k-s); divide by the largest weight: k=0 for T<=1, k=N above
    exponent = np.where(t_ratios[:, None] <= 1.0, k, k - space.num_photons)
    weights = np.power(t_ratios[:, None], exponent)
    # T = 0 keeps only the maximal-n (all-horizontal) state; set here so that
    # T = -0.0, whose odd powers are -0, gets +0 weights as well
    weights[t_ratios == 0.0] = k == 0
    return weights


def vpp_apply(state: PolarizationState, t_ratio: float) -> PolarizationState:
    """Variable partial polarizer: scale the |s,n> amplitude by T^(-n), renormalize.

    Filtering is non-unitary; the renormalization encodes post-selection on
    transmission.  T=0 is the analytic limit projecting onto the largest-n
    basis state that carries a nonzero amplitude.
    """
    if t_ratio == 1.0:
        return state  # exact identity, no renormalization round-off
    if t_ratio == 0.0:
        first = np.flatnonzero(state.amplitudes)[0]  # a valid state has one
        filtered = np.zeros(state.space.dimension, dtype=complex)
        filtered[first] = state.amplitudes[first]
        return normalized_state(state.space, filtered)
    filtered = _vpp_weights(state.space, [t_ratio])[0] * state.amplitudes
    peak = np.abs(filtered).max()
    if not peak >= _SMALLEST_NORMAL:
        # the surviving weights underflowed (|0,3>_HV at T = 1e-200 weighs
        # 1e-600) or are subnormal (complex division by 1e-312 overflows):
        # weigh by T^(k - anchor), 1 at the least-attenuated nonzero amplitude,
        # and 1 rather than an overflowing power for the zeros beyond it.  Only
        # then: re-anchoring would move low bits of states the default weights
        # handle, such as the seed above T = 1, whose infidelity `verify` prints
        support = np.flatnonzero(state.amplitudes)
        k = np.arange(state.space.dimension, dtype=float)
        if t_ratio < 1.0:
            exponent = np.maximum(k - support[0], 0.0)
        else:
            exponent = np.minimum(k - support[-1], 0.0)
        filtered = t_ratio**exponent * state.amplitudes
        peak = np.abs(filtered).max()
    # the squared norm underflows long before the amplitudes do (T = 1e200
    # leaves only ~1e-200), so bring the largest amplitude to 1 first
    return normalized_state(state.space, filtered / peak)


def vpp_success_probability(state: PolarizationState, t_ratio: float) -> float:
    """Post-selection probability of the VPP: squared norm after attenuation.

    Uses the max-transmission normalization of the weights, so the value lies
    in (0, 1] whenever the state overlaps the least-attenuated basis state.
    """
    return vpp_success_probabilities(state, [t_ratio])[0]


def vpp_success_probabilities(state: PolarizationState, t_ratios) -> list[float]:
    """`vpp_success_probability` of one state at every ratio of `t_ratios`."""
    weights = _vpp_weights(state.space, t_ratios)
    return np.sum(np.abs(weights * state.amplitudes) ** 2, axis=1).tolist()


def qwp_apply(state: PolarizationState) -> PolarizationState:
    """Quarter-wave plate: the unitary exp(i (pi/2) S2), an S2 rotation by -pi/2."""
    rotated = _s2_rotate(state.space, -np.pi / 2, state.amplitudes)
    return normalized_state(state.space, rotated)


def rotate(state: PolarizationState, axis: int, angle: float) -> PolarizationState:
    """Rotation exp(-i * angle * S_axis) about Stokes axis 1, 2 or 3.

    With this sign convention rotate(state, 2, -pi/2) coincides with the
    quarter-wave plate.  The axis must be an integer, not a bool or a float.
    """
    _require_choice(axis, (1, 2, 3), "rotation axis must be 1, 2 or 3")
    return rotate_about(state, np.eye(3)[axis - 1], angle)


def rotate_about(state: PolarizationState, direction, angle: float) -> PolarizationState:
    """Rotation exp(-i * angle * d.S) about an arbitrary unit Poincare direction.

    With D(x) = exp(-i x S1) and W(x) = exp(-i x S2) it is D(a) W(b) D(c),
    global phase included, since both are one SU(2) element.  On spin 1/2,
    where S = (sigma_z, sigma_x, sigma_y)/2, with u, v = cos, sin(angle/2):
    b = 2 atan2(v hypot(d2, d3), hypot(u, v d1)), a + c = 2 atan2(v d1, u) and
    a - c = 2 atan2(d3, d2).  That is one S2 rotation, two block products.
    """
    d = _unit_direction(direction)
    _require_finite(angle=angle)
    space = state.space
    u, v = math.cos(angle / 2), math.sin(angle / 2)
    tilt = 2.0 * math.atan2(v * math.hypot(d[1], d[2]), math.hypot(u, v * d[0]))  # b
    total = 2.0 * math.atan2(v * d[0], u)  # a + c
    spread = 2.0 * math.atan2(d[2], d[1])  # a - c
    amps = _s2_rotate(space, tilt, _s1_phases(space, (total - spread) / 2) * state.amplitudes)
    return normalized_state(space, _s1_phases(space, (total + spread) / 2) * amps)
