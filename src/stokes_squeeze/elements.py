"""Optical elements acting on polarization states.

The variable partial polarizer (VPP) is a non-unitary mode-selective
attenuation followed by post-selection; the quarter-wave plate (QWP) and the
generic axis rotation are unitary.  All functions return fresh states and
never mutate their input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    HermitianOperator,
    PolarizationState,
    SpinSpace,
    _stokes_matrices,
    normalized_state,
    stokes_operator,
    hermitian_exponential,
)


def _vpp_weights(space: SpinSpace, t_ratio: float) -> np.ndarray:
    """Relative VPP amplitude weights T^(-n), rescaled so the largest is 1.

    The rescaling leaves the output ray unchanged (the state is renormalized
    anyway) and makes the pre-normalization squared norm a true post-selection
    probability in (0, 1].
    """
    if t_ratio < 0:
        raise ValueError(f"transmissivity ratio must be >= 0, got {t_ratio}")
    k = np.arange(space.dimension, dtype=float)
    if t_ratio == 0.0:
        weights = np.zeros(space.dimension)
        weights[0] = 1.0  # only the maximal-n (all-horizontal) state survives
        return weights
    # T^(-n) = T^(k-s); divide by the largest weight: k=0 for T<=1, k=N above
    exponent = k if t_ratio <= 1.0 else k - space.num_photons
    return t_ratio**exponent


def vpp_apply(state: PolarizationState, t_ratio: float) -> PolarizationState:
    """Variable partial polarizer: scale the |s,n> amplitude by T^(-n), renormalize.

    Filtering is non-unitary; the renormalization encodes post-selection on
    transmission.  T=0 is the analytic limit projecting onto the largest-n
    basis state that carries a nonzero amplitude.
    """
    if t_ratio == 1.0:
        return state  # exact identity, no renormalization round-off
    if t_ratio == 0.0:
        nonzero = np.nonzero(state.amplitudes)[0]
        if nonzero.size == 0:
            raise ValueError("cannot project the zero vector")  # unreachable for valid states
        filtered = np.zeros(state.space.dimension, dtype=complex)
        filtered[nonzero[0]] = state.amplitudes[nonzero[0]]
        return normalized_state(state.space, filtered)
    weights = _vpp_weights(state.space, t_ratio)
    return normalized_state(state.space, weights * state.amplitudes)


def vpp_success_probability(state: PolarizationState, t_ratio: float) -> float:
    """Post-selection probability of the VPP: squared norm after attenuation.

    Uses the max-transmission normalization of the weights, so the value lies
    in (0, 1] whenever the state overlaps the least-attenuated basis state.
    """
    weights = _vpp_weights(state.space, t_ratio)
    return float(np.sum(np.abs(weights * state.amplitudes) ** 2))


@functools.lru_cache(maxsize=None)
def _qwp_matrix(num_photons: int) -> np.ndarray:
    space = SpinSpace(num_photons)
    mat = hermitian_exponential(stokes_operator(space, 2), 1j * np.pi / 2)
    mat.setflags(write=False)
    return mat


def qwp_apply(state: PolarizationState) -> PolarizationState:
    """Quarter-wave plate: the unitary exp(i (pi/2) S2)."""
    rotated = _qwp_matrix(state.space.num_photons) @ state.amplitudes
    return normalized_state(state.space, rotated)


def rotate(state: PolarizationState, axis: int, angle: float) -> PolarizationState:
    """Rotation exp(-i * angle * S_axis) about Stokes axis 1, 2 or 3.

    With this sign convention rotate(state, 2, -pi/2) coincides with the
    quarter-wave plate.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"rotation axis must be 1, 2 or 3, got {axis}")
    return rotate_about(state, np.eye(3)[axis - 1], angle)


def rotate_about(state: PolarizationState, direction, angle: float) -> PolarizationState:
    """Rotation exp(-i * angle * d.S) about an arbitrary unit Poincare direction."""
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-10:
        raise ValueError("rotation direction must be a unit vector")
    _, s1, s2, s3 = _stokes_matrices(state.space.num_photons)
    generator = HermitianOperator(state.space, d[0] * s1 + d[1] * s2 + d[2] * s3)
    unitary = hermitian_exponential(generator, -1j * angle)
    return normalized_state(state.space, unitary @ state.amplitudes)


@dataclass(frozen=True)
class ElementDescriptor:
    """Declarative description of one optical element.

    kind 'vpp' takes the transmissivity ratio as `parameter`; 'rotation'
    takes the angle plus an `axis`; 'qwp' takes neither.
    """

    kind: str
    parameter: float | None = None
    axis: int | None = None

    def __post_init__(self):
        if self.kind == "vpp":
            if self.parameter is None or self.parameter < 0:
                raise ValueError("vpp needs a transmissivity ratio >= 0")
        elif self.kind == "rotation":
            if self.parameter is None or not np.isfinite(self.parameter):
                raise ValueError("rotation needs a finite angle")
            if self.axis not in (1, 2, 3):
                raise ValueError("rotation axis must be 1, 2 or 3")
        elif self.kind == "qwp":
            if self.parameter is not None or self.axis is not None:
                raise ValueError("qwp takes no parameters")
        else:
            raise ValueError(f"unknown element kind {self.kind!r}")


def apply_element(state: PolarizationState, element: ElementDescriptor) -> PolarizationState:
    """Apply a described element to a state."""
    if element.kind == "vpp":
        return vpp_apply(state, element.parameter)
    if element.kind == "qwp":
        return qwp_apply(state)
    return rotate(state, element.axis, element.parameter)
