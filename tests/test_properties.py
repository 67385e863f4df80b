"""Property tests of the SU(2) rotations on random states, N <= 64."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stokes_squeeze import (  # noqa: E402
    build_spin_space,
    mean_polarization,
    rotate_about,
    stokes_operator,
)
from stokes_squeeze.verify import random_state  # noqa: E402

BASIS_AXES = [
    tuple(sign * float(i == axis) for i in range(3)) for axis in range(3) for sign in (1, -1)
]

photon_numbers = st.integers(min_value=1, max_value=64)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
generic_axes = st.tuples(
    *[st.floats(min_value=-1.0, max_value=1.0)] * 3
).filter(lambda v: math.hypot(*v) > 1e-3)
axes = st.one_of(st.sampled_from(BASIS_AXES), generic_axes).map(
    lambda v: np.asarray(v) / np.linalg.norm(v)
)


def _state(num_photons, seed):
    space = build_spin_space(num_photons)
    return random_state(space, np.random.default_rng(seed))


def _rodrigues(vector, axis, angle):
    """Right-handed rotation of `vector` about the unit `axis` by `angle`."""
    return (
        vector * math.cos(angle)
        + np.cross(axis, vector) * math.sin(angle)
        + axis * np.dot(axis, vector) * (1.0 - math.cos(angle))
    )


@given(photon_numbers, seeds, axes, angles)
def test_inverse_rotation_restores_state(num_photons, seed, axis, angle):
    state = _state(num_photons, seed)
    back = rotate_about(rotate_about(state, axis, angle), axis, -angle)
    tol = max(1e-12, 1e-13 * (num_photons + 1))
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, rtol=0, atol=tol)


@given(photon_numbers, seeds, axes, angles)
def test_mean_polarization_rotates_rigidly(num_photons, seed, axis, angle):
    # positive angles turn <S> right-handedly: rotate(state, 1, a) adds +a to
    # the azimuth atan2(<S3>, <S2>)
    state = _state(num_photons, seed)
    before = mean_polarization(state).components
    after = mean_polarization(rotate_about(state, axis, angle)).components
    spin = num_photons / 2
    np.testing.assert_allclose(
        after, _rodrigues(before, axis, angle), rtol=0, atol=1e-12 * (1 + spin)
    )


@given(photon_numbers, seeds, axes, angles)
def test_casimir_is_invariant(num_photons, seed, axis, angle):
    rotated = rotate_about(_state(num_photons, seed), axis, angle)
    images = [
        stokes_operator(rotated.space, i).matrix @ rotated.amplitudes for i in (1, 2, 3)
    ]
    casimir = sum(np.vdot(image, image).real for image in images)
    spin = num_photons / 2
    assert abs(casimir - spin * (spin + 1)) <= 1e-12 * (1 + spin) ** 2
