"""Property tests on random states, N <= 64: SU(2) rotations, the
covariance of the Husimi Q under them, the uncertainty bound of the
squeezing report and the analysis frame; the invariance of the report under
rotations, N <= 512; the single-state route of the moment kernel against a
stack's row and the test copy of its images, N <= 600; `sweep` files over
random ranges against the per-cell writers; and the `%.12g` kernel of the
husimi CSV against `%`.  Stacked against single-state reports on the per-row
tail is in test_report_oracle.py."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from conftest import combined_image, ladder_images  # noqa: E402
from stokes_squeeze import (  # noqa: E402
    bloch_frame,
    build_spin_space,
    coherent_state,
    mean_polarization,
    noon_state,
    normalized_state,
    q_value,
    qfi_pure,
    rotate_about,
    squeezing_report,
    squeezing_reports,
    stokes_operator,
)
from stokes_squeeze.spin_core import _banded, _image_variance  # noqa: E402
from stokes_squeeze.squeezing import DEGENERACY_TOL, MeanPolarization  # noqa: E402
from stokes_squeeze.verify import random_state, rodrigues  # noqa: E402
from stokes_squeeze.cli import sweep_samples  # noqa: E402
from test_g12 import _assert_like_percent  # noqa: E402
from test_cli import _per_cell_sweep, _per_row_records, _sweep_file  # noqa: E402
from test_squeezing import report_fields  # noqa: E402

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
        after, rodrigues(before, axis, angle), rtol=0, atol=1e-12 * (1 + spin)
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


polar_angles = st.floats(min_value=0.0, max_value=math.pi)


@given(photon_numbers, seeds, axes, angles, polar_angles, angles)
def test_husimi_q_is_rotation_covariant(num_photons, seed, axis, angle, theta, phi):
    # Q(R n; R psi) = Q(n; psi) with n = (cos theta, sin theta cos phi,
    # sin theta sin phi) and R the right-handed rotation rotate_about applies
    state = _state(num_photons, seed)
    point = np.array(
        [math.cos(theta), math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]
    )
    moved = rodrigues(point, axis, angle)
    # atan2 keeps the polar angle well conditioned at the poles, unlike acos
    moved_theta = math.atan2(math.hypot(moved[1], moved[2]), moved[0])
    moved_phi = math.atan2(moved[2], moved[1])
    rotated = rotate_about(state, axis, angle)
    assert abs(q_value(rotated, moved_theta, moved_phi) - q_value(state, theta, phi)) <= (
        1e-13 * (num_photons + 1)
    )

# coherent states meet the uncertainty bound with equality, random states
# usually exceed it
coherent_or_random = st.one_of(
    st.tuples(
        st.just("coherent"),
        photon_numbers,
        st.floats(min_value=0.0, max_value=math.pi),
        angles,
    ),
    st.tuples(st.just("random"), photon_numbers, seeds, st.just(0.0)),
)


@given(coherent_or_random)
def test_report_obeys_uncertainty_bound(case):
    kind, num_photons, a, b = case
    space = build_spin_space(num_photons)
    state = coherent_state(space, a, b) if kind == "coherent" else _state(num_photons, a)
    report = squeezing_report(state)
    spin = space.spin
    assert (
        report.v_minus * report.v_plus >= report.mean.length**2 / 4 - 1e-12 * spin**2
    )


def _drawn_state(kind: str, num_photons: int, rng):
    space = build_spin_space(num_photons)
    if kind == "sparse":  # up to three nonzero amplitudes
        amps = np.zeros(space.dimension, dtype=complex)
        where = rng.choice(space.dimension, size=min(3, space.dimension), replace=False)
        amps[where] = rng.normal(size=where.size) + 1j * rng.normal(size=where.size)
        return normalized_state(space, amps)
    if kind == "coherent":
        return coherent_state(space, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    if kind == "noon":
        return noon_state(num_photons, rng.uniform(0, 2 * math.pi))
    return random_state(space, rng)


@given(
    st.sampled_from(["random", "sparse", "coherent", "noon"]),
    st.integers(min_value=1, max_value=600),
    seeds,
)
def test_single_route_equals_a_stack_row_and_the_image_copy(kind, num_photons, seed):
    # one state runs the kernel on its (N+1,) amplitudes, a stack on rows:
    # every report field is the same bits; from N = 4 on the QFI is the
    # variance of the test copy's image d.S a
    rng = np.random.default_rng(seed)
    state = _drawn_state(kind, num_photons, rng)
    report = squeezing_report(state)
    (row,) = squeezing_reports(state.space, [state.amplitudes])
    assert report_fields(report) == report_fields(row)
    if _banded(state.space):
        d = rng.normal(size=3)
        for direction in (report.frame.n1, report.frame.n3, d / np.linalg.norm(d)):
            image = combined_image(direction, ladder_images(state.space, state.amplitudes))
            expected = 4.0 * _image_variance(state.amplitudes, image)
            assert qfi_pure(state, direction).hex() == expected.hex()


#: the round-off units of a moment, eps (s+1)^2, and of |<S>|, eps (s+1)
EPS = 2.0**-52
#: bounds in those units.  Over 900 random states at N <= 512, each turned
#: about a random axis, V-+ moved by at most 58 units and |<S>| by 20 (both
#: grow about as sqrt(N)); the bounds leave a factor of 3 to 4 above that.
ROTATED_MOMENT_UNITS, ROTATED_MEAN_UNITS = 256.0, 64.0


@given(st.integers(min_value=1, max_value=512), seeds, axes, angles)
def test_report_is_rotation_invariant(num_photons, seed, axis, angle):
    # V-+, |<S>| and the figures of merit made of them do not depend on the
    # orientation of the state on the Poincare sphere
    state = _state(num_photons, seed)
    before = squeezing_report(state)
    after = squeezing_report(rotate_about(state, axis, angle))
    spin = num_photons / 2
    tol_v = ROTATED_MOMENT_UNITS * EPS * (spin + 1) ** 2
    tol_length = ROTATED_MEAN_UNITS * EPS * (spin + 1)
    assert abs(after.v_minus - before.v_minus) <= tol_v
    assert abs(after.v_plus - before.v_plus) <= tol_v
    assert abs(after.mean.length - before.mean.length) <= tol_length
    # propagated to first order, plus a few roundings of the quotients
    tol_xi2 = 2.0 * tol_v / spin + 4.0 * EPS * before.xi2
    assert abs(after.xi2 - before.xi2) <= tol_xi2
    assert abs(after.chi2 - before.chi2) <= before.chi2 * (tol_v / before.v_plus + 4.0 * EPS)
    assert not (before.zeta2_unbounded or after.zeta2_unbounded)
    relative = tol_xi2 / before.xi2 + 2.0 * tol_length / before.mean.length + 8.0 * EPS
    assert abs(after.zeta2 - before.zeta2) <= before.zeta2 * relative


def _mean(components) -> MeanPolarization:
    comps = np.asarray(components, dtype=float)
    return MeanPolarization(
        comps, float(np.linalg.norm(comps)), float(np.hypot(comps[1], comps[2]))
    )


components = st.floats(min_value=-32.0, max_value=32.0)
tiny = st.floats(min_value=-DEGENERACY_TOL, max_value=DEGENERACY_TOL)
pole_lengths = st.floats(min_value=1e-9, max_value=32.0)
means = st.one_of(
    st.tuples(components, components, components),
    # within 1e-10 of a pole, where the frame snaps to phi = 0
    st.tuples(pole_lengths.flatmap(lambda x: st.sampled_from([x, -x])), tiny, tiny),
    # a vanishing mean takes the fallback frame
    st.tuples(tiny, tiny, tiny),
)


@given(means)
def test_frame_orthonormal_right_handed_along_mean(components):
    mean = _mean(components)
    frame = bloch_frame(mean)
    basis = np.array([frame.n1, frame.n2, frame.n3])
    np.testing.assert_allclose(basis @ basis.T, np.eye(3), rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.cross(frame.n1, frame.n2), frame.n3, rtol=0, atol=1e-12)
    assert frame.degenerate == (mean.length <= DEGENERACY_TOL)
    if not frame.degenerate:
        # n3 may miss the mean only by the snapped transverse part at a pole
        along = frame.n3 @ mean.components
        across = np.linalg.norm(np.cross(frame.n3, mean.components))
        assert along > 0.0
        assert across <= DEGENERACY_TOL + 1e-12 * mean.length


@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=1e-9, max_value=4.0),
    st.integers(min_value=2, max_value=120),
    st.sampled_from(["csv", "json"]),
)
def test_sweep_matches_per_cell_writers(tmp_path_factory, t_min, width, steps, fmt):
    t_max = t_min + width
    assume(t_min < t_max)
    records = _per_row_records(sweep_samples(t_min, t_max, steps))
    blob = _sweep_file(tmp_path_factory.mktemp("sweep"), fmt, t_min, t_max, steps)
    assert blob == _per_cell_sweep(records, fmt, t_min, t_max, steps)


@settings(max_examples=200)
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 1.0)))
def test_g12_words_on_the_unit_interval(values):
    _assert_like_percent(values)


@settings(max_examples=200)
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(1e-36, 10.0)))
def test_g12_words_on_the_kernel_range_and_below(values):
    _assert_like_percent(values)
