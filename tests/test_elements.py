import math

import numpy as np
import pytest

from stokes_squeeze import (
    HermitianOperator,
    build_spin_space,
    elements,
    fidelity,
    hermitian_exponential,
    qwp_apply,
    rotate,
    rotate_about,
    stokes_operator,
    triphoton_raw,
    triphoton_seed,
    triphoton_state,
    vpp_apply,
    vpp_success_probabilities,
    vpp_success_probability,
)
from stokes_squeeze.elements import _vpp_weights
from stokes_squeeze.spin_core import normalized_state
from stokes_squeeze.states import basis_state, coherent_state, fock_superposition
from stokes_squeeze.verify import random_state

SPACE3 = build_spin_space(3)
RNG = np.random.default_rng(23)

#: photon numbers at which the eigenbasis routes are compared with the dense one
ORACLE_SIZES = (1, 2, 3, 6, 32, 128, 512)


def oracle_tol(num_photons: int) -> float:
    """Amplitude tolerance against the dense exponential, growing with N."""
    return max(1e-12, 1e-13 * (num_photons + 1))


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestVpp:
    def test_unit_ratio_is_identity(self):
        for _ in range(5):
            state = random_state(SPACE3, RNG)
            np.testing.assert_array_equal(
                vpp_apply(state, 1.0).amplitudes, state.amplitudes
            )

    def test_seed_at_unit_ratio(self):
        result = vpp_apply(triphoton_seed(), 1.0)
        expected = np.array([np.sqrt(3) / 2, 0.0, -0.5, 0.0])
        np.testing.assert_allclose(result.amplitudes, expected, atol=1e-15)

    def test_zero_ratio_projects_onto_horizontal(self):
        result = vpp_apply(triphoton_seed(), 0.0)
        assert fidelity(result, basis_state(SPACE3, 1.5)) == pytest.approx(1.0)

    def test_zero_ratio_keeps_largest_surviving_n(self):
        state = fock_superposition(SPACE3, [(2, 1, 1.0), (0, 3, 1.0)])
        result = vpp_apply(state, 0.0)
        assert fidelity(result, basis_state(SPACE3, 0.5)) == pytest.approx(1.0)

    def test_composition_multiplies_ratios(self):
        for t1, t2 in ((0.3, 0.7), (1.4, 0.5), (1.2, 1.3)):
            state = random_state(SPACE3, RNG)
            chained = vpp_apply(vpp_apply(state, t1), t2)
            direct = vpp_apply(state, t1 * t2)
            assert fidelity(chained, direct) > 1 - 1e-12

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            vpp_apply(triphoton_seed(), -0.5)

    def test_huge_ratio_keeps_surviving_component(self):
        # the filtered amplitudes are ~1e-200, whose squares underflow
        result = vpp_apply(triphoton_seed(), 1e200)
        assert SPACE3.basis_label(2) == "|1,2>_HV"
        assert fidelity(result, basis_state(SPACE3, -0.5)) == 1.0

    def test_large_ratio_ray_unchanged(self):
        seed = triphoton_seed()
        filtered = np.array([math.sqrt(6.0) * 1e-300, 0.0, -math.sqrt(2.0) * 1e-100, 0.0])
        expected = filtered / np.linalg.norm(filtered)
        result = vpp_apply(seed, 1e100)
        assert abs(result.amplitudes[0]) > 1e-200  # the 1e-200 component survives
        np.testing.assert_allclose(result.amplitudes, expected, rtol=1e-15, atol=0)

    def test_success_probability_values(self):
        seed = triphoton_seed()
        assert vpp_success_probability(seed, 1.0) == pytest.approx(1.0)
        # at T=0 only the |3,0>_HV component survives: probability 3/4
        assert vpp_success_probability(seed, 0.0) == pytest.approx(0.75)
        for t in np.linspace(0.0, 1.8, 50):
            prob = vpp_success_probability(seed, t)
            assert 0.0 < prob <= 1.0 + 1e-12

    def test_success_probability_closed_form(self):
        # (3 + T^4)/4 below T=1 where the all-horizontal weight dominates
        seed = triphoton_seed()
        for t in (0.2, 0.5, 0.9):
            assert vpp_success_probability(seed, t) == pytest.approx(
                (3 + t**4) / 4, abs=1e-12
            )

    @pytest.mark.parametrize("n, t_ratio", [(-1.5, 1e-200), (1.5, 1e200), (-1.5, 1e-104)])
    def test_underflowing_weights_reanchored(self, n, t_ratio):
        # T^3 underflows (or is subnormal) at the state's only nonzero index,
        # which the filter passes unchanged
        state = basis_state(SPACE3, n)
        assert fidelity(vpp_apply(state, t_ratio), state) == 1.0

    def test_reanchored_weights_keep_the_tail(self):
        # relative to |1,2>_HV, the |0,3>_HV amplitude is attenuated by T
        state = fock_superposition(SPACE3, [(1, 2, 1.0), (0, 3, 1.0)])
        result = vpp_apply(state, 1e-200).amplitudes
        np.testing.assert_array_equal(result, [0.0, 0.0, 1.0, 1e-200])

    @pytest.mark.parametrize("t_ratio, real_parts", [
        (0.3, [0.9986527276135589, 0.0, -0.05189151790031781, 0.0]),
        (1.7, [0.514070311497462, 0.0, -0.8577480485765635, 0.0]),
        (1e200, [0.0, 0.0, -1.0, 0.0]),
    ])
    def test_seed_amplitudes_pinned(self, t_ratio, real_parts):
        # bit for bit, signs of zero included; the verify golden prints them
        expected = np.array(real_parts, dtype=complex)
        result = vpp_apply(triphoton_seed(), t_ratio).amplitudes
        np.testing.assert_array_equal(result.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("num_photons", [1, 3, 8, 64])
    def test_max_transmission_route_kept_bit_for_bit(self, num_photons):
        # a state supported on every index: T^(-n) relative to index 0 below
        # T = 1 and index N above, rescaled by the largest amplitude
        space = build_spin_space(num_photons)
        k = np.arange(space.dimension, dtype=float)
        for t_ratio in (1e-30, 0.05, 0.3, 0.999, 1.001, 1.7, 40.0, 1e30):
            state = random_state(space, RNG)
            exponent = k if t_ratio <= 1.0 else k - num_photons
            filtered = t_ratio**exponent * state.amplitudes
            expected = normalized_state(space, filtered / np.abs(filtered).max())
            result = vpp_apply(state, t_ratio)
            np.testing.assert_array_equal(
                result.amplitudes.view(np.uint64), expected.amplitudes.view(np.uint64)
            )


#: T values of the bitwise VPP tests: both exact zeros, the extremes of the
#: float range, the landmarks and values on both sides of T = 1
VPP_RATIOS = (0.0, -0.0, 1e-200, 0.3, 1.0, math.sqrt(3.0), 7.25, 1e200)
VPP_GRID = np.concatenate([np.linspace(0.0, 3.0, 3001), np.linspace(0.0, 50.0, 1001)])


def per_row_vpp_weights(space, t_ratio: float) -> np.ndarray:
    """The VPP weights as the scalar route computed them, one T per call."""
    k = np.arange(space.dimension, dtype=float)
    if t_ratio == 0.0:
        weights = np.zeros(space.dimension)
        weights[0] = 1.0
        return weights
    exponent = k if t_ratio <= 1.0 else k - space.num_photons
    return t_ratio**exponent


def per_row_vpp_probability(state, t_ratio: float) -> float:
    weights = per_row_vpp_weights(state.space, t_ratio)
    return float(np.sum(np.abs(weights * state.amplitudes) ** 2))


class TestVppBitwise:
    @pytest.mark.parametrize("num_photons", [1, 3, 8, 64])
    def test_success_probability_matches_per_row_expression(self, num_photons):
        space = build_spin_space(num_photons)
        states = [random_state(space, RNG)]
        if num_photons == 3:
            states.append(triphoton_seed())
        for state in states:
            for t_ratio in (*VPP_RATIOS, *VPP_GRID.tolist()):
                value = vpp_success_probability(state, t_ratio)
                assert type(value) is float
                assert value.hex() == per_row_vpp_probability(state, t_ratio).hex(), t_ratio

    @pytest.mark.parametrize("num_photons", [1, 3, 8, 64])
    def test_stacked_weights_match_per_row_expression(self, num_photons):
        # signs of zero included: the T = -0.0 row is +0 off index 0, as at T = 0
        space = build_spin_space(num_photons)
        ratios = [*VPP_RATIOS, *VPP_GRID.tolist()]
        expected = np.array([per_row_vpp_weights(space, t_ratio) for t_ratio in ratios])
        stacked = _vpp_weights(space, ratios)
        assert stacked.shape == expected.shape
        np.testing.assert_array_equal(stacked.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("num_photons", [1, 3, 8, 64])
    def test_stacked_probabilities_match_per_row_expression(self, num_photons):
        space = build_spin_space(num_photons)
        ratios = [*VPP_RATIOS, *VPP_GRID.tolist()]
        for state in (random_state(space, RNG), basis_state(space, space.n_values[-1])):
            stacked = vpp_success_probabilities(state, ratios)
            assert all(type(value) is float for value in stacked)
            assert [value.hex() for value in stacked] == [
                per_row_vpp_probability(state, t_ratio).hex() for t_ratio in ratios
            ]

    def test_negative_ratio_in_a_stack_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0, got -0.5"):
            vpp_success_probabilities(triphoton_seed(), [0.0, 1.0, -0.5, 2.0])


class TestQwp:
    def test_maps_raw_family_to_triphoton(self):
        for t in np.linspace(0.0, 1.8, 50):
            assert fidelity(qwp_apply(triphoton_raw(t)), triphoton_state(t)) > 1 - 1e-12

    def test_rotates_pole_to_equator(self):
        rotated = qwp_apply(basis_state(SPACE3, 1.5))
        target = coherent_state(SPACE3, np.pi / 2, np.pi / 2)
        assert fidelity(rotated, target) > 1 - 1e-12

    def test_four_applications_are_identity(self):
        for _ in range(5):
            state = random_state(SPACE3, RNG)
            cycled = state
            for _ in range(4):
                cycled = qwp_apply(cycled)
            assert fidelity(cycled, state) > 1 - 1e-10

    def test_preserves_norm(self):
        for _ in range(10):
            state = random_state(SPACE3, RNG)
            assert abs(np.linalg.norm(qwp_apply(state).amplitudes) - 1) < 1e-12

    @pytest.mark.parametrize("num_photons", [1, 2, 3, 8, 64, 512])
    def test_matches_dense_exponential(self, num_photons):
        space = build_spin_space(num_photons)
        state = random_state(space, np.random.default_rng(400 + num_photons))
        dense = hermitian_exponential(stokes_operator(space, 2), 1j * np.pi / 2)
        np.testing.assert_allclose(
            qwp_apply(state).amplitudes,
            dense @ state.amplitudes,
            rtol=0.0,
            atol=oracle_tol(num_photons),
        )


class TestRotate:
    def test_zero_angle_is_identity(self):
        state = random_state(SPACE3, RNG)
        assert fidelity(rotate(state, 2, 0.0), state) == pytest.approx(1.0)

    def test_eigenstate_gains_only_phase(self):
        state = basis_state(SPACE3, 0.5)
        rotated = rotate(state, 1, 1.23)
        assert fidelity(rotated, state) == pytest.approx(1.0, abs=1e-12)

    def test_minus_half_pi_about_axis2_is_qwp(self):
        # exp(-i(-pi/2)S2) and the wave plate are literally the same matrix
        state = random_state(SPACE3, RNG)
        np.testing.assert_allclose(
            rotate(state, 2, -np.pi / 2).amplitudes,
            qwp_apply(state).amplitudes,
            atol=1e-12,
        )

    def test_angles_compose_additively(self):
        state = random_state(SPACE3, RNG)
        a, b = 0.8, -1.7
        chained = rotate(rotate(state, 3, a), 3, b)
        direct = rotate(state, 3, a + b)
        assert fidelity(chained, direct) > 1 - 1e-12

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            rotate(random_state(SPACE3, RNG), 0, 1.0)

    def test_bool_axis_rejected(self):
        with pytest.raises(ValueError, match=r"^rotation axis must be 1, 2 or 3, got True$"):
            rotate(random_state(SPACE3, RNG), True, 1.0)

    def test_float_axis_rejected(self):
        # 2.0 in (1, 2, 3) holds, and an index 1.0 raised a bare IndexError
        state = random_state(SPACE3, RNG)
        with pytest.raises(ValueError, match=r"^rotation axis must be 1, 2 or 3, got 2\.0$"):
            rotate(state, 2.0, 0.3)
        np.testing.assert_array_equal(
            rotate(state, np.int64(2), 0.3).amplitudes, rotate(state, 2, 0.3).amplitudes
        )

    @pytest.mark.parametrize(
        "direction",
        [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0), (math.nan, 0.0, 0.0), (1.0, 1.0, 0.0)],
        ids=["4-vector", "2-vector", "nan", "not-unit"],
    )
    def test_malformed_direction_rejected(self, direction):
        # the rule qfi_pure applies to its direction, with its message
        state = random_state(SPACE3, RNG)
        with pytest.raises(ValueError, match="direction must be a unit 3-vector"):
            rotate_about(state, direction, 0.7)


class TestRotateAboutOracle:
    """The Euler-form rotation against exp(-i angle d.S) from a dense eigh."""

    @pytest.mark.parametrize("num_photons", ORACLE_SIZES)
    def test_matches_dense_exponential(self, num_photons):
        space = build_spin_space(num_photons)
        rng = np.random.default_rng(100 + num_photons)
        s1, s2, s3 = (stokes_operator(space, axis).matrix for axis in (1, 2, 3))
        axes = [
            (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),     # the poles, where theta = 0 or pi
            (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),      # the other basis axes
            (0.0, math.cos(2.1), math.sin(2.1)),   # the S2-S3 plane
            (0.0, -0.6, -0.8),
            _unit(rng.normal(size=3)),
            _unit(rng.normal(size=3)),
        ]
        for d in axes:
            angle = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
            state = random_state(space, rng)
            generator = HermitianOperator(space, d[0] * s1 + d[1] * s2 + d[2] * s3)
            expected = hermitian_exponential(generator, -1j * angle) @ state.amplitudes
            np.testing.assert_allclose(
                rotate_about(state, d, angle).amplitudes,
                expected,
                rtol=0.0,
                atol=oracle_tol(num_photons),
                err_msg=f"axis {d}, angle {angle}",
            )


#: the six +-axes and an axis 1e-9 off the S1 pole, where b of the Euler
#: form is about 1e-9 and a - c comes from a tiny (d2, d3)
EULER_EDGE_AXES = [
    *(sign * row for row in np.eye(3) for sign in (1.0, -1.0)),
    np.array([math.cos(1e-9), 0.6 * math.sin(1e-9), 0.8 * math.sin(1e-9)]),
]
EULER_EDGE_ANGLES = [0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi, 4 * np.pi, 1e-9]


def _rotation_matrix(space, direction, angle):
    """The operator of `rotate_about`, column by column on the basis states."""
    basis = np.eye(space.dimension)
    return np.column_stack(
        [rotate_about(normalized_state(space, e), direction, angle).amplitudes for e in basis]
    )


class TestRotateAboutEuler:
    """rotate_about is one Euler product D(a) W(b) D(c), exact with its phase."""

    def test_one_s2_rotation_per_call(self, monkeypatch):
        calls, s2_rotate = [], elements._s2_rotate

        def spy(space, x, amps):
            calls.append(x)
            return s2_rotate(space, x, amps)

        monkeypatch.setattr(elements, "_s2_rotate", spy)
        state = random_state(build_spin_space(6), RNG)
        rotate_about(state, _unit([0.3, -1.0, 0.5]), 1.1)
        assert len(calls) == 1
        rotate(state, 3, 0.4)
        assert len(calls) == 2

    @pytest.mark.parametrize("num_photons", [1, 2, 3, 6])
    def test_edge_axes_and_angles_match_dense_exponential(self, num_photons):
        space = build_spin_space(num_photons)
        s1, s2, s3 = (stokes_operator(space, axis).matrix for axis in (1, 2, 3))
        for d in EULER_EDGE_AXES:
            generator = HermitianOperator(space, d[0] * s1 + d[1] * s2 + d[2] * s3)
            for angle in EULER_EDGE_ANGLES:
                np.testing.assert_allclose(
                    _rotation_matrix(space, d, angle),
                    hermitian_exponential(generator, -1j * angle),
                    rtol=0.0,
                    atol=oracle_tol(num_photons),
                    err_msg=f"axis {d}, angle {angle}",
                )

    @pytest.mark.parametrize("num_photons", [1, 2, 3, 6])
    def test_full_turn_is_parity_times_identity(self, num_photons):
        # exp(-2 pi i d.S) = (-1)^N: a half-integer spin keeps its sign flip
        space = build_spin_space(num_photons)
        rng = np.random.default_rng(700 + num_photons)
        for d in [*EULER_EDGE_AXES, *(_unit(rng.normal(size=3)) for _ in range(4))]:
            np.testing.assert_allclose(
                _rotation_matrix(space, d, 2 * np.pi),
                (-1) ** num_photons * np.eye(space.dimension),
                rtol=0.0,
                atol=oracle_tol(num_photons),
                err_msg=f"axis {d}",
            )
