import math
import re
import sys
import warnings

import numpy as np
import pytest

from stokes_squeeze import (
    SphereGrid,
    build_spin_space,
    coherent_state,
    coherent_state_closed_form,
    fidelity,
    fock_superposition,
    hermitian_exponential,
    mean_polarization,
    noon_state,
    normalized_state,
    qwp_apply,
    rotate,
    rotate_about,
    triphoton_amplitudes,
    triphoton_raw,
    triphoton_seed,
    triphoton_state,
    triphoton_state_rows,
    variance,
    vpp_apply,
    vpp_success_probabilities,
)
from stokes_squeeze.squeezing import bloch_frame
from stokes_squeeze.spin_core import (
    HermitianOperator,
    _normalized_rows,
    _stokes_combination,
    stokes_operator,
)
from stokes_squeeze.states import _FLOAT_LIMIT, _binomial_profile, basis_state

SQRT3 = math.sqrt(3.0)
SPACE3 = build_spin_space(3)


class TestCoherentState:
    def test_zero_polar_angle_is_top_state(self):
        for phi in (0.0, 1.3, 5.0):
            state = coherent_state(SPACE3, 0.0, phi)
            assert fidelity(state, basis_state(SPACE3, 1.5)) > 1 - 1e-12

    def test_equator_state_matches_rotated_triphoton(self):
        state = coherent_state(SPACE3, np.pi / 2, np.pi / 2)
        assert fidelity(state, triphoton_state(0.0)) > 1 - 1e-12

    def test_transverse_variances_at_shot_noise(self):
        # both variances normal to the mean equal s/2 for any pointing
        rng = np.random.default_rng(3)
        for num in (1, 3, 6):
            space = build_spin_space(num)
            for _ in range(5):
                theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
                state = coherent_state(space, theta, phi)
                frame = bloch_frame(mean_polarization(state))
                for n in (frame.n1, frame.n2):
                    mat = _stokes_combination(space, n)
                    var = variance(state, HermitianOperator(space, mat))
                    assert var == pytest.approx(space.spin / 2, abs=1e-10)

    def test_mean_points_along_requested_direction(self):
        theta, phi = 1.1, 2.4
        state = coherent_state(SPACE3, theta, phi)
        mean = mean_polarization(state)
        direction = np.array(
            [np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)]
        )
        np.testing.assert_allclose(mean.components, 1.5 * direction, atol=1e-12)
        assert mean.length == pytest.approx(1.5, abs=1e-12)


class TestCoherentStateOracle:
    """One eigenbasis product against the dense exp(i theta (S2 sin phi - S3 cos phi))."""

    @pytest.mark.parametrize("num_photons", [1, 2, 3, 6, 32, 128, 512])
    def test_matches_dense_exponential(self, num_photons):
        space = build_spin_space(num_photons)
        rng = np.random.default_rng(200 + num_photons)
        s2, s3 = (stokes_operator(space, axis).matrix for axis in (2, 3))
        angles = [(0.0, 1.3), (np.pi, 0.4), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
        angles += [(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(2)]
        tol = max(1e-12, 1e-13 * (num_photons + 1))
        for theta, phi in angles:
            generator = HermitianOperator(space, np.sin(phi) * s2 - np.cos(phi) * s3)
            expected = hermitian_exponential(generator, 1j * theta)[:, 0]
            np.testing.assert_allclose(
                coherent_state(space, theta, phi).amplitudes,
                expected,
                rtol=0.0,
                atol=tol,
                err_msg=f"theta {theta}, phi {phi}",
            )


class TestCoherentClosedForm:
    def test_poles(self):
        space = build_spin_space(4)
        top = coherent_state_closed_form(space, 0.0, 0.7)
        assert fidelity(top, basis_state(space, 2.0)) > 1 - 1e-12
        bottom = coherent_state_closed_form(space, np.pi, 0.7)
        assert fidelity(bottom, basis_state(space, -2.0)) > 1 - 1e-12

    @pytest.mark.parametrize("num_photons", [0, 1, 2, 3, 8, 32, 128, 512])
    def test_binomial_amplitudes_pinned(self, num_photons):
        # an in-test copy of the binomial expression, bit for bit
        space = build_spin_space(num_photons)
        rng = np.random.default_rng(300 + num_photons)
        angles = [(0.0, 0.7), (np.pi, 0.7), (np.pi / 2, np.pi / 2)]
        angles += [(rng.uniform(0, np.pi), rng.uniform(-7, 7)) for _ in range(4)]
        k = np.arange(num_photons + 1)
        binom = np.array([math.comb(num_photons, int(j)) for j in k], dtype=float)
        for theta, phi in angles:
            amps = (
                np.sqrt(binom)
                * np.cos(theta / 2) ** (num_photons - k)
                * np.sin(theta / 2) ** k
                * np.exp(1j * k * phi)
            )
            expected = amps / np.linalg.norm(amps)
            np.testing.assert_array_equal(
                coherent_state_closed_form(space, theta, phi).amplitudes.view(np.uint64),
                expected.view(np.uint64),
                err_msg=f"theta {theta}, phi {phi}",
            )


    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, np.pi / 2, 2.9, np.pi])
    def test_matches_exponential_construction_beyond_float_binomials(self, theta):
        # from N = 1030 on the middle C(N, k) overflow a float, and those
        # entries are taken in log space
        space = build_spin_space(1100)
        closed = coherent_state_closed_form(space, theta, 0.4)
        assert fidelity(closed, coherent_state(space, theta, 0.4)) > 1 - 1e-9

    def test_log_space_entries_keep_exact_zeros_at_the_poles(self):
        # at theta = 0 only k = 0 survives, so every log-space entry is +0
        north, south = _binomial_profile(1100, [0.0, np.pi])
        assert north[0] == 1.0 and not north[1:].any()
        assert south[-1] == 1.0 and not south[:-20].any()
        assert np.isfinite(south).all()

    @pytest.mark.parametrize("num_photons", [1029, 1030, 2048])
    def test_binomial_profile_matches_per_entry_binomials(self, num_photons):
        # the reference takes math.comb(N, j) for every j, and its log for
        # the entries that overflow a float; the profile must keep its bits
        binom, huge = [], []
        for j in range(num_photons + 1):
            try:
                binom.append(float(math.comb(num_photons, j)))
            except OverflowError:
                binom.append(0.0)
                huge.append(j)
        rng = np.random.default_rng(num_photons)
        thetas = np.concatenate([np.linspace(0.0, np.pi, 181), rng.uniform(-7, 7, 20)])
        k = np.arange(num_photons + 1)
        half = thetas[:, None] / 2.0
        cos, sin = np.cos(half), np.sin(half)
        expected = np.sqrt(binom) * cos ** (num_photons - k) * sin**k
        if huge:
            k = np.array(huge)
            log_binom = np.array([math.log(math.comb(num_photons, j)) for j in huge])
            with np.errstate(divide="ignore"):
                logs = (
                    log_binom / 2.0
                    + (num_photons - k) * np.log(np.abs(cos))
                    + k * np.log(np.abs(sin))
                )
            signs = np.sign(cos) ** (num_photons - k) * np.sign(sin) ** k
            expected[:, k] = signs * np.exp(logs)
        assert (len(huge) > 0) == (num_photons >= 1030)
        np.testing.assert_array_equal(
            _binomial_profile(num_photons, thetas).view(np.uint64), expected.view(np.uint64)
        )

    def test_float_limit_is_where_float_overflows(self):
        # the profile takes C(N, k) in log space exactly where float() raises
        assert float(_FLOAT_LIMIT - 1) == np.finfo(float).max
        with pytest.raises(OverflowError):
            float(_FLOAT_LIMIT)

    @pytest.mark.parametrize("scheme", ["endpoint", "midpoint"])
    @pytest.mark.parametrize(
        "num_photons", [0, 1, 2, 3, 64, 127, 128, 1029, 1030, 1031, 2047, 5824]
    )
    def test_profile_columns_match_whole_profile(self, num_photons, scheme):
        # the columns ks (q_grid asks for a state's support) are bit for bit,
        # sign bits included, those columns of the whole profile: on a grid
        # with its poles, and at angles past [0, pi] where cos or sin is < 0
        rng = np.random.default_rng(num_photons)
        thetas = np.concatenate([SphereGrid(37, 2, scheme=scheme).thetas, rng.uniform(-7, 7, 8)])
        whole = _binomial_profile(num_photons, thetas)
        choices = [np.arange(num_photons + 1), [0, num_photons], [num_photons // 2]]
        for _ in range(6):
            size = rng.integers(1, min(num_photons + 1, 40), endpoint=True)
            choices.append(rng.choice(num_photons + 1, size=size, replace=False))
        for ks in choices:
            np.testing.assert_array_equal(
                _binomial_profile(num_photons, thetas, ks).view(np.uint64),
                whole[:, ks].view(np.uint64),
                err_msg=f"ks = {ks}",
            )


class TestTriphotonRaw:
    def test_t_zero_is_all_horizontal(self):
        assert fidelity(triphoton_raw(0.0), basis_state(SPACE3, 1.5)) > 1 - 1e-12

    def test_t_one_closed_form(self):
        expected = np.array([np.sqrt(3) / 2, 0.0, -0.5, 0.0])
        np.testing.assert_allclose(triphoton_raw(1.0).amplitudes, expected, atol=1e-15)

    def test_matches_vpp_on_seed(self):
        seed = triphoton_seed()
        for t in np.linspace(0.0, 1.8, 37):
            assert fidelity(vpp_apply(seed, t), triphoton_raw(t)) > 1 - 1e-12

    def test_seed_built_once_and_immutable(self):
        seed = triphoton_seed()
        assert triphoton_seed() is seed
        assert not seed.amplitudes.flags.writeable
        np.testing.assert_allclose(
            seed.amplitudes, [np.sqrt(3) / 2, 0.0, -0.5, 0.0], rtol=0, atol=1e-15
        )

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            triphoton_raw(-0.1)


class TestTriphotonState:
    def test_amplitudes_at_named_points(self):
        c2, c3 = triphoton_amplitudes(0.0)
        assert c2 == pytest.approx(np.sqrt(3) / (2 * np.sqrt(2)), abs=1e-15)
        assert c3 == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-15)
        assert c3 == pytest.approx(c2 / np.sqrt(3), abs=1e-15)

        t_equal = 3 ** 0.25 * (2 - SQRT3) ** 0.5  # ~0.6813, equal populations
        c2, c3 = triphoton_amplitudes(t_equal)
        assert c2 == pytest.approx(0.5, abs=1e-12)
        assert c3 == pytest.approx(0.5, abs=1e-12)

        c2, c3 = triphoton_amplitudes(SQRT3)
        assert abs(c2) < 1e-15
        assert c3 == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_matches_qwp_route_on_grid(self):
        for t in np.linspace(0.0, 1.8, 200):
            assert fidelity(triphoton_state(t), qwp_apply(triphoton_raw(t))) > 1 - 1e-12

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            triphoton_state(-1.0)


def _amplitudes_as_written(t):
    """(c2, c3) from the closed forms with T**4 itself, the route below 2^256."""
    root = math.sqrt(3.0 + t**4)
    c2 = (3.0 - t**2) / (2.0 * math.sqrt(2.0) * root)
    return c2, 0.5 * math.sqrt(1.5) * (1.0 + t**2) / root


#: the largest T whose T**4 is finite
T4_MAX = math.nextafter(2.0**256, 0.0)


class TestTriphotonLargeRatio:
    """Above the T**4 overflow the closed forms are taken over T^2; below it
    every amplitude keeps its bits."""

    def test_bound_is_where_t4_overflows(self):
        assert math.isfinite(T4_MAX**4)
        with pytest.raises(OverflowError):
            (2.0**256) ** 4
        with np.errstate(over="ignore"):
            assert np.isfinite(np.float64(T4_MAX) ** 4)
            assert not np.isfinite(np.float64(2.0**256) ** 4)

    def test_bits_kept_wherever_t4_is_finite(self):
        logs = np.random.default_rng(13).uniform(-300.0, math.log10(T4_MAX), 10_000)
        ts = [
            *np.linspace(0.0, 1.8, 181), *(10.0**logs), 0.0, -0.0, 1.0, SQRT3, 1e-300,
            5e-324, 1e76, math.nextafter(T4_MAX, 0.0), T4_MAX,
        ]
        ts = [t for t in ts if t < 2.0**256]
        assert len(ts) >= 10_000
        for t in ts:
            for value in (float(t), np.float64(t)):
                expected = tuple(map(float.hex, _amplitudes_as_written(value)))
                assert tuple(map(float.hex, triphoton_amplitudes(value))) == expected, value

    @pytest.mark.parametrize(
        "t", [2.0**256, 1e80, 1e154, 1e200, sys.float_info.max, math.inf], ids=repr
    )
    def test_limit_beyond_the_bound(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c2, c3 = triphoton_amplitudes(t)
            assert tuple(map(float.hex, triphoton_amplitudes(np.float64(t)))) == (
                c2.hex(), c3.hex()
            )
            state = triphoton_state(t)
        assert c2 == pytest.approx(-1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
        assert c3 == pytest.approx(math.sqrt(1.5) / 2.0, rel=1e-15)
        assert abs(2 * c2**2 + 2 * c3**2 - 1) < 1e-15
        assert fidelity(state, triphoton_state(1e6)) > 1 - 1e-11

    def test_continuous_across_the_bound(self):
        below, above = triphoton_amplitudes(T4_MAX), triphoton_amplitudes(2.0**256)
        for b, a in zip(below, above):
            assert abs(b - a) <= 1e-16


def _raw_as_written(t):
    """`triphoton_raw` from T**2 itself, the route below 2^256."""
    return normalized_state(SPACE3, np.array([SQRT3, 0.0, -(t**2), 0.0], dtype=complex))


class TestTriphotonRawLargeRatio:
    """Below 2^256 `triphoton_raw` keeps every bit; from there on it is the
    normalization of (sqrt(3) u, 0, -1, 0) with u = (1/T)^2."""

    def test_bits_kept_wherever_t4_is_finite(self):
        logs = np.random.default_rng(17).uniform(-300.0, math.log10(T4_MAX), 10_000)
        ts = [
            *np.linspace(0.0, 1.8, 181), *(10.0**logs), 0.0, -0.0, 1.0, SQRT3, 1e-300,
            5e-324, 1e76, math.nextafter(T4_MAX, 0.0), T4_MAX,
        ]
        ts = [t for t in ts if t < 2.0**256]
        assert len(ts) >= 10_000
        for t in ts:
            for value in (float(t), np.float64(t)):
                expected = _raw_as_written(value).amplitudes.tobytes()
                assert triphoton_raw(value).amplitudes.tobytes() == expected, value

    @pytest.mark.parametrize("t", [2.0**256, 1e80, 1e200, sys.float_info.max], ids=repr)
    def test_beyond_the_bound(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = triphoton_raw(t)
            assert raw.amplitudes.tobytes() == triphoton_raw(np.float64(t)).amplitudes.tobytes()
            assert fidelity(triphoton_state(t), qwp_apply(raw)) > 1 - 1e-12
        assert fidelity(raw, basis_state(SPACE3, -0.5)) > 1 - 1e-15

    def test_continuous_across_the_bound(self):
        below, above = triphoton_raw(T4_MAX).amplitudes, triphoton_raw(2.0**256).amplitudes
        assert np.abs(below - above).max() <= 1e-16

class TestTriphotonStateRows:
    def test_rows_bitwise_equal_single_states(self):
        ts = list(np.linspace(0.0, 1.8, 181)) + [1.0, SQRT3, 7.25, 1e-300]
        rows = triphoton_state_rows(ts)
        assert rows.shape == (len(ts), 4) and not rows.flags.writeable
        for t, row in zip(ts, rows):
            np.testing.assert_array_equal(
                row.view(np.uint64), triphoton_state(t).amplitudes.view(np.uint64)
            )

    def test_empty_and_negative_ratios(self):
        assert triphoton_state_rows([]).shape == (0, 4)
        with pytest.raises(ValueError, match="must be >= 0"):
            triphoton_state_rows([1.0, -0.5])

    def test_rows_normalized_and_checked_like_single_states(self):
        raw = np.random.default_rng(4).normal(size=(5, 8)).view(complex)
        for row, unit in zip(raw, _normalized_rows(SPACE3, raw)):
            np.testing.assert_array_equal(
                unit.view(np.uint64), normalized_state(SPACE3, row).amplitudes.view(np.uint64)
            )
        for bad in ([0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError) as single:
                    normalized_state(SPACE3, bad)
                with pytest.raises(ValueError, match=re.escape(str(single.value))):
                    _normalized_rows(SPACE3, [[1.0, 0.0, 0.0, 0.0], bad])
        with pytest.raises(ValueError, match="expected \\(B, 4\\)"):
            _normalized_rows(SPACE3, [1.0, 0.0, 0.0, 0.0])


class TestNoonState:
    def test_three_photon_noon_is_family_endpoint(self):
        state = noon_state(3, -np.pi / 2)
        assert fidelity(state, triphoton_state(SQRT3)) > 1 - 1e-12

    def test_single_photon_equal_superposition(self):
        state = noon_state(1, 0.0)
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15
        )

    def test_amplitude_magnitudes(self):
        for num in range(1, 9):
            state = noon_state(num, 0.4)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
            nonzero = state.amplitudes[state.amplitudes != 0]
            assert len(nonzero) == 2
            np.testing.assert_allclose(np.abs(nonzero), 1 / np.sqrt(2), atol=1e-15)

    def test_mean_polarization_vanishes_for_two_or_more_photons(self):
        for num in range(2, 9):
            for phase in (0.0, 0.9, -np.pi / 2):
                mean = mean_polarization(noon_state(num, phase))
                np.testing.assert_allclose(mean.components, 0.0, atol=1e-12)

    def test_single_photon_noon_is_fully_polarized(self):
        # one photon in an equal superposition is a coherent state: the mean
        # sits on the equator with length s, not at the origin
        mean = mean_polarization(noon_state(1, -np.pi / 2))
        assert mean.length == pytest.approx(0.5, abs=1e-12)

    def test_zero_photons_rejected(self):
        with pytest.raises(ValueError):
            noon_state(0, 0.0)

    def test_bool_photon_number_rejected(self):
        with pytest.raises(TypeError):
            noon_state(True)

    def test_phase_reduced_modulo_two_pi(self):
        a = noon_state(4, -np.pi / 2)
        b = noon_state(4, 3 * np.pi / 2)
        assert fidelity(a, b) > 1 - 1e-15
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name, build", [
    pytest.param("theta", lambda x: coherent_state(SPACE3, x, 0.4), id="coherent-theta"),
    pytest.param("phi", lambda x: coherent_state(SPACE3, 0.4, x), id="coherent-phi"),
    pytest.param(
        "theta", lambda x: coherent_state_closed_form(SPACE3, x, 0.4), id="closed-form-theta"
    ),
    pytest.param(
        "phi", lambda x: coherent_state_closed_form(SPACE3, 0.4, x), id="closed-form-phi"
    ),
    pytest.param(
        "angle", lambda x: rotate_about(triphoton_state(1.0), (0.0, 0.6, 0.8), x),
        id="rotate-about",
    ),
    pytest.param("angle", lambda x: rotate(triphoton_state(1.0), 2, x), id="rotate"),
    pytest.param("noon_phase", lambda x: noon_state(3, x), id="noon"),
])
def test_non_finite_angles_rejected(name, build, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build(value)


@pytest.mark.parametrize("build", [
    pytest.param(triphoton_amplitudes, id="amplitudes"),
    pytest.param(triphoton_raw, id="raw"),
    pytest.param(triphoton_state, id="state"),
    pytest.param(lambda t: triphoton_state_rows([0.5, t]), id="state-rows"),
    pytest.param(lambda t: vpp_apply(triphoton_seed(), t), id="vpp-apply"),
    pytest.param(
        lambda t: vpp_success_probabilities(triphoton_seed(), [0.5, t]),
        id="vpp-success-probabilities",
    ),
])
def test_non_finite_ratio_rejected(build):
    # one rule, spin_core._require_ratio, behind every entry point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^transmissivity ratio must be >= 0, got nan$"):
            build(math.nan)


class TestFockSuperposition:
    def test_single_term(self):
        state = fock_superposition(SPACE3, [(3, 0, 1.0)])
        assert fidelity(state, basis_state(SPACE3, 1.5)) == pytest.approx(1.0)

    def test_reproduces_triphoton_seed(self):
        state = fock_superposition(SPACE3, [(3, 0, np.sqrt(3)), (1, 2, -1.0)])
        assert fidelity(state, triphoton_raw(1.0)) > 1 - 1e-12

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            fock_superposition(SPACE3, [(2, 1, 1.0), (2, 1, 1.0)])

    def test_photon_number_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fock_superposition(SPACE3, [(2, 2, 1.0)])

    def test_all_zero_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            fock_superposition(SPACE3, [(3, 0, 0.0)])

    def test_index_mapping_puts_vertical_count_last(self):
        state = fock_superposition(SPACE3, [(0, 3, 1.0)])
        assert state.amplitudes[3] == pytest.approx(1.0)
