import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import combined_image, ladder_images
from stokes_squeeze import (
    HermitianOperator,
    VarianceEllipse,
    analytic_ellipse,
    analytic_mean_s3,
    analytic_variances,
    bloch_frame,
    build_spin_space,
    coherent_state,
    decibels,
    extremal_variances,
    mean_polarization,
    noon_state,
    qfi_pure,
    rotate_about,
    spin_core,
    squeezing,
    squeezing_report,
    squeezing_reports,
    triphoton_amplitudes,
    triphoton_state,
    triphoton_state_rows,
    variance,
    variance_ellipse,
    verify,
)
from stokes_squeeze.cli import main
from stokes_squeeze.spin_core import (
    CHUNK_ENTRIES,
    _banded,
    _image_variance,
    _stokes_combination,
    stokes_operator,
)
from stokes_squeeze.squeezing import (
    DEGENERACY_TOL, MOMENT_SNAP, BlochFrame, MeanPolarization,
)
from stokes_squeeze.verify import (
    angle_mod_pi_distance,
    random_state,
    scan_transverse_variance,
)

SQRT3 = math.sqrt(3.0)
RNG = np.random.default_rng(5)


def report_fields(report) -> list[tuple[str, str]]:
    """(name, repr) of every field of a report; an array as its dtype and values."""
    fields = []
    for part in (report.mean, report.frame, report.ellipse, report):
        for name, value in vars(part).items():
            if name in ("mean", "frame", "ellipse"):
                continue
            if isinstance(value, np.ndarray):
                value = (value.dtype, value.tolist())
            fields.append((f"{type(part).__name__}.{name}", repr(value)))
    return fields


def _mean(vector) -> MeanPolarization:
    comps = np.asarray(vector, dtype=float)
    return MeanPolarization(
        comps, float(np.linalg.norm(comps)), float(np.hypot(comps[1], comps[2]))
    )


class TestMeanPolarization:
    def test_t_zero_mean(self):
        mean = mean_polarization(triphoton_state(0.0))
        np.testing.assert_allclose(mean.components, [0.0, 0.0, 1.5], atol=1e-12)
        assert mean.length == pytest.approx(1.5, abs=1e-12)
        assert mean.transverse_radius == pytest.approx(1.5, abs=1e-12)

    def test_noon_mean_vanishes(self):
        for num in range(2, 9):
            mean = mean_polarization(noon_state(num, 0.7))
            np.testing.assert_allclose(mean.components, 0.0, atol=1e-12)

    def test_flipped_mean_beyond_noon_point(self):
        mean = mean_polarization(triphoton_state(1.8))
        assert mean.components[2] < 0
        assert mean.components[2] == pytest.approx(analytic_mean_s3(1.8), abs=1e-12)
        assert abs(mean.components[0]) < 1e-12
        assert abs(mean.components[1]) < 1e-12


class TestBlochFrame:
    def test_family_frame(self):
        frame = bloch_frame(_mean([0.0, 0.0, 1.5]))
        assert frame.theta == pytest.approx(np.pi / 2)
        assert frame.phi == pytest.approx(np.pi / 2)
        np.testing.assert_allclose(frame.n1, [0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(frame.n2, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(frame.n3, [0.0, 0.0, 1.0], atol=1e-15)
        assert not frame.degenerate

    def test_pole_case_uses_zero_azimuth(self):
        frame = bloch_frame(_mean([1.5, 0.0, 0.0]))
        assert frame.theta == 0.0
        assert frame.phi == 0.0
        np.testing.assert_allclose(frame.n3, [1.0, 0.0, 0.0], atol=1e-15)
        frame = bloch_frame(_mean([-0.5, 0.0, 0.0]))
        assert frame.theta == pytest.approx(np.pi)

    def test_degenerate_mean_uses_fallback(self):
        frame = bloch_frame(_mean([0.0, 0.0, 0.0]))
        assert frame.degenerate
        assert frame.theta == pytest.approx(np.pi / 2)
        assert frame.phi == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_degenerate_is_a_bool_for_a_numpy_length(self, scale):
        # a length from np.linalg.norm is an np.float64, on either side of the tolerance
        comps = np.array([0.0, 0.0, scale * DEGENERACY_TOL])
        mean = MeanPolarization(comps, np.linalg.norm(comps), np.hypot(comps[1], comps[2]))
        frame = bloch_frame(mean)
        assert type(mean.length) is np.float64
        assert type(frame.degenerate) is bool
        assert frame.degenerate is (scale < 1.0)

    def test_orthonormal_right_handed_on_random_states(self):
        for trial in range(100):
            state = random_state(build_spin_space(1 + trial % 8), RNG)
            frame = bloch_frame(mean_polarization(state))
            for v in (frame.n1, frame.n2, frame.n3):
                assert abs(np.linalg.norm(v) - 1) < 1e-12
            assert abs(frame.n1 @ frame.n2) < 1e-12
            assert abs(frame.n2 @ frame.n3) < 1e-12
            np.testing.assert_allclose(
                np.cross(frame.n1, frame.n2), frame.n3, atol=1e-12
            )

    def test_n3_parallel_to_mean(self):
        for trial in range(50):
            state = random_state(build_spin_space(3), RNG)
            mean = mean_polarization(state)
            if mean.length <= 1e-10:
                continue
            frame = bloch_frame(mean)
            np.testing.assert_allclose(
                frame.n3, mean.components / mean.length, atol=1e-10
            )


class TestBlochFrameChecks:
    """A BlochFrame built directly must be unit length, orthogonal and right-handed."""

    E1, E2, E3 = np.eye(3)

    def test_valid_frame_accepted(self):
        frame = BlochFrame(self.E2, self.E3, self.E1, 0.0, 0.0, False)
        assert frame.n3 is self.E1

    @pytest.mark.parametrize("excess", [1e-11, 1e-3, 1.0])
    def test_non_unit_vector_rejected(self, excess):
        for slot in range(3):
            vectors = [self.E2, self.E3, self.E1]
            vectors[slot] = vectors[slot] * (1.0 + excess)
            with pytest.raises(ValueError, match="unit length"):
                BlochFrame(*vectors, 0.0, 0.0, False)

    @pytest.mark.parametrize("tilt", [1e-11, 1e-6, 0.5])
    def test_non_orthogonal_pair_rejected(self, tilt):
        tilted = np.array([0.0, math.sin(tilt), math.cos(tilt)])  # unit, leans to E2
        with pytest.raises(ValueError, match="orthogonal"):
            BlochFrame(self.E2, tilted, self.E1, 0.0, 0.0, False)

    def test_left_handed_triple_rejected(self):
        with pytest.raises(ValueError, match="right-handed"):
            BlochFrame(self.E2, self.E3, -self.E1, 0.0, 0.0, False)
        with pytest.raises(ValueError, match="right-handed"):
            BlochFrame(self.E3, self.E2, self.E1, 0.0, 0.0, False)

    def test_round_off_within_tolerance_accepted(self):
        BlochFrame(self.E2 * (1.0 + 1e-14), self.E3, self.E1, 0.0, 0.0, False)

    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            BlochFrame(self.E2, np.array([0.0, math.nan, 1.0]), self.E1, 0.0, 0.0, False)


class TestVarianceEllipse:
    def test_family_values_at_unit_ratio(self):
        state = triphoton_state(1.0)
        frame = bloch_frame(mean_polarization(state))
        ellipse = variance_ellipse(state, frame)
        assert ellipse.A == pytest.approx(-1.5, abs=1e-12)
        assert ellipse.B == 0.0
        assert ellipse.C == pytest.approx(2.0, abs=1e-12)
        assert ellipse.gamma_opt == pytest.approx(np.pi, abs=1e-12)
        assert not ellipse.isotropic

    def test_coherent_point_is_isotropic(self):
        state = triphoton_state(0.0)
        ellipse = variance_ellipse(state, bloch_frame(mean_polarization(state)))
        assert ellipse.A == 0.0
        assert ellipse.B == 0.0
        assert ellipse.C == pytest.approx(1.5, abs=1e-12)
        assert ellipse.isotropic
        assert ellipse.gamma_opt == 0.0

    def test_family_gamma_opt_is_pi_for_positive_t(self):
        for t in np.linspace(0.0, 1.8, 200)[1:]:
            state = triphoton_state(t)
            ellipse = variance_ellipse(state, bloch_frame(mean_polarization(state)))
            assert ellipse.gamma_opt == pytest.approx(np.pi, abs=1e-12)

    def test_invalid_ellipse_rejected(self):
        with pytest.raises(ValueError):
            VarianceEllipse(A=2.0, B=0.0, C=1.0, gamma_opt=0.0, isotropic=False)


class TestExtremalVariances:
    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((-1.5, 0.0, 2.0), (0.25, 1.75)),
            ((0.0, 0.0, 1.5), (0.75, 0.75)),
            ((-1.5, 0.0, 3.0), (0.75, 2.25)),
        ],
    )
    def test_closed_form_pairs(self, coeffs, expected):
        a, b, c = coeffs
        ellipse = VarianceEllipse(a, b, c, gamma_opt=0.0, isotropic=(a == b == 0.0))
        v_minus, v_plus = extremal_variances(ellipse)
        assert v_minus == pytest.approx(expected[0], abs=1e-12)
        assert v_plus == pytest.approx(expected[1], abs=1e-12)

    def test_family_noon_point(self):
        state = triphoton_state(SQRT3)
        report = squeezing_report(state)
        assert report.v_minus == pytest.approx(0.75, abs=1e-12)
        assert report.v_plus == pytest.approx(2.25, abs=1e-12)


class TestSqueezingReport:
    def test_coherent_baseline(self):
        report = squeezing_report(triphoton_state(0.0))
        assert report.xi2 == pytest.approx(1.0, abs=1e-10)
        assert report.zeta2 == pytest.approx(1.0, abs=1e-10)
        assert report.chi2 == pytest.approx(1.0, abs=1e-10)
        assert report.snl == 0.75

    def test_maximal_squeezing_at_unit_ratio(self):
        report = squeezing_report(triphoton_state(1.0))
        assert report.xi2 == pytest.approx(1 / 3, abs=1e-12)
        assert decibels(report.xi2) == pytest.approx(-4.7712125472, abs=1e-9)
        assert report.chi2 == pytest.approx(3 / 7, abs=1e-12)
        assert report.qfi == pytest.approx(7.0, abs=1e-12)

    def test_noon_point_of_family(self):
        report = squeezing_report(triphoton_state(SQRT3))
        assert report.xi2 == pytest.approx(1.0, abs=1e-10)
        assert report.chi2 == pytest.approx(1 / 3, abs=1e-10)
        assert report.zeta2 is None
        assert report.zeta2_unbounded

    def test_zeta_diverges_like_inverse_mean_squared(self):
        report = squeezing_report(triphoton_state(1.0))
        expected = (1.5 / report.mean.length) ** 2 * report.xi2
        assert report.zeta2 == pytest.approx(expected, abs=1e-12)

    def test_vacuum_rejected(self):
        state = coherent_state(build_spin_space(0), 0.0, 0.0)
        with pytest.raises(ValueError):
            squeezing_report(state)

    def test_report_invariants_on_random_states(self):
        for trial in range(300):
            state = random_state(build_spin_space(1 + trial % 8), RNG)
            report = squeezing_report(state)
            spin = state.space.spin
            assert report.v_minus <= report.v_plus + 1e-15
            assert report.xi2 == pytest.approx(2 * report.v_minus / spin, abs=1e-13)
            assert report.chi2 == pytest.approx(spin / (2 * report.v_plus), abs=1e-13)
            assert report.qfi == pytest.approx(4 * report.v_plus, abs=1e-13)
            bound = report.mean.length**2 / 4
            assert report.v_minus * report.v_plus >= bound - 1e-10

    def test_frame_invariance_about_mean_axis(self):
        # spinning the state about n3 must not move V-+ or the parameters
        for t in (0.4, 1.0, 1.5):
            state = triphoton_state(t)
            report = squeezing_report(state)
            for angle in (0.3, 1.9, 4.4):
                spun = rotate_about(state, report.frame.n3, angle)
                spun_report = squeezing_report(spun)
                assert spun_report.v_minus == pytest.approx(report.v_minus, abs=1e-10)
                assert spun_report.v_plus == pytest.approx(report.v_plus, abs=1e-10)
                assert spun_report.xi2 == pytest.approx(report.xi2, abs=1e-10)
                assert spun_report.chi2 == pytest.approx(report.chi2, abs=1e-10)


class TestStackedReports:
    """squeezing_reports is squeezing_report row by row, bit for bit."""

    @pytest.mark.parametrize("num_photons, rows", [(127, 9), (255, 3)])
    def test_equal_single_reports_across_chunk_boundaries(self, monkeypatch, num_photons, rows):
        # band chunks shrunk to 4 rows at N = 127, so the stack ends in a
        # partial chunk after two full ones; to 1 at N = 255, where each row
        # runs alone
        per_chunk = {127: 4, 255: 1}[num_photons]
        monkeypatch.setattr(spin_core, "CHUNK_ENTRIES", per_chunk * (num_photons + 1))
        space = build_spin_space(num_photons)
        assert [len(range(rows)[k]) for k in spin_core._chunks(space, rows)] == {
            127: [4, 4, 1],
            255: [1, 1, 1],
        }[num_photons]
        rng = np.random.default_rng(num_photons)
        states = [random_state(space, rng) for _ in range(rows - 1)]
        states.append(noon_state(num_photons, 0.4))
        stacked = squeezing_reports(space, [state.amplitudes for state in states])
        assert len(stacked) == rows
        for state, report in zip(states, stacked):
            assert report_fields(report) == report_fields(squeezing_report(state))

    def test_equal_single_reports_across_a_dense_chunk_boundary(self):
        # a chunk holds 4096 rows of dense matrices at N = 3, so the stack
        # ends in a one-row chunk after a full one; every 64th row, the last
        # row of the full chunk and the one-row chunk are checked
        space = build_spin_space(3)
        rows = CHUNK_ENTRIES // space.dimension**2 + 1
        assert rows == 4097
        rng = np.random.default_rng(3)
        states = [random_state(space, rng) for _ in range(rows - 1)]
        states.append(noon_state(3, 0.4))
        stacked = squeezing_reports(space, [state.amplitudes for state in states])
        assert len(stacked) == rows
        for i in [*range(0, rows, 64), rows - 2]:
            assert report_fields(stacked[i]) == report_fields(squeezing_report(states[i])), i

    def test_triphoton_sweep_equals_single_reports(self):
        ts = list(np.linspace(0.0, 1.8, 181)) + [SQRT3, 7.25]
        stacked = squeezing_reports(triphoton_state(0.0).space, triphoton_state_rows(ts))
        for t, report in zip(ts, stacked, strict=True):
            assert report_fields(report) == report_fields(squeezing_report(triphoton_state(t)))

    def test_routes_are_chosen_by_entry_point(self, monkeypatch, tmp_path):
        # one state goes through the four public stages, each entered once;
        # a stack runs on columns and never enters them
        stages = ("mean_polarization", "bloch_frame", "variance_ellipse", "extremal_variances")

        def forbidden(*args, **kwargs):
            raise AssertionError("entered the other route")

        ts = [0.0, 1.0, SQRT3, 2.5]
        with monkeypatch.context() as patch:
            for name in stages:
                patch.setattr(squeezing, name, forbidden)
            reports = squeezing_reports(triphoton_state(0.0).space, triphoton_state_rows(ts))
            assert [report.zeta2_unbounded for report in reports] == [False, False, True, False]
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--steps", "5", "--output", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 8  # 5 steps, 2 landmarks
        for name in ("squeezing_columns", "_check_frames"):
            monkeypatch.setattr(squeezing, name, forbidden)
        calls = []

        def spy(name):
            stage = getattr(squeezing, name)
            return lambda *args, **kwargs: calls.append(name) or stage(*args, **kwargs)

        for name in stages:
            monkeypatch.setattr(squeezing, name, spy(name))
        report = squeezing_report(triphoton_state(1.0))
        assert report.xi2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert calls == list(stages)

    def test_empty_stack(self):
        assert squeezing_reports(build_spin_space(3), np.zeros((0, 4), dtype=complex)) == []

    @pytest.mark.parametrize("shape", [(4,), (2, 5), (1, 2, 4)])
    def test_wrong_shape_rejected(self, shape):
        rows = np.full(shape, 0.5, dtype=complex)
        with pytest.raises(ValueError, match="expected \\(B, 4\\)"):
            squeezing_reports(build_spin_space(3), rows)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 0.0, np.nan])
    def test_non_unit_row_rejected(self, scale):
        rows = triphoton_state_rows([0.0, 1.0, 1.5]).copy()
        rows[1] *= scale
        with pytest.raises(ValueError, match="state norm"):
            squeezing_reports(build_spin_space(3), rows)

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError, match="at least one photon"):
            squeezing_reports(build_spin_space(0), [[1.0]])


class TestQfiPure:
    def test_noon_reaches_heisenberg_information(self):
        assert qfi_pure(noon_state(3, -np.pi / 2), (1.0, 0.0, 0.0)) == pytest.approx(
            9.0, abs=1e-12
        )

    def test_coherent_state_gives_photon_number(self):
        for num in (1, 3, 5):
            state = coherent_state(build_spin_space(num), 0.0, 0.0)
            # any direction transverse to the mean along S1
            assert qfi_pure(state, (0.0, 1.0, 0.0)) == pytest.approx(num, abs=1e-10)
            assert qfi_pure(state, (0.0, 0.0, 1.0)) == pytest.approx(num, abs=1e-10)

    def test_triphoton_antisqueezed_axis(self):
        assert qfi_pure(triphoton_state(1.0), (1.0, 0.0, 0.0)) == pytest.approx(
            7.0, abs=1e-12
        )

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            qfi_pure(triphoton_state(1.0), (1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            qfi_pure(triphoton_state(1.0), (math.nan, 0.0, 0.0))

    @pytest.mark.parametrize("num_photons", [128, 255, 512])
    def test_coherent_state_along_its_mean_at_large_n(self, num_photons):
        # the true variance along the mean is 0; its round-off reaches about
        # 3 eps (s+1)^2 below zero, beyond an absolute 1e-12 from N ~ 128 on
        space = build_spin_space(num_photons)
        rng = np.random.default_rng(1000 + num_photons)
        for _ in range(20):
            theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            state = coherent_state(space, theta, phi)
            direction = squeezing_report(state).frame.n3
            assert qfi_pure(state, direction) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("num_photons", [1, 3, 16, 128])
    def test_equals_dense_operator_route(self, num_photons):
        # up to N = 3 the banded generator reproduces 4 variance(d.S) of the
        # dense sum exactly; from N = 4 on, the variance of the test copy's
        # O(N) image d.S a
        space = build_spin_space(num_photons)
        s1, s2, s3 = (stokes_operator(space, axis).matrix for axis in (1, 2, 3))
        for _ in range(5):
            state = random_state(space, RNG)
            d = RNG.normal(size=3)
            d /= np.linalg.norm(d)
            if _banded(space):
                image = combined_image(d, ladder_images(space, state.amplitudes))
                expected = 4.0 * _image_variance(state.amplitudes, image)
            else:
                dense = HermitianOperator(space, d[0] * s1 + d[1] * s2 + d[2] * s3)
                expected = 4.0 * variance(state, dense)
            assert qfi_pure(state, d) == expected


class TestAnalyticForms:
    def test_ellipse_values(self):
        ellipse = analytic_ellipse(1.0)
        assert ellipse.A == pytest.approx(-1.5, abs=1e-12)
        assert ellipse.C == pytest.approx(2.0, abs=1e-12)
        ellipse = analytic_ellipse(0.0)
        assert ellipse.A == pytest.approx(0.0, abs=1e-12)
        assert ellipse.C == pytest.approx(1.5, abs=1e-12)
        ellipse = analytic_ellipse(SQRT3)
        assert ellipse.A == pytest.approx(-1.5, abs=1e-12)
        assert ellipse.C == pytest.approx(3.0, abs=1e-12)

    def test_variance_values(self):
        assert analytic_variances(1.0) == pytest.approx((0.25, 1.75), abs=1e-12)
        assert analytic_variances(0.0) == pytest.approx((0.75, 0.75), abs=1e-12)
        assert analytic_variances(SQRT3) == pytest.approx((0.75, 2.25), abs=1e-12)

    def test_amplitude_grid_consistency(self):
        for t in np.linspace(0.0, 1.8, 50):
            c2, c3 = triphoton_amplitudes(t)
            state = triphoton_state(t)
            assert abs(state.amplitudes[0] - c3) < 1e-15
            assert abs(state.amplitudes[1] - 1j * c2) < 1e-15


class TestFamilyCurves:
    def test_zeta2_minimum_location(self):
        ts = np.linspace(0.05, 1.5, 400)
        zeta = [squeezing_report(triphoton_state(t)).zeta2 for t in ts]
        idx = int(np.argmin(zeta))
        assert ts[idx] == pytest.approx(0.8086, abs=0.01)
        assert zeta[idx] == pytest.approx(0.5802, abs=0.001)


class TestNoonMetrics:
    def test_single_photon_noon_report(self):
        # fully polarized limit: every figure of merit is finite and unity
        report = squeezing_report(noon_state(1, -np.pi / 2))
        assert report.chi2 == pytest.approx(1.0, abs=1e-12)
        assert report.xi2 == pytest.approx(1.0, abs=1e-12)
        assert report.v_plus == pytest.approx(0.25, abs=1e-12)
        assert report.v_minus == pytest.approx(0.25, abs=1e-12)
        assert not report.zeta2_unbounded
        assert report.zeta2 == pytest.approx(1.0, abs=1e-12)


class TestGammaScan:
    def test_scan_recovers_extremes_and_argmin(self):
        states = [triphoton_state(t) for t in np.linspace(0.1, 1.8, 10)]
        states += [random_state(build_spin_space(1 + k), RNG) for k in range(6)]
        large = np.random.default_rng(467)  # leaves the module's RNG stream as it was
        states += [random_state(build_spin_space(num), large) for num in (32, 128, 512)]
        for state in states:
            report = squeezing_report(state)
            scan = scan_transverse_variance(state, report.frame, samples=3600)
            assert scan["v_min"] == pytest.approx(report.v_minus, abs=1e-10)
            assert scan["v_max"] == pytest.approx(report.v_plus, abs=1e-10)
            assert scan["grid_min"] >= report.v_minus - 1e-10
            assert scan["grid_max"] <= report.v_plus + 1e-10
            if not report.ellipse.isotropic:
                offset = angle_mod_pi_distance(
                    scan["gamma_min"], report.ellipse.gamma_opt
                )
                assert offset < 1e-6

    @pytest.mark.parametrize("num", [3, 64])
    def test_scan_takes_no_variance_call(self, monkeypatch, num):
        # the grid and both refinements read the images' five moments only
        def refuse(*args):
            raise AssertionError("variance called")

        monkeypatch.setattr(verify, "variance", refuse)
        state = random_state(build_spin_space(num), np.random.default_rng(num))
        report = squeezing_report(state)
        scan = scan_transverse_variance(state, report.frame)
        assert scan["v_min"] == pytest.approx(report.v_minus, abs=1e-10)
        assert scan["v_max"] == pytest.approx(report.v_plus, abs=1e-10)


def test_decibels():
    assert decibels(1.0) == 0.0
    assert decibels(1 / 3) == pytest.approx(-4.7712125472, abs=1e-9)
    assert decibels(0.0) is None
    assert decibels(None) is None


def _fresh_image(state, direction) -> np.ndarray:
    """d.S a from a freshly built combination up to N = 3, or from N = 4 on
    from the test copy of the O(N) images."""
    space, amps = state.space, state.amplitudes
    if _banded(space):
        return combined_image(direction, ladder_images(space, amps))
    return _stokes_combination(space, direction) @ amps


def _fresh_ellipse(state, frame) -> tuple:
    """(A, B, C) of the ellipse from two fresh images n1.S a and n2.S a."""
    image1, image2 = _fresh_image(state, frame.n1), _fresh_image(state, frame.n2)
    sq1, sq2 = np.vdot(image1, image1).real, np.vdot(image2, image2).real
    a, b, c = sq1 - sq2, 2.0 * np.vdot(image1, image2).real, sq1 + sq2
    # the moment snap of `variance_ellipse`
    snap = MOMENT_SNAP * max(1.0, c)
    return (0.0 if abs(a) < snap else a), (0.0 if abs(b) < snap else b), c


def _fresh_qfi(state, direction) -> float:
    image = _fresh_image(state, np.asarray(direction, dtype=float))
    return 4.0 * _image_variance(state.amplitudes, image)


def _ellipse_bits(report) -> tuple:
    return tuple(float(x).hex() for x in (report.ellipse.A, report.ellipse.B, report.ellipse.C))


def _unit(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


class TestWorkMatrices:
    """The moment kernel: every ellipse and QFI equals, bit for bit, what
    freshly built n.S matrices give (from N = 4 on, the O(N) images),
    whatever sizes and stacks ran before it; the route each size and entry
    point takes, the shared image cache, the chunks and their memory."""

    def test_interleaved_sizes_match_fresh_matrices(self):
        # single states and stacks of band images at sizes in turn, and a
        # stack at N = 3 in one chunk of dense matrices
        rng = np.random.default_rng(29)
        for num, count in ((512, 3), (128, 3), (3, 9), (181, 3), (8, 809), (512, 3)):
            space = build_spin_space(num)
            states = [random_state(space, rng) for _ in range(count)]
            singles = [squeezing_report(state) for state in states]
            for state, report in zip(states, singles):
                fresh = tuple(x.hex() for x in _fresh_ellipse(state, report.frame))
                assert _ellipse_bits(report) == fresh, num
                direction = _unit(rng)
                assert qfi_pure(state, direction).hex() == _fresh_qfi(state, direction).hex()
            stacked = squeezing_reports(space, [s.amplitudes for s in states])
            for state, single, report in zip(states, singles, stacked, strict=True):
                assert report_fields(report) == report_fields(single), num
                fresh = tuple(x.hex() for x in _fresh_ellipse(state, report.frame))
                assert _ellipse_bits(report) == fresh, num

    def test_stacks_of_other_sizes_in_between(self):
        # N = 3 stacks of a few rows, then one state, at two sizes in turn
        rng = np.random.default_rng(31)
        small, large = build_spin_space(3), build_spin_space(128)
        for rows in (5, 1, 7):
            states = [random_state(small, rng) for _ in range(rows)]
            reports = squeezing_reports(small, [s.amplitudes for s in states])
            for state, report in zip(states, reports):
                fresh = tuple(x.hex() for x in _fresh_ellipse(state, report.frame))
                assert _ellipse_bits(report) == fresh
            state = random_state(large, rng)
            report = squeezing_report(state)
            fresh = tuple(x.hex() for x in _fresh_ellipse(state, report.frame))
            assert _ellipse_bits(report) == fresh

    def test_band_images_from_n_4_on(self, monkeypatch):
        # N = 3 is the largest size on dense matrices; one state goes through
        # the kernel as its (N+1,) amplitudes, never in chunks, and a stack
        # chunk by chunk
        calls = []

        def spy(name):
            route = getattr(spin_core, name)

            def record(space, arg):
                calls.append((name, space.num_photons, np.shape(arg)))
                return route(space, arg)

            return record

        for name in ("_stokes_combination", "_band_images", "_chunks"):
            monkeypatch.setattr(spin_core, name, spy(name))
        rng = np.random.default_rng(41)
        for num in (3, 4):
            space = build_spin_space(num)
            states = [random_state(space, rng) for _ in range(3)]
            singles = [squeezing_report(state) for state in states]
            qfi_pure(states[0], _unit(rng))
            stacked = squeezing_reports(space, [s.amplitudes for s in states])
            for single, report in zip(singles, stacked, strict=True):
                assert report_fields(report) == report_fields(single), num
        # at N = 3 one (n1, n2).S pair per report, d.S for the QFI, and for
        # the stack one chunk of the mean and one of the ellipse, which takes
        # a pair per row; at N = 4 one image set per report, one more for
        # the QFI of the first state, and one per chunk of the stack
        chunk = [("_chunks", 3, ())]
        assert calls[:7] == [("_stokes_combination", 3, (2, 3))] * 3 + [
            ("_stokes_combination", 3, (3,)),
            *chunk,
            *chunk,
            ("_stokes_combination", 3, (3, 2, 3)),
        ]
        stack = [("_chunks", 4, ()), ("_band_images", 4, (3, 5))]
        assert calls[7:] == [("_band_images", 4, (5,))] * 4 + stack * 2

    def test_one_band_image_set_per_state(self, monkeypatch):
        # from N = 4 on the mean, the ellipse and the QFI of one state share
        # its images, made once from its amplitudes, and take no chunk
        made, images = [], spin_core._band_images

        def spy(space, amps):
            made.append((amps.shape, images(space, amps)))
            return made[-1][1]

        def refuse(*args):
            raise AssertionError("a single state taken in chunks")

        monkeypatch.setattr(spin_core, "_band_images", spy)
        monkeypatch.setattr(spin_core, "_chunks", refuse)
        space = build_spin_space(512)
        state = random_state(space, np.random.default_rng(47))
        report = squeezing_report(state)
        assert [shape for shape, _ in made] == [(513,)]
        qfi_pure(state, report.frame.n1)
        assert [shape for shape, _ in made] == [(513,)]
        cached = spin_core._report_images(state)
        assert len(cached) == 3 and all(a is b for a, b in zip(cached, made[0][1]))
        assert not any(image.flags.writeable for image in cached)
        squeezing_report(coherent_state(space, 0.7, 2.3))
        assert [shape for shape, _ in made] == [(513,)] * 2

    def test_band_stack_chunks_match_single_reports(self):
        # at N = 256 a chunk holds CHUNK_ENTRIES // 257 = 255 rows of images:
        # two full chunks, then a one-row one
        space = build_spin_space(256)
        rng = np.random.default_rng(53)
        count = 2 * (CHUNK_ENTRIES // space.dimension) + 1
        states = [random_state(space, rng) for _ in range(count)]
        stacked = squeezing_reports(space, [s.amplitudes for s in states])
        for state, report in zip(states, stacked, strict=True):
            assert report_fields(report) == report_fields(squeezing_report(state))

    def test_band_stack_chunk_memory_is_bounded(self):
        # one chunk's three images, two combinations and their temporaries
        # peak at 6.1 chunks of 16 CHUNK_ENTRIES bytes, and consecutive chunks
        # overlap to 10.0; the 765 rows in one pass measured 18.1.  The mean
        # peaks at 8.0 chunks; in one pass it measured 15.0
        space = build_spin_space(256)
        rng = np.random.default_rng(59)
        count = 3 * (CHUNK_ENTRIES // space.dimension)
        amps = np.array([random_state(space, rng).amplitudes for _ in range(count)])
        n1 = np.tile([0.0, -0.6, 0.8], (count, 1))
        n2 = np.tile([1.0, 0.0, 0.0], (count, 1))
        spin_core._transverse_moments(space, amps[:1], n1[:1], n2[:1])  # the band cache
        # each as rows, for all of them or for the rows `k`
        for moments_of in (
            lambda k: spin_core._transverse_moments(space, amps[k], n1[k], n2[k]).T,
            lambda k: spin_core._mean_moments(space, amps[k]),
        ):
            tracemalloc.start()
            try:
                moments = moments_of(slice(None))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 16 * CHUNK_ENTRIES
            np.testing.assert_array_equal(moments[-1], moments_of(slice(-1, None))[0])

    def test_two_threads_match_a_serial_run(self, monkeypatch):
        # at N = 3 both threads write their n.S, then both apply it: a matrix
        # shared across threads would hold the other thread's band at every
        # product.  At N = 64 both combine their images, then both go on, so
        # each state's next read of the `_report_images` cache may find the
        # other thread's state there
        for num, hook in ((3, "_stokes_combination"), (64, "_combination")):
            with monkeypatch.context() as patch:
                self._two_threads_match_a_serial_run(patch, num, hook)

    @staticmethod
    def _two_threads_match_a_serial_run(patch, num, hook):
        rng = np.random.default_rng(37)
        space = build_spin_space(num)
        states = [random_state(space, rng) for _ in range(24)]
        directions = [_unit(rng) for _ in states]

        def results(indices):
            out = []
            for i in indices:
                out.append(_ellipse_bits(squeezing_report(states[i])))
                out.append(qfi_pure(states[i], directions[i]).hex())
            return out

        halves = [list(range(0, 24, 2)), list(range(1, 24, 2))]
        serial = [results(half) for half in halves]
        written = threading.Barrier(2, timeout=10)
        build = getattr(spin_core, hook)

        def build_then_wait(*args, **kwargs):
            built = build(*args, **kwargs)
            written.wait()
            return built

        patch.setattr(spin_core, hook, build_then_wait)
        got = [None, None]

        def run(which):
            got[which] = results(halves[which])

        threads = [threading.Thread(target=run, args=(which,)) for which in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == serial, num

    def test_report_route_allocates_no_dense_matrix(self):
        # cold caches: the mean, the ellipse and the QFI take O(N) images, so
        # no array of (N+1)^2 entries is made; at N = 64 the bound is below
        # the 16 (N+1)^2 bytes of one dense matrix
        for num in (64, 1023):
            space, state = build_spin_space(num), noon_state(num, 0.3)
            spin_core._stokes_band.cache_clear()
            tracemalloc.start()
            try:
                squeezing_report(state)
                squeezing_reports(space, [state.amplitudes, state.amplitudes])
                qfi_pure(state, (0.0, 0.6, 0.8))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 16 * space.dimension, num

    def test_report_reads_every_band_through_spin_core(self, monkeypatch):
        # at N = 3 the mean's S2 and S3 bands, then the (n1, n2).S pair; at
        # N = 5 the band images, which the ellipse reuses
        reads, band = [], spin_core._stokes_band

        def spy(num_photons):
            reads.append(num_photons)
            return band(num_photons)

        monkeypatch.setattr(spin_core, "_stokes_band", spy)
        squeezing_report(noon_state(3, 0.3))
        squeezing_report(noon_state(5, 0.3))
        assert reads == [3, 3, 5]
