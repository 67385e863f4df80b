import math
import tracemalloc

import numpy as np
import pytest

from stokes_squeeze import (
    PolarizationState,
    SphereGrid,
    build_spin_space,
    coherent_state,
    fock_superposition,
    noon_state,
    normalized_state,
    q_grid,
    q_value,
    rotate,
    triphoton_state,
)
from stokes_squeeze import husimi
from stokes_squeeze.husimi import MAX_GRID_ENTRIES, QGrid, _chebyshev_weights
from stokes_squeeze.states import _binomial_profile, basis_state
from stokes_squeeze.verify import random_state

SQRT3 = math.sqrt(3.0)
RNG = np.random.default_rng(17)


class TestSphereGrid:
    def test_midpoint_samples(self):
        grid = SphereGrid(4, 8, scheme="midpoint")
        np.testing.assert_allclose(grid.thetas, (np.arange(4) + 0.5) * np.pi / 4)
        np.testing.assert_allclose(grid.phis, np.arange(8) * np.pi / 4)
        assert grid.phis[0] == 0.0
        assert grid.thetas.min() > 0 and grid.thetas.max() < np.pi

    def test_endpoint_samples_include_poles(self):
        grid = SphereGrid(5, 6, scheme="endpoint")
        assert grid.thetas[0] == 0.0
        assert grid.thetas[-1] == pytest.approx(np.pi)

    def test_odd_midpoint_grid_contains_equator(self):
        grid = SphereGrid(181, 360, scheme="midpoint")
        assert grid.thetas[90] == pytest.approx(np.pi / 2, abs=0)

    def test_too_small_grids_rejected(self):
        with pytest.raises(ValueError):
            SphereGrid(1, 10)
        with pytest.raises(ValueError):
            SphereGrid(10, 1)
        with pytest.raises(ValueError):
            SphereGrid(4, 4, scheme="gauss")

    def test_non_integer_sizes_rejected(self):
        # a float size would sample theta past pi or make a fractional grid
        with pytest.raises(TypeError):
            SphereGrid(3.5, 4)
        with pytest.raises(TypeError):
            SphereGrid(4, 2.0)

    # constructors only: nothing here evaluates a grid
    @pytest.mark.parametrize("shape, scheme", [
        ((10**6, 10**6), "endpoint"),
        ((2049, 1024), "endpoint"),  # 2049 * 1024 values
        ((20000, 2), "midpoint"),  # a 20000 x 10000 Chebyshev series
        ((2050, 2), "midpoint"),  # 2050 * 1025 series entries
    ])
    def test_oversize_grids_rejected(self, shape, scheme):
        with pytest.raises(ValueError, match="MAX_GRID_ENTRIES"):
            SphereGrid(*shape, scheme=scheme)

    @pytest.mark.parametrize("shape, scheme", [
        ((2048, 1024), "midpoint"),
        ((2050, 2), "endpoint"),  # no Chebyshev series on endpoint grids
        ((2, 2**20), "endpoint"),
        ((256, 256), "midpoint"),
        ((181, 360), "endpoint"),
    ])
    def test_grids_within_the_bound_accepted(self, shape, scheme):
        SphereGrid(*shape, scheme=scheme)

    def test_chebyshev_weights_integrate_polynomials(self):
        # exact for integral_{-1}^{1} p^d dp up to degree n-1
        weights = _chebyshev_weights(16)
        nodes = np.cos((np.arange(16) + 0.5) * np.pi / 16)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)
        for degree in range(0, 16):
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert weights @ nodes**degree == pytest.approx(exact, abs=1e-13)


class TestQValue:
    def test_self_overlap_is_one(self):
        for num in (1, 3, 5):
            space = build_spin_space(num)
            state = coherent_state(space, 1.2, 0.7)
            assert q_value(state, 1.2, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pole_overlap_is_zero(self):
        space = build_spin_space(3)
        state = coherent_state(space, 0.0, 0.0)
        assert q_value(state, np.pi, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_values_in_unit_interval(self):
        state = random_state(build_spin_space(6), RNG)
        for _ in range(50):
            q = q_value(state, RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi))
            assert 0.0 <= q <= 1.0


class TestQGrid:
    @pytest.mark.parametrize("bad", [np.nan, -1e-3, 1.5, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 1)])
    def test_values_outside_unit_interval_rejected(self, bad, cell):
        values = np.array([[0.5, 0.5], [0.1, 0.2]])
        values[cell] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            QGrid(SphereGrid(2, 2), values, 1.0)

    def test_coefficients_bounded_by_photon_number(self):
        # 2049 phi samples of 1024 coefficients each; checked before allocating
        with pytest.raises(ValueError, match="MAX_GRID_ENTRIES"):
            q_grid(noon_state(1023, 0.0), SphereGrid(2, 2049, scheme="endpoint"))

    @pytest.mark.parametrize("num_photons", range(0, 9))
    def test_normalization_estimate(self, num_photons):
        # (2s+1)/(4pi) * integral of Q over the sphere equals 1; s <= 4
        grid = SphereGrid(256, 256, scheme="midpoint")
        space = build_spin_space(num_photons)
        for state in (random_state(space, RNG), coherent_state(space, 2.0, 1.0)):
            result = q_grid(state, grid)
            assert abs(result.normalization_estimate - 1.0) < 1e-6

    def test_noon_peaks_at_poles(self):
        grid = SphereGrid(181, 360, scheme="endpoint")
        values = q_grid(noon_state(3, -np.pi / 2), grid).values
        peak = values.max()
        assert values[0].max() == pytest.approx(peak, abs=1e-12)
        assert values[-1].max() == pytest.approx(peak, abs=1e-12)
        assert values[1:-1, :].max() < peak - 1e-9
        assert peak == pytest.approx(0.5, abs=1e-12)

    def test_noon_azimuthal_period(self):
        grid = SphereGrid(91, 360, scheme="endpoint")
        for num in (2, 3, 4, 5):
            values = q_grid(noon_state(num, 0.3), grid).values
            if 360 % num == 0:
                rolled = np.roll(values, 360 // num, axis=1)
                assert np.abs(values - rolled).max() < 1e-12

    def test_threefold_symmetry_of_family_noon(self):
        grid = SphereGrid(61, 120, scheme="midpoint")
        values = q_grid(triphoton_state(SQRT3), grid).values
        assert np.abs(values - np.roll(values, 40, axis=1)).max() < 1e-12

    def test_vacuum_is_flat(self):
        grid = SphereGrid(16, 16)
        state = coherent_state(build_spin_space(0), 0.0, 0.0)
        values = q_grid(state, grid).values
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_rotation_covariance_about_s1(self):
        # rotating about S1 by alpha shifts the azimuth of Q by +alpha
        for trial in range(3):
            space = build_spin_space(2 + trial)
            state = random_state(space, RNG)
            alpha = RNG.uniform(0.2, 5.0)
            rotated = rotate(state, 1, alpha)
            for _ in range(15):
                theta = RNG.uniform(0, np.pi)
                phi = RNG.uniform(0, 2 * np.pi)
                assert q_value(rotated, theta, phi) == pytest.approx(
                    q_value(state, theta, phi - alpha), abs=1e-10
                )

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_rotation_covariance_any_axis(self, axis):
        # Q(rotate(state, k, a), p) == Q(state, R_k(-a) p) on the sphere
        def so3(angle):
            c, s = np.cos(angle), np.sin(angle)
            if axis == 1:
                return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
            if axis == 2:
                return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        for trial in range(4):
            state = random_state(build_spin_space(1 + trial), RNG)
            alpha = RNG.uniform(-3.0, 3.0)
            rotated = rotate(state, axis, alpha)
            inverse = so3(-alpha)
            for _ in range(10):
                theta = RNG.uniform(0, np.pi)
                phi = RNG.uniform(0, 2 * np.pi)
                point = inverse @ np.array(
                    [np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)]
                )
                back_theta = np.arccos(np.clip(point[0], -1, 1))
                back_phi = np.arctan2(point[2], point[1])
                assert q_value(rotated, theta, phi) == pytest.approx(
                    q_value(state, back_theta, back_phi), abs=1e-10
                )

    def test_q_value_matches_exponential_bra(self):
        # the closed-form bra and the exponential construction agree
        state = random_state(build_spin_space(5), RNG)
        for _ in range(20):
            theta = RNG.uniform(0, np.pi)
            phi = RNG.uniform(0, 2 * np.pi)
            bra = coherent_state(build_spin_space(5), theta, phi)
            direct = abs(np.vdot(bra.amplitudes, state.amplitudes)) ** 2
            assert q_value(state, theta, phi) == pytest.approx(direct, abs=1e-12)

    def test_grid_matches_pointwise_values(self):
        grid = SphereGrid(9, 11, scheme="endpoint")
        state = random_state(build_spin_space(4), RNG)
        values = q_grid(state, grid).values
        for i in (0, 4, 8):
            for j in (0, 5, 10):
                assert values[i, j] == pytest.approx(
                    q_value(state, grid.thetas[i], grid.phis[j]), abs=1e-13
                )


def _fresh_values(state, grid) -> np.ndarray:
    """Q as q_grid makes it, summed over the state's support, with a phase
    matrix of its own on every call."""
    num = state.space.num_photons
    support = np.flatnonzero(state.amplitudes)
    phases = np.exp(-1j * np.outer(grid.phis, support))
    profile = _binomial_profile(num, grid.thetas, support)
    overlaps = (profile * state.amplitudes[support]) @ phases.T
    return np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)


def _dense_values(state, grid) -> np.ndarray:
    """Q from the (N+1)-term product over every k, zero amplitudes included."""
    num = state.space.num_photons
    phases = np.exp(-1j * np.outer(np.arange(num + 1), grid.phis))
    overlaps = (_binomial_profile(num, grid.thetas) * state.amplitudes[None, :]) @ phases
    return np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)


def _sparse_state(num, size, rng) -> PolarizationState:
    """`size` random complex amplitudes at random indices, zero elsewhere."""
    amps = np.zeros(num + 1, dtype=complex)
    amps[rng.choice(num + 1, size=size, replace=False)] = [1, 1j] @ rng.normal(size=(2, size))
    return normalized_state(build_spin_space(num), amps)


def _support_bound(state, grid, dense, sparse) -> np.ndarray:
    """Per cell, how far the support product may lie from the dense one.

    Both read the same profile b_k, amplitudes a_k and phases p_k, and form
    the same nonzero terms; they differ only in how the product rounds.
    Each overlap takes the complex products x_k p_k (x_k = fl(b_k a_k)) and
    sums at most N+1 of them in some order, as four real sums of products
    combined; so it lies within sqrt(2) gamma_{N+3} W of the exact sum of
    its terms, with W = sum_k |x_k| |p_k| and gamma_n = n u / (1 - n u), u
    the unit round-off (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1 and 3.6).  The two
    overlaps then differ by at most 3 gamma_{N+3} W (|p_k| <= 1 + 2u
    covered), and Q = |o|^2 by that times |o1| + |o2| <= (1 + 2u)(sqrt Q1 +
    sqrt Q2), plus 4u (Q1 + Q2) for rounding |o| and its square.
    """
    num = state.space.num_photons
    weight = np.abs(_binomial_profile(num, grid.thetas)) @ np.abs(state.amplitudes)
    u = np.finfo(float).eps / 2.0
    gamma = (num + 3) * u / (1.0 - (num + 3) * u)
    roots = (1.0 + 2.0 * u) * (np.sqrt(dense) + np.sqrt(sparse))
    return 3.0 * gamma * weight[:, None] * roots + 4.0 * u * (dense + sparse)


class TestSupportProduct:
    """`q_grid` sums over the state's support, not over all N+1 terms."""

    GRIDS = (
        SphereGrid(181, 360, scheme="endpoint"),
        SphereGrid(31, 97, scheme="midpoint"),
        SphereGrid(9, 11, scheme="endpoint"),
    )

    @staticmethod
    def _states(rng):
        yield random_state(build_spin_space(300), rng)  # dense: any N
        yield triphoton_state(0.5)
        for num in (1, 2, 3, 8, 64, 100, 127):
            space = build_spin_space(num)
            yield random_state(space, rng)
            yield noon_state(num, rng.uniform(0, 2 * np.pi))
            for index in {0, num // 2, num}:
                yield basis_state(space, space.n_values[index])
            if num >= 2:
                yield fock_superposition(space, [(num, 0, 1.0), (num - 1, 1, 0.5j), (0, num, -0.3)])
                for size in {2, 3, min(num, 30)}:
                    yield _sparse_state(num, size, rng)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.n_theta}x{g.n_phi}")
    def test_bits_of_the_dense_product_up_to_127(self, grid):
        # a dense state passes the same numbers to the same product; below
        # 128 terms BLAS sums each overlap in one block, where a zero term
        # changes no bit
        rng = np.random.default_rng(23)
        for state in self._states(rng):
            np.testing.assert_array_equal(
                q_grid(state, grid).values,
                _dense_values(state, grid),
                err_msg=f"N = {state.space.num_photons}, support "
                f"{np.flatnonzero(state.amplitudes).tolist()}",
            )

    def test_one_term_support_keeps_bits_on_an_even_width(self):
        # a basis state times a phase keeps its bits here; on the last column
        # of an odd width OpenBLAS rounds a one-term complex product otherwise
        # than the (N+1)-term one (test_within_derived_bound)
        rng = np.random.default_rng(29)
        grid = SphereGrid(181, 360, scheme="endpoint")
        for num in (1, 2, 64, 127):
            state = _sparse_state(num, 1, rng)
            np.testing.assert_array_equal(q_grid(state, grid).values, _dense_values(state, grid))

    @pytest.mark.parametrize("num_photons", [128, 129, 200, 1030, 2047, 5824])
    def test_within_derived_bound(self, num_photons):
        # from 128 terms on, BLAS sums an overlap in blocks of 128, so the
        # zero terms group the nonzero ones otherwise than the support does
        rng = np.random.default_rng(num_photons)
        grid = SphereGrid(31, 97, scheme="endpoint")
        states = [noon_state(num_photons, 0.3), _sparse_state(num_photons, 1, rng)]
        states += [_sparse_state(num_photons, size, rng) for size in (2, 5, 40)]
        states.append(_sparse_state(rng.integers(1, 128), 1, rng))  # one term, odd width
        for state in states:
            sparse, dense = q_grid(state, grid).values, _dense_values(state, grid)
            excess = np.abs(sparse - dense) - _support_bound(state, grid, dense, sparse)
            assert excess.max() <= 0.0, np.flatnonzero(state.amplitudes)

    def test_noon_map_asks_for_two_profile_columns(self, monkeypatch):
        widths = []

        def spy(num, thetas, ks=None):
            profile = _binomial_profile(num, thetas, ks)
            widths.append(profile.shape[-1])
            return profile

        monkeypatch.setattr(husimi, "_binomial_profile", spy)
        grid = SphereGrid(181, 360, scheme="endpoint")
        q_grid(noon_state(64, 0.3), grid)
        q_grid(random_state(build_spin_space(64), np.random.default_rng(31)), grid)
        assert widths == [2, 65]

    def test_dense_support_reads_the_phase_table_in_place(self):
        # the largest N of a 2 x 360 grid: a copy of its table would be 33 MB
        grid = SphereGrid(2, 360, scheme="endpoint")
        state = random_state(build_spin_space(5824), np.random.default_rng(37))
        q_grid(state, grid)
        table = husimi._phase_table
        tracemalloc.start()
        try:
            q_grid(state, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert husimi._phase_table is table
        assert peak < table.nbytes / 4


class TestPhaseTable:
    """A dense support reads its phases from one retained table per grid
    width; a sparse one builds its own rows and leaves the table alone."""

    #: photon numbers in the order they arrive: growing by one, jumping,
    #: shrinking, and growing by one past the largest again
    SEQUENCE = (1, 2, 3, 4, 37, 64, 200, 64, 37, 3, 2, 1, 201, 202)

    @pytest.fixture(autouse=True)
    def _empty_table(self, monkeypatch):
        monkeypatch.setattr(husimi, "_phase_table", np.empty((0, 0), dtype=complex))

    @pytest.mark.parametrize("scheme", ["endpoint", "midpoint"])
    def test_values_match_fresh_exponentials(self, scheme):
        rng = np.random.default_rng(19)
        for n_phi in (360, 97, 360):
            grid = SphereGrid(31, n_phi, scheme=scheme)
            largest = 0
            for num in self.SEQUENCE:
                largest = max(largest, num)
                for state in (random_state(build_spin_space(num), rng), noon_state(num, 0.3)):
                    values = q_grid(state, grid).values
                    np.testing.assert_array_equal(values, _fresh_values(state, grid))
                assert husimi._phase_table.shape == (largest + 1, n_phi)

    def test_table_is_kept_for_smaller_photon_numbers(self):
        rng = np.random.default_rng(41)
        grid = SphereGrid(5, 360)
        q_grid(random_state(build_spin_space(64), rng), grid)
        table = husimi._phase_table
        for num in (1, 2, 63, 64):
            q_grid(random_state(build_spin_space(num), rng), grid)
            assert husimi._phase_table is table
        q_grid(random_state(build_spin_space(3), rng), SphereGrid(5, 361))
        assert husimi._phase_table.shape == (4, 361)

    def test_sparse_support_leaves_the_table_alone(self):
        # the table of a NOON N = 4096 map would hold 4097 x 360 entries,
        # 23.6 MB, to give it two rows
        grid = SphereGrid(181, 360, scheme="endpoint")
        state = noon_state(4096, 0.3)
        table = husimi._phase_table
        tracemalloc.start()
        try:
            values = q_grid(state, grid).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert husimi._phase_table is table
        assert peak < 2 * 2**20
        np.testing.assert_array_equal(values, _fresh_values(state, grid))

    @pytest.mark.parametrize("num", [2, 37, 64, 4096, 5824])
    def test_support_rows_are_the_table_rows(self, num):
        phis = SphereGrid(2, 360).phis
        ks = np.array([0, num // 3, num - 1, num])
        table = husimi._phases(phis, num)
        np.testing.assert_array_equal(husimi._phase_rows(ks, phis), table[ks])

    @pytest.mark.parametrize("n_phi", [2049, 2**20])
    def test_table_is_read_only_and_bounded(self, n_phi):
        # the largest N q_grid accepts on a 2 x n_phi grid
        num = MAX_GRID_ENTRIES // n_phi - 1
        grid = SphereGrid(2, n_phi, scheme="endpoint")
        q_grid(random_state(build_spin_space(num), np.random.default_rng(43)), grid)
        table = husimi._phase_table
        assert table.shape == (num + 1, n_phi)
        assert table.size <= MAX_GRID_ENTRIES
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
