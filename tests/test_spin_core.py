import numpy as np
import pytest

from stokes_squeeze import (
    HermitianOperator,
    PolarizationState,
    SpaceMismatchError,
    build_spin_space,
    expectation,
    hermitian_exponential,
    ladder_operator,
    normalized_state,
    stokes_operator,
    variance,
)
from stokes_squeeze.spin_core import _s2_eigenbasis, _stokes_matrices
from stokes_squeeze.states import basis_state, triphoton_state
from stokes_squeeze.verify import random_state

RNG = np.random.default_rng(11)


class TestSpinSpace:
    @pytest.mark.parametrize(
        "num_photons, spin, dimension",
        [(3, 1.5, 4), (0, 0.0, 1), (1, 0.5, 2), (12, 6.0, 13)],
    )
    def test_dimensions(self, num_photons, spin, dimension):
        space = build_spin_space(num_photons)
        assert space.spin == spin
        assert space.dimension == dimension
        assert space.dimension == space.num_photons + 1

    def test_basis_ordering_descends_from_s(self):
        space = build_spin_space(3)
        np.testing.assert_array_equal(space.n_values, [1.5, 0.5, -0.5, -1.5])
        assert space.index_of(1.5) == 0
        assert space.index_of(-1.5) == 3
        assert space.basis_label(0) == "|3,0>_HV"
        assert space.basis_label(3) == "|0,3>_HV"

    def test_rejects_bad_photon_numbers(self):
        with pytest.raises(ValueError):
            build_spin_space(-1)
        with pytest.raises(TypeError):
            build_spin_space(1.5)


class TestStokesOperators:
    def test_s1_is_diagonal_imbalance(self):
        space = build_spin_space(1)
        np.testing.assert_allclose(
            stokes_operator(space, 1).matrix, np.diag([0.5, -0.5]), atol=0
        )

    def test_s0_is_spin_times_identity(self):
        space = build_spin_space(5)
        np.testing.assert_array_equal(
            stokes_operator(space, 0).matrix, 2.5 * np.eye(6)
        )

    def test_raising_matrix_element(self):
        # <3/2,3/2| S+ |3/2,1/2> = sqrt((s-n)(s+n+1)) at n=1/2 -> sqrt(3)
        space = build_spin_space(3)
        raising = ladder_operator(space, +1).matrix
        assert raising[0, 1] == pytest.approx(np.sqrt(3), abs=1e-15)

    def test_raising_from_lowest_state(self):
        # S+ |3/2,-3/2> = sqrt(3) |3/2,-1/2>
        space = build_spin_space(3)
        raising = ladder_operator(space, +1).matrix
        column = raising @ basis_state(space, -1.5).amplitudes
        expected = np.sqrt(3) * basis_state(space, -0.5).amplitudes
        np.testing.assert_allclose(column, expected, atol=1e-15)

    def test_spin_half_raising_single_element(self):
        space = build_spin_space(1)
        raising = ladder_operator(space, +1).matrix
        np.testing.assert_allclose(raising, [[0, 1], [0, 0]], atol=0)

    def test_ladder_adjoint_pair(self):
        for num in (1, 3, 8):
            space = build_spin_space(num)
            raising = ladder_operator(space, +1).matrix
            lowering = ladder_operator(space, -1).matrix
            np.testing.assert_allclose(raising.conj().T, lowering, atol=1e-12)

    @pytest.mark.parametrize("num_photons", range(0, 13))
    def test_su2_algebra_and_casimir(self, num_photons):
        space = build_spin_space(num_photons)
        ops = {i: stokes_operator(space, i).matrix for i in (1, 2, 3)}
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i] - 1j * ops[k]
            assert np.abs(comm).max() < 1e-12
        spin = space.spin
        casimir = sum(op @ op for op in ops.values())
        np.testing.assert_allclose(
            casimir, spin * (spin + 1) * np.eye(space.dimension), atol=1e-12
        )

    def test_operator_cached_per_axis_without_copy(self):
        # validated once per (N, axis); the cached matrix is shared, not copied
        space = build_spin_space(7)
        for axis in (0, 1, 2, 3):
            op = stokes_operator(space, axis)
            assert stokes_operator(build_spin_space(7), axis) is op
            assert op.matrix is _stokes_matrices(7)[axis]
            assert op.space == space

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            stokes_operator(build_spin_space(2), 4)
        with pytest.raises(ValueError):
            ladder_operator(build_spin_space(2), 0)


class TestExpectationVariance:
    def test_eigenstate_expectation(self):
        space = build_spin_space(3)
        state = basis_state(space, 1.5)
        assert expectation(state, stokes_operator(space, 1)) == pytest.approx(1.5)

    def test_triphoton_s1_vanishes_for_all_t(self):
        space = build_spin_space(3)
        s1 = stokes_operator(space, 1)
        for t in np.linspace(0.0, 1.8, 19):
            assert abs(expectation(triphoton_state(t), s1)) < 1e-12

    def test_triphoton_t0_points_along_s3(self):
        space = build_spin_space(3)
        s3 = stokes_operator(space, 3)
        assert expectation(triphoton_state(0.0), s3) == pytest.approx(1.5, abs=1e-12)

    def test_space_mismatch_raises(self):
        state = basis_state(build_spin_space(2), 1.0)
        op = stokes_operator(build_spin_space(3), 1)
        with pytest.raises(SpaceMismatchError):
            expectation(state, op)
        with pytest.raises(SpaceMismatchError):
            variance(state, op)

    def test_eigenstate_variance_is_zero(self):
        space = build_spin_space(3)
        state = basis_state(space, 1.5)
        assert variance(state, stokes_operator(space, 1)) == 0.0

    def test_noon_variance_is_spin_squared(self):
        from stokes_squeeze import noon_state

        space = build_spin_space(3)
        state = noon_state(3, -np.pi / 2)
        assert variance(state, stokes_operator(space, 1)) == pytest.approx(
            2.25, abs=1e-12
        )

    def test_expectation_real_on_random_states(self):
        for trial in range(200):
            space = build_spin_space(1 + trial % 8)
            state = random_state(space, RNG)
            for axis in (1, 2, 3):
                raw = np.vdot(
                    state.amplitudes,
                    stokes_operator(space, axis).matrix @ state.amplitudes,
                )
                assert abs(raw.imag) < 1e-12


class TestHermitianExponential:
    def test_zero_scale_gives_identity(self):
        space = build_spin_space(3)
        result = hermitian_exponential(stokes_operator(space, 2), 0.0)
        np.testing.assert_allclose(result, np.eye(4), atol=1e-14)

    def test_imaginary_scale_is_unitary(self):
        space = build_spin_space(1)
        unitary = hermitian_exponential(stokes_operator(space, 3), 1j * np.pi)
        defect = np.abs(unitary.conj().T @ unitary - np.eye(2)).max()
        assert defect < 1e-12

    def test_real_scale_is_hermitian_positive(self):
        space = build_spin_space(4)
        result = hermitian_exponential(stokes_operator(space, 1), -0.3)
        assert np.abs(result - result.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(result).min() > 0

    def test_norm_preserved_on_random_states(self):
        for trial in range(50):
            space = build_spin_space(1 + trial % 6)
            state = random_state(space, RNG)
            angle = RNG.uniform(-6, 6)
            unitary = hermitian_exponential(
                stokes_operator(space, 1 + trial % 3), 1j * angle
            )
            assert abs(np.linalg.norm(unitary @ state.amplitudes) - 1) < 1e-12


class TestS2Eigenbasis:
    @pytest.mark.parametrize("num_photons", [0, 1, 4, 33])
    def test_diagonalizes_s2(self, num_photons):
        eigvals, eigvecs = _s2_eigenbasis(num_photons)
        s2 = _stokes_matrices(num_photons)[2]
        spin = num_photons / 2
        np.testing.assert_array_equal(eigvals, np.arange(num_photons + 1) - spin)
        np.testing.assert_allclose(
            eigvecs @ np.diag(eigvals) @ eigvecs.T, s2, rtol=0, atol=1e-12
        )
        assert eigvecs.dtype == np.float64
        assert not eigvecs.flags.writeable

    def test_second_call_hits_cache(self):
        first = _s2_eigenbasis(19)
        hits = _s2_eigenbasis.cache_info().hits
        assert _s2_eigenbasis(19) is first
        assert _s2_eigenbasis.cache_info().hits == hits + 1

    def test_non_orthogonal_basis_rejected(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: (eigh(m)[0], 1.001 * eigh(m)[1])
        )
        with pytest.raises(ArithmeticError, match="orthogonal"):
            _s2_eigenbasis.__wrapped__(5)

    def test_wrong_spectrum_rejected(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: (eigh(m)[0] + 1e-9, eigh(m)[1])
        )
        with pytest.raises(ArithmeticError, match="eigenvalues"):
            _s2_eigenbasis.__wrapped__(5)


class TestValidation:
    def test_state_must_be_normalized(self):
        space = build_spin_space(1)
        with pytest.raises(ValueError):
            PolarizationState(space, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            PolarizationState(space, np.array([np.nan, 0.0]))  # a NaN norm fails too
        normalized_state(space, np.array([1.0, 1.0]))  # helper normalizes

    def test_state_dimension_checked(self):
        with pytest.raises(ValueError):
            PolarizationState(build_spin_space(2), np.array([1.0, 0.0]))

    def test_zero_vector_cannot_be_normalized(self):
        with pytest.raises(ValueError):
            normalized_state(build_spin_space(1), np.array([0.0, 0.0]))

    def test_operator_copies_mutable_input(self):
        space = build_spin_space(1)
        writable = np.diag([0.5, -0.5]).astype(complex)
        op = HermitianOperator(space, writable)
        writable[0, 0] = 9.0
        assert op.matrix[0, 0] == 0.5
        frozen = np.diag([0.5, -0.5]).astype(complex)
        frozen.setflags(write=False)
        assert HermitianOperator(space, frozen).matrix is frozen
        view = frozen[:, :]  # read-only, but shares the buffer of another array
        assert HermitianOperator(space, view).matrix is not view

    def test_non_hermitian_matrix_rejected(self):
        space = build_spin_space(1)
        with pytest.raises(ValueError):
            HermitianOperator(space, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_states_are_immutable(self):
        state = basis_state(build_spin_space(2), 1.0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        op = stokes_operator(build_spin_space(2), 2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0
