import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stokes_squeeze import (
    HermitianOperator,
    PolarizationState,
    SpaceMismatchError,
    SpinSpace,
    build_spin_space,
    expectation,
    hermitian_exponential,
    ladder_operator,
    noon_state,
    normalized_state,
    qwp_apply,
    rotate,
    rotate_about,
    spin_core,
    stokes_operator,
    variance,
)
from stokes_squeeze.spin_core import (
    _image_variance,
    _s1_image,
    _s2_eigenbasis,
    _stokes_band,
    _stokes_combination,
    _work_matrix,
)
from stokes_squeeze.states import basis_state, coherent_state, fidelity, triphoton_state
from stokes_squeeze.verify import random_state


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

    @pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_n_rejected(self, n):
        space = build_spin_space(3)
        for lookup in (lambda: space.index_of(n), lambda: basis_state(space, n)):
            with pytest.raises(ValueError, match=r"^n must be finite"):
                lookup()

    def test_photon_bound(self):
        assert SpinSpace(spin_core.MAX_PHOTONS).dimension == 2**20 + 1
        # refused by a compare, before any O(N) array could be made
        with pytest.raises(ValueError, match=r"^N = 1000000000000 exceeds MAX_PHOTONS = 1048576"):
            SpinSpace(10**12)

    def test_rejects_bad_photon_numbers(self):
        with pytest.raises(ValueError):
            build_spin_space(-1)
        with pytest.raises(TypeError):
            build_spin_space(1.5)
        with pytest.raises(TypeError):
            SpinSpace(1.5)


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
        raising = ladder_operator(space, +1)
        assert raising[0, 1] == pytest.approx(np.sqrt(3), abs=1e-15)

    def test_raising_from_lowest_state(self):
        # S+ |3/2,-3/2> = sqrt(3) |3/2,-1/2>
        space = build_spin_space(3)
        raising = ladder_operator(space, +1)
        column = raising @ basis_state(space, -1.5).amplitudes
        expected = np.sqrt(3) * basis_state(space, -0.5).amplitudes
        np.testing.assert_allclose(column, expected, atol=1e-15)

    def test_spin_half_raising_single_element(self):
        space = build_spin_space(1)
        raising = ladder_operator(space, +1)
        np.testing.assert_allclose(raising, [[0, 1], [0, 0]], atol=0)

    def test_ladder_adjoint_pair(self):
        for num in (1, 3, 8):
            space = build_spin_space(num)
            raising = ladder_operator(space, +1)
            lowering = ladder_operator(space, -1)
            np.testing.assert_allclose(raising.conj().T, lowering, atol=1e-12)

    def test_each_call_builds_its_own_read_only_matrix(self):
        # no cache: two calls give two arrays, each the band combination of
        # its unit axis bit for bit
        space = build_spin_space(7)
        for axis in (1, 2, 3):
            first, second = stokes_operator(space, axis), stokes_operator(space, axis)
            assert first.space == space
            assert first.matrix is not second.matrix
            assert not np.shares_memory(first.matrix, second.matrix)
            for matrix in (first.matrix, second.matrix):
                _assert_bitwise(matrix, _stokes_combination(space, np.eye(3)[axis - 1]))
        for axis in (0, 1, 2, 3):
            matrix = stokes_operator(space, axis).matrix
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        for sign in (+1, -1):
            assert not ladder_operator(space, sign).flags.writeable

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            stokes_operator(build_spin_space(2), 4)
        with pytest.raises(ValueError):
            ladder_operator(build_spin_space(2), 0)

    def test_float_stokes_axis_rejected(self):
        # 1.0 in (0, 1, 2, 3) holds, and an index 1.0 raised a bare IndexError
        space = build_spin_space(2)
        with pytest.raises(ValueError, match=r"^Stokes axis must be 0, 1, 2 or 3, got 1\.0$"):
            stokes_operator(space, 1.0)
        _assert_bitwise(stokes_operator(space, np.int64(2)).matrix, stokes_operator(space, 2).matrix)

    def test_bool_stokes_axis_rejected(self):
        # True == 1, so True in (0, 1, 2, 3) holds and gave S1
        with pytest.raises(ValueError, match=r"^Stokes axis must be 0, 1, 2 or 3, got True$"):
            stokes_operator(build_spin_space(2), True)

    def test_bool_ladder_sign_rejected(self):
        # True == 1, so a bool sign gave S+
        with pytest.raises(ValueError, match=r"^ladder sign must be \+1 or -1, got True$"):
            ladder_operator(build_spin_space(2), True)

    def test_float_ladder_sign_rejected(self):
        # 1.0 in (+1, -1) holds, and a float sign gave S+
        space = build_spin_space(2)
        with pytest.raises(ValueError, match=r"^ladder sign must be \+1 or -1, got 1\.0$"):
            ladder_operator(space, 1.0)
        np.testing.assert_array_equal(ladder_operator(space, np.int8(-1)), ladder_operator(space, -1))


def _dense_ladder_oracle(num_photons):
    """(S+, S0, S1, S2, S3) from a dense S+ matrix, the original construction."""
    space = build_spin_space(num_photons)
    dim = space.dimension
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):          # |s,n+1> sits one index above |s,n>
        n = space.n_values[k]
        sp[k - 1, k] = np.sqrt((space.spin - n) * (space.spin + n + 1))
    sm = sp.conj().T
    s0 = space.spin * np.eye(space.dimension, dtype=complex)
    s1 = np.diag(space.n_values).astype(complex)
    s2 = (sp + sm) / 2
    s3 = (sp - sm) / 2j
    return sp, s0, s1, s2, s3


def _dense_band_oracle(num_photons):
    """(flat, S1, S2, S3 entries), copied out of the dense oracle."""
    dim = num_photons + 1
    diagonal = np.arange(dim) * (dim + 1)
    flat = np.concatenate([diagonal, diagonal[:-1] + 1, diagonal[:-1] + dim])
    _, _, s1, s2, s3 = _dense_ladder_oracle(num_photons)
    return (flat, *(m.ravel()[flat] for m in (s1, s2, s3)))


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    bits = (np.ascontiguousarray(a).view(np.uint64) for a in (actual, expected))
    np.testing.assert_array_equal(*bits)


class TestBandIsTheSource:
    """Every Stokes array derived from the ladder band equals the dense
    construction bit for bit, signed zeros included."""

    SIZES = (0, 1, 2, 3, 8, 32, 128, 512)

    @pytest.mark.parametrize("num_photons", SIZES)
    def test_band_entries(self, num_photons):
        for actual, expected in zip(
            _stokes_band(num_photons), _dense_band_oracle(num_photons), strict=True
        ):
            _assert_bitwise(actual, expected)

    @pytest.mark.parametrize("num_photons", SIZES)
    def test_dense_matrices(self, num_photons):
        # S1..S3 are the band combinations of the unit axes
        space = build_spin_space(num_photons)
        _, _, *expected = _dense_ladder_oracle(num_photons)
        for axis, oracle in zip(np.eye(3), expected, strict=True):
            _assert_bitwise(_stokes_combination(space, axis), oracle)

    @pytest.mark.parametrize("num_photons", SIZES)
    def test_ladder_and_stokes_operators(self, num_photons):
        space = build_spin_space(num_photons)
        sp, *stokes = _dense_ladder_oracle(num_photons)
        _assert_bitwise(ladder_operator(space, +1), sp)
        _assert_bitwise(ladder_operator(space, -1), sp.conj().T)
        for axis, oracle in enumerate(stokes):
            _assert_bitwise(stokes_operator(space, axis).matrix, oracle)


class TestS1Image:
    """The O(N) image of the diagonal S1 is the dense product bit for bit,
    signed zeros included, for one state and for a stack."""

    @staticmethod
    def _rows(num_photons, count, rng):
        dim = num_photons + 1
        rows = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        # planted zeros of both signs, in either part and on either sign of n
        rows.real[0::3, ::2] = 0.0
        rows.imag[0::3, 1::2] = -0.0
        rows.real[1::3, 1::3] = -0.0
        rows.imag[1::3] = 0.0
        rows[2::3, ::4] = complex(-0.0, -0.0)
        rows[-1] = np.eye(dim)[num_photons // 2]  # a basis state: all else +0
        return rows

    @pytest.mark.parametrize("num_photons", [1, 2, 3, 8, 31, 64, 128, 255, 512])
    def test_equals_dense_product(self, num_photons):
        space = build_spin_space(num_photons)
        s1 = stokes_operator(space, 1).matrix
        rng = np.random.default_rng(num_photons)
        for count in (1, 7, 300 if num_photons <= 64 else 3):
            rows = self._rows(num_photons, count, rng)
            _assert_bitwise(_s1_image(space, rows), np.matvec(s1, rows))
            singles = [(_s1_image(space, row), s1 @ row) for row in rows]
            _assert_bitwise(*map(np.array, zip(*singles)))


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
        with pytest.raises(SpaceMismatchError):
            fidelity(state, basis_state(build_spin_space(3), 1.5))

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

    @pytest.mark.parametrize(
        "num_photons, window", [(1, 1e-12), (8, 1e-12), (31, 1e-12), (512, 2.3465e-10)]
    )
    def test_variance_clamp_window(self, num_photons, window):
        # amplitudes of norm 1 + delta against an image of norm 1 give a
        # variance of 1 - (1 + delta)^2 ~ -2 delta
        def raw_variance(target):
            amps = np.zeros(num_photons + 1, dtype=complex)
            image = amps.copy()
            amps[0], image[0] = 1.0 - target / 2.0, 1.0
            return _image_variance(amps, image)

        assert raw_variance(-0.9 * window) == 0.0
        with pytest.raises(ArithmeticError, match="below the round-off window"):
            raw_variance(-1.1 * window)


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

    @pytest.mark.parametrize(
        "scale, shown",
        [(np.nan, "nan"), (np.inf, "inf"), (complex(np.nan, np.nan), "(nan+nanj)"),
         (complex(0.0, -np.inf), "-infj")],
        ids=["nan", "inf", "nan-nanj", "-infj"],
    )
    def test_non_finite_scale_rejected(self, scale, shown):
        with pytest.raises(ValueError, match=f"^scale must be finite, got {re.escape(shown)}$"):
            hermitian_exponential(stokes_operator(build_spin_space(2), 1), scale)

    @pytest.mark.parametrize("scale", [800.0, complex(800.0, 0.5)], ids=["real", "complex"])
    def test_overflow_raises(self, scale):
        # exp(800) is inf, and the zero entries of V turn it into NaN
        with pytest.raises(ArithmeticError, match="overflowed"):
            hermitian_exponential(stokes_operator(build_spin_space(2), 1), scale)


def _dense_eigenbasis(num_photons):
    """(eigenvalues, V) rebuilt from the cached flip blocks by their layout:
    column c of block b is the eigenvector of the c-th k of its parity, with
    U_b[j, c] / sqrt2 at j and +-U_b[j, c] / sqrt2 at N - j (+ for the even
    block b = 0), and U_b[N/2, c] at the middle for even N."""
    basis = _s2_eigenbasis(num_photons)
    dim, odd = num_photons + 1, num_photons % 2
    pairs = dim // 2
    eigvals, eigvecs = np.empty(dim), np.zeros((dim, dim))
    for b, sign in enumerate((1.0, -1.0)):
        cols = slice(odd if b == 0 else 1 - odd, None, 2)
        size = len(range(dim)[cols])
        block = basis.blocks[b, :size, :size]
        eigvals[cols] = (1j * basis.generator[b, :size, 0]).real
        eigvecs[:pairs, cols] = block[:pairs] / np.sqrt(2.0)
        eigvecs[::-1][:pairs, cols] = sign * block[:pairs] / np.sqrt(2.0)
        if size > pairs:
            eigvecs[pairs, cols] = block[pairs]
    return eigvals, eigvecs


class TestS2Eigenbasis:
    @pytest.mark.parametrize("num_photons", [0, 1, 4, 33])
    def test_diagonalizes_s2(self, num_photons):
        basis = _s2_eigenbasis(num_photons)
        rows = num_photons // 2 + 1
        assert basis.blocks.shape == (2, rows, rows)
        assert basis.blocks.dtype == np.float64
        assert not basis.blocks.flags.writeable
        # each block is orthogonal; the odd one of an even N on its own size
        for b, size in enumerate((rows, rows - (num_photons % 2 == 0))):
            block = basis.blocks[b, :size, :size]
            np.testing.assert_allclose(block.T @ block, np.eye(size), rtol=0, atol=1e-12)
            assert not basis.blocks[b, size:].any() and not basis.blocks[b, :, size:].any()
        eigvals, eigvecs = _dense_eigenbasis(num_photons)
        s2 = stokes_operator(build_spin_space(num_photons), 2).matrix
        np.testing.assert_array_equal(eigvals, np.arange(num_photons + 1) - num_photons / 2)
        np.testing.assert_allclose(
            eigvecs @ np.diag(eigvals) @ eigvecs.T, s2, rtol=0, atol=1e-12
        )

    def test_second_call_hits_cache(self):
        first = _s2_eigenbasis(19)
        hits = _s2_eigenbasis.cache_info().hits
        assert _s2_eigenbasis(19) is first
        assert _s2_eigenbasis.cache_info().hits == hits + 1

    def test_built_without_the_stokes_band(self, monkeypatch):
        # S2 comes from the ladder coefficients, so a coherent state and a
        # rotation at a new N read no Stokes band
        def band(num_photons):
            raise AssertionError("Stokes band read")

        _s2_eigenbasis.cache_clear()
        monkeypatch.setattr(spin_core, "_stokes_band", band)
        state = coherent_state(build_spin_space(45), 0.8, 2.1)
        rotate_about(state, _unit([1.0, -2.0, 0.5]), 0.9)

    @pytest.mark.parametrize("num_photons", [0, 1, 2, 7, 8])
    def test_one_eigh_per_flip_block(self, num_photons, monkeypatch):
        # the flip-even block of size N//2 + 1, then the flip-odd one of size
        # (N+1)//2, which N = 0 does not have; never the whole S2
        sizes, eigh = [], np.linalg.eigh

        def spy(matrix):
            sizes.append(len(matrix))
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        _s2_eigenbasis.__wrapped__(num_photons)
        expected = [num_photons // 2 + 1, (num_photons + 1) // 2]
        assert sizes == (expected[:1] if num_photons == 0 else expected)

    def test_build_peak_memory_is_bounded(self):
        # the two blocks hold 2 * 8 * 257^2 bytes, about 4 (N+1)^2, and one
        # half-size eigh at a time about as much again (measured 1.02 times
        # 8 * 513^2); a dense V of 8 (N+1)^2 bytes peaked at 1.54 times that
        tracemalloc.start()
        try:
            _s2_eigenbasis.__wrapped__(512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * 513**2

    def test_warm_rotations_allocate_no_dense_matrix(self):
        # with the blocks cached, a rotation and a coherent state hold O(N)
        # arrays only: a complex copy of the blocks would take 8 MiB here
        num_photons = 1023
        space = build_spin_space(num_photons)
        state = coherent_state(space, 0.8, 2.1)
        direction = _unit([1.0, -2.0, 0.5])
        rotate_about(state, direction, 0.9)
        tracemalloc.start()
        try:
            rotate_about(state, direction, 0.9)
            coherent_state(space, 1.1, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 16 * (num_photons + 1)

    @pytest.mark.parametrize("num_photons", [0, 1, 2, 3, 10, 11])
    def test_rotations_match_dense_exponential(self, num_photons):
        # both parities of N, and N = 0, whose odd block is all padding
        space = build_spin_space(num_photons)
        rng = np.random.default_rng(500 + num_photons)
        s1, s2, s3 = (stokes_operator(space, axis).matrix for axis in (1, 2, 3))
        for angle in (0.0, -np.pi / 2, 1.3, 2.0 * np.pi + 0.4):
            state = random_state(space, rng)
            expected = hermitian_exponential(HermitianOperator(space, s2), -1j * angle)
            np.testing.assert_allclose(
                spin_core._s2_rotate(space, angle, state.amplitudes),
                expected @ state.amplitudes, rtol=0, atol=1e-13,
            )
            d = _unit(rng.normal(size=3))
            generator = HermitianOperator(space, d[0] * s1 + d[1] * s2 + d[2] * s3)
            np.testing.assert_allclose(
                rotate_about(state, d, angle).amplitudes,
                hermitian_exponential(generator, -1j * angle) @ state.amplitudes,
                rtol=0, atol=1e-13,
            )
            theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            generator = HermitianOperator(space, np.sin(phi) * s2 - np.cos(phi) * s3)
            np.testing.assert_allclose(
                coherent_state(space, theta, phi).amplitudes,
                hermitian_exponential(generator, 1j * theta)[:, 0], rtol=0, atol=1e-13,
            )

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


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


#: directions with signed zeros and basis axes, then random unit vectors;
#: (0, -0.0, 1) is the n1 of the phi = 0 frame
COMBINATION_DIRECTIONS = [
    np.array([0.0, -0.0, 1.0]),
    np.array([-0.0, -1.0, 0.0]),
    np.array([-0.0, 0.0, -1.0]),
    np.array([1.0, 0.0, -0.0]),
    *(sign * row for row in np.eye(3) for sign in (1.0, -1.0)),
    *(_unit(v) for v in np.random.default_rng(23).normal(size=(6, 3))),
]


class TestStokesCombination:
    """d.S built on its band is the dense d0 S1 + d1 S2 + d2 S3, bit for bit."""

    @pytest.mark.parametrize("num_photons", [1, 2, 3, 8, 32, 128, 512])
    def test_product_bitwise_equals_dense(self, num_photons):
        space = build_spin_space(num_photons)
        s1, s2, s3 = (stokes_operator(space, axis).matrix for axis in (1, 2, 3))
        rng = np.random.default_rng(num_photons)
        for d in COMBINATION_DIRECTIONS:
            dense = d[0] * s1 + d[1] * s2 + d[2] * s3
            banded = _stokes_combination(space, d)
            # a sparse vector leaves exact-zero rows, where signed zeros could show
            for amps in (random_state(space, rng).amplitudes, s3[:, 0].copy()):
                np.testing.assert_array_equal(
                    (banded @ amps).view(np.uint64), (dense @ amps).view(np.uint64)
                )

    @pytest.mark.parametrize("num_photons", [0, 1, 5, 64])
    def test_band_entries_equal_dense_and_rest_zero(self, num_photons):
        space = build_spin_space(num_photons)
        s1, s2, s3 = (stokes_operator(space, axis).matrix for axis in (1, 2, 3))
        for d in COMBINATION_DIRECTIONS:
            banded = _stokes_combination(space, d)
            dense = d[0] * s1 + d[1] * s2 + d[2] * s3
            off_band = np.triu(np.ones_like(banded, dtype=bool), 2)
            off_band |= off_band.T
            assert not banded[off_band].any()
            np.testing.assert_array_equal(banded[~off_band], dense[~off_band])

    def test_band_cached_read_only(self):
        band = _stokes_band(7)
        assert _stokes_band(7) is band
        assert len(band[0]) == 3 * 7 + 1
        assert not any(a.flags.writeable for a in band)

    @pytest.mark.parametrize("num_photons", [0, 1, 3, 32])
    def test_stack_bitwise_equals_single_combinations(self, num_photons):
        space = build_spin_space(num_photons)
        stack = _stokes_combination(space, np.array(COMBINATION_DIRECTIONS))
        assert stack.shape == (len(COMBINATION_DIRECTIONS),) + (num_photons + 1,) * 2
        for d, mat in zip(COMBINATION_DIRECTIONS, stack):
            np.testing.assert_array_equal(
                mat.view(np.uint64), _stokes_combination(space, d).view(np.uint64)
            )


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
        view = frozen[:, :]
        for matrix in (frozen, view):  # read-only input is copied as well
            assert not np.shares_memory(HermitianOperator(space, matrix).matrix, frozen)

    def test_non_hermitian_matrix_rejected(self):
        space = build_spin_space(1)
        with pytest.raises(ValueError):
            HermitianOperator(space, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "nanj"]
    )
    def test_non_finite_matrix_rejected(self, entry):
        # a NaN defect compares false with any bound, so it must fail the check
        space = build_spin_space(2)
        with pytest.raises(ValueError, match=r"not Hermitian \(defect nan\)"):
            HermitianOperator(space, np.diag([entry, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not Hermitian"):
            variance(basis_state(space, 1.0), HermitianOperator(space, np.diag([entry, 0, 0])))

    def test_states_are_immutable(self):
        state = basis_state(build_spin_space(2), 1.0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        op = stokes_operator(build_spin_space(2), 2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0


class TestDenseBound:
    def test_largest_photon_number_accepted(self):
        assert len(_stokes_band(2047)[0]) == 3 * 2047 + 1  # (2047 + 1)^2 = 2^22 entries

    def test_every_dense_matrix_refused_above_the_bound(self, monkeypatch):
        # the S2 eigenbasis must be refused before its eigh, not after it
        def eigh(*args, **kwargs):
            raise AssertionError("eigh reached above the dense bound")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        space = build_spin_space(2048)
        noon = noon_state(2048)
        for build in (
            lambda: _stokes_band(2048),
            lambda: stokes_operator(space, 0),
            lambda: ladder_operator(space, +1),
            lambda: _work_matrix(space),
            lambda: coherent_state(space, 1.0, 0.5),
            lambda: rotate_about(noon, (1.0, 0.0, 0.0), 0.3),
            lambda: rotate(noon, 2, 0.3),
            lambda: qwp_apply(noon),
        ):
            with pytest.raises(ValueError, match="MAX_DENSE_ENTRIES = 4194304"):
                build()


class TestBoundedMemory:
    #: peak RSS of a process that reports once on each N = 1..200; numpy alone
    #: takes about 30 MB, and caches keeping every N reached 259 MB
    RSS_BOUND_MB = 128

    def test_report_loop_stays_under_rss_bound(self):
        # VmHWM is the peak of the child's own address space; its ru_maxrss
        # would also count the test process it was spawned from, because
        # Linux carries the peak of the pre-exec image across exec
        script = (
            "from stokes_squeeze import noon_state, squeezing_report\n"
            "for n in range(1, 201):\n"
            "    squeezing_report(noon_state(n, 0.3))\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
        )
        src = str(Path(spin_core.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert int(proc.stdout) / 1024 < self.RSS_BOUND_MB  # VmHWM is in kB
