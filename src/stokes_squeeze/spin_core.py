"""Spin-s Hilbert space and Stokes-operator matrices for two-mode photon states.

N photons shared by a horizontal and a vertical polarization mode map onto a
spin s = N/2.  The basis |s,n> = |s+n, s-n>_HV diagonalizes the population
imbalance S1 and is ordered by descending n, so index 0 is |N,0>_HV and the
last index is |0,N>_HV.  Every value is immutable after construction.

Every Stokes and ladder array derives from the N ladder coefficients c =
sqrt((s-n)(s+n+1)) of S+: `_stokes_band` computes the 3N+1 band entries of
S1, S2 and S3 from c.  Each call of `stokes_operator` builds one dense S0..S3
in a `HermitianOperator`, the one dense operator type, and each call of
`ladder_operator` one read-only S+-; only `verify` and the tests read them.
Size-keyed caches keep at most CACHED_SIZES entries each.  A dense matrix on
the space (S0..S3, S+-, n.S and the S2 eigenbasis below) is
refused with a ValueError above MAX_DENSE_ENTRIES = 2^22 entries, that is
from N = 2048 on, before it is made.  `SpinSpace` itself refuses more than
MAX_PHOTONS = 2^20 photons, so no O(N) array is made for a huge N either.

SU(2) rotations, the wave plate and coherent states never exponentiate a
dense generator.  S1 is diagonal, so exp(-i x S1) is a vector of phases, and
exp(-i x S2) = V diag(e^{-i x (k - s)}) V^T comes from the real tridiagonal
S2 (c/2 off the diagonal), which the flip k -> N - k splits into two blocks
of half the size: one `eigh` per block and photon number, cached and
validated when it is first built.  The two orthogonal blocks U_b are kept as
they are, one real (2, p, p) stack with p = N//2 + 1, and V is never formed:
V^T a is the fold (a_j +- a_{N-j}) / sqrt2 followed by U_b^T, and V y is U_b
followed by the unfold, each one batched real product over both blocks.  A
factor costs about (N+1)^2 / 2 real multiply-adds per side, half of what
the dense V took, and the cache keeps about 4 (N+1)^2 bytes per N.
`hermitian_exponential` stays as the dense route the tests compare against.

A combination d.S = d1 S1 + d2 S2 + d3 S3 lives on three diagonals: S1 on the
main one, S2 and S3 on the first off-diagonals.  `_stokes_combination`
(S1..S3 are its unit-axis combinations) writes those 3N+1 entries into a
fresh zero matrix with the same elementwise arithmetic as the dense sum; a
real d makes it Hermitian by construction.  The moment kernel makes every
product of a squeezing report, in two shape-generic helpers: `_mean_of`
gives <S1..S3> and `_moments_of` the second moments (A, B, C) of n1.S and
n2.S, whose two images come from one combination with the pair (n1, n2);
`_direction_variance` gives the variance of one d.S for the QFI.  From N = 4
on (`_banded`) they combine the images S1 a, S2 a and S3 a, which
`_band_images` makes in O(N), and no (N+1)^2 array is made; one state's
mean, ellipse and QFI share its three images through `_report_images`.  Up
to N = 3, S2 and S3 (for the mean) and n.S are dense matrices applied by
BLAS, which fuses multiply-adds and so rounds otherwise than the images:
every published sweep, state and NOON output is made at N = 3 and keeps its
bits.

One state goes through the helpers once, as its (N+1,) amplitudes.  A stack
of states on one space, rows of amplitudes of shape (B, N+1), goes through
them once per chunk of `_chunks` (`_mean_moments`, `_transverse_moments`),
so the kernel's memory is bounded by one chunk whatever the number of rows.
numpy's gufuncs make one BLAS call per row with the arguments a single
state's call uses: `np.matvec` is the `zgemv` of `mat @ amps`, `np.vecdot`
the `zdotc` of `np.vdot`, and two real `vecdot`s are the `ddot`s of
`np.linalg.norm`, so every row's value is the one-state value bit for bit.
`einsum` and `sum` reduce in another order and are not used there.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

#: absolute tolerances separating round-off from genuine defects
HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
IMAG_TOL = 1e-12
VARIANCE_CLAMP = 1e-12
#: c eps of the variance clamp window max(VARIANCE_CLAMP, c eps (s+1)^2);
#: c = 16 keeps the window at VARIANCE_CLAMP up to N = 31
VARIANCE_ROUNDOFF = 16 * np.finfo(float).eps
#: entries each size-keyed cache keeps (photon numbers, or grid sizes in
#: `husimi`); 16 covers N = 0..12 and three large sizes without eviction
CACHED_SIZES = 16
#: most photons of a `SpinSpace`, so a state holds at most 16 MB; every route
#: stops below it (reports at N = 2047, Husimi maps at 5824 on 360 columns)
MAX_PHOTONS = 2**20
#: most entries of one dense (N+1) x (N+1) Stokes matrix, so N <= 2047; a
#: report is refused above it too, through `_stokes_band`, though it holds no
#: dense matrix from N = 4 on (`noon --N 2047` peaks at about 31 MB resident)
MAX_DENSE_ENTRIES = 2**22
#: complex entries of one chunk of a stack in the moment kernel: a chunk
#: holds CHUNK_ENTRIES // (N+1) rows of band images from N = 4 on (32 at
#: N = 2047), and CHUNK_ENTRIES // (N+1)^2 rows of dense matrices up to N = 3
#: (4096 at N = 3, where the ellipse takes two such blocks, n1.S and n2.S)
CHUNK_ENTRIES = 2**16


class SpaceMismatchError(ValueError):
    """A state and an operator were combined across different spin spaces."""


def _require_finite(**values) -> None:
    """Raise a ValueError naming the first argument that is not a finite number."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_ratio(t_ratio) -> None:
    """Raise unless T >= 0: NaN fails, +inf (the T -> infinity limit) passes."""
    if not t_ratio >= 0:
        raise ValueError(f"transmissivity ratio must be >= 0, got {t_ratio}")


def _require_choice(value, allowed: tuple, rule: str) -> None:
    """Raise a ValueError "<rule>, got <value>" unless `value` is an integer
    in `allowed`; a bool, a float and a numpy bool are refused."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value not in allowed:
        raise ValueError(f"{rule}, got {value!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinSpace:
    """The (N+1)-dimensional Hilbert space of N photons in two modes."""

    num_photons: int

    def __post_init__(self):
        object.__setattr__(self, "num_photons", operator.index(self.num_photons))
        if self.num_photons < 0:
            raise ValueError(f"photon number must be >= 0, got {self.num_photons}")
        if self.num_photons > MAX_PHOTONS:
            raise ValueError(f"N = {self.num_photons} exceeds MAX_PHOTONS = {MAX_PHOTONS}")

    @property
    def spin(self) -> float:
        return self.num_photons / 2

    @property
    def dimension(self) -> int:
        return self.num_photons + 1

    @functools.cached_property
    def n_values(self) -> np.ndarray:
        """Imbalance eigenvalues n in basis order, descending s..-s."""
        return _readonly(self.spin - np.arange(self.dimension))

    def index_of(self, n: float) -> int:
        """Basis index of |s,n>."""
        _require_finite(n=n)
        k = self.spin - n
        if abs(k - round(k)) > 1e-9 or not 0 <= round(k) < self.dimension:
            raise ValueError(f"n={n} is not an eigenvalue for spin s={self.spin}")
        return int(round(k))

    def basis_label(self, index: int) -> str:
        """Photon-number label |m,n>_HV of basis state `index` (m H-, n V-photons)."""
        if not 0 <= index < self.dimension:
            raise ValueError(f"basis index {index} out of range")
        return f"|{self.num_photons - index},{index}>_HV"


def build_spin_space(num_photons) -> SpinSpace:
    """Spin space for a fixed photon number; s = N/2, dimension N+1."""
    return SpinSpace(num_photons)


@dataclass(frozen=True, eq=False)
class PolarizationState:
    """Normalized amplitude vector over the |s,n> basis of `space`."""

    space: SpinSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.space.dimension},)"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _readonly(amps))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of a complex (B, N+1) stack, bit for bit:
    sqrt(re.re + im.im), with the same two BLAS dots per row."""
    re, im = rows.real, rows.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _s1_image(space: SpinSpace, amps: np.ndarray) -> np.ndarray:
    """`S1 @ amps` for one state or a stack, bit for bit, in O(N) per row.

    S1 is diagonal, so each entry of the product has one nonzero term, n a,
    which BLAS rounds once as numpy does; + 0.0 turns a -0 entry into the +0
    that `zgemv` sums it to.
    """
    return space.n_values * amps + 0.0


def _normalized_rows(space: SpinSpace, rows) -> np.ndarray:
    """Normalize a (B, N+1) stack of raw amplitude rows, read-only.

    Each row is divided by its norm and checked as `normalized_state` and
    `PolarizationState` do it, with the same values and messages; the result
    is a stack of valid states' amplitudes.
    """
    rows = _amplitude_rows(space, rows)
    norms = _row_norms(rows)
    if not norms.all():
        raise ValueError("cannot normalize a zero amplitude vector")
    unit = rows / norms[:, None]
    _require_unit_rows(unit)
    return _readonly(unit)


def _amplitude_rows(space: SpinSpace, rows) -> np.ndarray:
    """`rows` as a complex (B, N+1) array; any other shape is refused."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != space.dimension:
        raise ValueError(
            f"amplitude rows have shape {rows.shape}, expected (B, {space.dimension})"
        )
    return rows


def _require_unit_rows(rows: np.ndarray) -> None:
    """Raise as `PolarizationState` does unless every row has norm 1 within NORM_TOL."""
    norms = _row_norms(rows)
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)  # also flags a NaN norm
    if off.any():
        norm = norms[off][0]
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")


def normalized_state(space: SpinSpace, amplitudes) -> PolarizationState:
    """Normalize a raw amplitude vector and wrap it as a PolarizationState."""
    amps = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero amplitude vector")
    return PolarizationState(space, amps / norm)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense complex (N+1, N+1) matrix on `space`, Hermitian within
    HERMITICITY_TOL; it keeps its own read-only copy of `matrix`."""

    space: SpinSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        dim = self.space.dimension
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {dim}")
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN defect
            defect = np.abs(mat - mat.conj().T).max()
        if not defect <= HERMITICITY_TOL:  # also rejects NaN and inf entries
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        object.__setattr__(self, "matrix", _readonly(mat))


def _dense_dimension(num_photons: int) -> int:
    """N + 1, the side of a dense matrix on the spin-N/2 space, checked against
    MAX_DENSE_ENTRIES before any such matrix is made."""
    dim = num_photons + 1
    if dim * dim > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"N = {num_photons} needs dense {dim} x {dim} Stokes matrices, above the bound "
            f"MAX_DENSE_ENTRIES = {MAX_DENSE_ENTRIES} entries"
        )
    return dim


def _ladder_coefficients(space: SpinSpace) -> np.ndarray:
    """c = sqrt((s-n)(s+n+1)) of S+|s,n> = c |s,n+1>, for n = s-1 down to -s.

    Entry k - 1 belongs to the basis pair (k - 1, k): |s,n+1> sits one index
    above |s,n>.  Every Stokes and ladder array is built from these N numbers.
    """
    n = space.n_values[1:]
    return np.sqrt((space.spin - n) * (space.spin + n + 1))


@functools.lru_cache(maxsize=CACHED_SIZES)
def _stokes_band(num_photons: int) -> tuple[np.ndarray, ...]:
    """(flat indices, S1, S2, S3 entries) on the three diagonals.

    Flat indices point into the (N+1)^2 matrix and come in three runs: the
    main diagonal (N+1 entries), then the upper and the lower diagonal (N
    each).  S1 holds n, S2 = (S+ + S-)/2 holds c/2 and S3 = (S+ - S-)/(2i)
    holds +-c/(2i), each as the dense (S+ +- S-) arithmetic evaluates it
    there, signed zeros included.  Every array is read-only.  A photon
    number whose matrices would exceed MAX_DENSE_ENTRIES is refused here.
    """
    space = SpinSpace(num_photons)
    dim = _dense_dimension(num_photons)
    diagonal = np.arange(dim) * (dim + 1)
    flat = np.concatenate([diagonal, diagonal[:-1] + 1, diagonal[:-1] + dim])
    cc = _ladder_coefficients(space).astype(complex)
    zeros = np.zeros(dim, dtype=complex)
    s1 = np.concatenate([space.n_values.astype(complex), zeros[1:], zeros[1:]])
    s2 = np.concatenate([zeros, cc / 2, cc / 2])
    s3 = np.concatenate([zeros, cc / 2j, (0 - cc.conj()) / 2j])
    return tuple(_readonly(a) for a in (flat, s1, s2, s3))


def _combination(d, parts) -> np.ndarray:
    """d1 parts[0] + d2 parts[1] + d3 parts[2]: the band of d.S from the bands
    of S1..S3, or d.S a from the images S1 a .. S3 a.  d is one direction,
    shape (3,), one per row of a stack, (B, 3), a pair (n1, n2), (2, 3), or a
    pair per row, (B, 2, 3); a pair gives its two combinations first."""
    # d's axes reversed: (1,) coefficients for one direction, (B, 1) columns
    # for a stack, and a leading pair axis before them
    d1, d2, d3 = np.asarray(d).T[..., None]
    return d1 * parts[0] + d2 * parts[1] + d3 * parts[2]


def _stokes_combination(space: SpinSpace, d) -> np.ndarray:
    """Dense matrix of d[0] S1 + d[1] S2 + d[2] S3, built on its three diagonals.

    `d` is one real direction, shape (3,), or a stack of them as
    `_combination` takes it, which gives a stack of matrices: (B, N+1, N+1)
    for B directions, (2, B, N+1, N+1) for B pairs.
    Every band entry is the same expression, in the same operand order, as in
    the dense sum, so it is bitwise equal to it; entries off the band are +0.
    A real d gives a Hermitian matrix by construction.
    """
    flat, *bands = _stokes_band(space.num_photons)
    band = _combination(d, bands)
    dim = space.dimension
    stack = band.shape[:-1]
    mat = np.zeros(stack + (dim, dim), dtype=complex)
    mat.reshape(stack + (dim * dim,))[..., flat] = band
    return mat


def _banded(space: SpinSpace) -> bool:
    """Whether the moment kernel takes `_band_images` on `space`: from N = 4
    on.  Band images round otherwise than BLAS products (no fused
    multiply-add), and every published sweep, state and NOON output is made
    at N = 3, so N <= 3 keeps the dense route until those are re-recorded."""
    return space.num_photons > 3


def _chunks(space: SpinSpace, count: int) -> list[slice]:
    """The chunks of a stack of `count` rows in the moment kernel, as row
    slices of CHUNK_ENTRIES entries: of band images from N = 4 on, of dense
    matrices up to N = 3."""
    rows = CHUNK_ENTRIES // (space.dimension if _banded(space) else space.dimension**2)
    return [slice(i, i + rows) for i in range(0, count, rows)]


def _band_images(space: SpinSpace, amps: np.ndarray) -> tuple[np.ndarray, ...]:
    """(S1 a, S2 a, S3 a) for one state or a stack, in O(N) per row: S+ a / 2
    and S- a / 2 are the amplitudes shifted by one index, times the c/2 of S2's
    `_stokes_band` (so the dense bound holds here too); S2 a is their sum and
    S3 a = i (S- a - S+ a) / 2."""
    dim = space.dimension
    half = _stokes_band(space.num_photons)[2][dim : 2 * dim - 1]
    up, down = np.zeros_like(amps), np.zeros_like(amps)
    up[..., :-1] = half * amps[..., 1:]
    down[..., 1:] = half * amps[..., :-1]
    return _s1_image(space, amps), up + down, (down - up) * 1j


@functools.lru_cache(maxsize=1)
def _report_images(state: PolarizationState) -> tuple[np.ndarray, ...] | None:
    """`_band_images` of one state from N = 4 on, as three read-only (N+1,)
    arrays, None below: the mean, the ellipse and the QFI of a state read them
    here, so a report makes them once.  Only the last state's are kept."""
    if not _banded(state.space):
        return None
    return tuple(_readonly(image) for image in _band_images(state.space, state.amplitudes))


def _mean_of(space: SpinSpace, amps: np.ndarray, images=None) -> np.ndarray:
    """(<S1>, <S2>, <S3>) of one state, amplitudes (N+1,), as a (3,) array, or
    of each row of a (b, N+1) chunk, as a (b, 3) array; every imaginary part
    must round off.  From N = 4 on it reads the band `images` if given, or
    makes them."""
    if _banded(space):
        parts = images or _band_images(space, amps)
    else:
        # the diagonal S1 by its O(N) image; S2, then S3 over it, by their
        # bands written into one zero matrix
        flat, _, b2, b3 = _stokes_band(space.num_photons)
        work = np.zeros((space.dimension, space.dimension), dtype=complex)
        np.put(work, flat, b2)
        image2 = np.matvec(work, amps)
        np.put(work, flat, b3)
        parts = (_s1_image(space, amps), image2, np.matvec(work, amps))
    raw = np.array([np.vecdot(amps, image) for image in parts]).T
    return _real_expectation(raw)


def _moments_of(space: SpinSpace, amps: np.ndarray, frame, images=None) -> tuple:
    """Raw moments (A, B, C) of one state, amplitudes (N+1,), in the frame
    (n1, n2) of shape (2, 3), or of each row of a (b, N+1) chunk in its own
    frame, (b, 2, 3).  n1.S a and n2.S a come from one combination: from
    N = 4 on of the band images, which are `images` if given; up to N = 3 of
    dense n.S matrices."""
    if _banded(space):
        image1, image2 = _combination(frame, images or _band_images(space, amps))
    else:
        image1, image2 = np.matvec(_stokes_combination(space, frame), amps)
    sq1 = np.vecdot(image1, image1).real
    sq2 = np.vecdot(image2, image2).real
    return sq1 - sq2, 2.0 * np.vecdot(image1, image2).real, sq1 + sq2


def _mean_moments(space: SpinSpace, amps: np.ndarray) -> np.ndarray:
    """`_mean_of` each row of a (B, N+1) stack, as a (B, 3) array, chunk by chunk."""
    means = np.empty((len(amps), 3))
    for rows in _chunks(space, len(amps)):
        means[rows] = _mean_of(space, amps[rows])
    return means


def _transverse_moments(space: SpinSpace, amps: np.ndarray, n1, n2) -> np.ndarray:
    """`_moments_of` each row of a (B, N+1) stack, as the rows of a (3, B)
    array, chunk by chunk; row i in the frame (n1[i], n2[i], ...)."""
    frames = np.stack((n1, n2), axis=1)
    moments = np.empty((3, len(amps)))
    for rows in _chunks(space, len(amps)):
        moments[:, rows] = _moments_of(space, amps[rows], frames[rows])
    return moments


def _direction_variance(state: PolarizationState, direction) -> float:
    """`variance` of d.S for the unit 3-vector d = `direction`, by the band
    images from N = 4 on, by the dense d.S up to N = 3."""
    d = _unit_direction(direction)
    images = _report_images(state)
    if images is None:
        image = _stokes_combination(state.space, d) @ state.amplitudes
    else:
        image = _combination(d, images)
    return _image_variance(state.amplitudes, image)


def stokes_operator(space: SpinSpace, which: int) -> HermitianOperator:
    """Stokes operator S0, S1, S2 or S3 on `space`.

    S1 is diagonal with entries n; S2 = (S+ + S-)/2 and S3 = (S+ - S-)/(2i)
    come from the ladder coefficients; S0 = s * identity.  Each call builds
    its one matrix, S1..S3 as `_stokes_combination` of their unit axis.
    """
    _require_choice(which, (0, 1, 2, 3), "Stokes axis must be 0, 1, 2 or 3")
    if which == 0:
        dim = _dense_dimension(space.num_photons)
        return HermitianOperator(space, space.spin * np.eye(dim, dtype=complex))
    return HermitianOperator(space, _stokes_combination(space, np.eye(3)[which - 1]))


class _FlipBlocks(NamedTuple):
    """The S2 eigenbasis of one photon number on its two flip blocks, with
    every array a rotation reads, all read-only.  p = N//2 + 1; block b = 0
    is the flip-even one and b = 1 the flip-odd one.  A rotation works on the
    (real, imag) float view of the amplitudes, so the fold, the unfold and
    their positions carry a last axis of two equal entries."""

    #: N + 1
    dimension: int
    #: (2, p, p) real orthogonal U_b, the flip-odd block padded by a zero
    #: row and column for even N
    blocks: np.ndarray
    #: the U_b^T, a transposed view of `blocks`
    forward: np.ndarray
    #: (2, p, 1) -i (k - s) of each block column, 0 on the padding
    generator: np.ndarray
    #: (2, 2, p, 2) positions of a_j (first) and a_{N-j} in the float view,
    #: once for each block; j = N - j = N/2 on the middle row for even N
    gather: np.ndarray
    #: (2, 2, p, 2) factors of a_j and a_{N-j} in block b, so that the fold
    #: (a_j +- a_{N-j}) / sqrt2 is their sum: 1/2 on the middle row of the
    #: even block, 0 on the padding
    fold: np.ndarray
    #: (2, 2, p, 2) factors of the even image y_e (first) and the odd y_o at
    #: j and at N - j, so that the unfold (y_e +- y_o) / sqrt2 is their sum:
    #: 1 and 0 on the middle row
    unfold: np.ndarray
    #: (2, p, 2) positions of j and N - j in the float view of the result
    scatter: np.ndarray
    #: (2, p, 1) block coefficients of |s,s>, the first row of V
    first_row: np.ndarray


@functools.lru_cache(maxsize=CACHED_SIZES)
def _s2_eigenbasis(num_photons: int) -> _FlipBlocks:
    """The real orthogonal eigenbasis of S2 on its two flip blocks.

    S2 is real tridiagonal with the symmetric c/2 off the diagonal, so it is
    two blocks on the flip-even (e_j + e_{N-j})/sqrt2, e_{N/2} and flip-odd
    (e_j - e_{N-j})/sqrt2, j < (N+1)//2: c/2 off the diagonal, plus +-c/2 on
    the last entry for odd N, and sqrt2 c/2 to e_{N/2} for even N.  The even
    block (size N//2 + 1) holds k - s for k = N mod 2, the odd one the
    other k, each in ascending order.  Each block's real `eigh` is validated
    once (U^T U = I and eigenvalues k - s, both within HERMITICITY_TOL) and
    kept as it is: V, which holds both blocks and their zeros, is never
    formed.  N >= 2048 is refused.
    """
    dim = _dense_dimension(num_photons)
    half = _ladder_coefficients(SpinSpace(num_photons)) / 2
    pairs, odd, exact = dim // 2, num_photons % 2, np.arange(dim) - num_photons / 2
    rows = num_photons // 2 + 1
    blocks = np.zeros((2, rows, rows))  # the padding stays zero
    generator = np.zeros((2, rows, 1), dtype=complex)
    # the flip-even block, then the flip-odd one, which N = 0 does not have
    for slot, sign, cols in ((0, 1.0, slice(odd, None, 2)), (1, -1.0, slice(1 - odd, None, 2))):
        size = len(exact[cols])
        if not size:
            continue
        off = half[: size - 1].copy()
        if size > pairs > 0:
            off[-1] *= math.sqrt(2.0)  # the last pair's coupling to e_{N/2}
        block = np.zeros((size, size))
        block.flat[1 :: size + 1] = block.flat[size :: size + 1] = off
        if odd:
            block[-1, -1] = sign * half[pairs - 1]  # the last pair is adjacent
        eigvals, vecs = np.linalg.eigh(block)
        # U^T U - I, written over the block, which eigh is done with
        np.matmul(vecs.T, vecs, out=block)
        block.flat[:: size + 1] -= 1.0
        orthogonality = np.abs(block, out=block).max()
        if orthogonality > HERMITICITY_TOL:
            raise ArithmeticError(f"S2 eigenbasis is not orthogonal (defect {orthogonality:.3e})")
        spectrum = np.abs(eigvals - exact[cols]).max()
        if spectrum > HERMITICITY_TOL:
            raise ArithmeticError(f"S2 eigenvalues deviate from k - s by {spectrum:.3e}")
        blocks[slot, :size, :size] = vecs
        generator[slot, :size, 0] = -1j * exact[cols]
        del block, vecs  # before the next block is built
    # positions of j and N - j, and the factors of the fold and the unfold
    lower = np.arange(rows)
    scatter = 2 * np.array([lower, num_photons - lower])[..., None] + np.arange(2)
    root = math.sqrt(0.5)
    fold, unfold = np.full((2, 2, rows, 2), root), np.full((2, 2, rows, 2), root)
    fold[1, 1] = -root  # a_{N-j} in the odd block
    unfold[1, 1] = -root  # y_o at N - j
    if not odd:
        fold[:, 0, -1], fold[:, 1, -1] = 0.5, 0.0
        unfold[0, :, -1], unfold[1, :, -1] = 1.0, 0.0
    arrays = (blocks, blocks.transpose(0, 2, 1), generator)
    arrays += (np.stack([scatter, scatter], axis=1), fold, unfold, scatter)
    basis = _FlipBlocks(dim, *(_readonly(a) for a in arrays), first_row=None)
    first = np.zeros(dim, dtype=complex)
    first[0] = 1.0
    return basis._replace(first_row=_readonly(_s2_coefficients(basis, first)))


def _s2_coefficients(basis: _FlipBlocks, amps: np.ndarray) -> np.ndarray:
    """V^T amps in block order, shape (2, p, 1), for a contiguous complex
    vector: the fold, then one batched real product with the U_b^T."""
    terms = basis.fold * amps.view(np.float64)[basis.gather]
    return np.matmul(basis.forward, terms[0] + terms[1]).view(complex)


def _s2_synthesis(basis: _FlipBlocks, coeffs: np.ndarray) -> np.ndarray:
    """V coeffs for contiguous block coefficients of shape (2, p, 1): one
    batched real product with the U_b, then the unfold."""
    image = np.matmul(basis.blocks, coeffs.view(np.float64))
    terms = basis.unfold * image[:, None]
    amps = np.empty(2 * basis.dimension)
    amps[basis.scatter] = terms[0] + terms[1]
    return amps.view(complex)


def _s1_phases(space: SpinSpace, x: float) -> np.ndarray:
    """Diagonal of exp(-i x S1)."""
    return np.exp(-1j * x * space.n_values)


def _s2_rotate(space: SpinSpace, x: float, amps: np.ndarray) -> np.ndarray:
    """exp(-i x S2) @ amps on the cached flip blocks: the fold, U_b^T, the
    phases e^{-i x (k - s)}, U_b and the unfold, about (N+1)^2 / 2 real
    multiply-adds per product."""
    basis = _s2_eigenbasis(space.num_photons)
    return _s2_synthesis(basis, np.exp(x * basis.generator) * _s2_coefficients(basis, amps))


def ladder_operator(space: SpinSpace, sign: int) -> np.ndarray:
    """Raising (+1) or lowering (-1) matrix S+- = S2 +- i S3, dense and read-only."""
    _require_choice(sign, (+1, -1), "ladder sign must be +1 or -1")
    _dense_dimension(space.num_photons)
    sp = np.diag(_ladder_coefficients(space), k=1).astype(complex)
    return _readonly(sp if sign == +1 else sp.T.conj())


def _unit_direction(direction) -> np.ndarray:
    """`direction` as a float array, which must be a unit 3-vector (not NaN)."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-10:
        raise ValueError("direction must be a unit 3-vector")
    return d


def _require_same_space(state: PolarizationState, op) -> None:
    if state.space != op.space:
        raise SpaceMismatchError(
            f"state on N={state.space.num_photons} photons, operator on "
            f"N={op.space.num_photons}"
        )


def expectation(state: PolarizationState, op: HermitianOperator) -> float:
    """<psi|O|psi> for Hermitian O; the residual imaginary part must round off."""
    _require_same_space(state, op)
    return _real_expectation(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def _real_expectation(raw):
    """Real part of a Hermitian expectation, or of an array of them; every
    imaginary part must round off (the first one that does not is reported)."""
    off = abs(raw.imag) >= IMAG_TOL
    if np.count_nonzero(off):
        imag = np.extract(off, raw.imag)[0]
        raise ArithmeticError(
            f"expectation of a Hermitian operator has imaginary part {imag:.3e}"
        )
    return raw.real


def variance(state: PolarizationState, op: HermitianOperator) -> float:
    """<O^2> - <O>^2, clamped to 0 when within the round-off window below zero.

    The window is max(VARIANCE_CLAMP, VARIANCE_ROUNDOFF (s+1)^2): 1e-12 up to
    N = 31, then growing with the size of the moments it subtracts.

    Values more negative than the clamp window indicate a bug, not round-off,
    and raise ArithmeticError.
    """
    _require_same_space(state, op)
    return _image_variance(state.amplitudes, op.matrix @ state.amplitudes)


def _image_variance(amps: np.ndarray, image: np.ndarray) -> float:
    """`variance` from the amplitudes and their image under the operator."""
    mean = _real_expectation(np.vdot(amps, image))
    var = np.vdot(image, image).real - mean**2
    if var < 0.0:
        # <O^2> and <O>^2 are each ~s^2, so their difference carries a few
        # ulps of s^2 of round-off; (amps.size + 1) / 2 is s + 1
        window = max(VARIANCE_CLAMP, VARIANCE_ROUNDOFF * ((amps.size + 1) / 2) ** 2)
        if var < -window:
            raise ArithmeticError(f"variance {var:.3e} below the round-off window")
        var = 0.0
    return var


def hermitian_exponential(op: HermitianOperator, scale: complex) -> np.ndarray:
    """exp(scale * M) for Hermitian M, via eigendecomposition.

    The scale must be finite, and so must the result: an exponent that
    overflows raises ArithmeticError.  A purely imaginary scale yields a
    unitary, a purely real scale a Hermitian positive-definite matrix; both
    properties are checked post hoc at 1e-12.
    """
    _require_finite(scale=scale)
    scale = complex(scale)
    eigvals, eigvecs = np.linalg.eigh(op.matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        result = (eigvecs * np.exp(scale * eigvals)) @ eigvecs.conj().T
    if not np.isfinite(result).all():
        raise ArithmeticError(f"exponential of scale {scale} overflowed")
    dim = op.space.dimension
    if scale.real == 0.0:
        defect = np.abs(result.conj().T @ result - np.eye(dim)).max()
        if not defect <= HERMITICITY_TOL:
            raise ArithmeticError(f"exponential lost unitarity (defect {defect:.3e})")
    elif scale.imag == 0.0:
        defect = np.abs(result - result.conj().T).max()
        if not defect <= HERMITICITY_TOL:
            raise ArithmeticError(f"exponential lost Hermiticity (defect {defect:.3e})")
    return result
