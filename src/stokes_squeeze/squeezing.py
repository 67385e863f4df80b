"""Polarization-squeezing and entanglement analysis of a two-mode photon state.

The pipeline is: mean Stokes vector -> orthonormal analysis frame (n1, n2, n3
with n3 along the mean) -> transverse variance ellipse -> extremal variances
V-+ -> derived figures of merit:

    xi^2   = 2 V- / s          squeezing relative to the shot-noise limit s/2
    zeta^2 = (s/|<S>|)^2 xi^2  metrological squeezing; unbounded when <S> = 0
    chi^2  = s / (2 V+) = N/F  entanglement criterion, F = 4 V+ the quantum
                               Fisher information of a pure state

A closed-form route for the triphoton family (amplitudes, ellipse
coefficients, extremal variances) doubles every matrix result and is kept
strictly separate so the two paths cross-validate each other.

The transverse operators n.S and the QFI generator d.S are built on their
three diagonals (`spin_core._stokes_combination`, O(N) with an O(N)
Hermiticity check) and applied by one BLAS matrix-vector product, which keeps
every published value bit for bit as the dense sum gave it.

`squeezing_reports` runs the pipeline on a stack of states on one space,
`amplitudes[B, N+1]`, and `squeezing_report`, `mean_polarization` and
`variance_ellipse` are its one-row case: the same stage functions, given one
state's amplitudes of shape (N+1,) instead of a (rows, N+1) chunk.  The mean
applies each cached S1..S3 to every row in one stacked product, and the
ellipse builds the combinations n1.S, then n2.S over it, for all rows at
once.  Every stacked product and dot is the same BLAS call per row as the
single-state one (`spin_core._apply` and `_vdots`), so each report is bit for
bit what the row alone gives.  The frame and the scalar tail (snap, atan2,
V-+, xi^2, zeta^2, chi^2) stay per row, in the same float expressions.
Stacks go through in chunks of max(1, CHUNK_ENTRIES // (N+1)^2) rows, so a
stacked matrix never exceeds CHUNK_ENTRIES entries, or one matrix from
N = 255 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    PolarizationState,
    SpinSpace,
    _image_variance,
    _real_expectation,
    _amplitude_rows,
    _apply,
    _require_unit_rows,
    _stokes_combination,
    _stokes_matrices,
    _unit_direction,
    _vdots,
)
from .states import triphoton_amplitudes

#: mean-polarization lengths below this count as vanishing (degenerate frame)
DEGENERACY_TOL = 1e-10
#: ellipse anisotropy below this counts as isotropic
ISOTROPY_TOL = 1e-10
#: second moments smaller than this (relative to the ellipse scale) are
#: round-off of an exact zero and are snapped, keeping gamma_opt deterministic
MOMENT_SNAP = 1e-12

#: analysis frame used when the mean polarization vanishes; continues the
#: triphoton family's frame through the NOON point
DEFAULT_FALLBACK_ANGLES = (math.pi / 2, math.pi / 2)

#: complex entries of one stacked (rows, N+1, N+1) matrix: a chunk of a stack
#: holds max(1, CHUNK_ENTRIES // (N+1)^2) states, 4096 at N = 3 and one from
#: N = 255 on, where a report allocates as a single-state one does
CHUNK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class MeanPolarization:
    """Mean Stokes vector, its length, and its transverse radius."""

    components: np.ndarray  # (<S1>, <S2>, <S3>)
    length: float
    transverse_radius: float


@dataclass(frozen=True, eq=False)
class BlochFrame:
    """Right-handed orthonormal triple with n3 along the mean polarization.

    n1 = (0, -sin(phi), cos(phi))
    n2 = (sin(theta), -cos(theta)cos(phi), -cos(theta)sin(phi))
    n3 = (cos(theta), sin(theta)cos(phi), sin(theta)sin(phi))

    `degenerate` marks a vanishing mean, where the angles come from a caller
    fallback instead of the state.
    """

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    theta: float
    phi: float
    degenerate: bool

    def __post_init__(self):
        # Python floats: np.linalg.norm and np.cross on 3-vectors took about
        # 40 us of a 77 us N = 3 report, for the same checks
        n1, n2, n3 = (v.tolist() for v in (self.n1, self.n2, self.n3))
        for v in (n1, n2, n3):
            if not abs(math.hypot(*v) - 1.0) <= 1e-12:
                raise ValueError("frame vectors must be unit length")
        if not max(abs(_dot(n1, n2)), abs(_dot(n2, n3)), abs(_dot(n3, n1))) <= 1e-12:
            raise ValueError("frame vectors must be orthogonal")
        (x1, y1, z1), (x2, y2, z2) = n1, n2
        cross = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
        if not max(abs(c - e) for c, e in zip(cross, n3)) <= 1e-12:
            raise ValueError("frame must be right-handed")


def _dot(u: list[float], v: list[float]) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@dataclass(frozen=True)
class VarianceEllipse:
    """Transverse variance (Delta S_gamma)^2 = [C + A cos(2g) + B sin(2g)] / 2.

    gamma_opt = [pi + atan2(B, A)] / 2 minimizes the variance; the variance is
    pi-periodic in gamma, so gamma_opt is one representative of the minimizing
    class.  `isotropic` marks sqrt(A^2+B^2) below ISOTROPY_TOL, where
    gamma_opt is reported as 0 by convention.
    """

    A: float
    B: float
    C: float
    gamma_opt: float
    isotropic: bool

    def __post_init__(self):
        if self.C < math.hypot(self.A, self.B) - 1e-12:
            raise ValueError("ellipse admits a negative variance")


@dataclass(frozen=True, eq=False)
class SqueezingReport:
    """Every squeezing and entanglement figure of merit for one state."""

    mean: MeanPolarization
    frame: BlochFrame
    ellipse: VarianceEllipse
    v_minus: float
    v_plus: float
    xi2: float
    zeta2: float | None
    zeta2_unbounded: bool
    chi2: float
    qfi: float
    snl: float


def mean_polarization(state: PolarizationState) -> MeanPolarization:
    """Mean Stokes vector (<S1>, <S2>, <S3>) with length and transverse radius."""
    return _mean_polarizations(state.space, state.amplitudes)[0]


def _mean_polarizations(space: SpinSpace, amps: np.ndarray) -> list[MeanPolarization]:
    """`mean_polarization` of one state, `amps` of shape (N+1,), or of each
    row of a (B, N+1) stack, as a list."""
    # one cached matrix at a time, applied to every row; the three are never
    # stacked into one array
    stokes = _stokes_matrices(space.num_photons)
    raw = np.array([_vdots(amps, _apply(s, amps)) for s in stokes]).T
    comps = np.ascontiguousarray(_real_expectation(raw))
    lengths = np.sqrt(_vdots(comps, comps))
    over = lengths > space.spin + 1e-12
    if np.count_nonzero(over):
        raise ArithmeticError(
            f"mean polarization length {np.extract(over, lengths)[0]} exceeds the spin "
            f"{space.spin}"
        )
    radii = np.hypot(comps[..., 1], comps[..., 2])
    comps.setflags(write=False)
    rows = _per_row(lengths.tolist(), radii.tolist(), comps)
    return [MeanPolarization(row, length, radius) for length, radius, row in rows]


def _per_row(first, *rest):
    """Per-state tuples of values: one tuple when `first` is one state's
    scalar, else the rows of a stack's columns."""
    return zip(first, *rest) if isinstance(first, (list, np.ndarray)) else [(first, *rest)]


def _frame_from_angles(theta: float, phi: float, degenerate: bool) -> BlochFrame:
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    n1 = np.array([0.0, -sin_p, cos_p])
    n2 = np.array([sin_t, -cos_t * cos_p, -cos_t * sin_p])
    n3 = np.array([cos_t, sin_t * cos_p, sin_t * sin_p])
    for v in (n1, n2, n3):
        v.setflags(write=False)
    return BlochFrame(n1, n2, n3, theta, phi, degenerate)


def bloch_frame(
    mean: MeanPolarization, fallback: tuple[float, float] | None = None
) -> BlochFrame:
    """Analysis frame for a mean polarization.

    theta comes from atan2(r, <S1>) and phi from atan2(<S3>, <S2>).  A mean
    along the +-S1 pole (r ~ 0) fixes phi = 0 by convention; a vanishing mean
    marks the frame degenerate and uses the fallback angles, by default
    (pi/2, pi/2).
    """
    if mean.length <= DEGENERACY_TOL:
        theta, phi = fallback if fallback is not None else DEFAULT_FALLBACK_ANGLES
        return _frame_from_angles(theta, phi, degenerate=True)
    s1 = mean.components[0]
    if mean.transverse_radius <= DEGENERACY_TOL:
        return _frame_from_angles(0.0 if s1 > 0 else math.pi, 0.0, degenerate=False)
    theta = math.atan2(mean.transverse_radius, s1)
    phi = math.atan2(mean.components[2], mean.components[1])
    return _frame_from_angles(theta, phi, degenerate=False)


def variance_ellipse(state: PolarizationState, frame: BlochFrame) -> VarianceEllipse:
    """Second moments of the transverse Stokes operators S_n1 and S_n2.

    A = <S_n1^2 - S_n2^2>, B = <S_n1 S_n2 + S_n2 S_n1>, C = <S_n1^2 + S_n2^2>.
    """
    return _variance_ellipses(state.space, state.amplitudes, [frame])[0]


def _variance_ellipses(space: SpinSpace, amps: np.ndarray, frames) -> list[VarianceEllipse]:
    """`variance_ellipse` of one state, `amps` of shape (N+1,), or of each row
    of a (B, N+1) stack, row i in frames[i], as a list."""
    if amps.ndim == 1:
        n1, n2 = frames[0].n1, frames[0].n2
    else:
        n1, n2 = np.array([frame.n1 for frame in frames]), np.array([frame.n2 for frame in frames])
    # one matrix (or stack) alive at a time, n2.S written over n1.S: at
    # N = 512 a second 4 MB buffer is mapped fresh and page-faulted on every
    # call, which more than doubles the cost
    mats = _stokes_combination(space, n1)
    image1 = _apply(mats, amps)
    image2 = _apply(_stokes_combination(space, n2, out=mats), amps)
    sq1 = _vdots(image1, image1).real
    sq2 = _vdots(image2, image2).real
    moments = _per_row(sq1 - sq2, 2.0 * _vdots(image1, image2).real, sq1 + sq2)
    return [_ellipse_from_moments(a, b, c) for a, b, c in moments]


def _ellipse_from_moments(a: float, b: float, c: float) -> VarianceEllipse:
    # exact-zero moments survive as +-1e-16 noise; snap them so atan2 picks a
    # deterministic branch (the family's B = 0, A < 0 must give gamma_opt = pi)
    snap = MOMENT_SNAP * max(1.0, c)
    if abs(a) < snap:
        a = 0.0
    if abs(b) < snap:
        b = 0.0
    if math.hypot(a, b) < ISOTROPY_TOL:
        return VarianceEllipse(a, b, c, gamma_opt=0.0, isotropic=True)
    return VarianceEllipse(
        a, b, c, gamma_opt=(math.pi + math.atan2(b, a)) / 2.0, isotropic=False
    )


def extremal_variances(ellipse: VarianceEllipse) -> tuple[float, float]:
    """(V-, V+) = ([C -+ sqrt(A^2+B^2)] / 2), V- clamped at zero round-off."""
    spread = math.hypot(ellipse.A, ellipse.B)
    v_minus = (ellipse.C - spread) / 2.0
    v_plus = (ellipse.C + spread) / 2.0
    if v_minus < 0.0:
        if v_minus < -1e-12:
            raise ArithmeticError(f"negative extremal variance {v_minus:.3e}")
        v_minus = 0.0
    return v_minus, v_plus


def squeezing_report(
    state: PolarizationState, fallback_frame: tuple[float, float] | None = None
) -> SqueezingReport:
    """Full analysis pipeline: mean -> frame -> ellipse -> V-+ -> figures of merit."""
    return _reports(state.space, [state.amplitudes], fallback_frame)[0]


def squeezing_reports(
    space: SpinSpace, amplitudes, fallback_frame: tuple[float, float] | None = None
) -> list[SqueezingReport]:
    """`squeezing_report` of every row of a (B, N+1) stack of states on `space`.

    Each row must be a unit amplitude vector, within NORM_TOL as
    PolarizationState requires.  Report i is bit for bit the report of row i
    alone, for any B.
    """
    amps = _amplitude_rows(space, amplitudes)
    _require_unit_rows(amps)
    rows = max(1, CHUNK_ENTRIES // space.dimension**2)
    return _reports(space, [amps[i : i + rows] for i in range(0, len(amps), rows)], fallback_frame)


def _reports(space: SpinSpace, chunks, fallback_frame) -> list[SqueezingReport]:
    """Reports of each chunk in turn: one state's amplitudes, shape (N+1,), or
    a (rows, N+1) stack of them."""
    spin = space.spin
    if spin == 0:
        raise ValueError("squeezing analysis needs at least one photon")
    reports = []
    for amps in chunks:
        means = _mean_polarizations(space, amps)
        frames = [bloch_frame(mean, fallback_frame) for mean in means]
        ellipses = _variance_ellipses(space, amps, frames)
        reports.extend(map(_report, [spin] * len(means), means, frames, ellipses))
    return reports


def _report(
    spin: float, mean: MeanPolarization, frame: BlochFrame, ellipse: VarianceEllipse
) -> SqueezingReport:
    """Figures of merit of one state from its mean, frame and ellipse."""
    v_minus, v_plus = extremal_variances(ellipse)
    xi2 = 2.0 * v_minus / spin
    if mean.length > DEGENERACY_TOL:
        zeta2 = (spin / mean.length) ** 2 * xi2
        unbounded = False
    else:
        zeta2 = None
        unbounded = True
    return SqueezingReport(
        mean=mean,
        frame=frame,
        ellipse=ellipse,
        v_minus=v_minus,
        v_plus=v_plus,
        xi2=xi2,
        zeta2=zeta2,
        zeta2_unbounded=unbounded,
        chi2=spin / (2.0 * v_plus),
        qfi=4.0 * v_plus,
        snl=spin / 2.0,
    )


def qfi_pure(state: PolarizationState, direction) -> float:
    """Quantum Fisher information 4 (Delta d.S)^2 of a pure state.

    `direction` must be a unit 3-vector on the Poincare sphere.
    """
    generator = _stokes_combination(state.space, _unit_direction(direction))
    return 4.0 * _image_variance(state.amplitudes, generator @ state.amplitudes)


def decibels(value: float) -> float | None:
    """10 log10(value) for positive values, None otherwise."""
    if value is None or value <= 0.0:
        return None
    return 10.0 * math.log10(value)


# ---------------------------------------------------------------------------
# closed-form route for the triphoton family (independent of the matrices)
# ---------------------------------------------------------------------------


def analytic_mean_s3(t_ratio: float) -> float:
    """Closed-form <S3> = 2 c2 (sqrt(3) c3 + c2) of the triphoton family.

    Positive below T = sqrt(3), zero there, negative above: the mean
    polarization flips exactly when the family reaches the NOON state.
    """
    c2, c3 = triphoton_amplitudes(t_ratio)
    return 2.0 * c2 * (math.sqrt(3.0) * c3 + c2)


def analytic_ellipse(t_ratio: float) -> VarianceEllipse:
    """Closed-form variance ellipse of the triphoton family (B = 0).

    In the family frame (theta = phi = pi/2, so S_n1 = -S2 and S_n2 = S1):
        A = 15/8 - [3 (9 c3^2 + c2^2) + 8 sqrt(3) c2 c3] / 4
        C = 15/8 + [9 c3^2 + c2^2 - 8 sqrt(3) c2 c3] / 4
    """
    c2, c3 = triphoton_amplitudes(t_ratio)
    quad = 9.0 * c3**2 + c2**2
    cross = 8.0 * math.sqrt(3.0) * c2 * c3
    a = 15.0 / 8.0 - (3.0 * quad + cross) / 4.0
    c = 15.0 / 8.0 + (quad - cross) / 4.0
    if abs(a) < ISOTROPY_TOL:
        return VarianceEllipse(a, 0.0, c, gamma_opt=0.0, isotropic=True)
    return VarianceEllipse(
        a, 0.0, c, gamma_opt=(math.pi + math.atan2(0.0, a)) / 2.0, isotropic=False
    )


def analytic_variances(t_ratio: float) -> tuple[float, float]:
    """Closed-form extremal variances of the triphoton family.

    V- = [15/2 - (9 c3^2 + c2^2 + 8 sqrt(3) c2 c3)] / 4
    V+ = (9 c3^2 + c2^2) / 2
    """
    c2, c3 = triphoton_amplitudes(t_ratio)
    quad = 9.0 * c3**2 + c2**2
    v_minus = (7.5 - (quad + 8.0 * math.sqrt(3.0) * c2 * c3)) / 4.0
    v_plus = quad / 2.0
    return v_minus, v_plus
