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

Every operator product comes from the moment kernel of `spin_core`: the
mean from `_mean_moments`, the ellipse from `_transverse_moments` and the QFI
from `_direction_variance`, by O(N) band images from N = 4 on and by BLAS
products with banded Stokes matrices up to N = 3, where every published
output is made.  One state is passed as a one-row stack, and each row's
moments are bit for bit what the row alone gives, in any stack.

One state goes through the four public stages on Python floats:
`squeezing_report` is `mean_polarization` -> `bloch_frame` ->
`variance_ellipse` -> `extremal_variances`, then xi^2, zeta^2, chi^2, the
QFI and the shot-noise limit s/2.  The stages build their objects with the
constructors, so the checks of one state live in the report types: the
frame unit, orthogonal and right-handed within 1e-12 in `BlochFrame`, and
C >= hypot(A, B) - 1e-12 after the moment snap in `VarianceEllipse`.
`extremal_variances` keeps the V- clamp window.

A stack (`squeezing_reports`, and a sweep through `squeezing_columns`) runs
the same pipeline on numpy columns, with the same checks, tolerances and
messages.  Per row it keeps, in `math`, only atan2, sin, cos, hypot and the
square of s/|<S>|, whose numpy versions may differ in the last bit; the
frame vectors, the snap, V-+ with its clamp, xi^2, chi^2 and the QFI are
columns, since + - * / round the same there.  The routes stay apart because
numpy's per-call overhead on a one-row stack costs an N = 3 report two to
three times what the floats cost, and single reports are what large-N work
makes.  `squeezing_reports` builds its report objects with the
constructors as well, so a stack's rows are checked once as columns and
once more by their types; `sweep` reads the columns and builds no objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    PolarizationState,
    SpinSpace,
    _amplitude_rows,
    _direction_variance,
    _mean_moments,
    _readonly,
    _report_images,
    _require_unit_rows,
    _transverse_moments,
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

    `degenerate` marks a vanishing mean, where the angles are
    DEFAULT_FALLBACK_ANGLES instead of the state's.
    """

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    theta: float
    phi: float
    degenerate: bool

    def __post_init__(self):
        _check_frame(*(v.tolist() for v in (self.n1, self.n2, self.n3)))


def _check_frame(n1, n2, n3) -> None:
    """Raise unless the 3-vectors of floats n1, n2, n3 are unit length,
    orthogonal and right-handed, each within 1e-12."""
    for v in (n1, n2, n3):
        if not abs(math.hypot(*v) - 1.0) <= 1e-12:
            raise ValueError("frame vectors must be unit length")
    if not max(abs(_dot(n1, n2)), abs(_dot(n2, n3)), abs(_dot(n3, n1))) <= 1e-12:
        raise ValueError("frame vectors must be orthogonal")
    # n1 x n2 - n3, component by component
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = n1, n2, n3
    defect = max(
        abs(y1 * z2 - z1 * y2 - x3), abs(z1 * x2 - x1 * z2 - y3), abs(x1 * y2 - y1 * x2 - z3)
    )
    if not defect <= 1e-12:
        raise ValueError("frame must be right-handed")


def _dot(u, v) -> float:
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
        _check_ellipse(self.A, self.B, self.C)


def _check_ellipse(a: float, b: float, c: float) -> None:
    if c < math.hypot(a, b) - 1e-12:
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
    images = _report_images(state)
    comps, lengths, radii = _mean_columns(state.space, state.amplitudes[None], images)
    return MeanPolarization(_readonly(comps[0]), lengths.item(), radii.item())


def _mean_columns(space: SpinSpace, amps: np.ndarray, images=None) -> tuple:
    """Components (B, 3), lengths (B,) and transverse radii (B,) of the mean
    polarizations of a (B, N+1) stack, from its band images if given."""
    comps = _mean_moments(space, amps, images)
    lengths = np.sqrt(np.vecdot(comps, comps))
    over = lengths > space.spin + 1e-12
    if np.count_nonzero(over):
        raise ArithmeticError(
            f"mean polarization length {np.extract(over, lengths)[0]} exceeds the spin "
            f"{space.spin}"
        )
    return comps, lengths, np.hypot(comps[:, 1], comps[:, 2])


def _angles(components, length: float, radius: float) -> tuple:
    """The frame angles (theta, phi) of one mean, in floats."""
    if length <= DEGENERACY_TOL:
        return DEFAULT_FALLBACK_ANGLES
    s1, s2, s3 = components
    if radius <= DEGENERACY_TOL:
        return (0.0 if s1 > 0 else math.pi), 0.0
    return math.atan2(radius, s1), math.atan2(s3, s2)


def bloch_frame(mean: MeanPolarization) -> BlochFrame:
    """Analysis frame for a mean polarization.

    theta comes from atan2(r, <S1>) and phi from atan2(<S3>, <S2>).  A mean
    along the +-S1 pole (r ~ 0) fixes phi = 0 by convention; a vanishing mean
    marks the frame degenerate and uses DEFAULT_FALLBACK_ANGLES = (pi/2, pi/2).
    """
    length = mean.length
    theta, phi = _angles(mean.components, length, mean.transverse_radius)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    vectors = (
        (0.0, -sin_p, cos_p),
        (sin_t, -cos_t * cos_p, -cos_t * sin_p),
        (cos_t, sin_t * cos_p, sin_t * sin_p),
    )
    n1, n2, n3 = _readonly(np.array(vectors))
    return BlochFrame(n1, n2, n3, theta, phi, bool(length <= DEGENERACY_TOL))


def variance_ellipse(state: PolarizationState, frame: BlochFrame) -> VarianceEllipse:
    """Second moments of the transverse Stokes operators S_n1 and S_n2.

    A = <S_n1^2 - S_n2^2>, B = <S_n1 S_n2 + S_n2 S_n1>, C = <S_n1^2 + S_n2^2>.
    """
    n1, n2 = np.array([frame.n1]), np.array([frame.n2])
    amps, images = state.amplitudes[None], _report_images(state)
    a, b, c = _transverse_moments(state.space, amps, n1, n2, images)[:, 0].tolist()
    # exact-zero moments survive as +-1e-16 noise; snap them so atan2 picks a
    # deterministic branch (the family's B = 0, A < 0 must give gamma_opt = pi)
    snap = MOMENT_SNAP * max(1.0, c)
    if abs(a) < snap:
        a = 0.0
    if abs(b) < snap:
        b = 0.0
    if math.hypot(a, b) < ISOTROPY_TOL:
        return VarianceEllipse(a, b, c, 0.0, True)
    return VarianceEllipse(a, b, c, (math.pi + math.atan2(b, a)) / 2.0, False)


def extremal_variances(ellipse: VarianceEllipse) -> tuple[float, float]:
    """(V-, V+) = ([C -+ sqrt(A^2+B^2)] / 2), V- clamped at zero round-off."""
    c, spread = ellipse.C, math.hypot(ellipse.A, ellipse.B)
    v_minus = (c - spread) / 2.0
    v_plus = (c + spread) / 2.0
    if v_minus < 0.0:
        if v_minus < -1e-12:
            raise ArithmeticError(f"negative extremal variance {v_minus:.3e}")
        v_minus = 0.0
    return v_minus, v_plus


def _spin(space: SpinSpace) -> float:
    if space.spin == 0:
        raise ValueError("squeezing analysis needs at least one photon")
    return space.spin


def squeezing_report(state: PolarizationState) -> SqueezingReport:
    """Full analysis pipeline: mean -> frame -> ellipse -> V-+ -> figures of merit."""
    spin = _spin(state.space)
    mean = mean_polarization(state)
    frame = bloch_frame(mean)
    ellipse = variance_ellipse(state, frame)
    v_minus, v_plus = extremal_variances(ellipse)
    xi2 = 2.0 * v_minus / spin
    if mean.length > DEGENERACY_TOL:
        zeta2, unbounded = (spin / mean.length) ** 2 * xi2, False
    else:
        zeta2, unbounded = None, True
    return SqueezingReport(
        mean, frame, ellipse, v_minus, v_plus, xi2, zeta2, unbounded,
        spin / (2.0 * v_plus), 4.0 * v_plus, spin / 2.0,
    )


def squeezing_reports(space: SpinSpace, amplitudes) -> list[SqueezingReport]:
    """`squeezing_report` of every row of a (B, N+1) stack of states on `space`.

    Each row must be a unit amplitude vector, within NORM_TOL as
    PolarizationState requires.  Report i is bit for bit the report of row i
    alone, for any B.
    """
    (comps, *mean), (vectors, *frame), ellipse, tail = squeezing_columns(space, amplitudes)
    columns = (*mean, *frame, *ellipse, *tail)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    # one read-only array holds every report's frame vectors and mean components
    blocks = _readonly(np.concatenate([vectors, comps[:, None]], axis=1))
    snl = space.spin / 2.0
    return [
        SqueezingReport(
            MeanPolarization(comps, length, radius),
            BlochFrame(n1, n2, n3, theta, phi, deg),
            VarianceEllipse(*rest[:5]),
            *rest[5:],
            snl,
        )
        for (n1, n2, n3, comps), (length, radius, theta, phi, deg, *rest) in zip(blocks, rows)
    ]


def squeezing_columns(space: SpinSpace, amplitudes) -> tuple:
    """`squeezing_reports` as columns, without report objects: the report
    fields in order, ((components, length, transverse_radius), (vectors,
    theta, phi, degenerate), (A, B, C, gamma_opt, isotropic), (v_minus,
    v_plus, xi2, zeta2, zeta2_unbounded, chi2, qfi)).  components is (B, 3),
    vectors (B, 3, 3) of the rows' (n1, n2, n3); theta, phi and zeta2 (None
    where unbounded) are lists, the rest (B,) arrays.  snl is s / 2.
    """
    amps = _amplitude_rows(space, amplitudes)
    _require_unit_rows(amps)
    spin = _spin(space)
    comps, lengths, radii = _mean_columns(space, amps)
    # atan2, sin, cos and hypot by `math`, row by row; the rest in columns
    s1, s2, s3 = comps.T.tolist()
    theta, phi = list(map(math.atan2, radii.tolist(), s1)), list(map(math.atan2, s3, s2))
    # a vanishing mean, or one on the S1 pole, takes its angles from `_angles`
    for i in np.flatnonzero((lengths <= DEGENERACY_TOL) | (radii <= DEGENERACY_TOL)).tolist():
        theta[i], phi[i] = _angles(comps[i].tolist(), lengths[i], radii[i])
    sin_t, cos_t = np.array(list(map(math.sin, theta))), np.array(list(map(math.cos, theta)))
    sin_p, cos_p = np.array(list(map(math.sin, phi))), np.array(list(map(math.cos, phi)))
    # frames[k, j, i] is component j of n_(k+1) on row i
    frames = np.array([
        np.zeros_like(sin_p), -sin_p, cos_p,
        sin_t, -cos_t * cos_p, -cos_t * sin_p,
        cos_t, sin_t * cos_p, sin_t * sin_p,
    ]).reshape(3, 3, -1)
    _check_frames(frames)
    a, b, c = _transverse_moments(space, amps, frames[0].T, frames[1].T)
    snap = MOMENT_SNAP * np.fmax(1.0, c)
    a = np.where(np.abs(a) < snap, 0.0, a)
    b = np.where(np.abs(b) < snap, 0.0, b)
    a_rows, b_rows = a.tolist(), b.tolist()
    spread = np.array(list(map(math.hypot, a_rows, b_rows)))
    if np.any(c < spread - 1e-12):
        raise ValueError("ellipse admits a negative variance")
    isotropic = spread < ISOTROPY_TOL
    atan = np.array(list(map(math.atan2, b_rows, a_rows)))
    gamma = np.where(isotropic, 0.0, (math.pi + atan) / 2.0)
    v_minus, v_plus = (c - spread) / 2.0, (c + spread) / 2.0
    negative = v_minus < -1e-12
    if np.any(negative):
        raise ArithmeticError(f"negative extremal variance {v_minus[negative][0]:.3e}")
    v_minus = np.where(v_minus < 0.0, 0.0, v_minus)
    xi2 = 2.0 * v_minus / spin
    bounded = lengths > DEGENERACY_TOL
    zeta2 = [
        (spin / length) ** 2 * x if ok else None
        for length, x, ok in zip(lengths.tolist(), xi2.tolist(), bounded.tolist())
    ]
    chi2 = spin / (2.0 * v_plus)
    return (
        (comps, lengths, radii),
        (frames.transpose(2, 0, 1), theta, phi, lengths <= DEGENERACY_TOL),
        (a, b, c, gamma, isotropic),
        (v_minus, v_plus, xi2, zeta2, ~bounded, chi2, 4.0 * v_plus),
    )


def _check_frames(frames: np.ndarray) -> None:
    """`_check_frame` of the frames (n1, n2, n3) of a (3, 3, B) stack, one
    per row, with its tolerances and messages."""
    if not np.all(np.abs(np.sqrt(np.sum(frames * frames, axis=1)) - 1.0) <= 1e-12):
        raise ValueError("frame vectors must be unit length")
    if not np.all(np.abs(np.sum(frames * frames[[1, 2, 0]], axis=1)) <= 1e-12):
        raise ValueError("frame vectors must be orthogonal")
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = frames
    defect = [y1 * z2 - z1 * y2 - x3, z1 * x2 - x1 * z2 - y3, x1 * y2 - y1 * x2 - z3]
    if not np.all(np.abs(defect) <= 1e-12):
        raise ValueError("frame must be right-handed")


def qfi_pure(state: PolarizationState, direction) -> float:
    """Quantum Fisher information 4 (Delta d.S)^2 of a pure state.

    `direction` must be a unit 3-vector on the Poincare sphere.
    """
    return 4.0 * _direction_variance(state, direction)


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
