"""Self-verification suite: algebra, dual-route oracles, and landmark values.

Every check is deterministic (fixed RNG seeds) and independent of the code
path it validates wherever a second route exists: closed forms are compared
against dense-matrix results, extremal variances against a brute-force angle
scan, and Husimi features against direct grid evaluation.  Every dense
oracle is built from public `spin_core` names (`stokes_operator`,
`ladder_operator`); the scan evaluates one quadratic in (cos, sin) whose
five coefficients are moments of the images of n1.S and n2.S.

The suite is one ordered table, `CHECKS`.  Each entry holds a check's name,
its seed offset and its function, which takes the run's shared fixtures and a
random generator and returns (passed, detail).  A seeded check draws from a
fresh generator seeded with `SEED + offset`; an offset of None means the check
draws nothing and gets no generator.  `run_checks`, `stokes-squeeze verify`
and the tests all read this table.  Inputs read by several checks are built
by `_Fixtures` once per `run_checks` call, on first use, never at import: the
200-point triphoton family pass and the operators S0..S3 for N = 0..12,
which the algebra checks and the random-state checks read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .elements import qwp_apply, rotate_about, vpp_apply
from .husimi import SphereGrid, q_grid, q_value
from .spin_core import (
    PolarizationState,
    build_spin_space,
    hermitian_exponential,
    ladder_operator,
    normalized_state,
    stokes_operator,
    variance,
)
from .squeezing import (
    BlochFrame,
    analytic_ellipse,
    analytic_mean_s3,
    analytic_variances,
    extremal_variances,
    mean_polarization,
    qfi_pure,
    squeezing_report,
    squeezing_reports,
)
from .states import (
    TRIPHOTON_SPACE,
    coherent_state,
    coherent_state_closed_form,
    fidelity,
    noon_state,
    triphoton_amplitudes,
    triphoton_raw,
    triphoton_seed,
    triphoton_state,
    triphoton_state_rows,
)

SQRT3 = math.sqrt(3.0)
#: base seed of the checks' random generators
SEED = 20260809
#: NOON phase reached by the triphoton family at T = sqrt(3)
FAMILY_NOON_PHASE = -math.pi / 2
#: bracket width at which `_golden_minimize` stops
GOLDEN_TOL = 1e-11


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_state(space, rng) -> PolarizationState:
    """Haar-ish random normalized state (Gaussian amplitudes)."""
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    return normalized_state(space, amps)


def _random_states(rng, count: int):
    """`count` random states on N = 1, 2, ..., 8, 1, ... photons, drawn lazily.

    Each state is drawn when it is yielded, so draws a caller makes between
    two states keep their place in the generator's sequence.
    """
    for trial in range(count):
        yield random_state(build_spin_space(1 + trial % 8), rng)


# ---------------------------------------------------------------------------
# brute-force transverse-variance scan (independent of the ellipse formulas)
# ---------------------------------------------------------------------------


def _golden_minimize(func, lo: float, hi: float):
    """Golden-section minimizer on [lo, hi] down to GOLDEN_TOL; returns (argmin, min)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    while b - a > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = func(d)
    x = (a + b) / 2.0
    return x, func(x)


def scan_transverse_variance(
    state: PolarizationState, frame: BlochFrame, samples: int = 3600
) -> dict:
    """Scan the transverse variance V(gamma) over [0, 2pi) and refine both extrema.

    With u, w the images of psi under n1.S and n2.S (dense sums of
    `stokes_operator`'s S1..S3), V = cos^2 <u|u> + 2 cos sin Re<u|w> + sin^2
    <w|w> - (cos Re<psi|u> + sin Re<psi|w>)^2, term for term the matrix-route
    variance of cos(gamma) S_n1 + sin(gamma) S_n2.  The grid and both
    golden-section refinements evaluate V; the refinement gives the stated
    1e-10 agreement with the closed-form V-+ that the grid cannot.
    """
    s1, s2, s3 = (stokes_operator(state.space, axis).matrix for axis in (1, 2, 3))
    psi = state.amplitudes
    image1, image2 = ((n[0] * s1 + n[1] * s2 + n[2] * s3) @ psi for n in (frame.n1, frame.n2))
    sq11 = np.vdot(image1, image1).real
    sq22 = np.vdot(image2, image2).real
    sq12 = np.vdot(image1, image2).real
    m1 = np.vdot(psi, image1).real
    m2 = np.vdot(psi, image2).real

    def var_at(gamma):
        cos_g, sin_g = np.cos(gamma), np.sin(gamma)
        quadratic = cos_g**2 * sq11 + 2.0 * cos_g * sin_g * sq12 + sin_g**2 * sq22
        return quadratic - (cos_g * m1 + sin_g * m2) ** 2

    gammas = np.arange(samples) * 2.0 * np.pi / samples
    values = var_at(gammas)
    i_min, i_max = int(np.argmin(values)), int(np.argmax(values))
    step = 2.0 * np.pi / samples
    gamma_min, v_min = _golden_minimize(var_at, gammas[i_min] - step, gammas[i_min] + step)
    gamma_max, neg_v_max = _golden_minimize(
        lambda g: -var_at(g), gammas[i_max] - step, gammas[i_max] + step
    )
    return {
        "grid_min": float(values[i_min]),
        "grid_max": float(values[i_max]),
        "grid_argmin": float(gammas[i_min]),
        "v_min": float(v_min),
        "v_max": -float(neg_v_max),
        "gamma_min": gamma_min,
        "gamma_max": gamma_max,
    }


def rodrigues(vector: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Right-handed rotation of `vector` about the unit `axis` by `angle`."""
    cos, sin = math.cos(angle), math.sin(angle)
    return vector * cos + np.cross(axis, vector) * sin + axis * np.dot(axis, vector) * (1.0 - cos)


def angle_mod_pi_distance(a: float, b: float) -> float:
    """Distance between two angles identified mod pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def _family_reports(ts) -> list:
    """Squeezing reports of the triphoton family at each T, in one stacked call."""
    return squeezing_reports(TRIPHOTON_SPACE, triphoton_state_rows(ts))


# ---------------------------------------------------------------------------
# fixtures shared by several checks, built once per run
# ---------------------------------------------------------------------------


class _Fixtures:
    """Inputs that several checks read, each built on first use."""

    def __init__(self, ladder_perturbation: float):
        self.ladder_perturbation = ladder_perturbation

    @functools.cached_property
    def family(self) -> list:
        """(T, mean, ellipse) of the matrix pipeline at linspace(0, 1.8, 200),
        from one stacked report call."""
        ts = np.linspace(0.0, 1.8, 200)
        reports = _family_reports(ts)
        return [(t, report.mean, report.ellipse) for t, report in zip(ts, reports)]

    @functools.cached_property
    def stokes(self) -> list:
        """The operators S0..S3 of `stokes_operator` on N = 0..12, indexed by N."""
        return [
            [stokes_operator(build_spin_space(num), axis) for axis in range(4)]
            for num in range(0, 13)
        ]

    @functools.cached_property
    def ladder_stokes(self) -> list:
        """The matrices (S1, S2, S3) of `stokes` for N = 0..12.

        A harness hook adds the perturbation to the first ladder coefficient
        of S+ = S2 + i S3, on copies, to confirm the algebra checks catch it.
        """
        stokes = []
        for num, (_, *operators) in enumerate(self.stokes):
            s1, s2, s3 = (op.matrix for op in operators)
            if self.ladder_perturbation and num >= 1:
                bump = np.zeros_like(s2)  # S+ gains it at (0, 1), S- at (1, 0)
                bump[0, 1] = self.ladder_perturbation
                s2, s3 = s2 + (bump + bump.T) / 2.0, s3 + (bump - bump.T) / 2j
            stokes.append((s1, s2, s3))
        return stokes


# ---------------------------------------------------------------------------
# checks: each takes (fixtures, rng) and returns (passed, detail)
# ---------------------------------------------------------------------------


def _su2_commutators(fx, rng):
    worst = 0.0
    for s1, s2, s3 in fx.ladder_stokes:
        ops = {1: s1, 2: s2, 3: s3}
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            defect = np.abs(ops[i] @ ops[j] - ops[j] @ ops[i] - 1j * ops[k]).max()
            worst = max(worst, float(defect))
    return worst < 1e-12, f"max |[Si,Sj]-iSk| = {worst:.3e} (N<=12)"


def _casimir(fx, rng):
    worst = 0.0
    for num, (s1, s2, s3) in enumerate(fx.ladder_stokes):
        spin = num / 2.0
        total = s1 @ s1 + s2 @ s2 + s3 @ s3
        defect = np.abs(total - spin * (spin + 1.0) * np.eye(num + 1)).max()
        worst = max(worst, float(defect))
    return worst < 1e-12, f"max |S^2 - s(s+1)I| = {worst:.3e} (N<=12)"


def _s0_commutes(fx, rng):
    worst = 0.0
    for s0, *operators in fx.stokes:
        for op in operators:
            commutator = s0.matrix @ op.matrix - op.matrix @ s0.matrix
            worst = max(worst, float(np.abs(commutator).max()))
    return worst == 0.0, f"max |[S0,Si]| = {worst:.3e}"


def _ladder_adjoint(fx, rng):
    worst = 0.0
    for num, (_, s2, s3) in enumerate(fx.ladder_stokes):
        space = build_spin_space(num)
        for sign in (+1, -1):
            ladder = ladder_operator(space, sign)
            worst = max(worst, float(np.abs(ladder - (s2 + sign * 1j * s3)).max()))
    return worst < 1e-12, f"max |S+- - (S2 +- i S3)| = {worst:.3e}"


def _expectation_real(fx, rng):
    worst = 0.0
    for state in _random_states(rng, 1000):
        for op in fx.stokes[state.space.num_photons][1:]:
            raw = np.vdot(state.amplitudes, op.matrix @ state.amplitudes)
            worst = max(worst, abs(raw.imag))
    return worst < 1e-12, f"max residual imaginary part = {worst:.3e}"


def _variance_nonnegative(fx, rng):
    smallest = np.inf
    for state in _random_states(rng, 400):
        for op in fx.stokes[state.space.num_photons][1:]:
            smallest = min(smallest, variance(state, op))
    return smallest >= 0.0, f"min clamped variance = {smallest:.3e}"


def _exponential_unitarity(fx, rng):
    # exp(i a S_k) psi is kept in norm, and equals the rotation by -a about
    # axis k, which `rotate_about` builds from the S1 phases and S2 eigenbasis
    drift = offset = 0.0
    for trial, state in enumerate(_random_states(rng, 200)):
        angle = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        axis = 1 + trial % 3
        op = fx.stokes[state.space.num_photons][axis]
        unitary = hermitian_exponential(op, 1j * angle)
        image = unitary @ state.amplitudes
        rotated = rotate_about(state, np.eye(3)[axis - 1], -angle).amplitudes
        drift = max(drift, abs(np.linalg.norm(image) - 1.0))
        offset = max(offset, float(np.abs(image - rotated).max()))
    ok = drift < 1e-12 and offset < 1e-12
    return ok, f"max norm drift = {drift:.3e}, max |exp - rotate_about| = {offset:.3e}"


def _coherent_closed_form(fx, rng):
    worst = 0.0
    for num in (1, 2, 3, 6):
        space = build_spin_space(num)
        for theta in np.linspace(0.0, np.pi, 20):
            for phi in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
                infidelity = 1.0 - fidelity(
                    coherent_state(space, theta, phi),
                    coherent_state_closed_form(space, theta, phi),
                )
                worst = max(worst, infidelity)
    return worst < 1e-12, f"max infidelity = {worst:.3e}"


def _qwp_amplitudes(fx, rng):
    worst = 0.0
    for t in np.linspace(0.0, 1.8, 50):
        infidelity = 1.0 - fidelity(qwp_apply(triphoton_raw(t)), triphoton_state(t))
        worst = max(worst, infidelity)
    return worst < 1e-12, f"max infidelity QWP(raw) vs closed form = {worst:.3e} (50 T values)"


def _vpp_route(fx, rng):
    seed = triphoton_seed()
    worst = 0.0
    for t in np.linspace(0.0, 1.8, 50):
        worst = max(worst, 1.0 - fidelity(vpp_apply(seed, t), triphoton_raw(t)))
    return worst < 1e-12, f"max infidelity VPP(seed) vs closed form = {worst:.3e}"


def _triphoton_normalization(fx, rng):
    ts = np.linspace(0.0, 1.8, 200)
    amps = [triphoton_amplitudes(t) for t in ts]
    worst = max(abs(2.0 * c2**2 + 2.0 * c3**2 - 1.0) for c2, c3 in amps)
    signs = [c2 > 0 for c2, _ in amps if c2 != 0.0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    c3_positive = all(c3 > 0 for _, c3 in amps)
    ok = worst < 1e-12 and flips == 1 and c3_positive
    return ok, f"max |2c2^2+2c3^2-1| = {worst:.3e}, c2 sign flips = {flips}, c3>0 = {c3_positive}"


def _ellipse_oracle(fx, rng):
    worst = 0.0
    for t, _, ellipse in fx.family:
        closed = analytic_ellipse(t)
        worst = max(worst, abs(ellipse.A - closed.A), abs(ellipse.B), abs(ellipse.C - closed.C))
    return worst < 1e-10, f"max |matrix - closed form| over A,B,C = {worst:.3e} (200 T values)"


def _variance_oracle(fx, rng):
    worst = 0.0
    for t, _, ellipse in fx.family:
        v_minus, v_plus = extremal_variances(ellipse)
        a_minus, a_plus = analytic_variances(t)
        worst = max(worst, abs(v_minus - a_minus), abs(v_plus - a_plus))
    return worst < 1e-10, f"max |matrix - closed form| over V-+ = {worst:.3e} (200 T values)"


def _mean_oracle(fx, rng):
    worst_s3 = worst_perp = 0.0
    for t, mean, _ in fx.family:
        worst_s3 = max(worst_s3, abs(mean.components[2] - analytic_mean_s3(t)))
        worst_perp = max(worst_perp, abs(mean.components[0]), abs(mean.components[1]))
    ok = worst_s3 < 1e-10 and worst_perp < 1e-12
    return ok, f"max |<S3> - closed form| = {worst_s3:.3e}, max |<S1>|,|<S2>| = {worst_perp:.3e}"


def _landmarks(fx, rng):
    failures = []
    report0 = squeezing_report(triphoton_state(0.0))
    for label, value, target in (
        ("V+(0)", report0.v_plus, 0.75),
        ("V-(0)", report0.v_minus, 0.75),
        ("xi2(0)", report0.xi2, 1.0),
        ("zeta2(0)", report0.zeta2, 1.0),
        ("chi2(0)", report0.chi2, 1.0),
    ):
        if abs(value - target) > 1e-10:
            failures.append(f"{label}={value!r}")

    report1 = squeezing_report(triphoton_state(1.0))
    a_minus1 = analytic_variances(1.0)[0]
    if abs(report1.xi2 - 1.0 / 3.0) > 1e-10:
        failures.append(f"xi2(1)={report1.xi2!r}")
    if abs(2.0 * a_minus1 / 1.5 - 1.0 / 3.0) > 1e-10:
        failures.append(f"analytic xi2(1)={2.0 * a_minus1 / 1.5!r}")
    if abs(report1.chi2 - 3.0 / 7.0) > 1e-10:
        failures.append(f"chi2(1)={report1.chi2!r}")
    if round(10.0 * math.log10(report1.xi2), 4) != -4.7712:
        failures.append("xi2(1) dB rendering")

    report_noon = squeezing_report(triphoton_state(SQRT3))
    if abs(report_noon.chi2 - 1.0 / 3.0) > 1e-10:
        failures.append(f"chi2(sqrt3)={report_noon.chi2!r}")
    if abs(report_noon.xi2 - 1.0) > 1e-10:
        failures.append(f"xi2(sqrt3)={report_noon.xi2!r}")
    if not report_noon.zeta2_unbounded:
        failures.append("zeta2(sqrt3) not flagged unbounded")

    if abs(qfi_pure(triphoton_state(1.0), (1.0, 0.0, 0.0)) - 7.0) > 1e-10:
        failures.append("QFI(T=1, S1)")
    detail = "T=0 baseline, T=1 squeezing, T=sqrt(3) NOON point"
    return not failures, "; ".join(failures) or detail


def _chi2_monotone(fx, rng):
    ts = np.linspace(0.0, SQRT3, 200)
    chi2 = [report.chi2 for report in _family_reports(ts)]
    rises = max((b - a for a, b in zip(chi2, chi2[1:])), default=0.0)
    return rises <= 1e-12, f"max increase along [0, sqrt(3)] = {rises:.3e} (200 T values)"


def _xi2_minimum(fx, rng):
    ts = np.linspace(0.0, 1.8, 181)
    xi2 = np.array([report.xi2 for report in _family_reports(ts)])
    idx = int(np.argmin(xi2))
    unique = np.sum(np.abs(xi2 - xi2[idx]) < 1e-12) == 1
    ok = unique and abs(ts[idx] - 1.0) < 1e-9 and abs(xi2[idx] - 1.0 / 3.0) < 1e-10
    return ok, f"grid minimum {xi2[idx]:.12f} at T = {ts[idx]:.12f}"


def _polarization_flip(fx, rng):
    ok = True
    worst_perp = 0.0
    for t, mean, _ in fx.family:
        s3 = mean.components[2]
        worst_perp = max(worst_perp, abs(mean.components[0]), abs(mean.components[1]))
        if t < SQRT3 and s3 <= 0:
            ok = False
        if t > SQRT3 and s3 >= 0:
            ok = False
    at_flip = abs(mean_polarization(triphoton_state(SQRT3)).components[2])
    ok = ok and at_flip < 1e-12 and worst_perp < 1e-12
    return ok, f"|<S3>(sqrt 3)| = {at_flip:.3e}, max transverse component = {worst_perp:.3e}"


def _zeta2_extremum(fx, rng):
    def zeta2_closed(t):
        v_minus, _ = analytic_variances(t)
        return 3.0 * v_minus / analytic_mean_s3(t) ** 2

    ts = np.linspace(0.01, 1.5, 1500)
    coarse = min(ts, key=zeta2_closed)
    t_min, z_min = _golden_minimize(zeta2_closed, coarse - 0.01, coarse + 0.01)
    report = squeezing_report(triphoton_state(t_min))
    matrix_matches = abs(report.zeta2 - z_min) < 1e-9
    ok = abs(t_min - 0.81) <= 0.02 and abs(z_min - 0.58) <= 0.01 and matrix_matches
    return ok, f"min zeta^2 = {z_min:.6f} at T = {t_min:.6f}"


def _noon_metrics(fx, rng):
    failures = []
    for num in range(2, 9):
        spin = num / 2.0
        report = squeezing_report(noon_state(num, FAMILY_NOON_PHASE))
        if abs(report.v_plus - spin**2) > 1e-10:
            failures.append(f"N={num} V+")
        if abs(report.v_minus - spin / 2.0) > 1e-10:
            failures.append(f"N={num} V-")
        if abs(report.xi2 - 1.0) > 1e-10:
            failures.append(f"N={num} xi2")
        if abs(report.chi2 - 1.0 / num) > 1e-12:
            failures.append(f"N={num} chi2")
        if not report.zeta2_unbounded:
            failures.append(f"N={num} zeta2 flag")
        if abs(qfi_pure(noon_state(num, FAMILY_NOON_PHASE), (1.0, 0.0, 0.0)) - 4.0 * spin**2) > 1e-10:
            failures.append(f"N={num} QFI")
    # N=1 is a fully polarized coherent state: finite zeta^2, chi^2 = 1
    report1 = squeezing_report(noon_state(1, FAMILY_NOON_PHASE))
    if abs(report1.chi2 - 1.0) > 1e-12 or abs(report1.xi2 - 1.0) > 1e-10:
        failures.append("N=1 chi2/xi2")
    return not failures, "; ".join(failures) or "N=2..8 Heisenberg scaling chi^2 = 1/N"


def _gamma_scan(fx, rng):
    worst_value = 0.0
    worst_angle = 0.0
    family_ok = True

    def examine(state):
        nonlocal worst_value, worst_angle
        report = squeezing_report(state)
        scan = scan_transverse_variance(state, report.frame, samples=3600)
        worst_value = max(
            worst_value,
            abs(scan["v_min"] - report.v_minus),
            abs(scan["v_max"] - report.v_plus),
        )
        if not report.ellipse.isotropic:
            worst_angle = max(
                worst_angle,
                angle_mod_pi_distance(scan["gamma_min"], report.ellipse.gamma_opt),
            )
        return report

    for t in np.linspace(0.0, 1.8, 25):
        report = examine(triphoton_state(t))
        if t > 0 and abs(report.ellipse.gamma_opt - math.pi) > 1e-12:
            family_ok = False
    for state in _random_states(rng, 10):
        examine(state)
    ok = worst_value < 1e-10 and worst_angle < 1e-6 and family_ok
    return ok, (
        f"max |scan - formula| = {worst_value:.3e}, max argmin offset = "
        f"{worst_angle:.3e} rad, family gamma_opt = pi: {family_ok}"
    )


def _uncertainty_bound(fx, rng):
    rows = {}  # the states' amplitudes by space, each space one stacked call
    for state in _random_states(rng, 1000):
        rows.setdefault(state.space, []).append(state.amplitudes)
    worst = np.inf
    for space, amplitudes in rows.items():
        for report in squeezing_reports(space, amplitudes):
            margin = report.v_minus * report.v_plus - report.mean.length**2 / 4.0
            worst = min(worst, margin)
    return worst >= -1e-10, f"min V-V+ - |<S_n3>|^2/4 = {worst:.3e} (1000 random states)"


def _husimi_normalization(fx, rng):
    grid = SphereGrid(256, 256, scheme="midpoint")
    worst = 0.0
    for num in range(0, 9):  # spins s <= 4
        space = build_spin_space(num)
        for state in (random_state(space, rng), coherent_state(space, 0.9, 2.1)):
            worst = max(worst, abs(q_grid(state, grid).normalization_estimate - 1.0))
    return worst < 1e-6, f"max |estimate - 1| = {worst:.3e} (256x256 midpoint grid, s <= 4)"


def _husimi_features(fx, rng):
    failures = []
    grid = SphereGrid(181, 360, scheme="endpoint")

    coherent_q = q_grid(triphoton_state(0.0), grid)
    i, j = np.unravel_index(np.argmax(coherent_q.values), coherent_q.values.shape)
    if not (abs(grid.thetas[i] - np.pi / 2) < 1e-12 and abs(grid.phis[j] - np.pi / 2) < 1e-12):
        failures.append("T=0 argmax not at (pi/2, pi/2)")

    squeezed_q = q_grid(triphoton_state(1.0), grid)
    i, j = np.unravel_index(np.argmax(squeezed_q.values), squeezed_q.values.shape)
    if not (abs(grid.thetas[i] - np.pi / 2) < 1e-12 and abs(grid.phis[j] - np.pi / 2) < 1e-12):
        failures.append("T=1 argmax not at (pi/2, pi/2)")

    noon_q = q_grid(triphoton_state(SQRT3), grid).values
    peak = noon_q.max()
    if not (noon_q[0].max() > peak - 1e-12 and noon_q[-1].max() > peak - 1e-12):
        failures.append("NOON not peaked at both poles")
    if noon_q[1:-1, :].max() >= peak - 1e-9:
        failures.append("NOON interior reaches the polar peak")
    period = 360 // 3
    shift_defect = np.abs(noon_q - np.roll(noon_q, period, axis=1)).max()
    if shift_defect >= 1e-12:
        failures.append(f"threefold symmetry defect {shift_defect:.3e}")

    vacuum_q = q_grid(coherent_state(build_spin_space(0), 0.0, 0.0), grid).values
    if np.abs(vacuum_q - 1.0).max() > 1e-12:
        failures.append("vacuum Q not identically 1")

    detail = "coherent center, squeezed center, NOON poles and threefold symmetry"
    return not failures, "; ".join(failures) or detail


def _husimi_rotation(fx, rng):
    # Q(R psi; R n) = Q(psi; n) for rotate_about's right-handed R, random axes
    worst = 0.0
    for state in _random_states(rng, 5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        rotated = rotate_about(state, axis, alpha)
        for _ in range(20):
            theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            point = np.array(
                [math.cos(theta), math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]
            )
            moved = rodrigues(point, axis, alpha)
            moved_theta = math.atan2(math.hypot(moved[1], moved[2]), moved[0])
            moved_phi = math.atan2(moved[2], moved[1])
            defect = abs(q_value(rotated, moved_theta, moved_phi) - q_value(state, theta, phi))
            worst = max(worst, defect)
    return worst < 1e-10, f"max |Q drift| = {worst:.3e}"


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    name: str
    seed_offset: int | None
    func: Callable[[_Fixtures, np.random.Generator | None], tuple[bool, str]]


#: every check in run order; a name appears here and nowhere else
CHECKS = (
    Check("su2-commutators", None, _su2_commutators),
    Check("casimir-invariant", None, _casimir),
    Check("s0-commutes", None, _s0_commutes),
    Check("ladder-adjoint", None, _ladder_adjoint),
    Check("expectation-real", 0, _expectation_real),
    Check("variance-nonnegative", 1, _variance_nonnegative),
    Check("exponential-unitarity", 2, _exponential_unitarity),
    Check("coherent-closed-form", None, _coherent_closed_form),
    Check("qwp-amplitude-consistency", None, _qwp_amplitudes),
    Check("vpp-route", None, _vpp_route),
    Check("triphoton-normalization", None, _triphoton_normalization),
    Check("ellipse-oracle-agreement", None, _ellipse_oracle),
    Check("variance-oracle-agreement", None, _variance_oracle),
    Check("mean-oracle-agreement", None, _mean_oracle),
    Check("squeezing-landmarks", None, _landmarks),
    Check("chi2-monotone", None, _chi2_monotone),
    Check("xi2-minimum", None, _xi2_minimum),
    Check("polarization-flip", None, _polarization_flip),
    Check("zeta2-extremum", None, _zeta2_extremum),
    Check("noon-metrics", None, _noon_metrics),
    Check("gamma-scan-optimality", 3, _gamma_scan),
    Check("uncertainty-bound", 4, _uncertainty_bound),
    Check("husimi-normalization", 5, _husimi_normalization),
    Check("husimi-features", None, _husimi_features),
    Check("husimi-rotation-covariance", 6, _husimi_rotation),
)


def run_checks(ladder_perturbation: float = 0.0) -> list[CheckResult]:
    """Run every check of `CHECKS` in order; `ladder_perturbation` is a
    harness hook that corrupts the ladder coefficients inside the algebra
    checks.  A check that raises ArithmeticError or ValueError fails with
    detail `error: <message>`, and the remaining checks still run."""
    fixtures = _Fixtures(ladder_perturbation)
    results = []
    for name, offset, check in CHECKS:
        rng = None if offset is None else np.random.default_rng(SEED + offset)
        try:
            passed, detail = check(fixtures, rng)
        except (ArithmeticError, ValueError) as exc:
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
