"""Constructors for the named polarization states.

Covers SU(2) coherent states (exponential and closed-form routes), the
triphoton family produced by a variable partial polarizer followed by a
quarter-wave plate, N-photon NOON states, and raw two-mode Fock
superpositions.  States are compared by fidelity |<a|b>|^2, never
amplitude-wise, since optical transformations fix them only up to a global
phase.

`coherent_state` is not a dense exponential: it reads the block
coefficients of |s,s> (the first row of the S2 eigenbasis V) from the cached
flip blocks of `spin_core` (two half-size `eigh`s per photon number), so it
costs one batched product with the blocks, about (N+1)^2 / 2 real
multiply-adds, and the unfold.  Its oracle is the binomial expansion of
`_binomial_profile`, shared with `husimi`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .spin_core import (
    PolarizationState,
    SpaceMismatchError,
    SpinSpace,
    _normalized_rows,
    _require_finite,
    _require_ratio,
    _s2_eigenbasis,
    _s2_synthesis,
    build_spin_space,
    normalized_state,
)

TRIPHOTON_SPACE = build_spin_space(3)


def basis_state(space: SpinSpace, n: float) -> PolarizationState:
    """The basis state |s,n>."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index_of(n)] = 1.0
    return PolarizationState(space, amps)


def fidelity(a: PolarizationState, b: PolarizationState) -> float:
    """|<a|b>|^2; the phase-insensitive overlap of two states."""
    if a.space != b.space:
        raise SpaceMismatchError("fidelity of states on different spaces")
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def coherent_state(space: SpinSpace, theta: float, phi: float) -> PolarizationState:
    """SU(2) coherent state exp(i*theta*(S2 sin(phi) - S3 cos(phi))) |s,s>.

    The result is the minimal-uncertainty state pointing along the Poincare
    direction (cos(theta), sin(theta)cos(phi), sin(theta)sin(phi)), with both
    transverse variances equal to s/2.

    The generator is D(phi + pi/2) (-S3) D(-phi - pi/2) with D(x) = exp(-i x S1),
    and |s,s> is the first basis state, so the exact amplitudes, global phase
    included, are exp(i k (phi + pi/2)) times column 0 of exp(-i theta S2),
    with k the basis index.  That column is V diag(e^{-i theta (k - s)}) V^T
    e_0; V^T e_0 is cached with the flip blocks, so only V is applied.
    """
    _require_finite(theta=theta, phi=phi)
    basis = _s2_eigenbasis(space.num_photons)
    column = _s2_synthesis(basis, np.exp(theta * basis.generator) * basis.first_row)
    phases = np.exp(1j * (phi + np.pi / 2) * np.arange(space.dimension))
    return normalized_state(space, phases * column)


#: the least integer that float() rounds past the largest double: the
#: midpoint (2^53 - 1/2) 2^971 between it and 2^1024 rounds up, to even
_FLOAT_LIMIT = 2**1024 - 2**970


def _binomial_profile(num_photons: int, thetas, ks=None) -> np.ndarray:
    """Real factors b_k(theta) of the coherent amplitudes b_k(theta) e^{i k phi}
    (Arecchi et al., PRA 6, 2211 (1972)) for the columns k in `ks` (default
    k = 0..N), shape thetas.shape + (len(ks),).

    b_k = sqrt(C(N,k)) cos(theta/2)^(N-k) sin(theta/2)^k.  From N = 1030 on,
    the middle C(N,k) exceed the float range; only those entries are taken in
    log space, exp(log C / 2 + (N-k) log|cos| + k log|sin|) with the sign of
    the product, so every other entry is the product as written, and a pole
    (sin or cos exactly 0) still gives an exact zero.  Every entry is
    elementwise in its own k and C(N,k), the exact integer either way (one
    running product for all k, `math.comb` for a subset), so column j of a
    subset is bit for bit column ks[j] of the whole profile.
    """
    if ks is None:
        k = np.arange(num_photons + 1)
        # C(N, j+1) = C(N, j) (N-j) / (j+1): the running product stays an integer
        exact = itertools.accumulate(
            range(num_photons), lambda c, j: c * (num_photons - j) // (j + 1), initial=1
        )
    else:
        k = np.asarray(ks, dtype=int)
        if k.size == 1:
            # one exponent for a whole loop makes numpy square in place of
            # pow(x, 2); two columns take the power loop of the whole profile
            return _binomial_profile(num_photons, thetas, np.repeat(k, 2))[..., :1]
        exact = [math.comb(num_photons, j) for j in k.tolist()]
    binom, huge, log_binom = [], [], []
    for column, c in enumerate(exact):
        if c < _FLOAT_LIMIT:
            binom.append(float(c))
        else:
            binom.append(0.0)
            huge.append(column)
            log_binom.append(math.log(c))
    half = np.asarray(thetas, dtype=float)[..., None] / 2.0
    cos, sin = np.cos(half), np.sin(half)
    profile = np.sqrt(binom) * cos ** (num_photons - k) * sin**k
    if huge:
        k = k[huge]
        with np.errstate(divide="ignore"):
            logs = (
                np.array(log_binom) / 2.0
                + (num_photons - k) * np.log(np.abs(cos))
                + k * np.log(np.abs(sin))
            )
        signs = np.sign(cos) ** (num_photons - k) * np.sign(sin) ** k
        profile[..., huge] = signs * np.exp(logs)
    return profile


def coherent_state_closed_form(
    space: SpinSpace, theta: float, phi: float
) -> PolarizationState:
    """Binomial expansion of the SU(2) coherent state in the |s,n> basis.

    Amplitude on |s,n>, with k = s - n:
        sqrt(C(2s, k)) * cos(theta/2)^(2s-k) * sin(theta/2)^k * exp(i k phi)
    Independent of the exponential construction; used to cross-validate it.
    """
    _require_finite(theta=theta, phi=phi)
    k = np.arange(space.dimension)
    amps = _binomial_profile(space.num_photons, theta) * np.exp(1j * k * phi)
    return normalized_state(space, amps)


#: T**4 is finite exactly below 2^256 (2^1024 overflows); from there on the
#: triphoton closed forms are taken with numerator and denominator over T^2
_T4_BOUND = 2.0**256


def triphoton_amplitudes(t_ratio: float) -> tuple[float, float]:
    """Closed-form amplitudes (c2, c3) of the post-QWP triphoton family.

    c2 = (3 - T^2) / (2 sqrt(2) sqrt(3 + T^4))
    c3 = (1/2) sqrt(3/2) (1 + T^2) / sqrt(3 + T^4)
    c2 changes sign at T = sqrt(3), where the family reaches the NOON state.
    Where T^4 would overflow, both are taken over T^2, with u = 1/T^2:
    c2 = (3u - 1) / (2 sqrt(2) sqrt(3u^2 + 1)), which tends to -1/(2 sqrt(2)),
    and c3 = (1/2) sqrt(3/2) (u + 1) / sqrt(3u^2 + 1), to sqrt(3/2)/2.
    """
    _require_ratio(t_ratio)
    # a compare, so a float and an np.float64 T take the same branch
    if t_ratio < _T4_BOUND:
        root = math.sqrt(3.0 + t_ratio**4)
        c2 = (3.0 - t_ratio**2) / (2.0 * math.sqrt(2.0) * root)
        c3 = 0.5 * math.sqrt(1.5) * (1.0 + t_ratio**2) / root
        return c2, c3
    inverse = 1.0 / t_ratio
    u = inverse * inverse  # 0 from T ~ 6.4e161 on, which gives the limit itself
    root = math.sqrt(3.0 * u * u + 1.0)
    c2 = (3.0 * u - 1.0) / (2.0 * math.sqrt(2.0) * root)
    c3 = 0.5 * math.sqrt(1.5) * (u + 1.0) / root
    return c2, c3


@functools.lru_cache(maxsize=None)
def triphoton_seed() -> PolarizationState:
    """The three-photon overlap state (a_H^+2 - a_V^+2) a_H^+ |0> normalized.

    Expanding in photon-number states gives sqrt(6)|3,0>_HV - sqrt(2)|1,2>_HV;
    this is the state entering the variable partial polarizer.  States are
    immutable, so one instance is built and shared.
    """
    return normalized_state(
        TRIPHOTON_SPACE, [math.sqrt(6.0), 0.0, -math.sqrt(2.0), 0.0]
    )


def triphoton_raw(t_ratio: float) -> PolarizationState:
    """Triphoton family after the partial polarizer, before the wave plate.

    Normalization of sqrt(3)|3/2,3/2> - T^2 |3/2,-1/2>; the closed form is
    exact for every T >= 0 and takes the T=0 limit (pure |3,0>_HV) without
    evaluating ln 0.  Where the norm would square an overflowing T^2 (from
    _T4_BOUND on), the amplitudes are taken over T^2, sqrt(3) u and -1 with
    u = (1/T)^2, which tend to the basis state |1,2>_HV.
    """
    _require_ratio(t_ratio)
    if t_ratio < _T4_BOUND:
        amps = [math.sqrt(3.0), 0.0, -(t_ratio**2), 0.0]
    else:
        inverse = 1.0 / t_ratio
        amps = [math.sqrt(3.0) * (inverse * inverse), 0.0, -1.0, 0.0]
    return normalized_state(TRIPHOTON_SPACE, np.array(amps, dtype=complex))


def _triphoton_row(c2: float, c3: float) -> list[complex]:
    """Unnormalized amplitudes (c3, i c2, -c2, -i c3) of `triphoton_state`."""
    return [c3, 1j * c2, -c2, -1j * c3]


def triphoton_state(t_ratio: float) -> PolarizationState:
    """Post-QWP triphoton state c2(i|2,1> - |1,2>) + c3(|3,0> - i|0,3>).

    Equals the quarter-wave plate applied to triphoton_raw(T) up to a global
    phase (empirically the phase is exactly 1 in this basis convention).
    """
    row = _triphoton_row(*triphoton_amplitudes(t_ratio))
    return normalized_state(TRIPHOTON_SPACE, np.array(row, dtype=complex))


def triphoton_state_rows(t_ratios) -> np.ndarray:
    """Amplitudes of `triphoton_state(T)` for each T, stacked as (B, 4) rows.

    Row i is bit for bit triphoton_state(t_ratios[i]).amplitudes: each row is
    built from the same expressions, then normalized and checked as
    `normalized_state` does it.
    """
    return triphoton_rows_from_amplitudes([triphoton_amplitudes(t) for t in t_ratios])


def triphoton_rows_from_amplitudes(amplitudes) -> np.ndarray:
    """`triphoton_state_rows` from each ratio's (c2, c3), as
    `triphoton_amplitudes` gives them."""
    rows = np.array([_triphoton_row(c2, c3) for c2, c3 in amplitudes], dtype=complex)
    return _normalized_rows(TRIPHOTON_SPACE, rows.reshape(-1, TRIPHOTON_SPACE.dimension))


def noon_state(num_photons: int, noon_phase: float = 0.0) -> PolarizationState:
    """(|N,0>_HV + exp(i*phase)|0,N>_HV) / sqrt(2).

    The phase is reduced to [0, 2pi).  The triphoton family reaches the N=3
    member with phase -pi/2 at T = sqrt(3).
    """
    if isinstance(num_photons, bool):
        raise TypeError("photon number must be an integer, not a bool")
    if num_photons < 1:
        raise ValueError(f"NOON state needs at least one photon, got {num_photons}")
    _require_finite(noon_phase=float(noon_phase))
    phase = float(noon_phase) % (2.0 * math.pi)
    space = build_spin_space(num_photons)
    amps = np.zeros(space.dimension, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = np.exp(1j * phase) / math.sqrt(2.0)
    return PolarizationState(space, amps)


def fock_superposition(
    space: SpinSpace, terms: list[tuple[int, int, complex]]
) -> PolarizationState:
    """Normalized superposition of |m,n>_HV Fock states.

    Each term is (m_H, n_V, amplitude) with m_H + n_V equal to the photon
    number of `space`; |m,n>_HV maps to basis index n_V.  Duplicate modes and
    all-zero amplitude lists are rejected.
    """
    amps = np.zeros(space.dimension, dtype=complex)
    seen = set()
    for m_h, n_v, amplitude in terms:
        if m_h < 0 or n_v < 0 or m_h + n_v != space.num_photons:
            raise ValueError(
                f"term |{m_h},{n_v}>_HV does not hold {space.num_photons} photons"
            )
        if (m_h, n_v) in seen:
            raise ValueError(f"duplicate term |{m_h},{n_v}>_HV")
        seen.add((m_h, n_v))
        amps[n_v] = amplitude
    if not np.any(amps):
        raise ValueError("all amplitudes are zero")
    return normalized_state(space, amps)
