"""Husimi Q distribution of a polarization state on the Poincare sphere.

Q(theta, phi) = |<theta,phi|psi>|^2 is the squared overlap with the SU(2)
coherent state at (theta, phi); it is everywhere in [0, 1] and satisfies
(2s+1)/(4pi) * integral Q dOmega = 1.  Grids sample theta on [0, pi] (either
cell midpoints or endpoints) and phi uniformly on [0, 2pi).

`q_grid` sums only over the state's support S, the k with a_k != 0, so a
map costs O(n_theta n_phi |S|): two terms per cell for a NOON state, not
N + 1.  A dense support reads its phases e^{-i k phi_j} from one retained
read-only table, k = 0..K by phi, rebuilt when a larger N or another n_phi
arrives; a sparse one builds only its |S| rows.  `MAX_GRID_ENTRIES` bounds
the table too: at most 2^21 complex entries, 32 MB.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .spin_core import CACHED_SIZES, PolarizationState
from .states import _binomial_profile, coherent_state_closed_form

THETA_SCHEMES = ("midpoint", "endpoint")

#: most entries any one array of a grid evaluation may hold: the
#: n_theta x n_phi values, the n_theta x n_theta/2 Chebyshev series of a
#: midpoint grid, and q_grid's (N+1) coefficients per theta or phi sample
MAX_GRID_ENTRIES = 2**21


@functools.lru_cache(maxsize=CACHED_SIZES)
def _chebyshev_weights(n: int) -> np.ndarray:
    """Quadrature weights for integral_{-1}^{1} f(p) dp at p_k = cos(theta_k),
    theta_k = (k + 1/2) pi / n.

    These are the classical positive weights for the Chebyshev nodes of the
    first kind (which the midpoint theta samples are); the rule is exact for
    polynomials in p up to degree n-1, which covers the phi-averaged Q of any
    fixed photon number.  A plain equal-weight midpoint rule in theta misses
    the required accuracy by orders of magnitude at these grid sizes.
    """
    k = np.arange(n)
    theta = (k + 0.5) * np.pi / n
    m = np.arange(1, n // 2 + 1)
    series = np.cos(2.0 * np.outer(theta, m)) / (4.0 * m**2 - 1.0)
    weights = (2.0 / n) * (1.0 - 2.0 * series.sum(axis=1))
    weights.setflags(write=False)
    return weights


#: e^{-i k phi_j} for k = 0..K (rows) and the n_phi samples phi_j (columns)
#: of the last grid width `q_grid` saw; read-only
_phase_table = np.empty((0, 0), dtype=complex)


def _phase_rows(ks: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """e^{-i k phi_j} for the photon numbers `ks` (rows) and the samples
    `phis` (columns), entry by entry: a row's bits do not depend on `ks`."""
    return np.exp(-1j * np.outer(ks, phis))


def _phases(phis: np.ndarray, num: int) -> np.ndarray:
    """Rows k = 0..num of the phase table for the samples `phis`, a
    C-contiguous view.  The table is rebuilt by `_phase_rows` when it lacks
    a row or has another width; a call that races another's rebuild uses
    the table it read or built."""
    global _phase_table
    table = _phase_table
    if table.shape[1] != phis.size or table.shape[0] <= num:
        table = _phase_rows(np.arange(num + 1), phis)
        table.setflags(write=False)
        _phase_table = table
    return table[: num + 1]


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Sampling grid on the sphere: n_theta x n_phi points.

    scheme 'midpoint' puts theta at cell centers (k+1/2) pi/n_theta, scheme
    'endpoint' at k pi/(n_theta-1) including both poles.  phi is always
    k 2pi/n_phi starting at 0.
    """

    n_theta: int
    n_phi: int
    scheme: str = "midpoint"

    def __post_init__(self):
        object.__setattr__(self, "n_theta", operator.index(self.n_theta))
        object.__setattr__(self, "n_phi", operator.index(self.n_phi))
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("grid needs at least 2 samples per axis")
        if self.scheme not in THETA_SCHEMES:
            raise ValueError(f"unknown theta scheme {self.scheme!r}")
        entries = self.n_theta * self.n_phi
        if self.scheme == "midpoint":
            entries = max(entries, self.n_theta * (self.n_theta // 2))
        if entries > MAX_GRID_ENTRIES:
            raise ValueError(
                f"{self.n_theta} x {self.n_phi} {self.scheme} grid needs {entries} entries "
                f"per array, above the bound MAX_GRID_ENTRIES = {MAX_GRID_ENTRIES}"
            )

    @functools.cached_property
    def thetas(self) -> np.ndarray:
        if self.scheme == "midpoint":
            t = (np.arange(self.n_theta) + 0.5) * np.pi / self.n_theta
        else:
            t = np.arange(self.n_theta) * np.pi / (self.n_theta - 1)
        t.setflags(write=False)
        return t

    @functools.cached_property
    def phis(self) -> np.ndarray:
        p = np.arange(self.n_phi) * 2.0 * np.pi / self.n_phi
        p.setflags(write=False)
        return p

    @functools.cached_property
    def theta_weights(self) -> np.ndarray:
        """Weights w_i approximating integral f sin(theta) dtheta = sum w_i f(theta_i)."""
        if self.scheme == "midpoint":
            return _chebyshev_weights(self.n_theta)
        # trapezoid in theta with the sin(theta) factor absorbed
        step = np.pi / (self.n_theta - 1)
        w = np.full(self.n_theta, step) * np.sin(self.thetas)
        w[0] /= 2.0
        w[-1] /= 2.0
        w.setflags(write=False)
        return w


@dataclass(frozen=True, eq=False)
class QGrid:
    """Husimi values over a SphereGrid plus the quadrature normalization."""

    grid: SphereGrid
    values: np.ndarray  # shape (n_theta, n_phi), in [0, 1]
    normalization_estimate: float

    def __post_init__(self):
        if self.values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ValueError("value matrix does not match the grid shape")
        # written so that a NaN, which fails every comparison, is rejected
        if not (0.0 <= self.values.min() and self.values.max() <= 1.0):
            raise ValueError("Husimi values must lie in [0, 1]")


def q_value(state: PolarizationState, theta: float, phi: float) -> float:
    """Q(theta, phi) = |<theta,phi|psi>|^2 via the closed-form coherent bra."""
    bra = coherent_state_closed_form(state.space, theta, phi)
    overlap = np.vdot(bra.amplitudes, state.amplitudes)
    return float(min(1.0, abs(overlap) ** 2))


def q_grid(state: PolarizationState, grid: SphereGrid) -> QGrid:
    """Dense Husimi evaluation over a sphere grid.

    The coherent amplitudes factor as b_k(theta) e^{i k phi}, with b the
    binomial profile that `coherent_state_closed_form` also uses, so each
    theta row is a short Fourier sum evaluated for all phi at once: one
    (n_theta x |S|) @ (|S| x n_phi) product over the support S, in
    O(n_theta n_phi |S|).

    A dense state passes the same numbers to the same product as a sum over
    all N + 1 terms, and a sparse one the same nonzero terms: below 128
    terms OpenBLAS sums an overlap in one block, where a zero term changes
    no bit.  From N = 128 on it sums in blocks of 128, which the zero terms
    fill otherwise than the support does, so a sparse map may move in its
    last bits; so may a one-term complex support on the last column of an
    odd n_phi.  A sparse support builds only its |S| phase rows, the
    table's bits; the N cap still counts N + 1 coefficients.
    """
    num = state.space.num_photons
    entries = max(grid.n_theta, grid.n_phi) * (num + 1)
    if entries > MAX_GRID_ENTRIES:
        raise ValueError(
            f"{grid.n_theta} x {grid.n_phi} grid at N = {num} needs {entries} coefficients "
            f"per array, above the bound MAX_GRID_ENTRIES = {MAX_GRID_ENTRIES}"
        )
    support = np.flatnonzero(state.amplitudes)
    if support.size == num + 1:
        # every k: the whole profile and a view of the phase table, not a copy
        columns, ks, phases = slice(None), None, _phases(grid.phis, num)
    else:
        columns, ks, phases = support, support, _phase_rows(support, grid.phis)
    overlaps = (_binomial_profile(num, grid.thetas, ks) * state.amplitudes[columns]) @ phases
    values = np.abs(overlaps)
    np.square(values, out=values)
    np.clip(values, 0.0, 1.0, out=values)
    estimate = (
        (2.0 * state.space.spin + 1.0)
        / (4.0 * np.pi)
        * (2.0 * np.pi / grid.n_phi)
        * float(grid.theta_weights @ values.sum(axis=1))
    )
    values.setflags(write=False)
    return QGrid(grid, values, estimate)
