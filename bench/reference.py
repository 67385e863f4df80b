"""Reference kernels that gauge how fast the machine runs during a run.

On a shared machine, other tenants' load changes the speed of every process
by tens of percent, up to 2x, from one minute to the next.  Each run
therefore times a fixed reference kernel (best of three) before every block
of ops.  Each block's op times are scaled by the kernel's nominal time over
the median of its timings in the SCALE_WINDOW blocks around that block, and
each set-up time by a timing taken right after that set-up.  The figures then
read as on a machine on which the kernel takes its nominal time.  run.py
prints the unscaled figures with the provenance.

The kernels never call the package, so no change to it can move them.
Other tenants' load does not slow all code alike: plain interpreter loops
slowed up to 2x while numpy-bound code slowed 1.3-1.5x.  So each workload
uses the kernel that, among the candidates timed next to its ops across
machine states on the 2-vCPU VM, left the least or near-least spread in
the scaled op times.  `small_arrays` is many numpy calls on 4-element vectors with number
formatting, like the N = 3 reports of `triphoton_sweep`.  `grid` is
vectorised complex math over a 181x360 grid cast to bytes, like a Husimi
map; it also tracked the dense linear algebra of `large_spin` more closely
than an `eigh` kernel did.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_SPIN_Z = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
_SPIN_X = np.diag([math.sqrt(3.0) / 2, 1.0, math.sqrt(3.0) / 2], 1).astype(complex)
_SPIN_X = _SPIN_X + _SPIN_X.conj().T


def _small_arrays() -> int:
    """Expectations, norms and cross products of 4-element vectors, formatted."""
    state = np.array([0.5, 0.5j, 0.5, -0.5])
    size = 0
    for i in range(150):
        vector = state * (1.0 + 1e-3 * i)
        vector = vector / np.linalg.norm(vector)
        sx = np.vdot(vector, _SPIN_X @ vector).real
        sz = np.vdot(vector, _SPIN_Z @ vector).real
        axis = np.array([sx, sz, 0.1])
        axis = np.cross(axis / np.sqrt(axis @ axis), [0.0, 0.0, 1.0])
        size += len(f"{sx:.12g},{sz:.12g},{axis[0]:.12g}")
    return size


_rng = np.random.default_rng(20260809)
_GRID_K = np.arange(34)
_GRID_AMPLITUDES = _rng.normal(size=34) + 1j * _rng.normal(size=34)
_GRID_HALF_THETA = np.linspace(0.0, np.pi, 181)[:, None] / 2.0
_GRID_PHI = np.arange(360) * (2.0 * np.pi / 360)


def _grid() -> bytes:
    """A 34-term Fourier sum over a 181x360 grid, squared and cast to bytes."""
    k = _GRID_K
    profile = np.cos(_GRID_HALF_THETA) ** (k[-1] - k) * np.sin(_GRID_HALF_THETA) ** k
    phases = np.exp(-1j * np.outer(_GRID_PHI, k))
    values = np.abs((profile * _GRID_AMPLITUDES) @ phases.T) ** 2
    return np.rint(values / values.max() * 255.0).astype(np.uint8).tobytes()


#: kernel and its nominal seconds: about its best-of-3 time inside a
#: benchmark loop on the 2-vCPU Xeon VM (2.0 GHz; Python 3.11.7, numpy 2.4.6,
#: OpenBLAS 0.3.31 on one thread) the benchmark was defined on, at its least
#: loaded
KERNELS = {
    "small_arrays": (_small_arrays, 4.8e-3),
    "grid": (_grid, 1.3e-3),
}


def time_kernel(name: str) -> float:
    """Best of three timings: a stall of a few ms hits one, rarely all three."""
    kernel, _ = KERNELS[name]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def nominal(name: str) -> float:
    return KERNELS[name][1]


#: blocks whose reference timings set one block's speed scale
SCALE_WINDOW = 5


def block_scales(name: str, timings: list[float]) -> list[float]:
    """Speed scale of each block from the kernel timings of the blocks around it."""
    half = SCALE_WINDOW // 2
    return [
        nominal(name) / statistics.median(timings[max(0, b - half) : b + half + 1])
        for b in range(len(timings))
    ]
