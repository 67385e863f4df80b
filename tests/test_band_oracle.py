"""The moment kernel's band route and the dense route against exact values.

From N = 4 on the kernel takes the images S1 a, S2 a and S3 a of a state a
in O(N) (`_band_images`), where up to N = 3 it applies dense Stokes matrices.
Here both routes are compared, at N in {4, 32, 128, 256, 512, 2047} on a
random, a coherent and a NOON state, with the same quantities in 50-digit `decimal` arithmetic
on the exact values of the double amplitudes: the three images, the mean
<S_k> = Re <a|S_k a>, and the raw moments (A, B, C) of `_transverse_moments`
in the report's frame (n1, n2), taken as the exact values of its doubles.
The dense route is the one the kernel takes up to N = 3: `S_k @ a` with the
dense S_k (`_stokes_combination` of the unit axis, bit for bit the matrix of
`stokes_operator`, see `test_spin_core.TestBandIsTheSource`) and one dense
n.S per frame vector.

Every field of both routes must lie within K eps (s+1)^p of the exact value,
eps = 2^-52, with p = 1 for an image entry and a mean component (terms of size
up to s+1) and p = 2 for A, B and C (sums of size up to (s+1)^2).
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from stokes_squeeze import build_spin_space, noon_state, squeezing_report
from stokes_squeeze.spin_core import (
    _band_images,
    _mean_moments,
    _stokes_combination,
    _transverse_moments,
)
from stokes_squeeze.states import coherent_state_closed_form
from stokes_squeeze.verify import random_state

EPS = 2.0**-52
#: the bound in eps (s+1)^p.  Over these eighteen states both routes stay
#: within 0.24 (images) and 0.39 (means) of eps (s+1), and 0.91 (the NOON C at
#: N = 128) of eps (s+1)^2; on other draws the NOON C at N = 2047 reached
#: 0.98, one rounding of a sum near s^2.  4 leaves a margin.
K = 4.0
#: (field, p): an image entry or a mean component carries p = 1, A, B, C p = 2
POWERS = {"images": 1, "mean": 1, "moments": 2}


def _exact(space, amps, n1, n2) -> dict:
    """Images, mean and (A, B, C) of `amps` in the frame (n1, n2), to 50
    digits; a complex value is a (real, imaginary) pair."""
    num, dim = space.num_photons, space.dimension
    with localcontext() as ctx:
        ctx.prec = 50
        re, im = ([Decimal(x) for x in part.tolist()] for part in (amps.real, amps.imag))
        zero = (Decimal(0), Decimal(0))
        # c/2 of the pair (k - 1, k) is sqrt(k (N - k + 1)) / 2
        half = [Decimal(k * (num - k + 1)).sqrt() / 2 for k in range(1, dim)]
        s1 = [(Decimal(num - 2 * j) / 2 * re[j], Decimal(num - 2 * j) / 2 * im[j])
              for j in range(dim)]
        up = [(h * re[j + 1], h * im[j + 1]) for j, h in enumerate(half)] + [zero]
        down = [zero] + [(h * re[j], h * im[j]) for j, h in enumerate(half)]
        s2 = [(u[0] + d[0], u[1] + d[1]) for u, d in zip(up, down)]
        s3 = [(u[1] - d[1], d[0] - u[0]) for u, d in zip(up, down)]  # i (down - up)
        images = (s1, s2, s3)
        mean = [sum(r * x + i * y for r, i, (x, y) in zip(re, im, image)) for image in images]

        def along(direction):
            d1, d2, d3 = (Decimal(x) for x in direction.tolist())
            return [(d1 * a[0] + d2 * b[0] + d3 * c[0], d1 * a[1] + d2 * b[1] + d3 * c[1])
                    for a, b, c in zip(*images)]

        image1, image2 = along(n1), along(n2)
        sq1, sq2 = (sum(x * x + y * y for x, y in image) for image in (image1, image2))
        cross = sum(x * u + y * v for (x, y), (u, v) in zip(image1, image2))
        return {"images": images, "mean": mean, "moments": (sq1 - sq2, 2 * cross, sq1 + sq2)}


def _errors(routed: dict, exact: dict, spin: float) -> dict:
    """Each field's largest |routed - exact| over K eps (s+1)^p: at most 1
    where the field holds."""
    errors = {}
    for field, power in POWERS.items():
        if field == "images":
            pairs = [
                (value, part)
                for image, exact_image in zip(routed[field], exact[field], strict=True)
                for z, pair in zip(image.tolist(), exact_image, strict=True)
                for value, part in zip((z.real, z.imag), pair)
            ]
        else:
            pairs = zip(routed[field], exact[field], strict=True)
        worst = max(abs(Decimal(float(value)) - part) for value, part in pairs)
        errors[field] = float(worst) / (K * EPS * (spin + 1.0) ** power)
    return errors


def _states(num_photons: int) -> dict:
    space = build_spin_space(num_photons)
    rng = np.random.default_rng(num_photons)
    return {
        "random": random_state(space, rng),
        "coherent": coherent_state_closed_form(
            space, rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        ),
        "noon": noon_state(num_photons, rng.uniform(0.0, 2.0 * math.pi)),
    }


@pytest.mark.parametrize("num_photons", [4, 32, 128, 256, 512, 2047])
def test_band_and_dense_routes_stay_near_exact_values(num_photons):
    space = build_spin_space(num_photons)
    states = _states(num_photons)
    rows = np.array([state.amplitudes for state in states.values()])
    # one dense S_k at a time, applied to every state
    dense_images = []
    for axis in np.eye(3):
        matrix = _stokes_combination(space, axis)
        dense_images.append([matrix @ amps for amps in rows])
        del matrix
    band_means = _mean_moments(space, rows)
    for i, (kind, state) in enumerate(states.items()):
        amps, frame = state.amplitudes, squeezing_report(state).frame
        exact = _exact(space, amps, frame.n1, frame.n2)
        band = {
            "images": _band_images(space, amps),
            "mean": band_means[i].tolist(),
            "moments": _transverse_moments(space, amps[None], frame.n1[None], frame.n2[None])[
                :, 0
            ].tolist(),
        }
        images = [per_axis[i] for per_axis in dense_images]
        image1, image2 = (_stokes_combination(space, n) @ amps for n in (frame.n1, frame.n2))
        sq1, sq2 = np.vdot(image1, image1).real, np.vdot(image2, image2).real
        dense = {
            "images": images,
            "mean": [np.vdot(amps, image).real for image in images],
            "moments": (sq1 - sq2, 2.0 * np.vdot(image1, image2).real, sq1 + sq2),
        }
        for route, routed in (("band", band), ("dense", dense)):
            errors = _errors(routed, exact, space.spin)
            assert max(errors.values()) <= 1.0, (kind, route, errors)
