"""Shared pytest set-up: a deterministic, bounded hypothesis profile, and one
`stokes-squeeze verify` run per session.

Property tests draw the same examples on every run (`derandomize`) and keep
no example database, so the tier-1 suite stays reproducible and quick.
Without hypothesis installed the property tests skip and nothing else changes.

`verify_run` is the exit code and standard output of `main(["verify"])`,
made on first use and shared by every test that reads the unperturbed table.

`ladder_images` and `combined_image` are a test copy of the moment kernel's
O(N) images, for the tests that pin its bits from N = 4 on.
"""

import contextlib
import io

import numpy as np
import pytest

from stokes_squeeze.spin_core import _ladder_coefficients

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "tier1", derandomize=True, max_examples=40, deadline=None, database=None
    )
    settings.load_profile("tier1")


@pytest.fixture(scope="session")
def verify_run() -> tuple[int, str]:
    from stokes_squeeze.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    return code, out.getvalue()


def ladder_images(space, amps) -> tuple:
    """(S1 a, S2 a, S3 a) of one state in O(N): S+ a / 2 and S- a / 2 are the
    amplitudes shifted one index up and down, scaled by c / 2."""
    half = _ladder_coefficients(space) / 2
    raised = np.append(half * amps[1:], 0.0)
    lowered = np.insert(half * amps[:-1], 0, 0.0)
    return space.n_values * amps + 0.0, raised + lowered, 1j * (lowered - raised)


def combined_image(d, images):
    """d.S a from the images (S1 a, S2 a, S3 a), summed left to right."""
    return d[0] * images[0] + d[1] * images[1] + d[2] * images[2]
