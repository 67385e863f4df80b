"""Shared pytest set-up: a deterministic, bounded hypothesis profile, and one
`stokes-squeeze verify` run per session.

Property tests draw the same examples on every run (`derandomize`) and keep
no example database, so the tier-1 suite stays reproducible and quick.
Without hypothesis installed the property tests skip and nothing else changes.

`verify_run` is the exit code and standard output of `main(["verify"])`,
made on first use and shared by every test that reads the unperturbed table.
"""

import contextlib
import io

import pytest

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
