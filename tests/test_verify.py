"""The `verify` check table, run once per session: one test id per check.

A failing check fails the test named after it, with the check's detail line
as the message.  `TestVerify` in test_cli.py covers the command itself.
"""

import pytest

from stokes_squeeze.verify import CHECKS, run_checks

NAMES = [check.name for check in CHECKS]


@pytest.fixture(scope="session")
def results():
    return {result.name: result for result in run_checks()}


def test_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_check_passes(results, name):
    assert results[name].passed, results[name].detail
