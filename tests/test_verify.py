"""The `verify` check table, read from the session's one `verify` run: one
test id per check.

A failing check fails the test named after it, with the check's detail line
as the message.  `TestVerify` in test_cli.py covers the command itself.
"""

import pytest

from stokes_squeeze.verify import CHECKS

NAMES = [check.name for check in CHECKS]


@pytest.fixture(scope="module")
def rows(verify_run):
    """(status, detail) of each check row of the run, keyed by check name."""
    *lines, _summary = verify_run[1].splitlines()
    split = (line.split(maxsplit=2) for line in lines)
    return {name: (status, detail) for status, name, detail in split}


def test_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_check_passes(rows, name):
    status, detail = rows[name]
    assert status == "PASS", detail
