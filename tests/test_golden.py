"""The CLI's default outputs hash to the digests recorded in bench/golden.json.

Each case of `bench/golden.py` is regenerated in-process into a temporary
directory and its SHA-256 compared with the recorded digest, so a change
that moves one byte of a published CSV, JSON or PGM output fails here and
not only in the benchmark.  The `verify` case hashes the session's shared
`verify` run (the `verify_run` fixture) instead of running it again.
Nothing under bench/ is written.
"""

import json
import sys
from pathlib import Path

import pytest

import stokes_squeeze
import stokes_squeeze.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))  # golden.py imports its sibling `workloads`

import golden  # noqa: E402
from workloads import Context  # noqa: E402

RECORDED = json.loads(golden.GOLDEN_FILE.read_text())


def test_every_case_recorded():
    assert set(RECORDED) == set(golden.CASES)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_output_matches_golden_digest(name, tmp_path, request):
    if name == "verify":
        # the session's one `verify` run, hashed as `golden.produce` hashes it
        code, stdout = request.getfixturevalue("verify_run")
        assert code == 0
        data = golden._verify_columns(stdout)
    else:
        data = golden.produce(Context(stokes_squeeze, stokes_squeeze.cli, tmp_path), name)
    assert golden.digest(data) == RECORDED[name]
