"""The mutation list of tools/mutants.py stays applicable.

The gate itself takes minutes and is not part of pytest; these checks read
only its `MUTANTS` table, so an edit whose text no longer matches its source
exactly once, or a repeated name, fails here instead of only in the gate.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import mutants  # noqa: E402


def test_names_are_unique():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_text_occurs_once(mutant):
    _, filename, text, replacement = mutant
    source = (mutants.ROOT / mutants.PACKAGE / filename).read_text()
    assert source.count(text) == 1
    assert replacement != text
