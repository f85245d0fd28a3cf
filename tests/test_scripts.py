"""The mutation script: every mutant row applies to the source."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_row_applies_to_the_source_once():
    # the rows themselves run in scripts/mutants.py, one pytest process each
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for file, old, new, tests in mutants.MUTANTS:
        assert (ROOT / "src" / "bchseries" / file).read_text().count(old) == 1, (file, old)
        assert old != new and tests
