"""The scripts: bad arguments are usage errors, and every mutant row applies."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("occurrence_profile.py", ["0"]),
        ("occurrence_profile.py", ["21"]),
        ("occurrence_profile.py", ["5", "--variant", "bogus"]),
        ("census_tables.py", ["--max", "1"]),
        ("census_tables.py", ["--max", "40"]),
        ("census_tables.py", ["--variants", "nope"]),
        ("census_tables.py", ["--variants", "standard", "nope"]),
    ],
)
def test_bad_argument_is_a_usage_error(name, args):
    result = run_script(name, *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "usage:" in result.stderr


def test_smallest_degrees_still_run():
    assert run_script("occurrence_profile.py", "1").returncode == 0
    result = run_script("census_tables.py", "--max", "2", "--variants", "loop")
    assert result.returncode == 0
    assert result.stdout.startswith("n,count,bound")


def test_every_mutant_row_applies_to_the_source_once():
    # the rows themselves run in scripts/mutants.py, one pytest process each
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for file, old, new, tests in mutants.MUTANTS:
        assert (ROOT / "src" / "bchseries" / file).read_text().count(old) == 1, (file, old)
        assert old != new and tests
