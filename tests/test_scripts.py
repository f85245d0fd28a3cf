"""The scripts: bad arguments are usage errors, the profile prints, every mutant row applies."""

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
    ],
)
def test_bad_argument_is_a_usage_error(name, args):
    result = run_script(name, *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "usage:" in result.stderr


def test_smallest_degrees_still_run():
    assert run_script("occurrence_profile.py", "1").returncode == 0


def test_occurrence_profile_prints_the_profile():
    result = run_script("occurrence_profile.py", "8")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "non-zero words: 124" in lines
    assert lines[-1] == "run totals consistent with position totals: True"


def test_every_mutant_row_applies_to_the_source_once():
    # the rows themselves run in scripts/mutants.py, one pytest process each
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for file, old, new, tests in mutants.MUTANTS:
        assert (ROOT / "src" / "bchseries" / file).read_text().count(old) == 1, (file, old)
        assert old != new and tests
