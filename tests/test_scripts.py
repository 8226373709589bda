"""The example scripts run and print what they printed when pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("script", ["complexity_surface", "distortion_survey"])
def test_script_stdout_matches_golden(script):
    src = Path(shiftlab.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{script}.txt").read_text()
