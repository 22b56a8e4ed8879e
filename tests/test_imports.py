"""Every package imports on its own, in a fresh interpreter (no import cycles)."""

from __future__ import annotations

import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "module",
    ["msa.gcode", "msa.msl", "msa.dialogue", "msa.scoring", "msa.scoring.stats", "msa.cli"],
)
def test_module_imports_in_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
