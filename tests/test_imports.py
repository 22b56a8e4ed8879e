"""Every package imports on its own, in a fresh interpreter (no import cycles).

``from M import *`` also resolves every name in ``M.__all__``, so an export
left behind by deleted code fails here.
"""

from __future__ import annotations

import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "msa.gcode",
        "msa.msl",
        "msa.dialogue",
        "msa.dialogue.pipeline",
        "msa.scoring",
        "msa.scoring.stats",
        "msa.simulate",
        "msa.service",
        "msa.cli",
    ],
)
def test_module_imports_in_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}; from {module} import *"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
