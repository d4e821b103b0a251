"""Each narrative demo runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "benefit_of_side_information.py",
        "binary_alphabet_losses.py",
        "causality_measures.py",
        "data_processing_audit.py",
    ],
)
def test_demo_exits_zero(demo, tmp_path):
    out = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, cwd=tmp_path, env=package_env()
    )
    assert out.returncode == 0, f"{demo}: {out.stderr.decode()}"
