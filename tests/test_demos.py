"""Each demo's stdout is pinned byte for byte.

The demos are deterministic and use the public API (demo 04 also imports
cf_term, scheme2_layers and scheme2_term_groups from softhandoff.gaussian_mi
directly), so a refactor that changes a printed number or drops a name they
use fails here.
Rewrite a pinned file only for an intended change:
`PYTHONPATH=src python demos/01_capacity_bounds.py > tests/golden/demo_01.txt`.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_is_pinned():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "golden" / f"demo_{demo.name[:2]}.txt").read_bytes()
