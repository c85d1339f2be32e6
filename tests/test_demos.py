"""The demo scripts print exactly what their golden files recorded.

Each script runs in its own interpreter with one OpenBLAS thread, importing
the package from ``src/``.  A change that moves a demo's output on purpose
rewrites its file in ``tests/demo_output/`` in the same commit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_output"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=tmp_path,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{script.stem}.txt").read_text(encoding="utf-8")
