"""Two seeded runs write exactly the report bytes their golden files recorded.

The demo goldens round to 3 decimals, so a change in the last bit of a
weight or a gain would pass them.  These goldens hold the full-precision
``report.jsonl``, ``summary.json`` and ``trajectory.csv`` of two small runs:

- ``copy``: 5 benchmarks over a 5x5x5 space, one of them a copy of the
  unseen task, OOD adaptation off;
- ``adversarial``: 3 anti-correlated benchmarks over a 3x3x3 space, OOD
  adaptation on with a small planner.

Both budgets outrun the transfer window, so its eviction is exercised.  Each
run happens in its own interpreter with one OpenBLAS thread.  A change that
moves a report on purpose rewrites its goldens in the same commit with
``PYTHONPATH=src python tests/test_golden_reports.py <case> tests/golden/<case>``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_space
from mdesign.engine import PlannerSettings, RefinementEngine, RunConfig, write_report
from mdesign.harness import CorrelationSpec, generate_landscapes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ("copy", "adversarial")
FILES = ("report.jsonl", "summary.json", "trajectory.csv")


def write_case(case: str, out: str) -> None:
    if case == "copy":
        suite = generate_landscapes(
            make_space(5, 5, 5), 5,
            CorrelationSpec(mix=(0.0, 1.0, 0.0, 0.0, 0.0), unseen_noise=0.3), seed=21,
        )
        config = RunConfig(budget=70, seed=5, init_strategy="uniform", ood_adaptation=False)
    else:
        suite = generate_landscapes(
            make_space(3, 3, 3), 3,
            CorrelationSpec(mix=(-0.25,) * 3, independent_strength=1.0, unseen_noise=0.02),
            seed=22,
        )
        planner = PlannerSettings(hidden_dim=8, pretrain_epochs=20, finetune_epochs=5)
        config = RunConfig(budget=24, seed=6, init_strategy="uniform", window=8, planner=planner)
    report = RefinementEngine(suite.store, config).run(suite.unseen_oracle())
    write_report(report, out)


def test_every_case_has_its_golden_files():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)
    for case in CASES:
        assert sorted(p.name for p in (GOLDEN / case).iterdir()) == sorted(FILES)


def _run(case: str, out: Path) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, __file__, case, str(out)], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_match_golden(case, tmp_path):
    _run(case, tmp_path)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


if __name__ == "__main__":
    write_case(sys.argv[1], sys.argv[2])
