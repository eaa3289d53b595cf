"""Run every narrative demo end to end, so an API change cannot break one silently.

The README's library quick start runs alongside them, as ``python -c``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_quick_start() -> str:
    """The first ``python`` code block of the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


SCRIPTS = [pytest.param([str(d)], id=d.stem) for d in DEMOS] + [
    pytest.param(["-c", readme_quick_start()], id="readme_quick_start")
]


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", SCRIPTS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *demo], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo[0] == "-c":
        lines = proc.stdout.splitlines()
        assert lines[0] == "{(2, 5): 1}"
        assert lines[1] == "2"
        assert lines[-1] == "True"
