"""Run every demo script, and README's quick start, in-process, so that
documented code that breaks fails the suite."""

from __future__ import annotations

import io
import re
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().strip()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    # one group of 17 pan frames: its id, verdict, structure and the
    # zero-motion accumulator
    assert out.getvalue().split()[:3] == ["1", "non-still", "multilayer"]
