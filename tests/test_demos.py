"""Run every demo script in-process, so a demo that breaks fails the suite."""

from __future__ import annotations

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().strip()
