"""Smoke test of the benchmark on tiny QCIF clips.

    python3 -m pytest perfbench/test_smoke.py

Each workload is shrunk to five 176x144 frames and measured once untraced
and once traced.  Seed 1 is used because the recorded seed-0 outputs belong
to the full-size clips.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: run.Workload) -> run.Workload:
    clips = tuple(
        dataclasses.replace(c, width=176, height=144, frames=5) for c in workload.clips
    )
    intervals = (4,) if workload.intervals else ()
    return dataclasses.replace(workload, clips=clips, intervals=intervals)


def test_declared_metrics_match_benchmark_json():
    declared = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert declared == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in SPEC["per_layer"]} == set(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = run.measure(_tiny(run.WORKLOADS[name]), 1, 0.1, trace, tmp_path)
    line = run.report(name, result)
    printed = capsys.readouterr().out

    assert line["correct"], printed
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(expected)
    for metric, unit in expected:
        assert any(
            row.split()[:1] == [metric] and row.split()[-1] == unit
            for row in printed.splitlines()
        ), f"{metric} [{unit}] not printed"
    assert "error_rate 0 ratio" in printed
    if trace:
        # interpreter exit is not a span; on five QCIF frames it is about a
        # tenth of the run, against 2-3% on the full-size workloads
        assert line["metrics"]["trace.coverage"]["value"] >= 0.8
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quality-cif-noise",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
