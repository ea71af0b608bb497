"""Byte-exact golden outputs of `gfstill analyze` and `gfstill plan`.

The files under tests/golden/ pin the CLI's stdout on deterministic
synthetic clips, so refactors of the first pass, the metrics or the planner
must reproduce them byte for byte.  After an intended output change,
regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gfstill.cli import main
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import write_y4m

GOLDEN_DIR = Path(__file__).parent / "golden"

CLIPS = {
    "static": SynthSpec("static", width=176, height=144, frame_count=16),
    "pan": SynthSpec("pan", width=176, height=144, frame_count=16, amplitude=4.0),
    "cut": SynthSpec("cut", width=176, height=144, frame_count=16),
    # 100x76 is no multiple of 32, so the last block row and column are padded
    "static_noise_100x76": SynthSpec(
        "static_noise", width=100, height=76, frame_count=9, amplitude=2.0
    ),
}

# golden file name -> (clip, CLI arguments after the input path)
CASES = {
    "static.analyze.csv": ("static", ["analyze"]),
    "static.plan.json": ("static", ["plan"]),
    "pan.analyze.csv": ("pan", ["analyze"]),
    "pan.plan.json": ("pan", ["plan"]),
    "cut.analyze.csv": ("cut", ["analyze"]),
    "cut.plan.json": ("cut", ["plan"]),
    "pan.diamond.plan.json": ("pan", ["plan", "--search-kind", "diamond"]),
    "static_noise_100x76.bs32_r12.plan.json": (
        "static_noise_100x76",
        ["plan", "--block-size", "32", "--search-range", "12"],
    ),
}


def _write_clips(directory: Path) -> dict[str, Path]:
    paths = {}
    for name, spec in CLIPS.items():
        paths[name] = directory / f"{name}.y4m"
        write_y4m(generate(spec), paths[name])
    return paths


def _run(clip: Path, args: list[str]) -> bytes:
    command, *flags = args
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([command, str(clip), *flags]) == 0
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def clips(tmp_path_factory) -> dict[str, Path]:
    return _write_clips(tmp_path_factory.mktemp("golden_clips"))


@pytest.mark.parametrize("golden", sorted(CASES))
def test_output_matches_golden(golden, clips):
    clip, args = CASES[golden]
    assert _run(clips[clip], args) == (GOLDEN_DIR / golden).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_clips(Path(tmp))
        for golden, (clip, args) in CASES.items():
            (GOLDEN_DIR / golden).write_bytes(_run(paths[clip], args))
            print(f"wrote {GOLDEN_DIR / golden}", file=sys.stderr)
