"""The streamed pipeline: frames go from the reader through the first pass,
or two clips in step through PSNR and SSIM, one at a time, and the output
equals a batch run over the whole clip."""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfstill import gop_planner
from gfstill.cli import main, plans_to_json
from gfstill.first_pass import SearchConfig
from gfstill.gop_planner import (
    MAX_GROUP_INTERVAL,
    MIN_GROUP_INTERVAL,
    plan_sequence,
)
from gfstill.quality import psnr, sequence_quality, ssim
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import write_y4m

from conftest import batch_pipeline


def _run(argv: list[str], stdin: bytes | None = None) -> str:
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        if stdin is not None:
            mp = stack.enter_context(pytest.MonkeyPatch.context())
            mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        assert main(argv) == 0
    return out.getvalue()


@contextlib.contextmanager
def _cpus(n: int):
    """n CPUs in the affinity mask; with more than one, every frame size is
    pooled, so small frames go through the threads too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        if n > 1:
            mp.setattr(gop_planner, "POOL_MIN_PIXELS", 0)
        yield


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["static", "static_noise", "pan", "cut"]),
    frames=st.integers(2, 40),
    width=st.integers(16, 72),
    height=st.integers(16, 56),
    target=st.integers(MIN_GROUP_INTERVAL, MAX_GROUP_INTERVAL),
    key=st.one_of(st.none(), st.integers(2, 20)),
    search_kind=st.sampled_from(["exhaustive", "diamond"]),
    cpus=st.sampled_from([1, 2]),
)
def test_streamed_cli_equals_the_batch_reference(
    kind, frames, width, height, target, key, search_kind, cpus
):
    spec = SynthSpec(kind, width, height, frames, amplitude=2.0, seed=frames)
    planes = list(generate(spec))
    cfg = SearchConfig(search_kind=search_kind)
    want = batch_pipeline(planes, cfg, target, key)

    y4m = io.BytesIO()
    write_y4m(generate(spec), y4m)
    y4m = y4m.getvalue()
    chroma = bytes([128]) * (2 * -(-width // 2) * -(-height // 2))
    yuv = b"".join(p.tobytes() + chroma for p in planes)
    flags = ["--target-interval", str(target), "--search-kind", search_kind]
    if key is not None:
        flags += ["--key-interval", str(key)]
    geometry = ["--width", str(width), "--height", str(height)]
    with tempfile.TemporaryDirectory() as tmp, _cpus(cpus):
        clip, raw = Path(tmp, "clip.y4m"), Path(tmp, "clip.yuv")
        clip.write_bytes(y4m)
        raw.write_bytes(yuv)
        for command, expected in zip(("analyze", "plan"), want):
            assert _run([command, str(clip), *flags]) == expected
            assert _run([command, "-", *flags], stdin=y4m) == expected
            assert _run([command, str(raw), *geometry, *flags]) == expected
            assert _run([command, "-", *geometry, *flags], stdin=yuv) == expected


@pytest.mark.parametrize(
    "cpus, key_interval, limit",
    [
        (1, None, 3),
        (1, 5, 3),
        (2, None, 4),
        # a keyframe's predecessor is kept until the next frame arrives; if
        # the other worker still holds an older pair then, that is one more
        (2, 5, 5),
    ],
)
def test_plan_sequence_holds_a_few_frames_at_once(cpus, key_interval, limit):
    base = list(generate(SynthSpec("pan", 48, 32, 40, amplitude=1.0)))
    refs: list[weakref.ref] = []
    peak = 0

    def frames():
        nonlocal peak
        for f in base:
            frame = f.copy()
            refs.append(weakref.ref(frame))
            peak = max(peak, sum(r() is not None for r in refs))
            yield frame
            del frame

    with _cpus(cpus):
        streamed = plan_sequence(frames(), key_interval=key_interval)
    assert len(refs) == 40
    assert 2 <= peak <= limit
    batch = plan_sequence(base, key_interval=key_interval)
    assert plans_to_json(streamed) == plans_to_json(batch)


@pytest.mark.parametrize(
    "frames, message",
    [
        ([], "need at least two frames"),
        ([np.zeros((16, 16), np.uint8)], "need at least two frames"),
        ([np.zeros((8, 16), np.uint8)] * 2, "at least 16x16"),
        (
            [np.zeros((16, 16), np.uint8), np.zeros((16, 16), np.int16)],
            "2-D uint8",
        ),
        (
            [np.zeros((16, 16), np.uint8)] * 2 + [np.zeros((16, 32), np.uint8)],
            "^frame 2 is 32x16, expected 16x16$",
        ),
        (
            [np.zeros((16, 16), np.uint8)] * 2 + [np.zeros((8, 16), np.uint8)],
            "^frame 2 is 16x8, expected 16x16$",
        ),
    ],
    ids=["empty", "one-frame", "small", "int16", "mixed-sizes", "small-later"],
)
def test_plan_sequence_checks_each_frame(frames, message):
    with pytest.raises(ValueError, match=message):
        plan_sequence(iter(frames))


def _y4m(frames: list[np.ndarray]) -> bytes:
    out = io.BytesIO()
    write_y4m(frames, out)
    return out.getvalue()


@settings(max_examples=20, deadline=None)
@given(
    kinds=st.sampled_from([("static", "static_noise"), ("pan", "cut"), ("cut", "cut")]),
    frames=st.integers(1, 12),
    width=st.integers(16, 72),
    height=st.integers(16, 56),
    cpus=st.sampled_from([1, 2]),
)
def test_streamed_quality_equals_the_per_pair_reference(
    kinds, frames, width, height, cpus
):
    # synth makes at least two frames; a clip of one is cut from them
    specs = [SynthSpec(k, width, height, max(frames, 2), 3.0, seed=i) for i, k in
             enumerate(kinds)]
    ref, dist = (list(generate(s))[:frames] for s in specs)
    scores = [(psnr(r, d), ssim(r, d)) for r, d in zip(ref, dist)]
    rows = [f"{i},{p:.6f},{s:.8f}" for i, (p, s) in enumerate(scores)]
    mean_psnr = math.fsum(p for p, _ in scores) / frames
    mean_ssim = math.fsum(s for _, s in scores) / frames
    mean = f"mean,{mean_psnr:.6f},{mean_ssim:.8f}"
    want = "\n".join(["frame,psnr_db,ssim", *rows, mean, ""])

    clips = [_y4m(ref), _y4m(dist)]
    with tempfile.TemporaryDirectory() as tmp, _cpus(cpus):
        paths = [str(Path(tmp, name)) for name in ("ref.y4m", "dist.y4m")]
        for path, data in zip(paths, clips):
            Path(path).write_bytes(data)
        assert _run(["quality", *paths]) == want
        assert _run(["quality", "-", paths[1]], stdin=clips[0]) == want
        assert _run(["quality", paths[0], "-"], stdin=clips[1]) == want


@pytest.mark.parametrize(
    "counts", [(3, 5), (5, 3)], ids=["distorted-longer", "reference-longer"]
)
def test_quality_counts_the_rest_of_the_longer_clip(counts, tmp_path, capsys):
    paths = []
    for name, frames in zip(("ref.y4m", "dist.y4m"), counts):
        paths.append(str(tmp_path / name))
        write_y4m(generate(SynthSpec("static", 32, 32, frames)), paths[-1])
    assert main(["quality", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gfstill: frame counts differ: %d vs %d\n" % counts


@pytest.mark.parametrize("length", [8, 40])
@pytest.mark.parametrize("cpus", [1, 2])
def test_sequence_quality_holds_a_few_frames_at_once(cpus, length):
    specs = [SynthSpec("static_noise", 48, 32, length, 3.0, seed) for seed in (0, 1)]
    ref, dist = (list(generate(s)) for s in specs)
    refs: list[weakref.ref] = []
    peak = 0

    def frames(clip):
        nonlocal peak
        for f in clip:
            frame = f.copy()
            refs.append(weakref.ref(frame))
            peak = max(peak, sum(r() is not None for r in refs))
            yield frame
            del frame

    with _cpus(cpus):
        streamed = sequence_quality(frames(ref), frames(dist))
    assert len(refs) == 2 * length
    assert 2 <= peak <= 2 * cpus + 3
    assert streamed == sequence_quality(ref, dist)
