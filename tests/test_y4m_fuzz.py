"""Mutation fuzz of Y4M input through the CLI.

A small valid clip has bytes flipped, inserted, deleted and cut off, and
the result goes through `analyze`, `plan` and `quality`.  Whatever the
bytes, the CLI must answer with an exit code (0 success, 1 usage, 2 bad
input) and never let an exception escape.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfstill.cli import main
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import write_y4m


def _valid_clip() -> bytes:
    buf = io.BytesIO()
    write_y4m(generate(SynthSpec("pan", 16, 16, 3, amplitude=1.0)), buf)
    return buf.getvalue()


CLIP = _valid_clip()
HEADER_LEN = CLIP.index(b"\n") + 1
MARKERS = [m.start() for m in re.finditer(b"FRAME", CLIP)]

# most faults worth finding sit in the header or at the FRAME markers, and
# a cut exactly at a marker leaves a shorter valid clip, so two thirds of
# the positions are drawn from those places
_POSITION = st.one_of(
    st.integers(0, HEADER_LEN + 8),
    st.sampled_from(MARKERS + [len(CLIP)]).flatmap(
        lambda m: st.integers(max(0, m - 2), m + 2)
    ),
    st.integers(0, len(CLIP)),
)
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(1, 255)),
    st.tuples(st.just("insert"), _POSITION, st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("delete"), _POSITION, st.integers(1, 6)),
    st.tuples(st.just("truncate"), _POSITION, st.none()),
)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, at, arg in mutations:
        at = min(at, len(buf))
        if kind == "flip":
            if at < len(buf):
                buf[at] ^= arg
        elif kind == "insert":
            buf[at:at] = arg
        elif kind == "delete":
            del buf[at : at + arg]
        else:
            del buf[at:]
    return bytes(buf)


def _exit_code(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(list(argv))


@pytest.fixture(scope="module")
def clip_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "valid.y4m").write_bytes(CLIP)
    return path


def test_valid_clip_passes_every_command(clip_dir):
    valid = str(clip_dir / "valid.y4m")
    for argv in (("analyze", valid), ("plan", valid), ("quality", valid, valid)):
        assert _exit_code(*argv) == 0


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_clip_never_escapes(clip_dir, mutations):
    valid = str(clip_dir / "valid.y4m")
    bad = clip_dir / "mutated.y4m"
    bad.write_bytes(_mutate(CLIP, mutations))
    for argv in (
        ("analyze", str(bad)),
        ("plan", str(bad)),
        ("quality", str(bad), valid),
        ("quality", valid, str(bad)),
    ):
        assert _exit_code(*argv) in (0, 1, 2), argv
