"""Raw video I/O: YUV4MPEG2 (Y4M) reading/writing and headerless planar YUV.

Analysis downstream is luma-only; chroma planes only size each frame's
payload and are never read.  Writing always emits 4:2:0 with
neutral chroma, so a load/write/load cycle preserves luma exactly.
"""

from __future__ import annotations

import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

MIN_DIMENSION = 16

# the space after the magic word is part of the signature
Y4M_SIGNATURE = b"YUV4MPEG2 "

# Each accepted 8-bit colorspace token: (chroma planes, horizontal and
# vertical chroma subsampling).  Only luma is analysed; the rest sizes the
# payload.
_COLORSPACES = {
    "420": (2, 2, 2),
    "420jpeg": (2, 2, 2),
    "420mpeg2": (2, 2, 2),
    "420paldv": (2, 2, 2),
    "422": (2, 2, 1),
    "444": (2, 1, 1),
    "mono": (0, 1, 1),
}
# The layouts a headerless file may declare (`--chroma`).
RAW_CHROMA = ("420", "444")

_TOKEN = re.compile(rb"[^ ]+")
# A header number is ASCII digits; int() would also take "+", "_" and
# spaces.  A leading "-" is kept so that a negative value fails as out of
# range rather than as malformed.
_NUMBER = re.compile(rb"-?[0-9]+")
_FRAME_LINE = re.compile(rb"FRAME( .*)?")


class Y4mError(ValueError):
    """Stream-level Y4M failure; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_luma(plane: np.ndarray) -> None:
    """Raise ValueError unless `plane` is a 2-D uint8 array.  Nothing is
    cast: a cast would wrap out-of-range values into plausible samples."""
    if isinstance(plane, np.ndarray):
        if plane.dtype == np.uint8 and plane.ndim == 2:
            return
        got = f"a {plane.ndim}-D {plane.dtype} array"
    else:
        got = type(plane).__name__
    raise ValueError(f"a frame must be a 2-D uint8 array, got {got}")


def _integer(name: str, value) -> int:
    """`value` as an int; ValueError unless it has __index__ (floats and str do not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


@dataclass(eq=False)
class FramePlane:
    """A single 8-bit luma plane: a 2-D uint8 array at least 16x16."""

    samples: np.ndarray

    def __post_init__(self):
        check_luma(self.samples)
        h, w = self.samples.shape
        if w < MIN_DIMENSION or h < MIN_DIMENSION:
            raise ValueError(
                f"frame must be at least {MIN_DIMENSION}x{MIN_DIMENSION}, "
                f"got {w}x{h}"
            )


@dataclass
class VideoSequence:
    """An ordered list of equally sized luma frames."""

    frames: list[FramePlane]
    frame_rate: tuple[int, int] = (30, 1)

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a video sequence needs at least one frame")
        h, w = self.frames[0].samples.shape
        for i, f in enumerate(self.frames):
            fh, fw = f.samples.shape
            if (fh, fw) != (h, w):
                raise ValueError(f"frame {i} is {fw}x{fh}, expected {w}x{h}")
        # ints, so that write_y4m writes a header load_y4m reads
        self.frame_rate = tuple(_integer("frame rate term", t) for t in self.frame_rate)
        num, den = self.frame_rate
        if num <= 0 or den <= 0:
            raise ValueError("frame rate must be a positive rational")

    @property
    def width(self) -> int:
        return self.frames[0].samples.shape[1]

    @property
    def height(self) -> int:
        return self.frames[0].samples.shape[0]


Source = Union[str, Path, bytes, BinaryIO]


@contextmanager
def _opened(target, mode: str, **open_args):
    """Open and close `target` if it is a path; pass a stream through."""
    if isinstance(target, (str, Path)):
        with open(target, mode, **open_args) as stream:
            yield stream
    else:
        yield target


def _read_all(source: Source) -> bytes:
    if isinstance(source, bytes):
        return source
    with _opened(source, "rb") as stream:
        return stream.read()


def _frame_size(width: int, height: int, colorspace: str) -> int:
    planes, sub_x, sub_y = _COLORSPACES[colorspace]
    # a subsampled plane rounds an odd luma dimension up
    return width * height + planes * -(-width // sub_x) * -(-height // sub_y)


def _header_number(value: bytes) -> int:
    if not _NUMBER.fullmatch(value):
        raise ValueError(f"not a header number: {value!r}")
    return int(value)


def _header_dimension(name: str, value: bytes, pos: int) -> int:
    size = _header_number(value)
    if size < MIN_DIMENSION:
        raise Y4mError(f"{name} must be at least {MIN_DIMENSION}, got {size}", pos)
    return size


def _frames(
    data: bytes, pos: int, width: int, height: int, frame_bytes: int, marker: bool
) -> list[FramePlane]:
    """Cut `data` from `pos` into payloads of `frame_bytes`, each after a
    FRAME line when `marker` is set, and copy out each luma plane."""
    frames: list[FramePlane] = []
    while pos < len(data):
        if marker:
            end = data.find(b"\n", pos)
            if end < 0 or not _FRAME_LINE.fullmatch(data, pos, end):
                raise Y4mError("expected FRAME marker", pos)
            pos = end + 1
        if len(data) - pos < frame_bytes:
            raise Y4mError(
                f"truncated frame payload: needed {frame_bytes} bytes, "
                f"got {len(data) - pos}",
                pos,
            )
        luma = np.frombuffer(data, np.uint8, width * height, pos)
        frames.append(FramePlane(luma.reshape(height, width).copy()))
        pos += frame_bytes
    if not frames:
        raise Y4mError("stream contains no frames", pos)
    return frames


def load_y4m(source: Source) -> VideoSequence:
    """Parse a YUV4MPEG2 stream into luma frames.

    Accepts 8-bit 4:2:0 (any siting), 4:2:2, 4:4:4 and mono only.  Malformed
    signatures or FRAME lines, unsupported colorspace tokens, frames under
    16x16, nonpositive frame rates and truncated payloads raise Y4mError
    with the byte offset of the problem.
    """
    data = _read_all(source)
    if not data.startswith(Y4M_SIGNATURE):
        raise Y4mError("malformed YUV4MPEG2 signature", 0)
    header_end = data.find(b"\n")
    if header_end < 0:
        raise Y4mError("stream header is missing its newline", 0)

    width = height = 0
    rate = (30, 1)
    colorspace = "420"
    for match in _TOKEN.finditer(data, len(Y4M_SIGNATURE), header_end):
        pos, token = match.start(), match.group()
        tag, value = token[:1], token[1:]
        try:
            if tag == b"W":
                width = _header_dimension("width", value, pos)
            elif tag == b"H":
                height = _header_dimension("height", value, pos)
            elif tag == b"F":
                num, den = value.split(b":")
                rate = (_header_number(num), _header_number(den))
                if min(rate) <= 0:
                    raise Y4mError(
                        "frame rate must be a positive rational, "
                        f"got {value.decode('ascii')}",
                        pos,
                    )
            elif tag == b"C":
                colorspace = value.decode("ascii", "replace")
                if colorspace not in _COLORSPACES:
                    raise Y4mError(
                        f"unsupported colorspace or bit depth {token.decode('ascii', 'replace')!r}",
                        pos,
                    )
            # I, A and X tags are legal but irrelevant here.
        except (ValueError, IndexError) as exc:
            if isinstance(exc, Y4mError):
                raise
            raise Y4mError(
                f"malformed header token {token.decode('ascii', 'replace')!r}", pos
            ) from exc
    if width <= 0 or height <= 0:
        raise Y4mError("header does not declare both W and H", 0)

    frame_bytes = _frame_size(width, height, colorspace)
    return VideoSequence(
        _frames(data, header_end + 1, width, height, frame_bytes, marker=True), rate
    )


def load_yuv(source: Source, width: int, height: int, chroma: str = "420") -> VideoSequence:
    """Read headerless planar YUV given externally supplied geometry."""
    if chroma not in RAW_CHROMA:
        raise ValueError(f"unsupported raw chroma format {chroma!r}")
    if width < MIN_DIMENSION or height < MIN_DIMENSION:
        raise ValueError(
            f"raw frames must be at least {MIN_DIMENSION}x{MIN_DIMENSION}, "
            f"got {width}x{height}"
        )
    frame_bytes = _frame_size(width, height, chroma)
    return VideoSequence(
        _frames(_read_all(source), 0, width, height, frame_bytes, marker=False)
    )


def write_y4m(sequence: VideoSequence, sink: Union[str, Path, BinaryIO]) -> int:
    """Serialize luma as 8-bit 4:2:0 Y4M with neutral (128) chroma.

    Returns the number of bytes written.
    """
    w, h = sequence.width, sequence.height
    num, den = sequence.frame_rate
    header = f"YUV4MPEG2 W{w} H{h} F{num}:{den} Ip A0:0 C420\n".encode("ascii")
    neutral = bytes([128]) * (_frame_size(w, h, "420") - w * h)
    with _opened(sink, "wb") as out:
        written = out.write(header)
        for frame in sequence.frames:
            written += out.write(b"FRAME\n")
            written += out.write(frame.samples.tobytes())
            written += out.write(neutral)
    return written
