"""Raw video I/O: YUV4MPEG2 (Y4M) reading/writing and headerless planar YUV.

Analysis downstream is luma-only; chroma planes only size each frame's
payload and are never read.  Writing always emits 4:2:0 with
neutral chroma, so a read/write/read cycle preserves luma exactly.
"""

from __future__ import annotations

import io
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

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
# A luma plane is read into an array of at most this many bytes that doubles
# as it fills, so a header that declares a huge frame fails as a truncated
# payload instead of allocating the declared size.  A 4096x4096 plane fits
# in the first array.
_PIECE = 1 << 24


class Y4mError(ValueError):
    """Stream-level Y4M failure; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_size(w: int, h: int, minimum: int) -> None:
    """Raise ValueError unless a w x h frame is at least `minimum` each way."""
    if min(w, h) < minimum:
        raise ValueError(f"frame must be at least {minimum}x{minimum}, got {w}x{h}")


def check_luma(plane: np.ndarray, minimum: int) -> None:
    """Raise ValueError unless `plane` is a 2-D uint8 array that check_size
    accepts.  Nothing is cast: a cast would wrap out-of-range values into
    plausible samples."""
    if not isinstance(plane, np.ndarray):
        got = type(plane).__name__
    elif plane.dtype != np.uint8 or plane.ndim != 2:
        got = f"a {plane.ndim}-D {plane.dtype} array"
    else:
        return check_size(plane.shape[1], plane.shape[0], minimum)
    raise ValueError(f"a frame must be a 2-D uint8 array, got {got}")


def check_pair(
    a: np.ndarray, b: np.ndarray, names: tuple[str, str], minimum: int
) -> None:
    """Raise ValueError unless `a` and `b` are planes of one size that
    check_luma accepts; `names` name the two in the message."""
    check_luma(a, minimum)
    check_luma(b, minimum)
    if a.shape != b.shape:
        raise ValueError(
            f"{names[0]} is {a.shape[1]}x{a.shape[0]}, "
            f"{names[1]} is {b.shape[1]}x{b.shape[0]}"
        )


def checked_frames(frames: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield each of `frames` once check_luma accepts it, the first at
    MIN_DIMENSION and each later one at the first's size, named by its index."""
    shape = None
    for i, frame in enumerate(frames):
        check_luma(frame, 0 if shape else MIN_DIMENSION)
        shape = shape or frame.shape
        if frame.shape != shape:
            (h, w), (fh, fw) = shape, frame.shape
            raise ValueError(f"frame {i} is {fw}x{fh}, expected {w}x{h}")
        yield frame


def _integer(name: str, value) -> int:
    """`value` as an int; ValueError unless it has __index__ (floats and str do not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


@dataclass(frozen=True, eq=False)
class FramePlane:
    """A single 8-bit luma plane: a 2-D uint8 array at least 16x16."""

    samples: np.ndarray

    def __post_init__(self):
        check_luma(self.samples, MIN_DIMENSION)


@dataclass(frozen=True)
class VideoSequence:
    """An ordered tuple of equally sized luma frames, fixed once made: any
    iterable of frames is stored as a tuple."""

    frames: tuple[FramePlane, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ValueError("a video sequence needs at least one frame")
        for _ in checked_frames(self):
            pass

    def __iter__(self) -> Iterator[np.ndarray]:
        return (f.samples for f in self.frames)


Source = Union[str, Path, bytes, BinaryIO]


@contextmanager
def _opened(target, mode: str, **open_args):
    """Open and close `target` if it is a path; read `bytes` through a
    stream; pass a stream through."""
    if isinstance(target, (str, Path)):
        with open(target, mode, **open_args) as stream:
            yield stream
    elif isinstance(target, bytes):
        yield io.BytesIO(target)
    else:
        yield target


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


def _fill(stream: BinaryIO, view: memoryview) -> int:
    """Read into `view` until it is full or the stream ends; returns the count."""
    got = 0
    while got < len(view):
        n = stream.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def _read_luma(stream: BinaryIO, size: int) -> np.ndarray:
    """Up to `size` bytes as a flat uint8 array, fewer only where the stream
    ends.  The array starts at _PIECE bytes at most and doubles as it fills,
    so a declared size far beyond the bytes present is never allocated."""
    buf = np.empty(min(size, _PIECE), np.uint8)
    got = _fill(stream, memoryview(buf))
    while got == buf.size < size:
        grown = np.empty(min(size, 2 * buf.size), np.uint8)
        grown[:got] = buf
        buf = grown
        got += _fill(stream, memoryview(buf)[got:])
    return buf[:got]


def _frames(
    stream: BinaryIO, pos: int, width: int, height: int, frame_bytes: int, marker: bool
) -> Iterator[np.ndarray]:
    """Read payloads of `frame_bytes` from `stream`, which is at byte `pos`,
    each after a FRAME line when `marker` is set, and yield each luma plane
    as it is read.  Chroma is read into one scratch buffer and dropped."""
    luma = width * height
    # allocated after the first whole luma plane, which bounds its size
    chroma = None
    count = 0
    while True:
        if marker:
            line = stream.readline()
            if not line:
                break
            if not (line.endswith(b"\n") and _FRAME_LINE.fullmatch(line, 0, len(line) - 1)):
                raise Y4mError("expected FRAME marker", pos)
            pos += len(line)
        plane = _read_luma(stream, luma)
        got = plane.size
        if not got and not marker:
            break
        if got == luma:
            if chroma is None:
                chroma = memoryview(np.empty(frame_bytes - luma, np.uint8))
            got += _fill(stream, chroma)
        if got < frame_bytes:
            raise Y4mError(
                f"truncated frame payload: needed {frame_bytes} bytes, got {got}", pos
            )
        yield plane.reshape(height, width)
        del plane  # the caller may drop the frame before asking for the next
        pos += frame_bytes
        count += 1
    if not count:
        raise Y4mError("stream contains no frames", pos)


def y4m_frames(source: Source) -> Iterator[np.ndarray]:
    """Yield the luma planes of a YUV4MPEG2 stream one at a time, each read
    from the stream as it is asked for.

    Accepts 8-bit 4:2:0 (any siting), 4:2:2, 4:4:4 and mono only.  Malformed
    signatures or FRAME lines, unsupported colorspace tokens, frames under
    16x16, nonpositive frame rates and truncated payloads raise Y4mError
    with the byte offset of the problem.
    """
    with _opened(source, "rb") as stream:
        header = stream.readline()
        if not header.startswith(Y4M_SIGNATURE):
            raise Y4mError("malformed YUV4MPEG2 signature", 0)
        if not header.endswith(b"\n"):
            raise Y4mError("stream header is missing its newline", 0)

        width = height = 0
        colorspace = "420"
        for match in _TOKEN.finditer(header, len(Y4M_SIGNATURE), len(header) - 1):
            pos, token = match.start(), match.group()
            tag, value = token[:1], token[1:]
            try:
                if tag == b"W":
                    width = _header_dimension("width", value, pos)
                elif tag == b"H":
                    height = _header_dimension("height", value, pos)
                elif tag == b"F":
                    num, den = value.split(b":")
                    if min(_header_number(num), _header_number(den)) <= 0:
                        raise Y4mError(
                            "frame rate must be a positive rational, "
                            f"got {value.decode('ascii')}",
                            pos,
                        )
                elif tag == b"C":
                    colorspace = value.decode("ascii", "replace")
                    if colorspace not in _COLORSPACES:
                        raise Y4mError(
                            "unsupported colorspace or bit depth "
                            f"{token.decode('ascii', 'replace')!r}",
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
        yield from _frames(stream, len(header), width, height, frame_bytes, marker=True)


def yuv_frames(
    source: Source, width: int, height: int, chroma: str = "420"
) -> Iterator[np.ndarray]:
    """Yield the luma planes of headerless planar YUV of the given geometry
    one at a time, each read from the stream as it is asked for."""
    if chroma not in RAW_CHROMA:
        raise ValueError(f"unsupported raw chroma format {chroma!r}")
    check_size(width, height, MIN_DIMENSION)
    frame_bytes = _frame_size(width, height, chroma)
    with _opened(source, "rb") as stream:
        yield from _frames(stream, 0, width, height, frame_bytes, marker=False)


def write_y4m(frames: Iterable[np.ndarray], sink: Union[str, Path, BinaryIO]) -> int:
    """Serialize 2-D uint8 luma frames of one size, at least 16x16, as 8-bit
    4:2:0 Y4M at 30 frames per second with neutral (128) chroma.

    `frames` may be any iterable.  It is listed in full and every frame is
    checked before `sink` is opened, so a ValueError leaves no file, and
    memory grows with the clip's length.  Returns the number of bytes
    written.
    """
    frames = list(checked_frames(frames))
    if not frames:
        raise ValueError("there are no frames to write")
    h, w = frames[0].shape
    header = f"YUV4MPEG2 W{w} H{h} F30:1 Ip A0:0 C420\n".encode("ascii")
    neutral = bytes([128]) * (_frame_size(w, h, "420") - w * h)
    with _opened(sink, "wb") as out:
        written = out.write(header)
        for frame in frames:
            written += out.write(b"FRAME\n")
            written += out.write(frame.tobytes())
            written += out.write(neutral)
    return written
