"""Raw video I/O: YUV4MPEG2 (Y4M) reading/writing and headerless planar YUV.

Analysis downstream is luma-only; chroma planes are parsed so the stream
position stays correct, then discarded.  Writing always emits 4:2:0 with
neutral chroma, so a load/write/load cycle preserves luma exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

MIN_DIMENSION = 16

Y4M_SIGNATURE = b"YUV4MPEG2"

# 8-bit colorspace tokens we accept, mapped to the chroma layout.
_COLORSPACES = {
    b"420": "420",
    b"420jpeg": "420",
    b"420mpeg2": "420",
    b"420paldv": "420",
    b"444": "444",
}


class Y4mError(ValueError):
    """Stream-level Y4M failure; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class FramePlane:
    """A single 8-bit luma plane, row-major, at least 16x16."""

    width: int
    height: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width < MIN_DIMENSION or self.height < MIN_DIMENSION:
            raise ValueError(
                f"frame must be at least {MIN_DIMENSION}x{MIN_DIMENSION}, "
                f"got {self.width}x{self.height}"
            )
        arr = np.asarray(self.samples)
        if arr.dtype != np.uint8:
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("luma samples must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        if arr.ndim == 1:
            arr = arr.reshape(self.height, self.width)
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"sample buffer shape {arr.shape} does not match "
                f"{self.width}x{self.height}"
            )
        self.samples = arr

    @property
    def pixels(self) -> int:
        return self.width * self.height


@dataclass
class VideoSequence:
    """An ordered list of equally sized luma frames."""

    frames: list[FramePlane]
    frame_rate: tuple[int, int] = (30, 1)
    source_name: str = ""

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a video sequence needs at least one frame")
        w, h = self.frames[0].width, self.frames[0].height
        for i, f in enumerate(self.frames):
            if (f.width, f.height) != (w, h):
                raise ValueError(
                    f"frame {i} is {f.width}x{f.height}, expected {w}x{h}"
                )
        num, den = self.frame_rate
        if num <= 0 or den <= 0:
            raise ValueError("frame rate must be a positive rational")

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def fps(self) -> float:
        return self.frame_rate[0] / self.frame_rate[1]


Plane = Union[FramePlane, np.ndarray]


def _as_samples(plane: Plane) -> np.ndarray:
    if isinstance(plane, FramePlane):
        return plane.samples
    return np.asarray(plane, dtype=np.uint8)


Source = Union[str, Path, bytes, BinaryIO]


def _read_all(source: Source) -> tuple[bytes, str]:
    if isinstance(source, bytes):
        return source, ""
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes(), str(source)
    data = source.read()
    return data, getattr(source, "name", "") or ""


def _chroma_dims(width: int, height: int, chroma: str) -> tuple[int, int]:
    if chroma == "444":
        return width, height
    return (width + 1) // 2, (height + 1) // 2


def load_y4m(source: Source) -> VideoSequence:
    """Parse a YUV4MPEG2 stream into luma frames.

    Accepts 8-bit 4:2:0 and 4:4:4 streams only.  Malformed signatures,
    unsupported colorspace tokens and truncated payloads raise Y4mError
    with the byte offset of the problem.
    """
    data, name = _read_all(source)
    if not data.startswith(Y4M_SIGNATURE):
        raise Y4mError("malformed YUV4MPEG2 signature", 0)
    header_end = data.find(b"\n")
    if header_end < 0:
        raise Y4mError("stream header is missing its newline", 0)

    width = height = 0
    rate = (30, 1)
    chroma = "420"
    pos = len(Y4M_SIGNATURE)
    while pos < header_end:
        # skip the separating space to land on the tag character
        while pos < header_end and data[pos] == 0x20:
            pos += 1
        if pos >= header_end:
            break
        end = data.find(b" ", pos, header_end)
        if end < 0:
            end = header_end
        token = data[pos:end]
        tag, value = token[:1], token[1:]
        try:
            if tag == b"W":
                width = int(value.decode("ascii"))
            elif tag == b"H":
                height = int(value.decode("ascii"))
            elif tag == b"F":
                num, den = value.decode("ascii").split(":")
                rate = (int(num), int(den))
            elif tag == b"C":
                if value not in _COLORSPACES:
                    raise Y4mError(
                        f"unsupported colorspace or bit depth {token.decode('ascii', 'replace')!r}",
                        pos,
                    )
                chroma = _COLORSPACES[value]
            # I, A and X tags are legal but irrelevant here.
        except (ValueError, IndexError) as exc:
            if isinstance(exc, Y4mError):
                raise
            raise Y4mError(
                f"malformed header token {token.decode('ascii', 'replace')!r}", pos
            ) from exc
        pos = end
    if width <= 0 or height <= 0:
        raise Y4mError("header does not declare both W and H", 0)

    cw, ch = _chroma_dims(width, height, chroma)
    luma_size = width * height
    chroma_size = cw * ch

    frames: list[FramePlane] = []
    pos = header_end + 1
    while pos < len(data):
        marker_end = data.find(b"\n", pos)
        if marker_end < 0 or not data[pos:marker_end].startswith(b"FRAME"):
            raise Y4mError("expected FRAME marker", pos)
        payload = marker_end + 1
        need = luma_size + 2 * chroma_size
        if len(data) - payload < need:
            raise Y4mError(
                f"truncated frame payload: needed {need} bytes, "
                f"got {len(data) - payload}",
                payload,
            )
        luma = np.frombuffer(data, np.uint8, luma_size, payload)
        frames.append(FramePlane(width, height, luma.reshape(height, width).copy()))
        pos = payload + need

    if not frames:
        raise Y4mError("stream contains no frames", pos)
    return VideoSequence(frames, rate, name)


def load_yuv(source: Source, width: int, height: int, chroma: str = "420") -> VideoSequence:
    """Read headerless planar YUV given externally supplied geometry."""
    if chroma not in ("420", "444"):
        raise ValueError(f"unsupported raw chroma format {chroma!r}")
    if width < MIN_DIMENSION or height < MIN_DIMENSION:
        raise ValueError(
            f"raw frames must be at least {MIN_DIMENSION}x{MIN_DIMENSION}, "
            f"got {width}x{height}"
        )
    data, name = _read_all(source)
    cw, ch = _chroma_dims(width, height, chroma)
    frame_size = width * height + 2 * cw * ch
    count, leftover = divmod(len(data), frame_size)
    if leftover:
        raise Y4mError(
            f"truncated frame payload: needed {frame_size} bytes, got {leftover}",
            count * frame_size,
        )
    if count == 0:
        raise Y4mError("stream contains no frames", 0)
    frames = []
    for i in range(count):
        luma = np.frombuffer(data, np.uint8, width * height, i * frame_size)
        frames.append(FramePlane(width, height, luma.reshape(height, width).copy()))
    return VideoSequence(frames, source_name=name)


def write_y4m(sequence: VideoSequence, sink: Union[str, Path, BinaryIO]) -> int:
    """Serialize luma as 8-bit 4:2:0 Y4M with neutral (128) chroma.

    Returns the number of bytes written.
    """
    w, h = sequence.width, sequence.height
    num, den = sequence.frame_rate
    header = f"YUV4MPEG2 W{w} H{h} F{num}:{den} Ip A0:0 C420\n".encode("ascii")
    cw, ch = _chroma_dims(w, h, "420")
    neutral = bytes([128]) * (cw * ch)

    own = isinstance(sink, (str, Path))
    out: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[arg-type]
    written = 0
    try:
        written += out.write(header)
        for frame in sequence.frames:
            written += out.write(b"FRAME\n")
            written += out.write(frame.samples.tobytes())
            written += out.write(neutral)
            written += out.write(neutral)
    finally:
        if own:
            out.close()
    return written


def serialize_y4m(sequence: VideoSequence) -> bytes:
    """In-memory write_y4m, handy for round-trip checks."""
    buf = io.BytesIO()
    write_y4m(sequence, buf)
    return buf.getvalue()
