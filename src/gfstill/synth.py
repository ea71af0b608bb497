"""Deterministic synthetic test clips.

Pixel values derive from an integer hash of (seed, tag, lattice position),
never from a platform RNG, so the same spec yields bit-identical frames on
any machine.  The base image is multi-octave value noise: smooth enough to
look like content, varied enough at the 4 px scale that a shifted copy
never matches itself under the zero vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .video_io import MIN_DIMENSION, FramePlane, VideoSequence, _integer, check_size

SYNTH_KINDS = ("static", "static_noise", "pan", "zoom", "cut")

# (wavelength px, weight) per octave; weights sum to 1
_OCTAVES = ((32, 0.55), (8, 0.30), (4, 0.15))

_U64 = np.uint64


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    width: int = 176
    height: int = 144
    frame_count: int = 16
    amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValueError(f"kind must be one of {SYNTH_KINDS}")
        for name in ("width", "height", "frame_count", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        check_size(self.width, self.height, MIN_DIMENSION)
        if self.frame_count < 2:
            raise ValueError("frame_count must be >= 2")
        # written so that NaN fails: it compares False with anything
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(
                f"amplitude must be finite and >= 0, got {self.amplitude}"
            )


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, vectorised over uint64.

    Overflow is the point: all arithmetic is modulo 2**64.
    """
    with np.errstate(over="ignore"):
        z = z + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _hash01(seed: int, tag: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) floats keyed by (seed, tag, y, x)."""
    base = _mix64(np.asarray(_U64(seed & 0xFFFFFFFFFFFFFFFF))) ^ _mix64(
        np.asarray(_U64(tag))
    )
    with np.errstate(over="ignore"):
        h = _mix64(base + ys.astype(_U64) * _U64(0x9E3779B97F4A7C15))
        h = _mix64(h ^ (xs.astype(_U64) * _U64(0xC2B2AE3D27D4EB4F)))
    return (h >> _U64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(seed: int, tag: int, width: int, height: int) -> np.ndarray:
    """Multi-octave bilinear value noise quantised to uint8."""
    ys = np.arange(height, dtype=np.int64)[:, None]
    xs = np.arange(width, dtype=np.int64)[None, :]
    acc = np.zeros((height, width), dtype=np.float64)
    for octave, (wavelength, weight) in enumerate(_OCTAVES):
        j, ty = np.divmod(ys, wavelength)
        i, tx = np.divmod(xs, wavelength)
        ty = ty / wavelength
        tx = tx / wavelength
        # hash each lattice point once, then look the four corners up
        lattice = _hash01(
            seed,
            tag * 8 + octave + 1,
            np.arange(j[-1, 0] + 2, dtype=np.int64)[:, None],
            np.arange(i[0, -1] + 2, dtype=np.int64)[None, :],
        )
        v00 = lattice[j, i]
        v01 = lattice[j, i + 1]
        v10 = lattice[j + 1, i]
        v11 = lattice[j + 1, i + 1]
        top = v00 * (1.0 - tx) + v01 * tx
        bottom = v10 * (1.0 - tx) + v11 * tx
        acc += weight * (top * (1.0 - ty) + bottom * ty)
    return np.clip(np.rint(acc * 255.0), 0, 255).astype(np.uint8)


def _pan_frame(base: np.ndarray, offset: int) -> np.ndarray:
    # content travels right; the vacated left band replicates the edge column
    w = base.shape[1]
    idx = np.clip(np.arange(w) - offset, 0, w - 1)
    return base[:, idx]


def _zoom_frame(base: np.ndarray, scale: float) -> np.ndarray:
    h, w = base.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys = np.clip(np.rint(cy + (np.arange(h) - cy) / scale), 0, h - 1).astype(np.int64)
    xs = np.clip(np.rint(cx + (np.arange(w) - cx) / scale), 0, w - 1).astype(np.int64)
    return base[np.ix_(ys, xs)]


def generate(spec: SynthSpec) -> VideoSequence:
    """Render `spec` into a luma sequence.

    static repeats the base image; static_noise adds i.i.d. integer noise
    of standard deviation `amplitude`; pan translates by `amplitude` px per
    frame with edge replication; zoom rescales about the centre by
    `amplitude` (fractional) per frame, nearest neighbour; cut switches to
    an unrelated texture halfway through.
    """
    w, h, n = spec.width, spec.height, spec.frame_count
    base = _value_noise(spec.seed, 0, w, h)
    frames: list[np.ndarray] = []

    if spec.kind == "static":
        frames = [base.copy() for _ in range(n)]
    elif spec.kind == "static_noise":
        ys = np.arange(h, dtype=np.int64)[:, None]
        xs = np.arange(w, dtype=np.int64)[None, :]
        for f in range(n):
            # sum of three uniforms, recentred: mean 0, stdev = amplitude
            u = sum(
                _hash01(spec.seed, 1_000 + 3 * f + k, ys, xs) for k in range(3)
            )
            noise = np.rint((u - 1.5) * (2.0 * spec.amplitude))
            frames.append(
                np.clip(base.astype(np.int64) + noise.astype(np.int64), 0, 255).astype(
                    np.uint8
                )
            )
    elif spec.kind == "pan":
        for f in range(n):
            # past the frame width every offset gives the same frame
            offset = int(round(min(spec.amplitude * f, w)))
            frames.append(_pan_frame(base, offset))
    elif spec.kind == "zoom":
        scale = 1.0
        for _ in range(n):
            frames.append(_zoom_frame(base, scale))
            scale *= 1.0 + spec.amplitude
    else:  # cut
        other = _value_noise(spec.seed, 7, w, h)
        half = n // 2
        frames = [base.copy() for _ in range(half)]
        frames += [other.copy() for _ in range(n - half)]

    return VideoSequence([FramePlane(fr) for fr in frames])
