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

from .parallel import cpus, ordered_map
from .video_io import MIN_DIMENSION, FramePlane, VideoSequence, _integer, check_size

SYNTH_KINDS = ("static", "static_noise", "pan", "zoom", "cut")

# (wavelength px, weight) per octave; weights sum to 1
_OCTAVES = ((32, 0.55), (8, 0.30), (4, 0.15))

_U64 = np.uint64

# samples in each band of rows a noise frame or base image is rendered in:
# its buffers stay in cache and no frame-sized float temporary is allocated
_BAND_SAMPLES = 2**16


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


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finaliser, in place on the uint64 array `z`, which it returns.

    `tmp`, an array like `z`, saves the scratch allocation.  Overflow is the
    point: all arithmetic is modulo 2**64, which numpy never checks on arrays.
    """
    t = np.empty_like(z) if tmp is None else tmp
    z += _U64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, _U64(shift), out=t)
        z *= _U64(factor)
    z ^= np.right_shift(z, _U64(31), out=t)
    return z


def _row_keys(seed: int, tag: int, height: int) -> np.ndarray:
    """The (height, 1) keys that _hash01 mixes with each column's key."""
    base = _mix64(np.array([seed & 0xFFFFFFFFFFFFFFFF, tag], _U64))
    ys = np.arange(height, dtype=_U64)[:, None] * _U64(0x9E3779B97F4A7C15)
    return _mix64(ys + (base[0] ^ base[1]))


def _column_keys(width: int) -> np.ndarray:
    return np.arange(width, dtype=_U64)[None, :] * _U64(0xC2B2AE3D27D4EB4F)


def _hash01(seed: int, tag: int, height: int, width: int) -> np.ndarray:
    """Uniform [0, 1) floats keyed by (seed, tag, y, x), shape (height, width)."""
    h = _mix64(_row_keys(seed, tag, height) ^ _column_keys(width))
    return (h >> _U64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(seed: int, tag: int, width: int, height: int) -> np.ndarray:
    """Multi-octave bilinear value noise quantised to uint8, a band of rows
    at a time."""
    octaves = []
    for octave, (wavelength, weight) in enumerate(_OCTAVES):
        j, ty = np.divmod(np.arange(height), wavelength)
        i, tx = np.divmod(np.arange(width), wavelength)
        ty = (ty / wavelength)[:, None]
        tx = tx / wavelength
        lattice = _hash01(seed, tag * 8 + octave + 1, j[-1] + 2, i[-1] + 2)
        # interpolate along each lattice row once, then between the rows:
        # the same operations on the same operands as at each pixel's corners
        rows = lattice[:, i] * (1.0 - tx) + lattice[:, i + 1] * tx
        octaves.append((weight, rows, j, ty))
    image = np.empty((height, width), np.uint8)
    band_rows = max(1, _BAND_SAMPLES // width)
    for y in range(0, height, band_rows):
        band = np.s_[y : y + band_rows]
        acc = np.zeros(image[band].shape)
        for weight, rows, j, ty in octaves:
            jb, tyb = j[band], ty[band]
            acc += weight * (rows[jb] * (1.0 - tyb) + rows[jb + 1] * tyb)
        image[band] = np.clip(np.rint(acc * 255.0), 0, 255)
    return image


def _noise_frame(
    spec: SynthSpec, base: np.ndarray, columns: np.ndarray, f: int
) -> np.ndarray:
    """`base` plus frame f's noise, a band of rows at a time in reused buffers;
    `columns` is _column_keys of the width."""
    h, w = base.shape
    keys = [_row_keys(spec.seed, 1_000 + 3 * f + k, h) for k in range(3)]
    rows = max(1, _BAND_SAMPLES // w)
    z = np.empty((rows, w), _U64)
    tmp = np.empty_like(z)
    u = np.empty(z.shape)
    frame = np.empty_like(base)
    for y in range(0, h, rows):
        n = min(rows, h - y)
        band = np.s_[y : y + n]
        zb, ub = z[:n], u[:n]
        # sum of three uniforms, each (hash >> 11) / 2**53, recentred: mean 0,
        # stdev = amplitude.  The sum is scaled by 2**-53 once: a power of
        # two commutes with each rounding, so the floats are the same
        for k, key in enumerate(keys):
            _mix64(np.bitwise_xor(key[band], columns, out=zb), tmp[:n])
            zb >>= _U64(11)
            if k:
                ub += zb
            else:
                ub[...] = zb
        ub *= 2.0**-53
        ub -= 1.5
        with np.errstate(over="ignore"):  # past about 6e307 the noise is inf
            ub *= 2.0 * spec.amplitude
        np.rint(ub, out=ub)
        # clipped as floats: noise past 2**63 has no int64 to cast to
        ub += base[band]
        frame[band] = np.clip(ub, 0, 255, out=ub)
    return frame


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
    of standard deviation `amplitude`, saturating at 0 and 255; pan
    translates by `amplitude` px per frame with edge replication; zoom
    rescales about the centre by `amplitude` (fractional) per frame, nearest
    neighbour; cut switches to an unrelated texture halfway through.
    """
    w, h, n = spec.width, spec.height, spec.frame_count
    base = _value_noise(spec.seed, 0, w, h)
    frames: list[np.ndarray] = []

    if spec.kind == "static":
        frames = [base.copy() for _ in range(n)]
    elif spec.kind == "static_noise":
        columns = _column_keys(w)
        frames = ordered_map(
            lambda f: _noise_frame(spec, base, columns, f), range(n), min(n, cpus())
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
