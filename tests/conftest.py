"""Shared fixtures and independently written oracles.

The oracles here deliberately avoid the library's vectorised code paths:
the motion-search oracles are a plain nested scan and a one-block diamond
walk with no cache, plus an unpruned whole-frame scan fast enough for real
frame sizes, and the SSIM oracle walks windows one by one.  They define what the fast implementations must match.
The SSIM window-mean reference adds each window's 11 row products left to
right in elementwise steps, the order the correlate row pass must keep.
The batch pipeline reference holds every frame at once and analyses each
group's pairs in turn, the way the streamed `plan_sequence` must agree with.
The synthetic clip reference renders each frame whole, one hash array per
step and the four lattice corners gathered at every pixel, which the banded
`generate` must match byte for byte.
"""

from __future__ import annotations

import io
import json
import math
from typing import Iterable

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gfstill.cli import dump_group_metrics, plans_to_json
from gfstill.first_pass import SearchConfig, analyze_frame
from gfstill.gop_planner import GroupPlanResult, plan_group, segment_groups
from gfstill.quality import _SSIM_TAPS, SSIM_WINDOW
from gfstill.stillness import (
    StillnessThresholds,
    classify_stillness,
    compute_group_metrics,
)
from gfstill.synth import _OCTAVES, _pan_frame, _zoom_frame
from gfstill.video_io import write_y4m


def brute_force_block_search(
    cur: np.ndarray,
    ref: np.ndarray,
    block_row: int,
    block_col: int,
    block_size: int = 16,
    search_range: int = 8,
) -> tuple[tuple[int, int], int, int]:
    """Full-window scan, one candidate at a time.

    Same contract as one block of gfstill.first_pass.motion_search (padded
    frames, skip out-of-bounds windows, tie-break on SSE then |dx|+|dy| then
    dy then dx) but written as the obvious quadruple loop.
    """
    h, w = cur.shape
    y0, x0 = block_row * block_size, block_col * block_size
    block = cur[y0 : y0 + block_size, x0 : x0 + block_size].astype(np.int64)

    best_key = None
    zero_sse = None
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            yy, xx = y0 + dy, x0 + dx
            if yy < 0 or xx < 0 or yy + block_size > h or xx + block_size > w:
                continue
            window = ref[yy : yy + block_size, xx : xx + block_size].astype(np.int64)
            sse = int(((block - window) ** 2).sum())
            key = (sse, abs(dx) + abs(dy), dy, dx)
            if best_key is None or key < best_key:
                best_key = key
            if dx == 0 and dy == 0:
                zero_sse = sse
    assert best_key is not None and zero_sse is not None
    return (best_key[3], best_key[2]), best_key[0], zero_sse


def reference_block_search(
    cur: np.ndarray, ref: np.ndarray, block_size: int = 16, search_range: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exhaustive search of every block at once, with no pruning.

    Same contract and return value as gfstill.first_pass.motion_search with
    search_kind="exhaustive".  Both frames are edge-padded to the block grid
    and widened to int64.  The vectors are taken in tie-break order, |dx|+|dy|
    then dy then dx, each scoring every block whose window lies inside the
    padded frame as one whole-grid table; a block moves only to a strictly
    lower SSE, so the first vector to reach the least SSE keeps it.
    """
    bs, r = block_size, search_range
    pad = ((0, -cur.shape[0] % bs), (0, -cur.shape[1] % bs))
    cur, ref = (np.pad(f, pad, mode="edge").astype(np.int64) for f in (cur, ref))
    h, w = cur.shape
    rows, cols = h // bs, w // bs
    vectors = sorted(
        ((dx, dy) for dy in range(-r, r + 1) for dx in range(-r, r + 1)),
        key=lambda v: (abs(v[0]) + abs(v[1]), v[1], v[0]),
    )
    best = np.full((rows, cols), np.iinfo(np.int64).max)
    mv = np.zeros((rows, cols, 2), np.int64)
    for dx, dy in vectors:
        # the blocks whose window, dy rows down and dx across, is in the frame
        y0, y1 = max(0, -(dy // bs)), min(rows, (h - bs - dy) // bs + 1)
        x0, x1 = max(0, -(dx // bs)), min(cols, (w - bs - dx) // bs + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        blocks = cur[y0 * bs : y1 * bs, x0 * bs : x1 * bs]
        windows = ref[y0 * bs + dy : y1 * bs + dy, x0 * bs + dx : x1 * bs + dx]
        diff = (blocks - windows).reshape(y1 - y0, bs, x1 - x0, bs)
        sse = np.einsum("ijkl,ijkl->ik", diff, diff)
        if dx == dy == 0:
            zero = sse
        lower = sse < best[y0:y1, x0:x1]
        best[y0:y1, x0:x1][lower] = sse[lower]
        mv[y0:y1, x0:x1][lower] = dx, dy
    return mv, best, zero


_LARGE_DIAMOND = ((0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1))
_SMALL_DIAMOND = ((0, -1), (1, 0), (0, 1), (-1, 0))


def brute_force_diamond_search(
    cur: np.ndarray,
    ref: np.ndarray,
    block_row: int,
    block_col: int,
    block_size: int = 16,
    search_range: int = 8,
) -> tuple[tuple[int, int], int, int]:
    """Diamond search (Zhu & Ma) for one block, every candidate scored afresh.

    Same contract as one block of gfstill.first_pass.motion_search with
    search_kind="diamond": starting at (0, 0), step to the best of the
    centre and its large-diamond neighbours until the centre wins (at most
    4r+4 rounds), then take one small-diamond step.  A candidate counts
    only when |dx| <= r, |dy| <= r and its window lies inside the padded
    frame; the best has the lowest (sse, |dx|+|dy|, dy, dx).
    """
    h, w = cur.shape
    bs, r = block_size, search_range
    y0, x0 = block_row * bs, block_col * bs
    block = cur[y0 : y0 + bs, x0 : x0 + bs].astype(np.int64)

    def score(dx, dy):
        yy, xx = y0 + dy, x0 + dx
        if abs(dx) > r or abs(dy) > r:
            return None
        if yy < 0 or xx < 0 or yy + bs > h or xx + bs > w:
            return None
        window = ref[yy : yy + bs, xx : xx + bs].astype(np.int64)
        return int(((block - window) ** 2).sum())

    def step(cx, cy, pattern):
        keys = []
        for dx, dy in [(cx, cy)] + [(cx + ox, cy + oy) for ox, oy in pattern]:
            sse = score(dx, dy)
            if sse is not None:
                keys.append((sse, abs(dx) + abs(dy), dy, dx))
        best = min(keys)
        return best[3], best[2]

    cx = cy = 0
    for _ in range(4 * r + 4):
        nx, ny = step(cx, cy, _LARGE_DIAMOND)
        if (nx, ny) == (cx, cy):
            break
        cx, cy = nx, ny
    cx, cy = step(cx, cy, _SMALL_DIAMOND)
    return (cx, cy), score(cx, cy), score(0, 0)


def _oracle_gaussian(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    half = (size - 1) / 2
    kernel = np.empty((size, size), dtype=np.float64)
    for r in range(size):
        for c in range(size):
            kernel[r, c] = math.exp(
                -((r - half) ** 2 + (c - half) ** 2) / (2 * sigma * sigma)
            )
    return kernel / kernel.sum()


def ssim_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Per-window SSIM, evaluated window by window with explicit sums."""
    k = _oracle_gaussian()
    size = k.shape[0]
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    h, w = a.shape
    scores = []
    for y in range(h - size + 1):
        for x in range(w - size + 1):
            wa = a[y : y + size, x : x + size].astype(np.float64)
            wb = b[y : y + size, x : x + size].astype(np.float64)
            mu_a = float((k * wa).sum())
            mu_b = float((k * wb).sum())
            var_a = float((k * wa * wa).sum()) - mu_a * mu_a
            var_b = float((k * wb * wb).sum()) - mu_b * mu_b
            cov = float((k * wa * wb).sum()) - mu_a * mu_b
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


def reference_window_means(p: np.ndarray) -> np.ndarray:
    """`gfstill.quality._window_means` of the float64 plane `p`.

    The row pass starts each window at 0.0 and adds its products tap by tap,
    left to right, one whole-plane step a tap; the column pass is the
    matrix-vector product over the C-contiguous row pass that `_window_means`
    hands BLAS, so only the row pass is written out here.
    """
    width = p.shape[1] - SSIM_WINDOW + 1
    rows = np.zeros((p.shape[0], width))
    for k, tap in enumerate(_SSIM_TAPS):
        rows += p[:, k : k + width] * tap
    return sliding_window_view(rows, SSIM_WINDOW, axis=0) @ _SSIM_TAPS


def psnr_oracle(a: np.ndarray, b: np.ndarray) -> float:
    total = 0
    h, w = a.shape
    for y in range(h):
        for x in range(w):
            d = int(a[y, x]) - int(b[y, x])
            total += d * d
    if total == 0:
        return 100.0
    return 10.0 * math.log10(255.0**2 / (total / (h * w)))


def batch_pipeline(
    frames: list[np.ndarray],
    cfg: SearchConfig,
    target_interval: int,
    key_interval: int | None,
) -> tuple[str, str]:
    """`gfstill analyze` CSV and `gfstill plan` JSON for a list of frames,
    built from the whole list: segment it, analyse each group's frame pairs
    one by one, score the group and plan it, with the default thresholds."""
    thresholds = StillnessThresholds()
    results = []
    groups = segment_groups(len(frames), target_interval, key_interval)
    for gid, (start, interval) in enumerate(groups, start=1):
        stats = [
            analyze_frame(frames[d], frames[d - 1], cfg)
            for d in range(start, start + interval)
        ]
        metrics = compute_group_metrics(stats, frames[0].size)
        verdict = classify_stillness(metrics, thresholds)
        results.append(
            GroupPlanResult(gid, start, metrics, verdict, plan_group(interval, verdict))
        )
    csv_out = io.StringIO()
    dump_group_metrics(results, csv_out)
    return csv_out.getvalue(), json.dumps(plans_to_json(results), indent=2) + "\n"


_U64 = np.uint64


def _reference_mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def reference_hash01(seed: int, tag: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) floats keyed by (seed, tag, y, x), whole arrays at once."""
    base = _reference_mix64(np.asarray(_U64(seed & 0xFFFFFFFFFFFFFFFF))) ^ _reference_mix64(
        np.asarray(_U64(tag))
    )
    with np.errstate(over="ignore"):
        h = _reference_mix64(base + ys.astype(_U64) * _U64(0x9E3779B97F4A7C15))
        h = _reference_mix64(h ^ (xs.astype(_U64) * _U64(0xC2B2AE3D27D4EB4F)))
    return (h >> _U64(11)).astype(np.float64) / float(1 << 53)


def _reference_value_noise(seed: int, tag: int, width: int, height: int) -> np.ndarray:
    ys = np.arange(height, dtype=np.int64)[:, None]
    xs = np.arange(width, dtype=np.int64)[None, :]
    acc = np.zeros((height, width), dtype=np.float64)
    for octave, (wavelength, weight) in enumerate(_OCTAVES):
        j, ty = np.divmod(ys, wavelength)
        i, tx = np.divmod(xs, wavelength)
        ty = ty / wavelength
        tx = tx / wavelength
        # hash each lattice point once, then look the four corners up
        lattice = reference_hash01(
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


def reference_generate(spec) -> list[np.ndarray]:
    """The frames of `gfstill.synth.generate(spec)`, each rendered whole.

    The noise is cast to int64 before it is clipped, so it holds only while
    the noise is below 2**63 in magnitude (amplitude under about 1e18).
    """
    w, h, n = spec.width, spec.height, spec.frame_count
    base = _reference_value_noise(spec.seed, 0, w, h)
    frames: list[np.ndarray] = []

    if spec.kind == "static":
        frames = [base.copy() for _ in range(n)]
    elif spec.kind == "static_noise":
        ys = np.arange(h, dtype=np.int64)[:, None]
        xs = np.arange(w, dtype=np.int64)[None, :]
        for f in range(n):
            # sum of three uniforms, recentred: mean 0, stdev = amplitude
            u = sum(
                reference_hash01(spec.seed, 1_000 + 3 * f + k, ys, xs) for k in range(3)
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
        other = _reference_value_noise(spec.seed, 7, w, h)
        half = n // 2
        frames = [base.copy() for _ in range(half)]
        frames += [other.copy() for _ in range(n - half)]
    return frames


def random_plane(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def serialize_y4m(frames: Iterable[np.ndarray]) -> bytes:
    """In-memory write_y4m, handy for round-trip checks."""
    buf = io.BytesIO()
    write_y4m(frames, buf)
    return buf.getvalue()


# frames that are not 2-D uint8 arrays; a cast would wrap the out-of-range
# values into plausible samples, so each must be refused as it is
NOT_LUMA = [
    pytest.param(np.full((32, 32), 300), id="int64-300"),
    pytest.param(np.full((32, 32), -1, np.int32), id="int32-minus-1"),
    pytest.param(np.full((32, 32), 44, np.int32), id="int32-in-range"),
    pytest.param(np.full((32, 32), 44.0), id="float64"),
    pytest.param([[44] * 32] * 32, id="nested-list"),
    pytest.param(np.full(32 * 32, 44, np.uint8), id="1-D"),
]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
