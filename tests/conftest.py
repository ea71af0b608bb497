"""Shared fixtures and independently written oracles.

The oracles here deliberately avoid the library's vectorised code paths:
the motion-search oracle is a plain nested scan, the SSIM oracle walks
windows one by one.  They define what the fast implementations must match.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gfstill.video_io import FramePlane


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


def random_plane(rng: np.random.Generator, width: int, height: int) -> FramePlane:
    return FramePlane(
        width, height, rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
