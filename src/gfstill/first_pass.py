"""First analysis pass: integer-pel block motion search against the previous
frame, plus the per-frame aggregates the stillness metrics are built from.

Motion vector convention: the prediction for the block at pixel origin
(x0, y0) is the reference window at (x0 + dx, y0 + dy).  Positive dx samples
the reference further to the right, so content that moved right between
frames yields a negative dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .video_io import Plane, _as_samples

BLOCK_SIZES = (8, 16, 32)
SEARCH_KINDS = ("exhaustive", "diamond")

# Large/small diamond steps, centre excluded.
_LDSP = ((0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1))
_SDSP = ((0, -1), (1, 0), (0, 1), (-1, 0))


@dataclass(frozen=True)
class SearchConfig:
    block_size: int = 16
    search_range: int = 8
    search_kind: str = "exhaustive"

    def __post_init__(self):
        if self.block_size not in BLOCK_SIZES:
            raise ValueError(f"block_size must be one of {BLOCK_SIZES}")
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1")
        if self.search_kind not in SEARCH_KINDS:
            raise ValueError(f"search_kind must be one of {SEARCH_KINDS}")


@dataclass
class FrameFirstPassStats:
    frame_index: int
    pcnt_zero_motion: float
    frame_sse: int
    zero_mv_sse_stdev: float
    block_count: int
    inter_count: int


def pad_to_block_grid(samples: np.ndarray, block_size: int) -> np.ndarray:
    """Edge-replicate the bottom/right border up to a block multiple.

    I/O keeps true frame dimensions; padding exists only while analysing.
    """
    h, w = samples.shape
    ph = (-h) % block_size
    pw = (-w) % block_size
    if ph == 0 and pw == 0:
        return samples
    return np.pad(samples, ((0, ph), (0, pw)), mode="edge")


def _sse(cur_block: np.ndarray, ref_window: np.ndarray) -> int:
    diff = cur_block - ref_window.astype(np.int32)
    return int(np.einsum("ij,ij->", diff, diff))


def _nonzero_candidates(ry: int, rx: int):
    """Every (dx, dy) != (0, 0) with |dy| <= ry and |dx| <= rx, in
    tie-break order: ascending |dx|+|dy|, then dy, then dx."""
    for d in range(1, ry + rx + 1):
        for dy in range(-min(ry, d), min(ry, d) + 1):
            m = d - abs(dy)
            if m <= rx:
                yield from ((-m, dy), (m, dy)) if m else ((0, dy),)


def motion_search(
    cur: Plane, ref: Plane, cfg: SearchConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search the reference for the best integer-pel match of every block.

    Both frames are edge-padded to the block grid.  Candidates whose window
    would leave the padded frame are skipped; the zero vector is always a
    candidate, so best_sse <= zero_mv_sse.  Ties are broken by lower SSE,
    then smaller |dx|+|dy|, then smaller dy, then smaller dx, which makes
    the result order-independent.

    Returns int64 arrays (mv, best_sse, zero_mv_sse) of shapes
    (rows, cols, 2), (rows, cols) and (rows, cols); mv[..., 0] is dx and
    mv[..., 1] is dy.
    """
    cfg = cfg or SearchConfig()
    bs, r = cfg.block_size, cfg.search_range
    cur_s = pad_to_block_grid(_as_samples(cur), bs)
    ref_s = pad_to_block_grid(_as_samples(ref), bs)
    if cur_s.shape != ref_s.shape:
        raise ValueError("current and reference frames differ in size")
    h, w = cur_s.shape
    rows, cols = h // bs, w // bs
    mv = np.zeros((rows, cols, 2), np.int64)

    if cfg.search_kind == "diamond":
        best = np.empty((rows, cols), np.int64)
        zero = np.empty_like(best)
        for by, bx in np.ndindex(rows, cols):
            y0, x0 = by * bs, bx * bs
            block = cur_s[y0 : y0 + bs, x0 : x0 + bs].astype(np.int32)
            mv[by, bx], best[by, bx], zero[by, bx] = _diamond_search(
                block, ref_s, y0, x0, cfg
            )
        return mv, best, zero

    # C order keeps each difference below contiguous, so its reshapes are views
    cur_i = cur_s.astype(np.int32, order="C")
    ref_i = ref_s.astype(np.int32, order="C")

    def block_sse(dx: int, dy: int, b0: int, b1: int, c0: int, c1: int):
        diff = cur_i[b0 * bs : b1 * bs, c0 * bs : c1 * bs] - ref_i[
            b0 * bs + dy : b1 * bs + dy, c0 * bs + dx : c1 * bs + dx
        ]
        diff *= diff
        # 32x32 blocks peak below 2**31 so int32 is safe; summing rows then
        # columns is about twice as fast as one sum over axes (1, 3)
        col_sums = diff.reshape(b1 - b0, bs, -1).sum(axis=1, dtype=np.int32)
        return col_sums.reshape(b1 - b0, c1 - c0, bs).sum(axis=2, dtype=np.int32)

    zero = block_sse(0, 0, 0, rows, 0, cols).astype(np.int64)
    best = zero.copy()
    # visiting in tie-break order and moving only on a strictly lower SSE
    # keeps the first of equally good candidates; no window reaches further
    # than the padded frame, whatever the range
    for dx, dy in _nonzero_candidates(min(r, h - bs), min(r, w - bs)):
        # the blocks whose window at (dx, dy) stays inside the padded frame
        b0, b1 = max(0, -(dy // bs)), min(rows, (h - dy) // bs)
        c0, c1 = max(0, -(dx // bs)), min(cols, (w - dx) // bs)
        sse = block_sse(dx, dy, b0, b1, c0, c1)
        sub_best = best[b0:b1, c0:c1]
        better = sse < sub_best
        sub_best[better] = sse[better]
        mv[b0:b1, c0:c1][better] = dx, dy
    return mv, best, zero


def _diamond_search(
    cur_block: np.ndarray, ref_s: np.ndarray, y0: int, x0: int, cfg: SearchConfig
) -> tuple[tuple[int, int], int, int]:
    bs, r = cfg.block_size, cfg.search_range
    h, w = ref_s.shape
    cache: dict[tuple[int, int], int] = {}

    def eval_at(dx: int, dy: int) -> int | None:
        if abs(dx) > r or abs(dy) > r:
            return None
        yy, xx = y0 + dy, x0 + dx
        if not (0 <= yy <= h - bs and 0 <= xx <= w - bs):
            return None
        key = (dx, dy)
        if key not in cache:
            cache[key] = _sse(cur_block, ref_s[yy : yy + bs, xx : xx + bs])
        return cache[key]

    def pick(candidates: list[tuple[int, int]]) -> tuple[int, int]:
        scored = []
        for dx, dy in candidates:
            s = eval_at(dx, dy)
            if s is not None:
                scored.append((s, abs(dx) + abs(dy), dy, dx))
        best = min(scored)
        return best[3], best[2]

    zero_mv_sse = eval_at(0, 0)
    assert zero_mv_sse is not None  # the block itself is inside the frame

    cx = cy = 0
    # each move strictly decreases the (sse, |dx|+|dy|, dy, dx) key, so the
    # walk terminates; the range bound is just a belt-and-braces cap
    for _ in range(4 * r + 4):
        nx, ny = pick([(cx, cy)] + [(cx + ox, cy + oy) for ox, oy in _LDSP])
        if (nx, ny) == (cx, cy):
            break
        cx, cy = nx, ny
    cx, cy = pick([(cx, cy)] + [(cx + ox, cy + oy) for ox, oy in _SDSP])
    return (cx, cy), cache[(cx, cy)], zero_mv_sse


def analyze_frame(
    cur: Plane,
    prev: Plane,
    cfg: SearchConfig | None = None,
    frame_index: int = 1,
) -> FrameFirstPassStats:
    """Aggregate block statistics for one frame against its predecessor.

    pcnt_zero_motion is the share of inter blocks whose best vector is
    exactly (0, 0); a frame with no inter blocks reports 0.0.  The error
    spread is the population standard deviation of the zero-vector SSE
    over all blocks, padded blocks included.
    """
    cfg = cfg or SearchConfig()
    bs = cfg.block_size
    mv, best, zero = motion_search(cur, prev, cfg)
    rows, cols = best.shape
    blocks = pad_to_block_grid(_as_samples(cur), bs).astype(np.int64)
    blocks = blocks.reshape(rows, bs, cols, bs)
    n = bs * bs
    total = blocks.sum(axis=(1, 3))
    total_sq = (blocks * blocks).sum(axis=(1, 3))
    # a block is inter when best_sse <= its intra proxy sum((x - mean)^2),
    # compared exactly as n * best_sse <= n * sum(x^2) - sum(x)^2; ties
    # count as inter, mirroring a cheap intra-vs-inter decision
    inter = n * best <= n * total_sq - total * total
    inter_count = int(inter.sum())
    zero_inter = int((inter & ~mv.any(axis=2)).sum())
    return FrameFirstPassStats(
        frame_index=frame_index,
        pcnt_zero_motion=zero_inter / inter_count if inter_count else 0.0,
        frame_sse=int(best.sum()),
        zero_mv_sse_stdev=float(np.std(zero.ravel().astype(np.float64))),
        block_count=best.size,
        inter_count=inter_count,
    )
