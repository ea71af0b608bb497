"""First analysis pass: integer-pel block motion search against the previous
frame, plus the per-frame aggregates the stillness metrics are built from.

Motion vector convention: the prediction for the block at pixel origin
(x0, y0) is the reference window at (x0 + dx, y0 + dy).  Positive dx samples
the reference further to the right, so content that moved right between
frames yields a negative dx.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .video_io import _integer, check_luma

BLOCK_SIZES = (8, 16, 32)
SEARCH_KINDS = ("exhaustive", "diamond")

# Large/small diamond steps, centre first.
_LDSP = np.array(
    ((0, 0), (0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1))
)
_SDSP = np.array(((0, 0), (0, -1), (1, 0), (0, 1), (-1, 0)))

# (block, vector) pairs a tile of the exhaustive search bounds at once, about
# 20 bytes each.  ms per call on one CPU (median of 5 alternating runs; pan at
# 4, noise is static_noise at 2) and block 16, range 8 tracemalloc peak, on a
# 2-CPU x86-64 host with numpy 2.4:
#   tile    CIF b16 r8, r32   720p b16 r8, r32   720p noise b8   MiB CIF, 720p
#   2**14       4.4  32.1         40.3  255            151          1.5  10.6
#   2**15       5.0  32.3         33.6  228            117          2.1  10.6
#   2**16       5.7  31.4         31.4  201            104          3.0  10.6
#   2**17       4.5  40.4         30.2  218            100          3.8  13.0
SEARCH_TILE = 2**16


@dataclass(frozen=True)
class SearchConfig:
    block_size: int = 16
    search_range: int = 8
    search_kind: str = "exhaustive"

    def __post_init__(self):
        for name in ("block_size", "search_range"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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


def motion_search(
    cur: np.ndarray, ref: np.ndarray, cfg: SearchConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search the reference for the best integer-pel match of every block.

    Both frames, 2-D uint8 arrays of one shape, are edge-padded to the
    block grid.  Candidates whose window would leave the padded frame are
    skipped; the zero vector is always a candidate, so best_sse <=
    zero_mv_sse.  Ties are broken by lower SSE, then smaller |dx|+|dy|, then
    smaller dy, then smaller dx, which makes the result order-independent.
    The exhaustive search tries every vector in range, the diamond search
    stops where a diamond walk from (0, 0) does.

    Returns int64 arrays (mv, best_sse, zero_mv_sse) of shapes
    (rows, cols, 2), (rows, cols) and (rows, cols); mv[..., 0] is dx and
    mv[..., 1] is dy.
    """
    check_luma(cur)
    check_luma(ref)
    # compared before padding, which can bring two sizes to one grid
    if cur.shape != ref.shape:
        raise ValueError(
            f"current is {cur.shape[1]}x{cur.shape[0]}, "
            f"reference is {ref.shape[1]}x{ref.shape[0]}"
        )
    cfg = cfg or SearchConfig()
    bs, r = cfg.block_size, cfg.search_range
    cur_s = pad_to_block_grid(cur, bs)
    ref_s = pad_to_block_grid(ref, bs)
    h, w = cur_s.shape
    rows, cols = h // bs, w // bs
    # no window reaches further than the padded frame, whatever the range
    ry, rx = min(r, h - bs), min(r, w - bs)
    # C order keeps each difference below contiguous, so its reshapes are
    # views; int16 holds a difference of two samples in half the bytes of int32
    cur16 = cur_s.astype(np.int16, order="C")
    ref16 = ref_s.astype(np.int16, order="C")

    def block_sse(dx: int, dy: int) -> tuple[tuple[slice, slice], np.ndarray]:
        """SSE at (dx, dy) of the blocks whose window stays inside the padded
        frame, with the grid slices that locate those blocks."""
        b0, b1 = max(0, -(dy // bs)), min(rows, (h - dy) // bs)
        c0, c1 = max(0, -(dx // bs)), min(cols, (w - dx) // bs)
        diff = cur16[b0 * bs : b1 * bs, c0 * bs : c1 * bs] - ref16[
            b0 * bs + dy : b1 * bs + dy, c0 * bs + dx : c1 * bs + dx
        ]
        # a square is at most 255**2 = 65025: it wraps in int16, but its bits
        # read as uint16 are exact
        diff *= diff
        return np.s_[b0:b1, c0:c1], _block_sums(diff.view(np.uint16), bs)

    zero = block_sse(0, 0)[1].astype(np.int64)
    if cfg.search_kind == "diamond":
        # each move strictly decreases the (sse, |dx|+|dy|, dy, dx) key, so
        # every walk ends; the round cap is only a belt-and-braces bound
        mv, best = _diamond_walk(block_sse, zero, rx, ry, 4 * r + 4)
        return mv, best, zero

    # Successive elimination (Li & Salari, IEEE TIP 1995) over 2x2 sub-blocks
    # (Gao, Duanmu & Zou, IEEE TIP 2000): by Cauchy-Schwarz, the sum over the
    # four sub-blocks of (sum cur - sum ref)**2 is at most n * SSE, with n the
    # pixels in a sub-block.  Each tile bounds all its (block, vector) pairs,
    # then scores each block's least-bound vector and those bound by its best.
    half, ky, kx = bs // 2, 2 * ry + 1, 2 * rx + 1
    n = half * half
    # sub[ry + y, rx + x] sums the half x half window at (y, x); off the frame
    # it reads 2**20, and one such term, over 2**39, exceeds n * any SSE < 2**34
    sub = _window_sums(ref16.astype(np.int32), half)
    sub = np.pad(sub, ((ry,), (rx,)), constant_values=2**20)
    s0, s1 = sub.strides
    strides = (half * s0, half * s1, bs * s0, bs * s1, s0, s1)
    cur_sub = _block_sums(cur16, half).reshape(rows, 2, cols, 2).transpose(1, 3, 0, 2)
    cur_blocks = cur16.reshape(rows, bs, cols, bs).swapaxes(1, 2).reshape(-1, bs, bs)
    windows = sliding_window_view(ref16, (bs, bs))
    # one int64 key per block, sse << shift | tie code, orders (sse, |dx|+|dy|,
    # dy, dx); the tie code holds (|dx|+|dy|, dy) and whether dx > 0
    shift = (2 * (ry + rx + 1) * ky).bit_length()
    best = zero.ravel() << shift | ry << 1

    def vectors(k: np.ndarray, y0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dx, dy and tie code of vector k of a tile whose rows start at y0."""
        dy, dx = np.divmod(k, kx)
        dy += y0 - ry
        dx -= rx
        return dx, dy, ((abs(dx) + abs(dy)) * ky + dy + ry) << 1 | (dx > 0)

    def score(blocks: np.ndarray, k: np.ndarray, y0: int) -> None:
        """Lower the key of each block to the least over the vectors k."""
        dx, dy, tie = vectors(k, y0)
        y, x = np.divmod(blocks, cols)
        y, x, sse = y * bs + dy, x * bs + dx, np.empty(blocks.size, np.int64)
        step = max(1, SEARCH_TILE // (bs * bs))  # samples gathered at once
        for s in (np.s_[i : i + step] for i in range(0, blocks.size, step)):
            diff = cur_blocks[blocks[s]] - windows[y[s], x[s]]
            diff *= diff
            sse[s] = diff.view(np.uint16).sum(axis=(1, 2), dtype=np.int32)
        np.minimum.at(best, blocks, sse << shift | tie)

    # tiles of tb block rows by ty vector rows, those nearest dy = 0 first
    ty = min(ky, max(1, SEARCH_TILE // (cols * kx)))
    tb = max(1, SEARCH_TILE // (cols * kx * ty))
    near = sorted(range(0, ky, ty), key=lambda y0: abs(2 * (y0 - ry) + ty - 1))
    for b0, y0 in itertools.product(range(0, rows, tb), near):
        shape = (min(tb, rows - b0), cols, min(ty, ky - y0), kx)
        # views[i, j, b, c, y, x] sums sub-block (i, j) of the window of block
        # (b0 + b, c) at vector row y0 + y, column x; cur_sub[i, j] the block's
        views = as_strided(sub[b0 * bs + y0 :], (2, 2, *shape), strides)
        diff = np.empty(shape, np.int32)  # no cast to subtract; squares in int64
        bound, term = np.zeros(shape, np.int64), np.empty(shape, np.int64)
        for i, j in itertools.product((0, 1), (0, 1)):
            sums = cur_sub[i, j, b0 : b0 + tb, :, None, None]
            np.subtract(views[i, j], sums, out=diff)
            bound += np.square(diff, out=term, dtype=np.int64)
        bound = bound.reshape(shape[0] * cols, -1)
        tile = best[b0 * cols : b0 * cols + bound.shape[0]]
        seeds = bound.argmin(axis=1)
        live = np.flatnonzero(bound[np.arange(tile.size), seeds] <= n * (tile >> shift))
        if not live.size:
            continue
        # a live block's least bound is below the sentinel's: it is in the frame
        score(live + b0 * cols, seeds[live], y0)
        limit = n * (tile >> shift)
        bound[live, seeds[live]] = limit[live] + 1  # scored already
        # a bound of n * best allows only a tie, so it passes on a lower tie code
        tie = vectors(np.arange(bound.shape[1]), y0)[2]
        bound -= tie < (tile & (1 << shift) - 1)[:, None]
        blocks, k = np.divmod(np.flatnonzero(bound < limit[:, None]), bound.shape[1])
        score(blocks + b0 * cols, k, y0)
    dist, dy = np.divmod((best & (1 << shift) - 1) >> 1, ky)
    dx = np.where(best & 1, 1, -1) * (dist - abs(dy - ry))
    mv = np.stack((dx, dy - ry), axis=1).reshape(rows, cols, 2)
    return mv, (best >> shift).reshape(rows, cols), zero


def _block_sums(a: np.ndarray, size: int) -> np.ndarray:
    """int32 sum of every size x size block of a C-contiguous array whose
    sides are multiples of size.  A 32x32 block of squared sample
    differences sums to at most 32 * 32 * 65025 < 2**31, so int32 is safe.
    Summing rows then columns is about twice as fast as one sum over axes
    (1, 3)."""
    col_sums = a.reshape(a.shape[0] // size, size, -1).sum(axis=1, dtype=np.int32)
    return col_sums.reshape(col_sums.shape[0], -1, size).sum(axis=2, dtype=np.int32)


def _window_sums(a: np.ndarray, size: int) -> np.ndarray:
    """Sum of the size x size window at every origin of a 2-D array, for a
    power-of-two size: shape (H - size + 1, W - size + 1).  Each doubling
    adds two shifted copies, which is several times faster than cumsums."""
    step = 1
    while step < size:
        a = a[:-step] + a[step:]
        a = a[:, :-step] + a[:, step:]
        step *= 2
    return a


def _diamond_walk(
    block_sse, zero: np.ndarray, rx: int, ry: int, rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diamond search (Zhu & Ma, IEEE TIP 2000) for every block in lock step.

    Each round, every block still walking moves to the best (lowest
    (sse, |dx|+|dy|, dy, dx)) of its centre and the large diamond around it,
    and stops once the centre wins; then every block takes one small-diamond
    step.  SSE comes from one whole-grid table per vector, filled by
    block_sse when a block first asks for it; windows outside the padded
    frame and vectors beyond (rx, ry) score a sentinel that never wins.
    """
    never = np.iinfo(np.int64).max
    tables = {(0, 0): zero.ravel()}

    def table(dx: int, dy: int) -> np.ndarray:
        if (dx, dy) not in tables:
            t = np.full(zero.shape, never)
            if abs(dx) <= rx and abs(dy) <= ry:
                fits, sse = block_sse(dx, dy)
                t[fits] = sse
            tables[dx, dy] = t.ravel()
        return tables[dx, dy]

    mv = np.zeros((zero.size, 2), np.int64)
    best = zero.ravel().copy()

    def step(blocks: np.ndarray, pattern: np.ndarray) -> np.ndarray:
        # candidates along axis 0, the centre first; the walk starts and stays
        # on windows inside the frame, so the centre never scores the sentinel
        cand = mv[blocks] + pattern[:, None]
        flat = cand.reshape(-1, 2)
        # one int64 code per vector: a 1-d unique is much faster than axis=0
        _, first, inverse = np.unique(
            flat[:, 0] + (flat[:, 1] << 32), return_index=True, return_inverse=True
        )
        stack = np.stack([table(dx, dy) for dx, dy in flat[first].tolist()])
        sse = stack[inverse.reshape(cand.shape[:2]), blocks]
        dx, dy = cand[..., 0], cand[..., 1]
        pick = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), sse), axis=0)[0]
        i = np.arange(blocks.size)
        mv[blocks], best[blocks] = cand[pick, i], sse[pick, i]
        return blocks[pick != 0]

    walking = np.arange(zero.size)
    for _ in range(rounds):
        walking = step(walking, _LDSP)  # the blocks that moved
        if not walking.size:
            break
    step(np.arange(zero.size), _SDSP)
    return mv.reshape(*zero.shape, 2), best.reshape(zero.shape)


def analyze_frame(
    cur: np.ndarray,
    prev: np.ndarray,
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
    samples = pad_to_block_grid(cur, bs).astype(np.int32, order="C")
    total = _block_sums(samples, bs).astype(np.int64)
    samples *= samples  # a 32x32 block of squares stays below 2**31
    total_sq = _block_sums(samples, bs).astype(np.int64)
    n = bs * bs
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
