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

from .video_io import check_luma

BLOCK_SIZES = (8, 16, 32)
SEARCH_KINDS = ("exhaustive", "diamond")

# Large/small diamond steps, centre first.
_LDSP = np.array(
    ((0, 0), (0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1))
)
_SDSP = np.array(((0, 0), (0, -1), (1, 0), (0, 1), (-1, 0)))


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


def _nonzero_candidates(ry: int, rx: int):
    """Every (dx, dy) != (0, 0) with |dy| <= ry and |dx| <= rx, in
    tie-break order: ascending |dx|+|dy|, then dy, then dx."""
    for d in range(1, ry + rx + 1):
        for dy in range(-min(ry, d), min(ry, d) + 1):
            m = d - abs(dy)
            if m <= rx:
                yield from ((-m, dy), (m, dy)) if m else ((0, dy),)


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

    def grid(dx: int, dy: int) -> tuple[int, int, int, int]:
        """Block rows b0:b1 and columns c0:c1 whose window at (dx, dy) stays
        inside the padded frame."""
        return (
            max(0, -(dy // bs)),
            min(rows, (h - dy) // bs),
            max(0, -(dx // bs)),
            min(cols, (w - dx) // bs),
        )

    def block_sse(dx: int, dy: int) -> tuple[tuple[slice, slice], np.ndarray]:
        """SSE at (dx, dy) of the blocks whose window stays inside the padded
        frame, with the grid slices that locate those blocks."""
        b0, b1, c0, c1 = grid(dx, dy)
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
    # pixels in a sub-block.  A block whose bound reaches n * best has
    # SSE >= best, and blocks move only on a strictly lower SSE, so skipping
    # it changes nothing, tie-breaks included.
    half = bs // 2
    n = half * half
    # a 16x16 window of samples can sum past the int16 range
    ref_sub = _window_sums(ref16.astype(np.int32), half).astype(np.int64)
    cur_sub = _block_sums(cur16, half).astype(np.int64)
    cur_blocks = cur16.reshape(rows, bs, cols, bs)
    mv = np.zeros((rows, cols, 2), np.int64)
    best = zero.copy()
    # visiting in tie-break order and moving only on a strictly lower SSE
    # keeps the first of equally good candidates
    for dx, dy in _nonzero_candidates(ry, rx):
        b0, b1, c0, c1 = grid(dx, dy)
        y0, x0 = b0 * bs + dy, c0 * bs + dx
        d = (
            cur_sub[2 * b0 : 2 * b1, 2 * c0 : 2 * c1]
            - ref_sub[y0 : b1 * bs + dy : half, x0 : c1 * bs + dx : half]
        )
        d *= d
        d = d[0::2] + d[1::2]
        bound = d[:, 0::2] + d[:, 1::2]
        sub_best = best[b0:b1, c0:c1]
        live = bound < n * sub_best
        bi, ci = np.nonzero(live)
        if not bi.size:
            continue
        if 2 * bi.size > live.size:
            # most blocks survive: the whole-grid SSE is cheaper than a gather
            sse = block_sse(dx, dy)[1][bi, ci]
        else:
            window = ref16[y0 : b1 * bs + dy, x0 : c1 * bs + dx].reshape(
                b1 - b0, bs, c1 - c0, bs
            )
            diff = cur_blocks[bi + b0, :, ci + c0] - window[bi, :, ci]
            diff *= diff
            sse = diff.view(np.uint16).sum(axis=(1, 2), dtype=np.int32)
        better = sse < sub_best[bi, ci]
        bi, ci = bi[better], ci[better]
        sub_best[bi, ci] = sse[better]
        mv[bi + b0, ci + c0] = dx, dy
    return mv, best, zero


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
