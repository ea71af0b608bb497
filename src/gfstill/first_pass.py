"""First analysis pass: integer-pel block motion search against the previous
frame, plus the per-frame aggregates the stillness metrics are built from.

Motion vector convention: the prediction for the block at pixel origin
(x0, y0) is the reference window at (x0 + dx, y0 + dy).  Positive dx samples
the reference further to the right, so content that moved right between
frames yields a negative dx.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .video_io import _integer, check_pair

BLOCK_SIZES = (8, 16, 32)
SEARCH_KINDS = ("exhaustive", "diamond")

# Large/small diamond steps around a centre.
_LDSP = np.array(((0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1)))
_SDSP = np.array(((0, -1), (1, 0), (0, 1), (-1, 0)))

# (block, vector) pairs a tile of the exhaustive search bounds at once, about
# 10 bytes each below block 32 and 20 at it.  ms per call on one CPU (median
# over 7 rounds, each running the four sizes in turn, of the median of 5
# calls; pan at 4, noise is static_noise at 2) and analyze_frame's
# tracemalloc peak at block 16, range 8 on static_noise, on a 2-CPU x86-64
# host with numpy 2.4:
#   tile    CIF b16 r8, r32   720p b16 r8, r32   720p noise b8   MiB CIF, 720p
#   2**14       2.7  19.2         25.5  145             81          0.6   3.1
#   2**15       2.1  15.6         20.7  110             66          0.8   3.2
#   2**16       2.0  14.5         18.7   95             54          1.2   3.6
#   2**17       1.8  10.9         15.4   88             50          2.0   4.5
# A larger tile is taken only if it gains on every column.  2**17 is faster
# but holds more, so the tile stays 2**16.
SEARCH_TILE = 2**16

# Samples in a band of block rows, the unit in which each frame-sized
# temporary is built.  analyze_frame ms per call on one CPU (median of 25
# runs, band sizes interleaved), ms per pair with 2 threads over 8 pairs,
# and tracemalloc peak, range 8, on the host above; CIF is pan at 4, 720p
# static_noise at 2, block 16 unless noted:
#   band    CIF exh  dia  dia b8   720p exh  dia  dia 2 threads   720p MiB exh, dia
#   2**15      4.21 4.81  8.11       39.0  12.7      15.6           3.88  4.08
#   2**16      4.09 4.73  8.07       36.3  11.5      11.5           3.88  4.08
#   2**17      4.03 4.70  8.04       36.9  11.2      10.5           3.88  4.08
#   2**18      4.00 4.68  8.11       36.7  11.1      10.2           3.88  4.08
#   2**19      4.07 4.76  7.98       37.2  11.5      10.5           3.88  4.08
#   frame      4.07 4.70  7.95       38.0  13.1      10.8           5.30  5.30
# From 2**17 a CIF frame is one band at every block size.  At 720p the peak
# is the diamond's first step or an exhaustive tile, whatever the band.
BAND_SAMPLES = 2**18


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
    cur: np.ndarray, ref: np.ndarray, cfg: SearchConfig = SearchConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search the reference for the best integer-pel match of every block.

    Both frames, 2-D uint8 arrays of one shape, are edge-padded to the
    block grid.  Candidates whose window would leave the padded frame are
    skipped; the zero vector is always a candidate, so best_sse <=
    zero_mv_sse.  Ties are broken by lower SSE, then smaller |dx|+|dy|, then
    smaller dy, then smaller dx, which makes the result order-independent.
    The exhaustive search tries every vector in range, the diamond search
    stops where a diamond walk from (0, 0) does.  Both score a (block,
    vector) pair only when its sub-block bound shows that it could beat the
    block's best so far, which never changes the result.

    Returns int64 arrays (mv, best_sse, zero_mv_sse) of shapes
    (rows, cols, 2), (rows, cols) and (rows, cols); mv[..., 0] is dx and
    mv[..., 1] is dy.
    """
    # compared before padding, which can bring two sizes to one grid
    check_pair(cur, ref, ("current", "reference"), 1)
    bs, r = cfg.block_size, cfg.search_range
    # C order keeps the reshapes below views and each gathered row contiguous
    cur_s, ref_s = (np.ascontiguousarray(pad_to_block_grid(f, bs)) for f in (cur, ref))
    h, w = cur_s.shape
    rows, cols = h // bs, w // bs
    # no window reaches further than the padded frame, whatever the range
    ry, rx = min(r, h - bs), min(r, w - bs)
    half, ky, kx = bs // 2, 2 * ry + 1, 2 * rx + 1
    zero = np.empty((rows, cols), np.int64)
    # sums[y, x] sums the half x half window at (y, x): at most 16 * 16 * 255,
    # so uint16 holds it
    sums = np.empty((h - half + 1, w - half + 1), np.uint16)
    for b, p in _bands(h, w, bs):
        zero[b] = _block_sums(_squared_diff(cur_s[p], ref_s[p]), bs)
        rows_in = ref_s[p.start : p.stop + half - 1]
        sums[p] = _window_sums(rows_in.astype(np.uint16), half)

    # Successive elimination (Li & Salari, IEEE TIP 1995) over 2x2 sub-blocks
    # (Gao, Duanmu & Zou, IEEE TIP 2000): by Cauchy-Schwarz, the sum over the
    # four sub-blocks of (sum cur - sum ref)**2 is at most n * SSE, with n the
    # pixels in a sub-block.  Both searches bound their (block, vector) pairs
    # and score only those whose bound lets them beat the block's best.
    n = half * half
    cur_sub = _block_sums(cur_s, half).reshape(rows, 2, cols, 2).transpose(1, 3, 0, 2)
    # block by block, so that a gather copies whole blocks; uint8 gathers no
    # slower than int16 (faster at 720p) in half the memory
    cur_blocks = cur_s.reshape(rows, bs, cols, bs).swapaxes(1, 2).reshape(-1, bs, bs)
    windows = sliding_window_view(ref_s, (bs, bs))
    # one int64 key per block, sse << shift | tie code, orders (sse, |dx|+|dy|,
    # dy, dx); the tie code holds (|dx|+|dy|, dy) and whether dx > 0
    shift = (2 * (ry + rx + 1) * ky).bit_length()
    ties = (1 << shift) - 1
    best = zero.ravel() << shift | ry << 1

    def tie(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        return ((abs(dx) + abs(dy)) * ky + dy + ry) << 1 | (dx > 0)

    def vector(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dx and dy of each key or tie code."""
        dist, dy = np.divmod((key & ties) >> 1, ky)
        dy -= ry
        return np.where(key & 1, 1, -1) * (dist - abs(dy)), dy

    def bound(
        window_sums: Callable[[int, int], np.ndarray],
        block_sums: np.ndarray,
        shape: tuple,
    ) -> np.ndarray:
        """Sum over the sub-blocks (i, j) of (window_sums(i, j) -
        block_sums[i, j])**2, of the given shape, block_sums broadcast.
        Differences are taken in block_sums' type, int16 or int32, and
        squared and summed in the type twice as wide."""
        wide = np.dtype(f"i{2 * block_sums.itemsize}")
        diff = np.empty(shape, block_sums.dtype)
        total, term = np.zeros(shape, wide), np.empty(shape, wide)
        for i, j in itertools.product((0, 1), (0, 1)):
            np.subtract(window_sums(i, j), block_sums[i, j], out=diff)
            total += np.square(diff, out=term, dtype=wide)
        return total

    def score(blocks: np.ndarray, codes: np.ndarray) -> None:
        """Lower the key of each block to the least over the vectors codes give."""
        dx, dy = vector(codes)
        y, x = np.divmod(blocks, cols)
        y, x, sse = y * bs + dy, x * bs + dx, np.empty(blocks.size, np.int64)
        chunk = max(1, SEARCH_TILE // (bs * bs))  # samples gathered at once
        for s in (np.s_[i : i + chunk] for i in range(0, blocks.size, chunk)):
            a, b = cur_blocks[blocks[s]], windows[y[s], x[s]]
            sse[s] = _squared_diff(a, b).sum(axis=(1, 2), dtype=np.int32)
        np.minimum.at(best, blocks, sse << shift | codes)

    def pick(blocks: np.ndarray, bounds: np.ndarray, codes: np.ndarray) -> None:
        """Lower the key of each block to the least over its row of vectors,
        given by their tie codes and bounded by its row of bounds.  Each
        block's least-bound vector is scored first, then those its new key
        still lets win: a bound below the limit n * the key's SSE, or equal
        to it (only a tie) with a lower tie code.  A bound at its type's
        maximum, as for a window off the frame, is never scored."""
        seeds = bounds.argmin(axis=1)
        least = bounds[np.arange(blocks.size), seeds]
        live = np.flatnonzero(least <= n * (best[blocks] >> shift))
        if not live.size:
            return
        codes = np.broadcast_to(codes, bounds.shape)
        # a live block's least bound is below the sentinel's: it is in the frame
        score(blocks[live], codes[live, seeds[live]])
        key = best[blocks][:, None]
        # n * an SSE is at most 4 * (n * 255)**2, the largest bound, so the
        # bounds' type holds it
        limit = (n * (key >> shift)).astype(bounds.dtype)
        bounds[live, seeds[live]] = limit[live, 0] + 1  # scored already
        bounds -= codes < (key & ties)
        i, k = np.divmod(np.flatnonzero(bounds < limit), bounds.shape[1])
        score(blocks[i], codes[i, k])

    if cfg.search_kind == "diamond":
        # Diamond search (Zhu & Ma, IEEE TIP 2000), every block in lock step
        flat = sums.ravel()
        corners = half * np.array(((0, 1), (sums.shape[1], sums.shape[1] + 1)))

        def step(blocks: np.ndarray, pattern: np.ndarray) -> np.ndarray:
            """Move each block to the best of its centre and the neighbours at
            pattern's offsets; return those that moved.  A neighbour out of
            range or off the padded frame bounds at the sentinel.  Each
            per-neighbour array is dropped once used: they set the peak."""
            key = best[blocks]
            y, x = np.divmod(blocks, cols)
            cx, cy = vector(key)
            dx, dy = cx[:, None] + pattern[:, 0], cy[:, None] + pattern[:, 1]
            codes = tie(dx, dy)
            fits = (abs(dx) <= rx) & (abs(dy) <= ry)
            wy, wx = dy, dx  # the window's origin, built in place
            wy += y[:, None] * bs
            wx += x[:, None] * bs
            fits &= (wy >= 0) & (wy <= h - bs) & (wx >= 0) & (wx <= w - bs)
            at = np.clip(wy, 0, h - bs, out=wy)  # its index in sums, in place
            at *= sums.shape[1]
            at += np.clip(wx, 0, w - bs, out=wx)
            del dx, dy, wy, wx

            def corner(i: int, j: int) -> np.ndarray:
                return flat[corners[i, j] :].take(at)

            bounds = bound(corner, cur_sub[:, :, y, x, None], at.shape)
            del at
            bounds[~fits] = np.iinfo(np.int64).max
            del fits
            pick(blocks, bounds, codes)
            return blocks[best[blocks] < key]

        # each move strictly lowers a block's key, so every walk ends; the
        # round cap is only a belt-and-braces bound
        walking = np.arange(best.size)
        for _ in range(4 * r + 4):
            walking = step(walking, _LDSP)
            if not walking.size:
                break
        step(np.arange(best.size), _SDSP)
    else:
        # below block 32 a sub-block sum is at most 8 * 8 * 255 = 16,320 and a
        # bound at most 4 * 16,320**2 < 2**31: int16 sums and int32 bounds
        table = np.int16 if bs < 32 else np.int32
        sub_sums = cur_sub.astype(table)
        # the slices of each tile's bounds whose windows leave the frame at a
        # side: those of the block columns within rx of it, c from the left
        # and ~c from the right
        sides = [np.s_[:, c, :, : rx - c * bs] for c in range(cols) if c * bs < rx]
        sides += [
            np.s_[:, ~c, :, rx + c * bs + 1 :] for c in range(cols) if c * bs < rx
        ]
        # tiles of tb block rows by ty vector rows, those nearest dy = 0 first
        ty = min(ky, max(1, SEARCH_TILE // (cols * kx)))
        tb = max(1, SEARCH_TILE // (cols * kx * ty))
        near = sorted(range(0, ky, ty), key=lambda y0: abs(2 * (y0 - ry) + ty - 1))
        for b0 in range(0, rows, tb):
            nb = min(tb, rows - b0)
            # the band's rows of sums, padded with 0 as far as a tile reaches
            # past the frame: a tile whose windows all leave the frame is
            # skipped, so the rest reach at most a tile's height past it
            reach = (nb - 1) * bs + ty - 1
            lo = max(b0 * bs - ry, -reach)
            hi = min((b0 + nb - 1) * bs + ry + half, sums.shape[0] - 1 + reach) + 1
            sub = np.zeros((hi - lo, sums.shape[1] + 2 * rx), table)
            into = np.s_[max(0, -lo) : sums.shape[0] - lo, rx : rx + sums.shape[1]]
            sub[into] = sums[max(0, lo) : hi]
            s0, s1 = sub.strides
            strides = (half * s0, half * s1, bs * s0, bs * s1, s0, s1)
            # views[i, j, b, c, y, x] sums sub-block (i, j) of the window of
            # block (b0 + b, c) at vector row y + lo + ry - b0 * bs, column x
            span = hi - lo - half - (nb - 1) * bs
            views = as_strided(sub, (2, 2, nb, cols, span, kx), strides)
            blocks = np.arange(b0 * cols, (b0 + nb) * cols)
            block_sums = sub_sums[:, :, b0 : b0 + tb, :, None, None]
            for y0 in near:
                shape = (nb, cols, min(ty, ky - y0), kx)
                top = b0 * bs + y0 - ry  # of the tile's first window
                last = h - bs - top  # vector row of the last window in the frame, b = 0
                if top + (nb - 1) * bs + shape[2] - 1 < 0 or last < 0:
                    continue
                ys = np.s_[top - lo : top - lo + shape[2]]  # of views
                bounds = bound(lambda i, j: views[i, j, :, :, ys], block_sums, shape)
                # windows off the frame read the padding: their bounds go to
                # the type's maximum.  No block row lies wholly below the frame
                # (a tile of one would be skipped, a tile of more spans every
                # vector row), so no bottom slice starts below 0
                edges = [
                    np.s_[b, :, : -top - b * bs] for b in range(nb) if top + b * bs < 0
                ]
                edges += [
                    np.s_[b, :, last - b * bs + 1 :]
                    for b in range(nb)
                    if last - b * bs < shape[2] - 1
                ]
                for edge in edges + sides:
                    bounds[edge] = np.iinfo(bounds.dtype).max
                dy, dx = np.divmod(np.arange(shape[2] * kx)[None], kx)
                codes = tie(dx - rx, dy + y0 - ry)
                pick(blocks, bounds.reshape(blocks.size, -1), codes)
                del bounds  # before the next tile's are built
            del sub, views  # before the next band's are built
    mv = np.stack(vector(best), axis=1).reshape(rows, cols, 2)
    return mv, (best >> shift).reshape(rows, cols), zero


def _squared_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b)**2 of two uint8 arrays of one shape, exact, as uint16.

    A difference of two samples fits int16.  Its square, at most 255**2 =
    65025, wraps in int16, but its bits read as uint16 are exact.  A 32x32
    block of such squares, or of squared samples, sums to at most
    32 * 32 * 65025 = 66,585,600 < 2**31, so int32 block sums are exact too.
    """
    diff = np.subtract(a, b, dtype=np.int16)
    diff *= diff
    return diff.view(np.uint16)


def _block_sums(a: np.ndarray, size: int) -> np.ndarray:
    """int32 sum of every size x size block of a 2-D array whose sides are
    multiples of size.  Summing rows then columns is about twice as fast as
    one sum over axes (1, 3)."""
    col_sums = a.reshape(a.shape[0] // size, size, -1).sum(axis=1, dtype=np.int32)
    return col_sums.reshape(col_sums.shape[0], -1, size).sum(axis=2, dtype=np.int32)


def _bands(h: int, w: int, bs: int) -> Iterator[tuple[slice, slice]]:
    """(block rows, sample rows) slices that cut an h x w frame into bands of
    whole block rows, BAND_SAMPLES samples or one block row each."""
    n = max(1, BAND_SAMPLES // (w * bs)) * bs
    return ((np.s_[y // bs : (y + n) // bs], np.s_[y : y + n]) for y in range(0, h, n))


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


def analyze_frame(
    cur: np.ndarray,
    prev: np.ndarray,
    cfg: SearchConfig = SearchConfig(),
) -> FrameFirstPassStats:
    """Aggregate block statistics for one frame against its predecessor.

    pcnt_zero_motion is the share of inter blocks whose best vector is
    exactly (0, 0); a frame with no inter blocks reports 0.0.  The error
    spread is the population standard deviation of the zero-vector SSE
    over all blocks, padded blocks included.
    """
    # checked before padding, as motion_search checks, so the messages match
    check_pair(cur, prev, ("current", "reference"), 1)
    bs = cfg.block_size
    # each frame is padded once: motion_search leaves a padded pair as it is
    cur, prev = (pad_to_block_grid(f, bs) for f in (cur, prev))
    mv, best, zero = motion_search(cur, prev, cfg)
    total, total_sq = np.empty((2, *best.shape), np.int64)
    for b, p in _bands(*cur.shape, bs):
        total[b] = _block_sums(cur[p], bs)
        total_sq[b] = _block_sums(np.square(cur[p], dtype=np.uint16), bs)
    n = bs * bs
    # a block is inter when best_sse <= its intra proxy sum((x - mean)^2),
    # compared exactly as n * best_sse <= n * sum(x^2) - sum(x)^2; ties
    # count as inter, mirroring a cheap intra-vs-inter decision
    inter = n * best <= n * total_sq - total * total
    inter_count = int(inter.sum())
    zero_inter = int((inter & ~mv.any(axis=2)).sum())
    return FrameFirstPassStats(
        pcnt_zero_motion=zero_inter / inter_count if inter_count else 0.0,
        frame_sse=int(best.sum()),
        zero_mv_sse_stdev=float(np.std(zero.ravel().astype(np.float64))),
        block_count=best.size,
        inter_count=inter_count,
    )
