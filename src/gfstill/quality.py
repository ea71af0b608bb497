"""Objective quality: PSNR, single-scale SSIM, BD-rate between RD curves.

All metrics operate on 8-bit luma given as 2-D uint8 arrays.  Sequence
scores are plain arithmetic means of per-frame scores.  SSIM's 11x11
Gaussian window is separable, so each window mean is a row pass and a
column pass of one 11-tap filter.  SSIM needs the window means of four
planes of a strip of frame rows, x, y, x*y and x^2 + y^2, filtered as one
stack: the row pass is one correlate over the flattened stack, the column
pass BLAS matrix-vector products.
"""

from __future__ import annotations

import csv
import math
from itertools import zip_longest
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .first_pass import _squared_diff
from .parallel import cpus, ordered_map
from .video_io import _opened, check_pair

PEAK = 255.0
PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# SSIM is scored in strips of this many window rows.  Each strip reads its
# rows plus SSIM_WINDOW - 1 more from both frames, so the float temporaries
# of one call stay a strip in size, and frame pairs scored at once on
# several threads hold little more than one whole-frame call.  Measured
# on a 2-CPU x86-64 Linux host with numpy 2.4, on two 33-frame CIF clips
# (static against static_noise at amplitude 3), with the CLI's malloc
# thresholds: the tracemalloc peak of one call; SSIM over the 33 pairs on
# one thread under `taskset -c 0` (median of 10 alternating fresh
# processes); and the `cli.main` call of `gfstill quality` on 2 CPUs with
# the process's peak RSS (median of 11 alternating fresh processes):
#
#   strip rows    call peak MiB          SSIM, 1 CPU   quality, 2 CPUs
#                 QCIF   CIF    720p     ms            ms    peak RSS MiB
#   16            0.46   1.29    8.92     135           166   33.47
#   32            0.63   1.63   10.17     114           134   34.26
#   48            0.80   1.98   11.42     102           110   35.03
#   64            0.97   2.32   12.67      99           111   36.05
#   96            1.31   3.01   15.17     107           108   37.77
#   128           1.65   3.69   17.67     106           104   39.45
#   256           1.72   6.44   27.66     108           113   46.30
#   whole frame   1.72   6.92   63.13     107           107   47.38
#
# Each strip filters its extra rows again, so short strips cost time.  48
# and 64 rows were faster on one CPU, but 30 alternating runs of the
# `quality` call on 2 CPUs read 126 and 122 ms at 48 and 64 rows against
# 116 ms at 96.  Above 96 rows peak RSS grows about 1.7 MiB per 32 rows.
SSIM_STRIP_ROWS = 96

BD_FIT_DEGREE = 3

_PAIR = ("reference", "distorted")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; identical frames return the cap."""
    check_pair(a, b, _PAIR, 1)
    sse = int(_squared_diff(a, b).sum(dtype=np.int64))
    if sse == 0:
        return PSNR_CAP_DB
    mse = sse / a.size
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2
    coords = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    return g / g.sum()


_SSIM_TAPS = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)


def _window_means(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every fully interior window of each plane
    of `p`, a C-contiguous float64 plane or stack of planes; `rows`, a
    C-contiguous array of its shape with SSIM_WINDOW - 1 fewer columns,
    receives the row pass and may share `p`'s buffer.

    The row pass is one correlate over the flattened stack: each output adds
    its 11 products left to right, as a window dot product does.  Of every
    width outputs, the last SSIM_WINDOW - 1 straddle two rows or planes and
    are dropped; the correlate has read all of `p` before the kept ones are
    copied.  The column pass is one matrix-vector product a window row over
    `rows`, so each plane's means have the bits they have on their own.
    """
    width = p.shape[-1]
    # plane k's row r starts at output (k * height + r) * width; the
    # correlate's output is freed before the column pass allocates its own
    rows.reshape(-1, rows.shape[-1])[...] = sliding_window_view(
        np.correlate(p.reshape(-1), _SSIM_TAPS, "valid"), rows.shape[-1]
    )[::width]
    return sliding_window_view(rows, SSIM_WINDOW, axis=-2) @ _SSIM_TAPS


def _strip_ssim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SSIM of every fully interior window of two uint8 strips.  A function
    of its own, so that one strip's statistics are freed before the next
    strip's are computed.

    SSIM's denominator needs sigma_x^2 + sigma_y^2 only as a sum, so four
    planes are filtered, x, y, x * y and x^2 + y^2, as one stack; all four
    hold exact integers.  The row pass goes back into the stack's buffer.
    """
    height, width = a.shape
    stack = np.empty((4, height, width))
    x, y, xy, sq = stack
    x[...] = a
    y[...] = b
    np.multiply(x, y, out=xy)
    np.multiply(x, x, out=sq)
    sq += np.square(y)
    shape = (4, height, width - SSIM_WINDOW + 1)
    rows = stack.reshape(-1)[: math.prod(shape)].reshape(shape)
    mu_x, mu_y, sigma_xy, sigma_sq = _window_means(stack, rows)
    del stack, x, y, xy, sq, rows
    # the score is formed in place, with one more plane, mu_xy
    mu_xy = mu_x * mu_y
    sigma_xy -= mu_xy
    mu_x *= mu_x
    mu_y *= mu_y
    mu_x += mu_y  # mu_x^2 + mu_y^2
    sigma_sq -= mu_x  # sigma_x^2 + sigma_y^2
    c1 = (SSIM_K1 * PEAK) ** 2
    c2 = (SSIM_K2 * PEAK) ** 2
    mu_xy *= 2.0
    mu_xy += c1
    sigma_xy *= 2.0
    sigma_xy += c2
    mu_x += c1
    sigma_sq += c2
    mu_xy *= sigma_xy
    mu_x *= sigma_sq
    mu_xy /= mu_x
    return mu_xy


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over all fully interior 11x11 windows.

    Gaussian-weighted window statistics (sigma 1.5), stabilisers
    C1 = (K1*255)^2 and C2 = (K2*255)^2, no padding: windows that would
    stick out of the frame are simply not evaluated.  The scores are
    computed in strips of SSIM_STRIP_ROWS window rows, each from its own
    rows of the frames, so the float temporaries stay a strip in size.
    """
    check_pair(a, b, _PAIR, SSIM_WINDOW)
    height, width = a.shape
    score = np.empty((height - SSIM_WINDOW + 1, width - SSIM_WINDOW + 1))
    for top in range(0, score.shape[0], SSIM_STRIP_ROWS):
        rows = slice(top, top + SSIM_STRIP_ROWS + SSIM_WINDOW - 1)
        score[top : top + SSIM_STRIP_ROWS] = _strip_ssim(a[rows], b[rows])
    return float(np.mean(score))


def _rd_curve(pairs: Iterable[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Check a curve of (bitrate, quality) pairs; return log10 bitrates, qualities."""
    pairs = list(pairs)
    for bitrate, quality in pairs:
        # NaN fails every comparison below, so it needs its own check
        if not (math.isfinite(bitrate) and math.isfinite(quality)):
            raise ValueError(
                f"RD point must be finite, got bitrate {bitrate}, quality {quality}"
            )
        if bitrate <= 0:
            raise ValueError("bitrate must be positive")
    if len(pairs) < BD_FIT_DEGREE + 1:
        raise ValueError(f"an RD curve needs at least {BD_FIT_DEGREE + 1} points")
    for (prev_rate, prev_quality), (rate, quality) in zip(pairs, pairs[1:]):
        if rate <= prev_rate:
            raise ValueError("bitrates must be strictly increasing")
        if quality < prev_quality:
            raise ValueError("quality must be non-decreasing with bitrate")
    rates, qualities = zip(*pairs)
    return np.log10(rates), np.array(qualities, dtype=np.float64)


def bd_rate(
    base: Iterable[tuple[float, float]], test: Iterable[tuple[float, float]]
) -> float:
    """Average bitrate difference of `test` against `base`, in percent.

    Each curve is a sequence of (bitrate, quality) pairs, bitrates strictly
    increasing.  Fits log10(bitrate) as a cubic in quality for both curves,
    integrates the difference across the overlapping quality range, and
    maps the mean log offset back to a percentage.  Negative means `test`
    spends less bitrate for the same quality.
    """
    (base_rates, base_q), (test_rates, test_q) = _rd_curve(base), _rd_curve(test)
    for q in (base_q, test_q):
        if np.unique(q).size != q.size:
            raise ValueError("degenerate curve: repeated quality values")

    lo = max(base_q.min(), test_q.min())
    hi = min(base_q.max(), test_q.max())
    if not lo < hi:
        raise ValueError(f"quality ranges do not overlap ({lo} >= {hi})")

    fit_base = np.polyfit(base_q, base_rates, BD_FIT_DEGREE)
    fit_test = np.polyfit(test_q, test_rates, BD_FIT_DEGREE)
    int_base = np.polyint(fit_base)
    int_test = np.polyint(fit_test)
    avg_diff = (
        (np.polyval(int_test, hi) - np.polyval(int_test, lo))
        - (np.polyval(int_base, hi) - np.polyval(int_base, lo))
    ) / (hi - lo)
    return float((10.0**avg_diff - 1.0) * 100.0)


def sequence_quality(
    ref: Iterable[np.ndarray], dist: Iterable[np.ndarray]
) -> tuple[list[float], list[float]]:
    """Per-frame PSNR in dB and SSIM, as two lists in frame order.

    `ref` and `dist` may be one-shot readers: they are read in step, one
    pair at a time, and each pair is checked as it arrives and scored on a
    thread per CPU this process may run on; the result is the same on any
    number of CPUs.  Once one clip ends, the rest of the other is counted.
    """

    def pairs() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        end = object()
        n_ref = n_dist = 0
        for r, d in zip_longest(ref, dist, fillvalue=end):
            n_ref += r is not end
            n_dist += d is not end
            if r is end or d is end:
                continue
            # a bad frame is named by its index and never fails inside a job
            try:
                check_pair(r, d, _PAIR, SSIM_WINDOW)
            except ValueError as exc:
                raise ValueError(f"frame {n_ref - 1}: {exc}") from None
            yield r, d
        if n_ref != n_dist:
            raise ValueError(f"frame counts differ: {n_ref} vs {n_dist}")
        if not n_ref:
            raise ValueError("empty sequences cannot be scored")

    scores = ordered_map(lambda pair: (psnr(*pair), ssim(*pair)), pairs(), cpus())
    return [p for p, _ in scores], [s for _, s in scores]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_rd_csv(source: Union[str, Path, IO[str]]) -> list[tuple[float, float]]:
    """Read `bitrate_kbps,quality` rows into (bitrate, quality) pairs, checked
    as `bd_rate` checks a curve; a first row in which no field is a number
    is a header and is skipped."""
    pairs = []
    with _opened(source, "r", newline="") as stream:
        for lineno, row in enumerate(csv.reader(stream), start=1):
            if not row or not "".join(row).strip():
                continue
            try:
                pairs.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if lineno == 1 and not any(map(_is_number, row)):
                    continue  # header row
                raise ValueError(f"malformed RD row {lineno}: {row!r}") from None
    _rd_curve(pairs)
    return pairs
