"""Objective quality: PSNR, single-scale SSIM, BD-rate between RD curves.

All metrics operate on 8-bit luma given as 2-D uint8 arrays.  Sequence
scores are plain arithmetic means of per-frame scores.  SSIM's 11x11
Gaussian window is separable, so each window mean is a row pass and a
column pass of one 11-tap filter.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .parallel import cpus, ordered_map
from .video_io import _opened, check_luma

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
# (static against static_noise at amplitude 3): the tracemalloc peak of one
# call; SSIM over the 33 pairs on one thread under `taskset -c 0` (median
# of 10 alternating fresh processes); and the whole `gfstill quality` run
# on 2 CPUs (median of 11, quartiles about 50 ms apart):
#
#   strip rows    call peak MiB          SSIM, 1 CPU   quality, 2 CPUs
#                 QCIF   CIF    720p     ms            ms    peak RSS MiB
#   16            0.45   1.27    8.87     601           716   43.41
#   32            0.65   1.71   10.39     454           568   43.82
#   64            1.10   2.63   13.49     393           518   44.91
#   96            1.55   3.36   16.60     359           506   45.71
#   128           2.00   4.20   19.70     355           503   46.68
#   256           2.09   7.50   32.14     356           495   52.84
#   whole frame   2.09   8.08   75.98     330           473   53.75
#
# The whole-frame kernel on one thread reads 351 ms for SSIM and 624 ms,
# 44.21 MiB for the run.  Each strip filters its extra rows
# again, so short strips cost time on one CPU; from 96 rows that cost is
# within the noise, and above it peak RSS grows about 1 MiB per 32 rows.
SSIM_STRIP_ROWS = 96

BD_FIT_DEGREE = 3


def _check_pair(a: np.ndarray, b: np.ndarray, minimum: int) -> None:
    check_luma(a)
    check_luma(b)
    if a.shape != b.shape:
        raise ValueError(
            f"reference is {a.shape[1]}x{a.shape[0]}, "
            f"distorted is {b.shape[1]}x{b.shape[0]}"
        )
    if min(a.shape) < minimum:
        raise ValueError(f"frames must be at least {minimum}x{minimum}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; identical frames return the cap."""
    _check_pair(a, b, 1)
    diff = a.astype(np.int64) - b.astype(np.int64)
    sse = int(np.einsum("ij,ij->", diff, diff))
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


def _window_means(p: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every fully interior window of `p`."""
    rows = sliding_window_view(p, SSIM_WINDOW, axis=1) @ _SSIM_TAPS
    return sliding_window_view(rows, SSIM_WINDOW, axis=0) @ _SSIM_TAPS


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over all fully interior 11x11 windows.

    Gaussian-weighted window statistics (sigma 1.5), stabilisers
    C1 = (K1*255)^2 and C2 = (K2*255)^2, no padding: windows that would
    stick out of the frame are simply not evaluated.  The scores are
    computed in strips of SSIM_STRIP_ROWS window rows, each from its own
    rows of the frames, so the float temporaries stay a strip in size.
    """
    _check_pair(a, b, SSIM_WINDOW)
    c1 = (SSIM_K1 * PEAK) ** 2
    c2 = (SSIM_K2 * PEAK) ** 2
    height, width = a.shape
    score = np.empty((height - SSIM_WINDOW + 1, width - SSIM_WINDOW + 1))
    for top in range(0, score.shape[0], SSIM_STRIP_ROWS):
        rows = slice(top, top + SSIM_STRIP_ROWS + SSIM_WINDOW - 1)
        x = a[rows].astype(np.float64)
        y = b[rows].astype(np.float64)
        mu_x = _window_means(x)
        mu_y = _window_means(y)
        sigma_x = _window_means(x * x) - mu_x * mu_x
        sigma_y = _window_means(y * y) - mu_y * mu_y
        sigma_xy = _window_means(x * y) - mu_x * mu_y
        score[top : top + SSIM_STRIP_ROWS] = (
            (2.0 * mu_x * mu_y + c1) * (2.0 * sigma_xy + c2)
        ) / ((mu_x * mu_x + mu_y * mu_y + c1) * (sigma_x + sigma_y + c2))
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
    ref: Sequence[np.ndarray], dist: Sequence[np.ndarray]
) -> tuple[list[float], list[float]]:
    """Per-frame PSNR in dB and SSIM, as two lists in frame order.

    The SSIM pairs are scored on a thread per CPU this process may run on;
    the result is the same on any number of CPUs.
    """
    if len(ref) != len(dist):
        raise ValueError(f"frame counts differ: {len(ref)} vs {len(dist)}")
    if not ref:
        raise ValueError("empty sequences cannot be scored")
    pairs = list(zip(ref, dist))
    # every pair is checked here, so a bad frame is named by its index and
    # never fails inside a worker
    for i, (r, d) in enumerate(pairs):
        try:
            _check_pair(r, d, SSIM_WINDOW)
        except ValueError as exc:
            raise ValueError(f"frame {i}: {exc}") from None
    psnr_values = [psnr(r, d) for r, d in pairs]
    ssim_values = ordered_map(lambda pair: ssim(*pair), pairs, cpus())
    return psnr_values, ssim_values


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
