"""Objective quality: PSNR, single-scale SSIM, BD-rate between RD curves.

All metrics operate on 8-bit luma given as 2-D uint8 arrays.  Sequence
scores are plain arithmetic means of per-frame scores.  SSIM's 11x11
Gaussian window is separable, so each window mean is a row pass and a
column pass of one 11-tap filter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .video_io import _opened, check_luma

PEAK = 255.0
PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

BD_FIT_DEGREE = 3

def _check_pair(a: np.ndarray, b: np.ndarray, minimum: int) -> None:
    check_luma(a)
    check_luma(b)
    if a.shape != b.shape:
        raise ValueError(f"frame dimensions differ: {a.shape} vs {b.shape}")
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
    stick out of the frame are simply not evaluated.
    """
    _check_pair(a, b, SSIM_WINDOW)
    x = a.astype(np.float64)
    y = b.astype(np.float64)
    c1 = (SSIM_K1 * PEAK) ** 2
    c2 = (SSIM_K2 * PEAK) ** 2

    mu_x = _window_means(x)
    mu_y = _window_means(y)
    sigma_x = _window_means(x * x) - mu_x * mu_x
    sigma_y = _window_means(y * y) - mu_y * mu_y
    sigma_xy = _window_means(x * y) - mu_x * mu_y

    score = ((2.0 * mu_x * mu_y + c1) * (2.0 * sigma_xy + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (sigma_x + sigma_y + c2)
    )
    return float(np.mean(score))


@dataclass(frozen=True)
class RdPoint:
    bitrate: float
    quality: float

    def __post_init__(self):
        # NaN fails every comparison below, so it needs its own check
        if not (math.isfinite(self.bitrate) and math.isfinite(self.quality)):
            raise ValueError(
                f"RD point must be finite, got bitrate {self.bitrate}, "
                f"quality {self.quality}"
            )
        if self.bitrate <= 0:
            raise ValueError("bitrate must be positive")


@dataclass
class RdCurve:
    points: list[RdPoint]

    def __post_init__(self):
        if len(self.points) < BD_FIT_DEGREE + 1:
            raise ValueError(
                f"an RD curve needs at least {BD_FIT_DEGREE + 1} points"
            )
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.bitrate <= prev.bitrate:
                raise ValueError("bitrates must be strictly increasing")
            if cur.quality < prev.quality:
                raise ValueError("quality must be non-decreasing with bitrate")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "RdCurve":
        return cls([RdPoint(r, q) for r, q in pairs])

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points], dtype=np.float64)

    @property
    def log_rates(self) -> np.ndarray:
        return np.log10([p.bitrate for p in self.points])


def bd_rate(base: RdCurve, test: RdCurve) -> float:
    """Average bitrate difference of `test` against `base`, in percent.

    Fits log10(bitrate) as a cubic in quality for both curves, integrates
    the difference across the overlapping quality range, and maps the mean
    log offset back to a percentage.  Negative means `test` spends less
    bitrate for the same quality.
    """
    for curve in (base, test):
        q = curve.qualities
        if np.unique(q).size != q.size:
            raise ValueError("degenerate curve: repeated quality values")

    lo = max(base.qualities.min(), test.qualities.min())
    hi = min(base.qualities.max(), test.qualities.max())
    if not lo < hi:
        raise ValueError(f"quality ranges do not overlap ({lo} >= {hi})")

    fit_base = np.polyfit(base.qualities, base.log_rates, BD_FIT_DEGREE)
    fit_test = np.polyfit(test.qualities, test.log_rates, BD_FIT_DEGREE)
    int_base = np.polyint(fit_base)
    int_test = np.polyint(fit_test)
    avg_diff = (
        (np.polyval(int_test, hi) - np.polyval(int_test, lo))
        - (np.polyval(int_base, hi) - np.polyval(int_base, lo))
    ) / (hi - lo)
    return float((10.0**avg_diff - 1.0) * 100.0)


@dataclass
class QualityReport:
    psnr_db: list[float]
    ssim: list[float]
    avg_psnr_db: float
    avg_ssim: float


def sequence_quality(
    ref: Sequence[np.ndarray], dist: Sequence[np.ndarray]
) -> QualityReport:
    """Per-frame PSNR/SSIM plus their arithmetic means."""
    if len(ref) != len(dist):
        raise ValueError(f"frame counts differ: {len(ref)} vs {len(dist)}")
    if not ref:
        raise ValueError("empty sequences cannot be scored")
    psnr_values = [psnr(r, d) for r, d in zip(ref, dist)]
    ssim_values = [ssim(r, d) for r, d in zip(ref, dist)]
    return QualityReport(
        psnr_db=psnr_values,
        ssim=ssim_values,
        avg_psnr_db=math.fsum(psnr_values) / len(psnr_values),
        avg_ssim=math.fsum(ssim_values) / len(ssim_values),
    )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_rd_csv(source: Union[str, Path, IO[str]]) -> RdCurve:
    """Read `bitrate_kbps,quality` rows; a first row in which no field is a
    number is a header and is skipped."""
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
    return RdCurve.from_pairs(pairs)
