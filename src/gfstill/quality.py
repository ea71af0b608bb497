"""Objective quality: PSNR, single-scale SSIM, BD-rate between RD curves.

All metrics operate on 8-bit luma.  Sequence scores are plain arithmetic
means of per-frame scores.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np
from scipy.signal import convolve2d

from .video_io import Plane, _as_samples

PEAK = 255.0
PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

BD_FIT_DEGREE = 3

def _check_pair(a: Plane, b: Plane, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    sa, sb = _as_samples(a), _as_samples(b)
    if sa.shape != sb.shape:
        raise ValueError(f"frame dimensions differ: {sa.shape} vs {sb.shape}")
    if min(sa.shape) < minimum:
        raise ValueError(f"frames must be at least {minimum}x{minimum}")
    return sa, sb


def psnr(a: Plane, b: Plane) -> float:
    """Peak signal-to-noise ratio in dB; identical frames return the cap."""
    sa, sb = _check_pair(a, b, 1)
    diff = sa.astype(np.int64) - sb.astype(np.int64)
    sse = int(np.einsum("ij,ij->", diff, diff))
    if sse == 0:
        return PSNR_CAP_DB
    mse = sse / sa.size
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2
    coords = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


_SSIM_KERNEL = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)


def ssim(a: Plane, b: Plane) -> float:
    """Mean structural similarity over all fully interior 11x11 windows.

    Gaussian-weighted window statistics (sigma 1.5), stabilisers
    C1 = (K1*255)^2 and C2 = (K2*255)^2, no padding: windows that would
    stick out of the frame are simply not evaluated.
    """
    sa, sb = _check_pair(a, b, SSIM_WINDOW)
    x = sa.astype(np.float64)
    y = sb.astype(np.float64)
    c1 = (SSIM_K1 * PEAK) ** 2
    c2 = (SSIM_K2 * PEAK) ** 2

    k = _SSIM_KERNEL
    mu_x = convolve2d(x, k, mode="valid")
    mu_y = convolve2d(y, k, mode="valid")
    sigma_x = convolve2d(x * x, k, mode="valid") - mu_x * mu_x
    sigma_y = convolve2d(y * y, k, mode="valid") - mu_y * mu_y
    sigma_xy = convolve2d(x * y, k, mode="valid") - mu_x * mu_y

    score = ((2.0 * mu_x * mu_y + c1) * (2.0 * sigma_xy + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (sigma_x + sigma_y + c2)
    )
    return float(np.mean(score))


@dataclass(frozen=True)
class RdPoint:
    bitrate: float
    quality: float

    def __post_init__(self):
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


def sequence_quality(ref: Sequence[Plane], dist: Sequence[Plane]) -> QualityReport:
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


def load_rd_csv(source: Union[str, Path, IO[str]]) -> RdCurve:
    """Read `bitrate_kbps,quality` rows; a leading header row is skipped."""
    own = isinstance(source, (str, Path))
    stream: IO[str] = open(source, "r", newline="") if own else source  # type: ignore[arg-type]
    try:
        pairs = []
        for lineno, row in enumerate(csv.reader(stream), start=1):
            if not row or not "".join(row).strip():
                continue
            try:
                pairs.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"malformed RD row {lineno}: {row!r}") from None
    finally:
        if own:
            stream.close()
    return RdCurve.from_pairs(pairs)
