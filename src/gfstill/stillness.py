"""Group-level stillness metrics and the still / non-still decision.

A group is still only when all three hold under the configured thresholds:
its worst frame is almost entirely zero-motion, the mean per-pixel
prediction error is small, and the zero-vector error is spatially uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .first_pass import FrameFirstPassStats

STILL = "still"
NON_STILL = "non-still"

METRIC_NAMES = ("zero_motion_accumulator", "avg_pixel_error", "avg_error_stdev")


@dataclass(frozen=True)
class StillnessThresholds:
    zero_motion_min: float = 0.9
    pixel_error_max: float = 40.0
    error_stdev_max: float = 2000.0

    def __post_init__(self):
        # written so that NaN fails every test: it compares False with anything
        if not 0 < self.zero_motion_min <= 1:
            raise ValueError(
                f"zero_motion_min must lie in (0, 1], got {self.zero_motion_min}"
            )
        for name in ("pixel_error_max", "error_stdev_max"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class GfGroupMetrics:
    interval: int
    zero_motion_accumulator: float
    avg_pixel_error: float
    avg_error_stdev: float

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if not 0.0 <= self.zero_motion_accumulator <= 1.0:
            raise ValueError("zero_motion_accumulator must lie in [0, 1]")
        # written so that NaN fails, as in StillnessThresholds
        if not (self.avg_pixel_error >= 0 and self.avg_error_stdev >= 0):
            raise ValueError("error metrics must be non-negative")


def compute_group_metrics(
    stats: Sequence[FrameFirstPassStats], pixels_per_frame: int
) -> GfGroupMetrics:
    """Fold per-frame first-pass stats into the three group metrics.

    The zero-motion accumulator is the minimum over the group's frames, so a
    single busy frame disqualifies the whole group.  Means use exactly
    rounded summation, making the result independent of frame order.
    """
    if not stats:
        raise ValueError("cannot summarise an empty stats list")
    if pixels_per_frame <= 0:
        raise ValueError("pixels_per_frame must be positive")
    zm = min(s.pcnt_zero_motion for s in stats)
    ape = math.fsum(s.frame_sse / pixels_per_frame for s in stats) / len(stats)
    aes = math.fsum(s.zero_mv_sse_stdev for s in stats) / len(stats)
    return GfGroupMetrics(
        interval=len(stats),
        zero_motion_accumulator=zm,
        avg_pixel_error=ape,
        avg_error_stdev=aes,
    )


def classify_stillness(
    metrics: GfGroupMetrics, thresholds: StillnessThresholds = StillnessThresholds()
) -> str:
    """Return "still" or "non-still".  All three comparisons are strict."""
    still = (
        metrics.zero_motion_accumulator > thresholds.zero_motion_min
        and metrics.avg_pixel_error < thresholds.pixel_error_max
        and metrics.avg_error_stdev < thresholds.error_stdev_max
    )
    return STILL if still else NON_STILL
