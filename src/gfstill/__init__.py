"""Adaptive golden-frame group planning from first-pass stillness statistics.

The pipeline: decode luma (video_io), run a block-matching first pass
(first_pass), fold per-frame statistics into group stillness metrics and a
verdict (stillness), emit and validate a coding-structure plan per group
(gop_planner).  quality and synth supply the evaluation tooling: PSNR,
SSIM, BD-rate, and deterministic test clips.
"""

from .first_pass import (
    FrameFirstPassStats,
    SearchConfig,
    analyze_frame,
    motion_search,
    pad_to_block_grid,
)
from .gop_planner import (
    FrameRole,
    GfGroupPlan,
    GroupPlanResult,
    PlanEntry,
    dump_group_metrics,
    plan_group,
    plan_sequence,
    plans_to_json,
    segment_groups,
    validate_plan,
)
from .quality import (
    bd_rate,
    load_rd_csv,
    psnr,
    sequence_quality,
    ssim,
)
from .stillness import (
    GfGroupMetrics,
    StillnessThresholds,
    classify_stillness,
    compute_group_metrics,
    dump_metric_histograms,
    metric_histograms,
)
from .synth import SynthSpec, generate
from .video_io import (
    FramePlane,
    VideoSequence,
    Y4mError,
    load_y4m,
    load_yuv,
    write_y4m,
)

__version__ = "0.1.0"

__all__ = [
    "FrameFirstPassStats",
    "FramePlane",
    "FrameRole",
    "GfGroupMetrics",
    "GfGroupPlan",
    "GroupPlanResult",
    "PlanEntry",
    "SearchConfig",
    "StillnessThresholds",
    "SynthSpec",
    "VideoSequence",
    "Y4mError",
    "analyze_frame",
    "bd_rate",
    "classify_stillness",
    "compute_group_metrics",
    "dump_group_metrics",
    "dump_metric_histograms",
    "generate",
    "load_rd_csv",
    "load_y4m",
    "load_yuv",
    "metric_histograms",
    "motion_search",
    "pad_to_block_grid",
    "plan_group",
    "plan_sequence",
    "plans_to_json",
    "psnr",
    "segment_groups",
    "sequence_quality",
    "ssim",
    "validate_plan",
    "write_y4m",
]
