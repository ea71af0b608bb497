"""Golden-frame group segmentation, coding-structure synthesis, validation.

Display indices inside a plan are group-local: 0 is the preceding anchor
(the keyframe or the previous group's last frame, coded before this group
starts), 1..L are the group's own frames.  The frame at display L doubles
as the group's backward anchor and is re-presented by a final OVERLAY
entry that codes no new residual.

Still groups get a flat structure: every in-between frame predicts from up
to three nearest past frames, the anchor, and the backward anchor.  Moving
groups get a binary pyramid: midpoint anchors are inserted depth-first so
each sub-span is fully coded (and its short-lived references retired)
before the next sub-span starts; that keeps the live reference set inside
the hardware-style slot budget.  A plan is built in that one depth-first
pass, each entry coded as the walk reaches it.

Frame counts and intervals must be integers: anything with __index__
(numpy integers, bools) is stored as an int, and anything else, floats
included, raises ValueError.
"""

from __future__ import annotations

import enum
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Iterable, Iterator

import numpy as np

from .first_pass import SearchConfig, analyze_frame
from .parallel import cpus, ordered_map
from .stillness import (
    NON_STILL,
    STILL,
    GfGroupMetrics,
    StillnessThresholds,
    classify_stillness,
    compute_group_metrics,
)
from .video_io import _integer, checked_frames

MIN_GROUP_INTERVAL = 4
MAX_GROUP_INTERVAL = 16
REF_BUFFER_SLOTS = 8

# Frames of at least this many pixels have their first-pass pairs spread
# over every CPU in the affinity mask; smaller frames use one worker.  The
# search spends its time in numpy calls that release the GIL.  Speed-up of
# plan_sequence on 17 frames, 2 CPUs against 1, on a 2-CPU x86-64 Linux host
# with numpy 2.4 (median of 7 alternating pairs; block 16, range 8; pan at
# amplitude 4, static_noise at 2; exhaustive columns with the tiled search):
#
#   frame     pixels   diamond pan/noise   exhaustive pan/noise
#   1280x720  921,600     1.81 / 1.87          1.56 / 1.45
#   1024x576  589,824     1.85 / 1.78          1.47 / 1.32
#   960x540   518,400     1.85 / 1.76          1.59 / 1.33
#   854x480   409,920     1.77 / 1.56          1.46 / 1.10
#   640x360   230,400     1.57 / 1.51          1.33 / 1.17
#   352x288   101,376     1.23 / 1.14          1.17 / 0.99
#   176x144    25,344     0.68 / 0.67          0.99 / 0.99
#
# The gate sits above every size with a cell below 1.  At 2**17 it would
# pool 640x360 to 854x480 too, which gain in every cell, but no benchmark
# workload runs those sizes.  At 2**16 CIF pools as well: `plan` on a
# 33-frame CIF pan then peaks at 34.2 MiB RSS against 32.0 (+7%), for at
# most 1.17x.
POOL_MIN_PIXELS = 2**19

# A midpoint anchor more than this far from its span ends serves a long
# sub-span and is promoted from BWDREF to an extra backward anchor.
EXTRA_ALTREF_MIN_REACH = 4

SINGLE_LAYER = "single_layer"
MULTILAYER = "multilayer"

REF_SLOTS = ("LAST", "LAST2", "LAST3", "GOLDEN", "BWDREF", "ALTREF2", "ALTREF")
PAST_SLOTS = ("LAST", "LAST2", "LAST3")
FUTURE_SLOTS = ("BWDREF", "ALTREF2", "ALTREF")


class FrameRole(str, enum.Enum):
    GOLDEN = "GOLDEN"
    ALTREF = "ALTREF"
    EXTRA_ALTREF = "EXTRA_ALTREF"
    BWDREF = "BWDREF"
    REGULAR = "REGULAR"
    OVERLAY = "OVERLAY"


@dataclass
class PlanEntry:
    display_index: int
    encode_order: int
    role: FrameRole
    layer: int
    refs: dict[str, int] = field(default_factory=dict)
    show_existing: bool = False


@dataclass
class GfGroupPlan:
    interval: int
    structure: str
    entries: list[PlanEntry]


@dataclass
class PlanViolation:
    check: str
    message: str


@dataclass
class GroupPlanResult:
    group_id: int
    start_display: int
    metrics: GfGroupMetrics
    verdict: str
    plan: GfGroupPlan


def check_intervals(
    target_interval: int, key_interval: int | None
) -> tuple[int, int | None]:
    """Both as ints; ValueError unless they are legal segment_groups intervals."""
    target_interval = _integer("target_interval", target_interval)
    if key_interval is not None:
        key_interval = _integer("key_interval", key_interval)
    if not MIN_GROUP_INTERVAL <= target_interval <= MAX_GROUP_INTERVAL:
        raise ValueError(
            f"target_interval must lie in "
            f"[{MIN_GROUP_INTERVAL}, {MAX_GROUP_INTERVAL}]"
        )
    if key_interval is not None and key_interval < 2:
        raise ValueError("key_interval must be >= 2")
    return target_interval, key_interval


def segment_groups(
    total_frames: int,
    target_interval: int = MAX_GROUP_INTERVAL,
    key_interval: int | None = None,
) -> list[tuple[int, int]]:
    """Greedily partition a sequence into groups after its keyframe.

    Returns (first display index, interval) per group, in display order.

    Frame 0 (and every key_interval-th frame, when given) is a keyframe
    anchor owned by no group.  A trailing remainder shorter than the
    minimum interval is merged with the previous group and the pair is
    re-split evenly, so 35 frames at target 16 become 16 + 9 + 9.
    """
    total_frames = _integer("total_frames", total_frames)
    if total_frames < 2:
        raise ValueError("need at least two frames to form a group")
    target_interval, key_interval = check_intervals(target_interval, key_interval)

    keyframes = [0]
    if key_interval is not None:
        keyframes = list(range(0, total_frames - 1, key_interval))

    boundaries: list[tuple[int, int]] = []
    for kf, end in zip(keyframes, [*keyframes[1:], total_frames]):
        boundaries += _segment_run(kf + 1, end - kf - 1, target_interval)
    return boundaries


def _segment_run(start: int, n_frames: int, target: int) -> list[tuple[int, int]]:
    whole, rest = divmod(n_frames, target)
    intervals = [target] * whole
    if whole and 0 < rest < MIN_GROUP_INTERVAL:
        merged = target + rest
        intervals[-1:] = [(merged + 1) // 2, merged // 2]
    elif rest:
        intervals.append(rest)
    return list(zip(accumulate(intervals, initial=start), intervals))


def plan_group(interval: int, verdict: str) -> GfGroupPlan:
    """Build the coding plan for one group in one depth-first pass.

    The backward anchor (ALTREF) is coded first and its OVERLAY last.  Still
    groups code the displays between in order, as leaves.  Non-still groups
    code each span's midpoint anchor and then its two halves, so the pyramid
    is built depth-first; a span of two has one leaf.  Every frame references
    its nearest coded neighbours, the future ones only in non-still groups.
    interval 1 degenerates to anchor-plus-overlay either way.
    """
    interval = _integer("interval", interval)
    if not 1 <= interval <= MAX_GROUP_INTERVAL:
        raise ValueError(f"interval must lie in [1, {MAX_GROUP_INTERVAL}]")
    if verdict not in (STILL, NON_STILL):
        raise ValueError(f"unknown verdict {verdict!r}")
    still = verdict == STILL
    # leaves sit one layer below ALTREF or below the deepest midpoint anchor,
    # which the split of an interval places at layer (interval - 1).bit_length()
    leaf_layer = 2 if still else 1 + max(1, (interval - 1).bit_length())

    entries = [
        PlanEntry(
            display_index=interval,
            encode_order=0,
            role=FrameRole.ALTREF,
            layer=1,
            refs={"LAST": 0, "GOLDEN": 0},
        )
    ]
    coded = [0, interval]  # sorted displays coded so far

    def code(display: int, role: FrameRole, layer: int) -> None:
        # coded[:i] precedes display, nearest last; coded[i:] follows it
        i = bisect(coded, display)
        # refs are inserted in REF_SLOTS order, which the plan JSON keeps
        refs = dict(zip(PAST_SLOTS, reversed(coded[:i])))
        refs["GOLDEN"] = 0
        if not still:
            refs.update(zip(("BWDREF", "ALTREF2"), coded[i:]))
        refs["ALTREF"] = interval
        entries.append(
            PlanEntry(
                display_index=display,
                encode_order=len(entries),
                role=role,
                layer=layer,
                refs=refs,
            )
        )
        coded.insert(i, display)

    def split(a: int, b: int, layer: int) -> None:
        # a and b are coded; nothing between them is yet
        if b - a == 2:
            code(a + 1, FrameRole.REGULAR, leaf_layer)
        elif b - a > 2:
            m = (a + b) // 2
            far = m - a > EXTRA_ALTREF_MIN_REACH
            code(m, FrameRole.EXTRA_ALTREF if far else FrameRole.BWDREF, layer)
            split(a, m, layer + 1)
            split(m, b, layer + 1)

    if still:
        for display in range(1, interval):
            code(display, FrameRole.REGULAR, leaf_layer)
    else:
        split(0, interval, 2)
    entries.append(
        PlanEntry(
            display_index=interval,
            encode_order=len(entries),
            role=FrameRole.OVERLAY,
            layer=1,
            refs={},
            show_existing=True,
        )
    )
    return GfGroupPlan(interval, SINGLE_LAYER if still else MULTILAYER, entries)


def validate_plan(plan: GfGroupPlan) -> list[PlanViolation]:
    """Check a plan's structural sanity; returns all violations found, so an
    empty list means the plan is valid.

    Checks, by name: "decode_order" (encode orders are 0..n-1, and nothing
    references or shows a display before it is coded), "coverage" (each
    display 1..interval coded once, overlays aside), "buffer" (at most
    REF_BUFFER_SLOTS references live), "structure" (no pyramid roles in a
    single-layer plan) and "slot_direction" (known slots, each pointing the
    way its name says).  The list holds the two whole-plan checks first, then
    what one replay of the entries finds, in encode order.
    """
    violations: list[PlanViolation] = []
    entries = sorted(plan.entries, key=lambda e: e.encode_order)
    if [e.encode_order for e in entries] != list(range(len(entries))):
        violations.append(
            PlanViolation("decode_order", f"encode_order not 0..{len(entries) - 1}")
        )
    coded_displays = sorted(e.display_index for e in entries if not e.show_existing)
    if coded_displays != list(range(1, plan.interval + 1)):
        violations.append(
            PlanViolation(
                "coverage",
                f"coded displays {coded_displays} are not "
                f"1..{plan.interval} exactly once",
            )
        )

    # still_needed[i]: displays that entry i or a later one references or shows
    still_needed: list[set[int]] = []
    needed: set[int] = set()
    for e in reversed(entries):
        shown = [e.display_index] if e.show_existing else []
        needed = needed.union(e.refs.values(), shown)
        still_needed.append(needed)
    still_needed.reverse()

    flat = plan.structure == SINGLE_LAYER
    coded = {0}  # display 0 is pre-coded by the caller
    for e, needed in zip(entries, still_needed):
        order, display = e.encode_order, e.display_index
        for slot, target in e.refs.items():
            if target not in coded:
                violations.append(
                    PlanViolation(
                        "decode_order",
                        f"entry at encode {order} references display "
                        f"{target} ({slot}) before it is coded",
                    )
                )
            if slot not in REF_SLOTS:
                message = f"unknown reference slot {slot!r}"
            elif slot in PAST_SLOTS and target >= display:
                message = (
                    f"{slot} of display {display} points at non-past display {target}"
                )
            elif slot in FUTURE_SLOTS and target <= display:
                message = (
                    f"{slot} of display {display} points at non-future display {target}"
                )
            else:
                continue
            violations.append(PlanViolation("slot_direction", message))
        if e.show_existing and display not in coded:
            violations.append(
                PlanViolation(
                    "decode_order",
                    f"overlay at encode {order} shows display "
                    f"{display} before it is coded",
                )
            )
        live = len(needed & coded)
        if live > REF_BUFFER_SLOTS:
            violations.append(
                PlanViolation(
                    "buffer",
                    f"{live} references live at encode {order}, "
                    f"budget is {REF_BUFFER_SLOTS}",
                )
            )
        if flat and e.role in (FrameRole.EXTRA_ALTREF, FrameRole.BWDREF):
            violations.append(
                PlanViolation(
                    "structure",
                    f"single-layer plan contains {e.role.value} at display {display}",
                )
            )
        if not e.show_existing:
            coded.add(display)
    return violations


def plan_sequence(
    frames: Iterable[np.ndarray],
    cfg: SearchConfig = SearchConfig(),
    thresholds: StillnessThresholds = StillnessThresholds(),
    target_interval: int = MAX_GROUP_INTERVAL,
    key_interval: int | None = None,
) -> list[GroupPlanResult]:
    """Segment, analyse and plan a sequence of 2-D uint8 frames of one size.

    `frames` may be any iterable, a one-shot reader included.  Each group's
    frames are matched against their display predecessor, the first frame
    of a group against the last frame before it.  Pairs are matched as the
    frames arrive, and a frame is dropped once its pairs are done, so a run
    holds the newest frame, the one before it, the frame before a keyframe
    until the next frame shows that the keyframe is not the last, and the
    pairs being matched.  Frames of at least POOL_MIN_PIXELS have their
    pairs matched on a thread per CPU this process may run on; the result
    is the same on any number of CPUs.
    """
    target_interval, key_interval = check_intervals(target_interval, key_interval)
    frames = checked_frames(frames)
    first = next(frames, None)
    if first is None:
        raise ValueError("need at least two frames to form a group")
    pixels = first.size
    count = 1

    def pairs(prev: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(frame d, frame d - 1) for every frame d that a group owns."""
        nonlocal count
        held = None
        for cur in frames:
            d, count = count, count + 1
            # segment_groups makes every key_interval-th frame a keyframe,
            # which owns no pair, unless it is the last frame
            held = None
            if key_interval is not None and d % key_interval == 0:
                held = (cur, prev)
            else:
                yield cur, prev
            prev = cur
        if held is not None:
            yield held

    workers = cpus() if pixels >= POOL_MIN_PIXELS else 1
    stream = pairs(first)
    del first  # frame 0 is dropped once its pair is done
    # every pair finishes before any group is scored, so the scoring never
    # runs beside a worker
    stats = iter(ordered_map(lambda pair: analyze_frame(*pair, cfg), stream, workers))
    results = []
    groups = segment_groups(count, target_interval, key_interval)
    for gid, (start, interval) in enumerate(groups, start=1):
        group_stats = list(islice(stats, interval))
        metrics = compute_group_metrics(group_stats, pixels)
        verdict = classify_stillness(metrics, thresholds)
        results.append(
            GroupPlanResult(
                group_id=gid,
                start_display=start,
                metrics=metrics,
                verdict=verdict,
                plan=plan_group(interval, verdict),
            )
        )
    return results
