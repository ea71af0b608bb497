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
the hardware-style slot budget.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field

from .first_pass import SearchConfig, analyze_frame
from .stillness import (
    GfGroupMetrics,
    StillnessThresholds,
    classify_stillness,
    compute_group_metrics,
)
from .video_io import VideoSequence

MIN_GROUP_INTERVAL = 4
MAX_GROUP_INTERVAL = 16
REF_BUFFER_SLOTS = 8

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
class ValidationReport:
    violations: list[PlanViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class GroupPlanResult:
    group_id: int
    start_display: int
    metrics: GfGroupMetrics
    verdict: str
    plan: GfGroupPlan


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
    if total_frames < 2:
        raise ValueError("need at least two frames to form a group")
    if not MIN_GROUP_INTERVAL <= target_interval <= MAX_GROUP_INTERVAL:
        raise ValueError(
            f"target_interval must lie in "
            f"[{MIN_GROUP_INTERVAL}, {MAX_GROUP_INTERVAL}]"
        )
    if key_interval is not None and key_interval < 2:
        raise ValueError("key_interval must be >= 2")

    keyframes = [0]
    if key_interval is not None:
        keyframes = list(range(0, total_frames - 1, key_interval))

    boundaries: list[tuple[int, int]] = []
    for i, kf in enumerate(keyframes):
        segment_end = keyframes[i + 1] if i + 1 < len(keyframes) else total_frames
        boundaries.extend(_segment_run(kf + 1, segment_end - kf - 1, target_interval))
    return boundaries


def _segment_run(start: int, n_frames: int, target: int) -> list[tuple[int, int]]:
    intervals: list[int] = []
    remaining = n_frames
    while remaining >= target:
        intervals.append(target)
        remaining -= target
    if remaining:
        if remaining >= MIN_GROUP_INTERVAL or not intervals:
            intervals.append(remaining)
        else:
            merged = intervals.pop() + remaining
            intervals.extend(((merged + 1) // 2, merged // 2))

    out = []
    pos = start
    for length in intervals:
        out.append((pos, length))
        pos += length
    return out


def _nearest_past_refs(display: int, coded: list[int]) -> dict[str, int]:
    past = [c for c in coded if c < display]
    refs: dict[str, int] = {}
    for slot, value in zip(PAST_SLOTS, reversed(past)):
        refs[slot] = value
    refs["GOLDEN"] = 0
    return refs


def _single_layer_entries(interval: int) -> list[PlanEntry]:
    entries = [
        PlanEntry(
            display_index=interval,
            encode_order=0,
            role=FrameRole.ALTREF,
            layer=1,
            refs={"LAST": 0, "GOLDEN": 0},
        )
    ]
    coded = [0, interval]
    for d in range(1, interval):
        refs = _nearest_past_refs(d, coded)
        refs["ALTREF"] = interval
        entries.append(
            PlanEntry(
                display_index=d,
                encode_order=d,
                role=FrameRole.REGULAR,
                layer=2,
                refs=refs,
            )
        )
        insort(coded, d)
    entries.append(
        PlanEntry(
            display_index=interval,
            encode_order=interval,
            role=FrameRole.OVERLAY,
            layer=1,
            refs={},
            show_existing=True,
        )
    )
    return entries


def _pyramid_events(interval: int) -> list[tuple[str, int, int]]:
    """In-order traversal of the binary split: (kind, display, layer)."""
    events: list[tuple[str, int, int]] = []

    def walk(a: int, b: int, depth: int) -> None:
        interior = b - a - 1
        if interior <= 0:
            return
        if interior == 1:
            events.append(("leaf", a + 1, 0))
            return
        m = (a + b) // 2
        events.append(("anchor", m, depth + 1))
        walk(a, m, depth + 1)
        walk(m, b, depth + 1)

    walk(0, interval, 1)
    return events


def _multilayer_entries(interval: int) -> list[PlanEntry]:
    events = _pyramid_events(interval)
    anchor_layers = [layer for kind, _, layer in events if kind == "anchor"]
    leaf_layer = max([1] + anchor_layers) + 1

    entries = [
        PlanEntry(
            display_index=interval,
            encode_order=0,
            role=FrameRole.ALTREF,
            layer=1,
            refs={"LAST": 0, "GOLDEN": 0},
        )
    ]
    coded = [0, interval]
    for kind, display, layer in events:
        refs = _nearest_past_refs(display, coded)
        future = [c for c in coded if c > display]
        if future:
            refs["BWDREF"] = future[0]
            if len(future) > 1:
                refs["ALTREF2"] = future[1]
        refs["ALTREF"] = interval
        if kind == "anchor":
            span_reach = min(display - a for a in coded if a < display)
            role = (
                FrameRole.EXTRA_ALTREF
                if span_reach > EXTRA_ALTREF_MIN_REACH
                else FrameRole.BWDREF
            )
            entry_layer = layer
        else:
            role = FrameRole.REGULAR
            entry_layer = leaf_layer
        entries.append(
            PlanEntry(
                display_index=display,
                encode_order=len(entries),
                role=role,
                layer=entry_layer,
                refs=refs,
            )
        )
        insort(coded, display)
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
    return entries


def plan_group(interval: int, verdict: str) -> GfGroupPlan:
    """Build the coding plan for one group.

    Still groups code the backward anchor first and then run through the
    remaining displays in order.  Non-still groups build the binary
    pyramid.  interval 1 degenerates to anchor-plus-overlay either way.
    """
    if not 1 <= interval <= MAX_GROUP_INTERVAL:
        raise ValueError(f"interval must lie in [1, {MAX_GROUP_INTERVAL}]")
    if verdict not in ("still", "non-still"):
        raise ValueError(f"unknown verdict {verdict!r}")
    if verdict == "still":
        return GfGroupPlan(interval, SINGLE_LAYER, _single_layer_entries(interval))
    return GfGroupPlan(interval, MULTILAYER, _multilayer_entries(interval))


def validate_plan(
    plan: GfGroupPlan, buffer_slots: int = REF_BUFFER_SLOTS
) -> ValidationReport:
    """Check a plan's structural sanity; returns all violations found.

    Checks: decode-before-reference order, exactly-once display coverage
    (overlays excluded), reference liveness within the slot budget,
    single-layer role restrictions, and slot direction consistency.
    """
    violations: list[PlanViolation] = []
    entries = sorted(plan.entries, key=lambda e: e.encode_order)

    orders = [e.encode_order for e in entries]
    if orders != list(range(len(entries))):
        violations.append(
            PlanViolation("decode_order", f"encode_order not 0..{len(entries) - 1}")
        )

    # (b) every display coded exactly once, overlays aside
    coded_displays = [e.display_index for e in entries if not e.show_existing]
    if sorted(coded_displays) != list(range(1, plan.interval + 1)):
        violations.append(
            PlanViolation(
                "coverage",
                f"coded displays {sorted(coded_displays)} are not "
                f"1..{plan.interval} exactly once",
            )
        )

    # (a) decode before reference; display 0 is pre-coded by the caller
    available = {0}
    for e in entries:
        for slot, target in e.refs.items():
            if target not in available:
                violations.append(
                    PlanViolation(
                        "decode_order",
                        f"entry at encode {e.encode_order} references display "
                        f"{target} ({slot}) before it is coded",
                    )
                )
        if e.show_existing and e.display_index not in available:
            violations.append(
                PlanViolation(
                    "decode_order",
                    f"overlay at encode {e.encode_order} shows display "
                    f"{e.display_index} before it is coded",
                )
            )
        if not e.show_existing:
            available.add(e.display_index)

    # (c) live reference set within the slot budget at every step
    def needs(e: PlanEntry) -> set[int]:
        needed = set(e.refs.values())
        if e.show_existing:
            needed.add(e.display_index)
        return needed

    suffix: list[set[int]] = [set() for _ in entries]
    acc: set[int] = set()
    for i in range(len(entries) - 1, -1, -1):
        acc = acc | needs(entries[i])
        suffix[i] = acc
    coded = {0}
    for i, e in enumerate(entries):
        live = suffix[i] & coded
        if len(live) > buffer_slots:
            violations.append(
                PlanViolation(
                    "buffer",
                    f"{len(live)} references live at encode {e.encode_order}, "
                    f"budget is {buffer_slots}",
                )
            )
        if not e.show_existing:
            coded.add(e.display_index)

    # (d) flat structure must not carry pyramid roles
    if plan.structure == SINGLE_LAYER:
        for e in entries:
            if e.role in (FrameRole.EXTRA_ALTREF, FrameRole.BWDREF):
                violations.append(
                    PlanViolation(
                        "structure",
                        f"single-layer plan contains {e.role.value} at display "
                        f"{e.display_index}",
                    )
                )

    # (e) named slots must point the way their name says
    for e in entries:
        for slot, target in e.refs.items():
            if slot not in REF_SLOTS:
                violations.append(
                    PlanViolation("slot_direction", f"unknown reference slot {slot!r}")
                )
            elif slot in PAST_SLOTS and target >= e.display_index:
                violations.append(
                    PlanViolation(
                        "slot_direction",
                        f"{slot} of display {e.display_index} points at "
                        f"non-past display {target}",
                    )
                )
            elif slot in FUTURE_SLOTS and target <= e.display_index:
                violations.append(
                    PlanViolation(
                        "slot_direction",
                        f"{slot} of display {e.display_index} points at "
                        f"non-future display {target}",
                    )
                )

    return ValidationReport(violations)


def plan_sequence(
    sequence: VideoSequence,
    cfg: SearchConfig | None = None,
    thresholds: StillnessThresholds | None = None,
    target_interval: int = MAX_GROUP_INTERVAL,
    key_interval: int | None = None,
) -> list[GroupPlanResult]:
    """Segment, analyse and plan a whole sequence.

    Each group's frames are matched against their display predecessor, the
    first frame of a group against the last frame before it.
    """
    cfg = cfg or SearchConfig()
    groups = segment_groups(len(sequence.frames), target_interval, key_interval)
    pixels = sequence.width * sequence.height
    results = []
    for gid, (start, interval) in enumerate(groups, start=1):
        stats = [
            analyze_frame(
                sequence.frames[d],
                sequence.frames[d - 1],
                cfg,
                frame_index=d - start + 1,
            )
            for d in range(start, start + interval)
        ]
        metrics = compute_group_metrics(stats, pixels)
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


def _entry_to_dict(entry: PlanEntry) -> dict:
    refs = {slot: entry.refs[slot] for slot in REF_SLOTS if slot in entry.refs}
    return {
        "display_index": entry.display_index,
        "encode_order": entry.encode_order,
        "role": entry.role.value,
        "layer": entry.layer,
        "refs": refs,
        "show_existing": entry.show_existing,
    }


def plans_to_json(results: list[GroupPlanResult]) -> list[dict]:
    """JSON-ready structure plans, one object per group."""
    out = []
    for r in results:
        m = r.metrics
        out.append(
            {
                "group_id": r.group_id,
                "start_display_index": r.start_display,
                "interval": r.plan.interval,
                "verdict": r.verdict,
                "structure": r.plan.structure,
                "metrics": {
                    "interval": m.interval,
                    "zero_motion_accumulator": m.zero_motion_accumulator,
                    "avg_pixel_error": m.avg_pixel_error,
                    "avg_error_stdev": m.avg_error_stdev,
                },
                "entries": [_entry_to_dict(e) for e in r.plan.entries],
            }
        )
    return out
