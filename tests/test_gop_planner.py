from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfstill.gop_planner import (
    MAX_GROUP_INTERVAL,
    MIN_GROUP_INTERVAL,
    MULTILAYER,
    REF_BUFFER_SLOTS,
    SINGLE_LAYER,
    FrameRole,
    GfGroupPlan,
    PlanEntry,
    plan_group,
    plan_sequence,
    plans_to_json,
    segment_groups,
    validate_plan,
)
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import VideoSequence


def max_live_references(plan: GfGroupPlan) -> int:
    """Independent liveness count: at each encode step, how many already
    coded frames does some not-yet-encoded entry (this one included) still
    need, counting an overlay's shown frame as needed."""
    entries = sorted(plan.entries, key=lambda e: e.encode_order)
    worst = 0
    coded = {0}
    for i, e in enumerate(entries):
        needed: set[int] = set()
        for later in entries[i:]:
            needed.update(later.refs.values())
            if later.show_existing:
                needed.add(later.display_index)
        worst = max(worst, len(needed & coded))
        if not e.show_existing:
            coded.add(e.display_index)
    return worst


class TestSegmentation:
    def test_two_full_groups(self):
        assert segment_groups(33) == [(1, 16), (17, 16)]

    def test_short_remainder_is_resplit(self):
        assert segment_groups(35) == [(1, 16), (17, 9), (26, 9)]

    def test_medium_remainder_kept(self):
        assert segment_groups(26) == [(1, 16), (17, 9)]

    def test_single_short_run(self):
        assert segment_groups(5) == [(1, 4)]

    def test_tiny_sequence_allows_tiny_group(self):
        assert segment_groups(2) == [(1, 1)]

    def test_periodic_keyframes_split_runs(self):
        assert segment_groups(25, key_interval=10) == [
            (1, 9),
            (11, 9),
            (21, 4),
        ]

    def test_keyframe_owns_no_group(self):
        for start, interval in segment_groups(40, key_interval=10):
            for d in range(start, start + interval):
                assert d % 10 != 0

    def test_smaller_target(self):
        assert segment_groups(17, target_interval=8) == [(1, 8), (9, 8)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            segment_groups(1)
        with pytest.raises(ValueError):
            segment_groups(40, target_interval=3)
        with pytest.raises(ValueError):
            segment_groups(40, target_interval=17)
        with pytest.raises(ValueError):
            segment_groups(40, key_interval=1)

    @given(
        total=st.integers(2, 400),
        target=st.integers(MIN_GROUP_INTERVAL, MAX_GROUP_INTERVAL),
        key=st.one_of(st.none(), st.integers(2, 50)),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_property(self, total, target, key):
        boundaries = segment_groups(total, target, key)
        keyframes = {0} if key is None else set(range(0, total - 1, key))
        covered = []
        for start, interval in boundaries:
            assert 1 <= interval <= target
            covered.extend(range(start, start + interval))
        # every frame is either a keyframe or in exactly one group
        assert sorted(covered) == covered
        assert set(covered) | keyframes == set(range(total))
        assert not set(covered) & keyframes
        # within a run only the final one or two groups deviate from the
        # target, and a trailing re-split pair is as even as possible
        runs: dict[int, list[int]] = {}
        for start, interval in boundaries:
            anchor = max(k for k in keyframes if k < start)
            runs.setdefault(anchor, []).append(interval)
        for intervals in runs.values():
            assert all(iv == target for iv in intervals[:-2])
            if len(intervals) >= 2 and intervals[-1] != target:
                a, b = intervals[-2], intervals[-1]
                assert a == target or 0 <= a - b <= 1


class TestSingleLayerPlan:
    def test_full_interval_shape(self):
        plan = plan_group(16, "still")
        assert plan.structure == SINGLE_LAYER
        assert len(plan.entries) == 17
        first, *middle, last = plan.entries
        assert first.role is FrameRole.ALTREF
        assert (first.display_index, first.encode_order, first.layer) == (16, 0, 1)
        assert first.refs == {"LAST": 0, "GOLDEN": 0}
        assert last.role is FrameRole.OVERLAY
        assert last.show_existing and last.refs == {}
        assert (last.display_index, last.layer) == (16, 1)
        for e in middle:
            assert e.role is FrameRole.REGULAR
            assert e.layer == 2
            assert e.display_index == e.encode_order

    def test_regular_refs_track_nearest_past(self):
        plan = plan_group(16, "still")
        by_display = {e.display_index: e for e in plan.entries if not e.show_existing}
        assert by_display[1].refs == {"LAST": 0, "GOLDEN": 0, "ALTREF": 16}
        assert by_display[2].refs == {"LAST": 1, "LAST2": 0, "GOLDEN": 0, "ALTREF": 16}
        assert by_display[4].refs == {
            "LAST": 3,
            "LAST2": 2,
            "LAST3": 1,
            "GOLDEN": 0,
            "ALTREF": 16,
        }

    def test_no_pyramid_roles(self):
        plan = plan_group(16, "still")
        roles = {e.role for e in plan.entries}
        assert FrameRole.BWDREF not in roles
        assert FrameRole.EXTRA_ALTREF not in roles

    def test_degenerate_interval(self):
        plan = plan_group(1, "still")
        assert [e.role for e in plan.entries] == [FrameRole.ALTREF, FrameRole.OVERLAY]
        assert validate_plan(plan).ok


class TestMultilayerPlan:
    def test_sixteen_frame_encode_order_frozen(self):
        plan = plan_group(16, "non-still")
        displays = [e.display_index for e in plan.entries]
        assert displays == [16, 8, 4, 2, 1, 3, 6, 5, 7, 12, 10, 9, 11, 14, 13, 15, 16]
        assert plan.entries[-1].show_existing

    def test_sixteen_frame_roles_and_layers_frozen(self):
        plan = plan_group(16, "non-still")
        coded = {
            e.display_index: e for e in plan.entries if not e.show_existing
        }
        assert (coded[16].role, coded[16].layer) == (FrameRole.ALTREF, 1)
        assert (coded[8].role, coded[8].layer) == (FrameRole.EXTRA_ALTREF, 2)
        for d in (4, 12):
            assert (coded[d].role, coded[d].layer) == (FrameRole.BWDREF, 3)
        for d in (2, 6, 10, 14):
            assert (coded[d].role, coded[d].layer) == (FrameRole.BWDREF, 4)
        for d in range(1, 16, 2):
            assert (coded[d].role, coded[d].layer) == (FrameRole.REGULAR, 5)

    def test_leaf_reference_wiring(self):
        plan = plan_group(16, "non-still")
        by_display = {e.display_index: e for e in plan.entries if not e.show_existing}
        assert by_display[5].refs == {
            "LAST": 4,
            "LAST2": 3,
            "LAST3": 2,
            "GOLDEN": 0,
            "BWDREF": 6,
            "ALTREF2": 8,
            "ALTREF": 16,
        }
        assert by_display[8].refs == {
            "LAST": 0,
            "GOLDEN": 0,
            "BWDREF": 16,
            "ALTREF": 16,
        }

    def test_every_entry_sees_the_group_anchor_pair(self):
        plan = plan_group(13, "non-still")
        for e in plan.entries:
            if e.show_existing or e.display_index == plan.interval:
                continue
            assert e.refs["GOLDEN"] == 0
            assert e.refs["ALTREF"] == plan.interval

    def test_promotion_only_for_long_reaches(self):
        # at interval 10 the first midpoint is 5 away from the anchor,
        # deeper midpoints are closer and must stay plain backward refs
        plan = plan_group(10, "non-still")
        roles = {
            e.display_index: e.role for e in plan.entries if not e.show_existing
        }
        assert roles[5] is FrameRole.EXTRA_ALTREF
        assert roles[2] is FrameRole.BWDREF
        assert (
            sum(1 for r in roles.values() if r is FrameRole.EXTRA_ALTREF) == 1
        )

    def test_short_interval_has_no_promotion(self):
        plan = plan_group(8, "non-still")
        roles = [e.role for e in plan.entries]
        assert FrameRole.EXTRA_ALTREF not in roles
        assert FrameRole.BWDREF in roles

    def test_degenerate_intervals(self):
        for interval in (1, 2):
            plan = plan_group(interval, "non-still")
            assert validate_plan(plan).ok
            displays = [e.display_index for e in plan.entries if not e.show_existing]
            assert sorted(displays) == list(range(1, interval + 1))

    def test_plan_rejects_bad_args(self):
        with pytest.raises(ValueError):
            plan_group(0, "still")
        with pytest.raises(ValueError):
            plan_group(17, "non-still")
        with pytest.raises(ValueError):
            plan_group(8, "moving")


class TestValidation:
    @pytest.mark.parametrize("interval", range(1, MAX_GROUP_INTERVAL + 1))
    @pytest.mark.parametrize("verdict", ["still", "non-still"])
    def test_all_generated_plans_validate(self, interval, verdict):
        plan = plan_group(interval, verdict)
        report = validate_plan(plan)
        assert report.ok, [v.message for v in report.violations]
        assert max_live_references(plan) <= REF_BUFFER_SLOTS

    def test_sixteen_frame_pyramid_liveness_is_seven(self):
        assert max_live_references(plan_group(16, "non-still")) == 7

    def test_reference_before_decode_flagged(self):
        plan = GfGroupPlan(
            2,
            MULTILAYER,
            [
                PlanEntry(2, 0, FrameRole.ALTREF, 1, {"LAST": 1}),
                PlanEntry(1, 1, FrameRole.REGULAR, 2, {"LAST": 0}),
                PlanEntry(2, 2, FrameRole.OVERLAY, 1, {}, show_existing=True),
            ],
        )
        report = validate_plan(plan)
        assert any(v.check == "decode_order" for v in report.violations)

    def test_overlay_of_uncoded_frame_flagged(self):
        plan = GfGroupPlan(
            1,
            SINGLE_LAYER,
            [
                PlanEntry(1, 0, FrameRole.OVERLAY, 1, {}, show_existing=True),
                PlanEntry(1, 1, FrameRole.ALTREF, 1, {"LAST": 0}),
            ],
        )
        report = validate_plan(plan)
        assert any(v.check == "decode_order" for v in report.violations)

    def test_duplicate_display_flagged(self):
        plan = GfGroupPlan(
            2,
            MULTILAYER,
            [
                PlanEntry(2, 0, FrameRole.ALTREF, 1, {"LAST": 0}),
                PlanEntry(2, 1, FrameRole.REGULAR, 2, {"LAST": 0}),
                PlanEntry(2, 2, FrameRole.OVERLAY, 1, {}, show_existing=True),
            ],
        )
        report = validate_plan(plan)
        assert any(v.check == "coverage" for v in report.violations)

    def test_buffer_budget_enforced(self):
        plan = plan_group(16, "still")
        report = validate_plan(plan, buffer_slots=2)
        assert any(v.check == "buffer" for v in report.violations)

    def test_pyramid_role_in_flat_plan_flagged(self):
        plan = plan_group(4, "still")
        for e in plan.entries:
            if e.role is FrameRole.REGULAR:
                e.role = FrameRole.BWDREF
                break
        report = validate_plan(plan)
        assert any(v.check == "structure" for v in report.violations)

    def test_backward_slot_pointing_backwards_flagged(self):
        plan = plan_group(4, "non-still")
        for e in plan.entries:
            if e.role is FrameRole.REGULAR:
                e.refs["BWDREF"] = 0
                break
        report = validate_plan(plan)
        assert any(v.check == "slot_direction" for v in report.violations)

    def test_forward_slot_pointing_forwards_flagged(self):
        plan = plan_group(4, "still")
        plan.entries[1].refs["LAST"] = 4
        report = validate_plan(plan)
        assert any(v.check == "slot_direction" for v in report.violations)

    def test_unknown_slot_flagged(self):
        plan = plan_group(4, "still")
        plan.entries[1].refs["LAST9"] = 0
        report = validate_plan(plan)
        assert any(v.check == "slot_direction" for v in report.violations)

    def test_gapped_encode_order_flagged(self):
        plan = plan_group(4, "still")
        plan.entries[-1].encode_order = 9
        report = validate_plan(plan)
        assert any(v.check == "decode_order" for v in report.violations)


class TestPlanSequence:
    def test_static_clip_plans_flat(self):
        seq = generate(SynthSpec("static", width=64, height=48, frame_count=17))
        results = plan_sequence(seq)
        assert [r.plan.interval for r in results] == [16]
        (r,) = results
        assert r.verdict == "still"
        assert r.plan.structure == SINGLE_LAYER
        assert r.metrics.zero_motion_accumulator == 1.0
        assert r.metrics.avg_pixel_error == 0.0
        assert validate_plan(r.plan).ok

    def test_spliced_clip_plans_per_group(self):
        still = generate(SynthSpec("static", width=64, height=48, frame_count=17))
        moving = generate(
            SynthSpec("pan", width=64, height=48, frame_count=17, amplitude=4.0)
        )
        seq = VideoSequence(
            frames=list(still.frames) + list(moving.frames[1:]),
            frame_rate=still.frame_rate,
        )
        results = plan_sequence(seq)
        assert [(r.start_display, r.plan.interval) for r in results] == [
            (1, 16),
            (17, 16),
        ]
        assert [r.verdict for r in results] == ["still", "non-still"]
        assert [r.plan.structure for r in results] == [SINGLE_LAYER, MULTILAYER]

    def test_json_round_trip_is_deterministic(self):
        seq = generate(SynthSpec("static", width=64, height=48, frame_count=20))
        a = json.dumps(plans_to_json(plan_sequence(seq)), indent=2)
        b = json.dumps(plans_to_json(plan_sequence(seq)), indent=2)
        assert a == b
        payload = json.loads(a)
        assert [g["interval"] for g in payload] == [10, 9]
        entry = payload[0]["entries"][0]
        assert set(entry) == {
            "display_index",
            "encode_order",
            "role",
            "layer",
            "refs",
            "show_existing",
        }
        assert set(payload[0]) == {
            "group_id",
            "start_display_index",
            "interval",
            "verdict",
            "structure",
            "metrics",
            "entries",
        }
