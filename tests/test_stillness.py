from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfstill.first_pass import FrameFirstPassStats
from gfstill.stillness import (
    GfGroupMetrics,
    StillnessThresholds,
    classify_stillness,
    compute_group_metrics,
)


def _stats(pcnt, frame_sse, stdev, blocks=12):
    return FrameFirstPassStats(
        pcnt_zero_motion=pcnt,
        frame_sse=frame_sse,
        zero_mv_sse_stdev=stdev,
        block_count=blocks,
        inter_count=blocks,
    )


def _metrics(zm, ape, aes, interval=16):
    return GfGroupMetrics(
        interval=interval,
        zero_motion_accumulator=zm,
        avg_pixel_error=ape,
        avg_error_stdev=aes,
    )


class TestComputeGroupMetrics:
    def test_hand_computed_fixture_exact(self):
        # MIN(0.9, 0.95, 0.92, 0.88) = 0.88, MEAN(3, 5, 7, 1) = 4,
        # MEAN(100, 200, 300, 400) = 250, all representable exactly
        pixels = 25344
        stats = [
            _stats(0.90, 3 * pixels, 100.0),
            _stats(0.95, 5 * pixels, 200.0),
            _stats(0.92, 7 * pixels, 300.0),
            _stats(0.88, 1 * pixels, 400.0),
        ]
        m = compute_group_metrics(stats, pixels)
        assert m.interval == 4
        assert m.zero_motion_accumulator == 0.88
        assert m.avg_pixel_error == 4.0
        assert m.avg_error_stdev == 250.0

    def test_average_pixel_error_normalises_by_pixels(self):
        pixels = 25344  # 176 x 144
        stats = [_stats(1.0, 101376, 0.0), _stats(1.0, 152064, 0.0)]
        m = compute_group_metrics(stats, pixels)
        assert m.avg_pixel_error == 5.0

    def test_accumulator_takes_the_minimum(self):
        stats = [_stats(0.80, 0, 0.0), _stats(0.95, 0, 0.0)]
        assert compute_group_metrics(stats, 100).zero_motion_accumulator == 0.80

    def test_single_busy_frame_disqualifies(self):
        stats = [_stats(1.0, 0, 0.0) for _ in range(15)]
        stats.append(_stats(0.0, 0, 0.0))
        m = compute_group_metrics(stats, 100)
        assert m.zero_motion_accumulator == 0.0
        assert classify_stillness(m) == "non-still"

    def test_identity_group(self):
        stats = [_stats(1.0, 0, 0.0) for _ in range(16)]
        m = compute_group_metrics(stats, 2048)
        assert (m.zero_motion_accumulator, m.avg_pixel_error, m.avg_error_stdev) == (
            1.0,
            0.0,
            0.0,
        )

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            compute_group_metrics([], 100)

    def test_bad_pixel_count_rejected(self):
        with pytest.raises(ValueError):
            compute_group_metrics([_stats(1.0, 0, 0.0)], 0)

    @given(
        values=st.lists(
            st.tuples(
                st.floats(0, 1),
                st.integers(0, 10**9),
                st.floats(0, 10**6),
            ),
            min_size=1,
            max_size=16,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_invariance_is_exact(self, values, seed):
        stats = [_stats(p, f, s) for p, f, s in values]
        shuffled = stats[:]
        random.Random(seed).shuffle(shuffled)
        a = compute_group_metrics(stats, 4096)
        b = compute_group_metrics(shuffled, 4096)
        assert a == b


class TestClassification:
    def test_all_three_criteria_must_hold(self):
        assert classify_stillness(_metrics(0.95, 20.0, 1000.0)) == "still"
        assert classify_stillness(_metrics(0.90, 20.0, 1000.0)) == "non-still"
        assert classify_stillness(_metrics(0.95, 40.0, 1000.0)) == "non-still"
        assert classify_stillness(_metrics(0.95, 20.0, 2000.0)) == "non-still"

    def test_third_criterion_is_strict(self):
        assert classify_stillness(_metrics(0.95, 39.9, 2000.0)) == "non-still"

    def test_boundaries_are_exclusive(self):
        eps = 1e-9
        assert classify_stillness(_metrics(0.9, 39.0, 1999.0)) == "non-still"
        assert classify_stillness(_metrics(0.9 + eps, 39.0, 1999.0)) == "still"
        assert classify_stillness(_metrics(0.95, 40.0 - 1e-6, 1999.0)) == "still"
        assert classify_stillness(_metrics(0.95, 39.0, 2000.0 - 1e-6)) == "still"

    def test_custom_thresholds(self):
        tight = StillnessThresholds(zero_motion_min=0.99)
        assert classify_stillness(_metrics(0.95, 1.0, 1.0), tight) == "non-still"
        loose = StillnessThresholds(pixel_error_max=100.0)
        assert classify_stillness(_metrics(0.95, 60.0, 1.0), loose) == "still"

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            StillnessThresholds(pixel_error_max=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("zero_motion_min", math.nan),
            ("pixel_error_max", math.nan),
            ("error_stdev_max", math.nan),
            ("zero_motion_min", 0.0),
            ("zero_motion_min", 1.0 + 1e-9),
            ("zero_motion_min", 2.0),
            ("zero_motion_min", math.inf),
            ("pixel_error_max", -math.inf),
            ("error_stdev_max", -1.0),
        ],
    )
    def test_thresholds_reject_nan_and_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            StillnessThresholds(**{field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"zero_motion_min": 1.0},
            {"zero_motion_min": 1e-9},
            {"pixel_error_max": math.inf},
            {"error_stdev_max": math.inf},
        ],
    )
    def test_threshold_edges_stay_legal(self, kwargs):
        StillnessThresholds(**kwargs)

    @given(
        zm=st.floats(0, 1),
        ape=st.floats(0, 500),
        aes=st.floats(0, 10**5),
        d_zm=st.floats(0, 0.1),
        d_ape=st.floats(0, 10),
        d_aes=st.floats(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_verdict_monotone_in_each_metric(self, zm, ape, aes, d_zm, d_ape, d_aes):
        # stiller metrics can never flip a still verdict back to non-still
        if classify_stillness(_metrics(zm, ape, aes)) == "still":
            better = _metrics(
                min(zm + d_zm, 1.0), max(ape - d_ape, 0.0), max(aes - d_aes, 0.0)
            )
            assert classify_stillness(better) == "still"

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            _metrics(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            _metrics(0.5, -1.0, 0.0)
        with pytest.raises(ValueError):
            GfGroupMetrics(0, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["avg_pixel_error", "avg_error_stdev"])
    def test_nan_error_metric_rejected(self, name):
        # NaN passed a `< 0` test, classified as non-still and later broke
        # the histogram writer
        errors = {"avg_pixel_error": 0.0, "avg_error_stdev": 0.0, name: math.nan}
        with pytest.raises(ValueError, match="non-negative"):
            GfGroupMetrics(4, 0.95, **errors)

