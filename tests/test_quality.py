from __future__ import annotations

import io
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfstill import quality
from gfstill.parallel import ordered_map
from gfstill.quality import (
    PSNR_CAP_DB,
    SSIM_STRIP_ROWS,
    bd_rate,
    load_rd_csv,
    psnr,
    sequence_quality,
    ssim,
)

from conftest import NOT_LUMA, psnr_oracle, random_plane, ssim_oracle


class TestPsnr:
    def test_identical_frames_hit_the_cap(self, rng):
        plane = random_plane(rng, 32, 24)
        assert psnr(plane, plane) == PSNR_CAP_DB

    def test_uniform_offset_closed_form(self):
        a = np.full((64, 64), 100, dtype=np.uint8)
        b = np.full((64, 64), 101, dtype=np.uint8)
        # MSE is exactly 1, so PSNR is 20*log10(255)
        assert psnr(a, b) == pytest.approx(20.0 * math.log10(255.0), abs=1e-12)

    def test_matches_pixelwise_oracle(self, rng):
        for _ in range(5):
            a = random_plane(rng, 48, 32)
            b = random_plane(rng, 48, 32)
            assert psnr(a, b) == pytest.approx(
                psnr_oracle(a, b), abs=1e-9
            )

    def test_symmetry(self, rng):
        a = random_plane(rng, 32, 32)
        b = random_plane(rng, 32, 32)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((16, 16), np.uint8), np.zeros((16, 17), np.uint8))

    def test_worst_case_is_finite(self):
        a = np.zeros((16, 16), np.uint8)
        b = np.full((16, 16), 255, np.uint8)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", NOT_LUMA)
    def test_rejects_frames_that_are_not_2d_uint8(self, bad):
        # a wrapping cast read 300 as 44, so an all-300 plane against all 44
        # scored the 100 dB "identical" cap
        good = np.full((32, 32), 44, np.uint8)
        for pair in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match="2-D uint8"):
                psnr(*pair)


class TestSsim:
    def test_identical_frames_score_exactly_one(self, rng):
        plane = random_plane(rng, 40, 36)
        assert ssim(plane, plane) == 1.0

    def test_constant_pair_closed_form(self):
        a = np.full((32, 32), 100, dtype=np.uint8)
        b = np.full((32, 32), 110, dtype=np.uint8)
        c1 = (0.01 * 255.0) ** 2
        expected = (2.0 * 100.0 * 110.0 + c1) / (100.0**2 + 110.0**2 + c1)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-6)

    def test_matches_windowed_oracle(self, rng):
        for _ in range(3):
            a = random_plane(rng, 24, 20)
            b = random_plane(rng, 24, 20)
            assert ssim(a, b) == pytest.approx(
                ssim_oracle(a, b), abs=1e-9
            )

    def test_symmetry_is_exact(self, rng):
        a = random_plane(rng, 24, 24)
        b = random_plane(rng, 24, 24)
        assert ssim(a, b) == ssim(b, a)

    @pytest.mark.parametrize(
        "height",
        [
            SSIM_STRIP_ROWS + 9,  # one short strip
            SSIM_STRIP_ROWS + 10,  # one full strip
            SSIM_STRIP_ROWS + 11,  # a last strip of one window row
            2 * SSIM_STRIP_ROWS + 11,
            3 * SSIM_STRIP_ROWS + 40,
        ],
    )
    def test_strips_equal_one_whole_frame_strip(self, height, rng, monkeypatch):
        a = random_plane(rng, 37, height)
        b = random_plane(rng, 37, height)
        strips = ssim(a, b)
        monkeypatch.setattr(quality, "SSIM_STRIP_ROWS", height)
        assert ssim(a, b) == strips

    def test_noise_scores_below_clean(self, rng):
        base = random_plane(rng, 48, 48)
        noisy = base.astype(np.int16) + rng.integers(-20, 21, base.shape)
        noisy = np.clip(noisy, 0, 255).astype(np.uint8)
        assert ssim(base, noisy) < 0.99

    def test_too_small_frames_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((10, 16), np.uint8), np.zeros((10, 16), np.uint8))

    @pytest.mark.parametrize("bad", NOT_LUMA)
    def test_rejects_frames_that_are_not_2d_uint8(self, bad):
        # a wrapping cast read an all -1 plane as all 255
        good = np.full((32, 32), 44, np.uint8)
        for pair in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match="2-D uint8"):
                ssim(*pair)


def _ssim_pair(content, height, width, seed):
    rng = np.random.default_rng(seed)
    shape = (height, width)
    if content == "random":
        return rng.integers(0, 256, (2, *shape), dtype=np.uint8)
    if content == "extremes":
        return np.stack([np.zeros(shape, np.uint8), np.full(shape, 255, np.uint8)])
    if content == "constant":
        levels = rng.integers(0, 256, 2)
        return np.stack([np.full(shape, v, np.uint8) for v in levels])
    # "one_pixel": random content, one sample changed in the second frame
    a = rng.integers(0, 256, shape, dtype=np.uint8)
    b = a.copy()
    y, x = rng.integers(height), rng.integers(width)
    b[y, x] = (int(b[y, x]) + rng.integers(1, 256)) % 256
    return np.stack([a, b])


class TestSsimOracleProperty:
    @given(
        case=st.tuples(
            st.sampled_from(["random", "extremes", "constant", "one_pixel"]),
            # past several score strips; narrow, so the oracle stays fast
            st.integers(11, 3 * SSIM_STRIP_ROWS + 20),
            st.integers(11, 20),
            st.integers(0, 2**32 - 1),
        )
    )
    # single-window-high and single-window-wide frames
    @example(case=("random", 11, 40, 1))
    @example(case=("one_pixel", 40, 11, 2))
    @example(case=("extremes", 11, 11, 0))
    # one full strip, a last strip of one window row, and the same after two
    @example(case=("random", SSIM_STRIP_ROWS + 10, 13, 3))
    @example(case=("one_pixel", SSIM_STRIP_ROWS + 11, 12, 4))
    @example(case=("random", 2 * SSIM_STRIP_ROWS + 11, 11, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_exactly_symmetric_and_self_one(self, case):
        a, b = _ssim_pair(*case)
        value = ssim(a, b)
        assert abs(value - ssim_oracle(a, b)) <= 1e-9
        assert ssim(b, a) == value
        assert ssim(a, a) == 1.0 and ssim(b, b) == 1.0


PAIRS = [(100.0, 30.0), (200.0, 33.0), (400.0, 36.0), (800.0, 39.0)]


class TestRdCurve:
    """bd_rate checks each curve, base first; load_rd_csv checks its rows
    the same way."""

    def _rejects(self, pairs, message):
        for base, test in ((pairs, PAIRS), (PAIRS, pairs)):
            with pytest.raises(ValueError, match=f"^{message}"):
                bd_rate(base, test)
        text = "".join(f"{r!r},{q!r}\n" for r, q in pairs)
        with pytest.raises(ValueError, match=f"^{message}"):
            load_rd_csv(io.StringIO(text))

    def test_from_pairs(self):
        # a curve is any iterable of (bitrate, quality) pairs, ints or floats
        ints = [(100, 30), (200, 33), (400, 36), (800, 39)]
        for base, test in ((ints, PAIRS), (iter(ints), [list(p) for p in PAIRS])):
            assert bd_rate(base, test) == pytest.approx(0.0, abs=1e-9)

    def test_needs_four_points(self):
        self._rejects(PAIRS[:3], "an RD curve needs at least 4 points")

    def test_bitrates_strictly_increasing(self):
        self._rejects(
            [(100, 30), (100, 33), (400, 36), (800, 39)],
            "bitrates must be strictly increasing",
        )

    def test_quality_non_decreasing(self):
        self._rejects(
            [(100, 30), (200, 29), (400, 36), (800, 39)],
            "quality must be non-decreasing with bitrate",
        )

    def test_positive_bitrate(self):
        self._rejects([(0.0, 30.0), *PAIRS], "bitrate must be positive")

    @pytest.mark.parametrize(
        "bitrate, quality",
        [
            (math.nan, 30.0),
            (math.inf, 30.0),
            (100.0, math.nan),
            (100.0, math.inf),
            (100.0, -math.inf),
        ],
    )
    def test_non_finite_point_rejected(self, bitrate, quality):
        self._rejects(
            [(bitrate, quality), *PAIRS],
            f"RD point must be finite, got bitrate {bitrate}, quality {quality}$",
        )

    def test_points_are_checked_before_the_curve(self):
        # a bad point anywhere is named before a short or unordered curve
        self._rejects([(800.0, 39.0), (-1.0, 30.0)], "bitrate must be positive")
        self._rejects(
            [(800.0, 39.0), (100.0, 30.0), (200.0, 28.0), (400.0, 36.0)],
            "bitrates must be strictly increasing",
        )


class TestBdRate:
    def test_identical_curves_are_zero(self):
        assert bd_rate(PAIRS, PAIRS) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_rate_scaling(self):
        up = [(r * 1.10, q) for r, q in PAIRS]
        down = [(r * 0.95, q) for r, q in PAIRS]
        assert bd_rate(PAIRS, up) == pytest.approx(10.0, abs=1e-6)
        assert bd_rate(PAIRS, down) == pytest.approx(-5.0, abs=1e-6)

    def test_antisymmetry_of_log_means(self):
        test = [(r * 1.25, q + 0.5) for r, q in PAIRS]
        forward = bd_rate(PAIRS, test)
        backward = bd_rate(test, PAIRS)
        assert (1 + forward / 100.0) * (1 + backward / 100.0) == pytest.approx(
            1.0, abs=1e-9
        )

    @given(scale=st.floats(0.5, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_property(self, scale):
        scaled = [(r * scale, q) for r, q in PAIRS]
        assert bd_rate(PAIRS, scaled) == pytest.approx(
            (scale - 1.0) * 100.0, abs=1e-6
        )

    def test_disjoint_quality_ranges_rejected(self):
        test = [(r, q + 100.0) for r, q in PAIRS]
        with pytest.raises(
            ValueError, match=r"^quality ranges do not overlap \(130\.0 >= 39\.0\)$"
        ):
            bd_rate(PAIRS, test)

    def test_repeated_quality_rejected(self):
        flat = [(100, 30), (200, 30), (400, 36), (800, 39)]
        for base, test in ((PAIRS, flat), (flat, PAIRS)):
            with pytest.raises(ValueError, match="^degenerate curve"):
                bd_rate(base, test)


class TestSequenceQuality:
    def test_report_shape_and_means(self, rng):
        # two lists in frame order; `quality` takes their means, and
        # test_acceptance.py pins its output
        ref = [random_plane(rng, 32, 24) for _ in range(3)]
        dist = [
            np.clip(f.astype(np.int16) + 2, 0, 255).astype(np.uint8) for f in ref
        ]
        psnr_db, ssim_values = sequence_quality(ref, dist)
        assert psnr_db == [psnr(r, d) for r, d in zip(ref, dist)]
        assert ssim_values == [ssim(r, d) for r, d in zip(ref, dist)]

    def test_length_mismatch_rejected(self, rng):
        frames = [random_plane(rng, 32, 24)]
        with pytest.raises(ValueError):
            sequence_quality(frames, frames * 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequence_quality([], [])

    def test_rejects_frames_that_are_not_2d_uint8(self, rng):
        ref = [random_plane(rng, 32, 24)]
        with pytest.raises(ValueError, match="2-D uint8"):
            sequence_quality(ref, [ref[0].astype(np.int16)])

    def test_size_mismatch_names_the_frame_width_and_height(self, rng):
        ref = [random_plane(rng, 32, 24) for _ in range(3)]
        dist = ref[:2] + [random_plane(rng, 24, 32)]
        with pytest.raises(
            ValueError, match="^frame 2: reference is 32x24, distorted is 24x32$"
        ):
            sequence_quality(ref, dist)

    def test_two_cpus_equal_one(self, rng, monkeypatch):
        ref = [random_plane(rng, 64, 48) for _ in range(5)]
        dist = [
            np.clip(f.astype(np.int16) + rng.integers(-9, 10, f.shape), 0, 255)
            .astype(np.uint8)
            for f in ref
        ]
        one = _quality_on_cpus(monkeypatch, 1, ref, dist)
        two = _quality_on_cpus(monkeypatch, 2, ref, dist)
        assert one[0] == [1] and two[0] == [2]
        assert len(set(one[1][1])) == 5
        assert one[1] == two[1]
        assert one[1][1] == [ssim(r, d) for r, d in zip(ref, dist)]

    def test_pair_error_reaches_the_caller(self, rng, monkeypatch):
        ref = [random_plane(rng, 32, 24) for _ in range(5)]
        raised = ValueError("pair 3 is unreadable")

        def failing(a, b):
            if a is ref[3]:
                raise raised
            return ssim(a, b)

        monkeypatch.setattr(quality, "ssim", failing)
        with pytest.raises(ValueError) as info:
            _quality_on_cpus(monkeypatch, 2, ref, ref)
        assert info.value is raised


def _quality_on_cpus(monkeypatch, cpus, ref, dist):
    """sequence_quality on `cpus` CPUs; returns the worker count its map was
    given and the (PSNR, SSIM) lists."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    workers = []

    def pooled(fn, items, n):
        workers.append(n)
        return ordered_map(fn, items, n)

    monkeypatch.setattr(quality, "ordered_map", pooled)
    return workers, sequence_quality(ref, dist)


class TestRdCsv:
    def test_header_is_skipped(self):
        text = "bitrate_kbps,quality\n100,30\n200,33\n400,36\n800,39\n"
        assert load_rd_csv(io.StringIO(text)) == PAIRS

    def test_headerless_file_accepted(self):
        text = "100,30\n200,33\n400,36\n800,39\n"
        assert load_rd_csv(io.StringIO(text)) == PAIRS

    def test_blank_lines_ignored(self):
        text = "100,30\n\n200,33\n400,36\n800,39\n"
        assert load_rd_csv(io.StringIO(text)) == PAIRS

    def test_malformed_interior_row_raises(self):
        text = "100,30\nnot-a-number,33\n400,36\n800,39\n"
        with pytest.raises(ValueError):
            load_rd_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "first_row",
        ["1O0,30", "100,3O", "100", "kbps,33"],
        ids=["letter-in-bitrate", "letter-in-quality", "one-field", "word-and-number"],
    )
    def test_first_row_with_a_number_is_data_not_header(self, first_row):
        text = f"{first_row}\n200,33\n400,36\n800,39\n1600,42\n"
        with pytest.raises(ValueError, match="malformed RD row 1"):
            load_rd_csv(io.StringIO(text))

    def test_path_round_trip(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("bitrate_kbps,quality\n100,30\n200,33\n400,36\n800,39\n")
        assert load_rd_csv(p) == PAIRS
