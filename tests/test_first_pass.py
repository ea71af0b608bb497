from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_block_search, random_plane
from gfstill.first_pass import (
    SearchConfig,
    analyze_frame,
    motion_search,
    pad_to_block_grid,
)
from gfstill.synth import SynthSpec, generate


def _textured(width=64, height=48, seed=11):
    return generate(SynthSpec("static", width, height, 2, seed=seed)).frames[0]


def _assert_matches_oracle(cur, ref, cfg):
    """Every block of motion_search equals the brute-force scan exactly."""
    mv, best, zero = motion_search(cur, ref, cfg)
    cur_p = pad_to_block_grid(np.asarray(cur), cfg.block_size)
    ref_p = pad_to_block_grid(np.asarray(ref), cfg.block_size)
    rows, cols = best.shape
    assert (rows * cfg.block_size, cols * cfg.block_size) == cur_p.shape
    for by, bx in np.ndindex(rows, cols):
        want = brute_force_block_search(
            cur_p, ref_p, by, bx, cfg.block_size, cfg.search_range
        )
        assert (tuple(mv[by, bx]), best[by, bx], zero[by, bx]) == want


class TestBlockSearch:
    def test_identical_frames_find_zero_vector(self):
        plane = _textured()
        mv, best, zero = motion_search(plane, plane)
        assert mv.shape == (3, 4, 2) and best.shape == zero.shape == (3, 4)
        assert not mv.any() and not best.any() and not zero.any()

    def test_known_horizontal_shift_recovered(self):
        base = _textured(96, 48).samples
        shifted = np.empty_like(base)
        shifted[:, 2:] = base[:, :-2]
        shifted[:, :2] = base[:, :1]
        # content moved right by 2, so the predictor samples 2 px left
        mv, best, zero = motion_search(shifted, base)
        assert (mv[1, 1:5] == (-2, 0)).all()
        assert not best[1, 1:5].any()
        assert (zero[1, 1:5] > 0).all()

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(5):
            cur = random_plane(rng, 64, 48).samples
            ref = random_plane(rng, 64, 48).samples
            _assert_matches_oracle(cur, ref, SearchConfig())

    def test_oracle_agreement_other_configs(self, rng):
        for bs, r in ((8, 4), (32, 8), (16, 3)):
            cur = random_plane(rng, 64, 64).samples
            ref = random_plane(rng, 64, 64).samples
            _assert_matches_oracle(cur, ref, SearchConfig(bs, r))

    def test_zero_vector_is_always_a_candidate(self, rng):
        cur = random_plane(rng, 64, 48)
        ref = random_plane(rng, 64, 48)
        _, best, zero = motion_search(cur, ref)
        assert (best <= zero).all()

    def test_constant_frames_break_ties_toward_zero(self):
        flat = np.full((48, 64), 77, np.uint8)
        mv, best, zero = motion_search(flat, flat)
        assert not mv.any()
        assert not best.any() and not zero.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            motion_search(_textured(64, 48), _textured(80, 48))


def _frames(content, height, width, seed):
    rng = np.random.default_rng(seed)
    shape = (height, width)
    if content == "random":
        return rng.integers(0, 256, (2, *shape), dtype=np.uint8)
    if content == "extremes":
        frames = np.zeros((2, *shape), np.uint8)
        frames[rng.integers(2)] = 255
        return frames
    if content == "binary":
        # sparse 255s leave many windows with equal SSE: the tie-break decides
        density = rng.choice((0.5, 0.1, 0.02))
        return ((rng.random((2, *shape)) < density) * 255).astype(np.uint8)
    levels = rng.integers(0, 256, 2)
    return np.stack([np.full(shape, v, np.uint8) for v in levels])


_frame_cases = st.tuples(
    st.sampled_from(["random", "extremes", "binary", "constant"]),
    st.integers(16, 80),
    st.integers(16, 80),
    st.integers(0, 2**32 - 1),
)


class TestOracleProperty:
    @given(
        case=_frame_cases,
        block_size=st.sampled_from((8, 16, 32)),
        search_range=st.integers(1, 40),
        aligned=st.booleans(),
    )
    # a tie between two nonzero vectors, and a padded frame at the widest range
    @example(
        case=("binary", 24, 24, 2), block_size=8, search_range=2, aligned=False
    )
    @example(
        case=("extremes", 50, 70, 0), block_size=32, search_range=40, aligned=False
    )
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("kind", ["exhaustive", "diamond"])
    def test_every_block_matches_oracle(
        self, kind, case, block_size, search_range, aligned
    ):
        content, height, width, seed = case
        if aligned:
            height = max(block_size, height - height % block_size)
            width = max(block_size, width - width % block_size)
        cur, ref = _frames(content, height, width, seed)
        cfg = SearchConfig(block_size, search_range, kind)
        if kind == "exhaustive":
            _assert_matches_oracle(cur, ref, cfg)
            return
        # diamond is a heuristic: its score is the SSE of the vector it
        # reports, never better than the exhaustive optimum, never worse
        # than the zero vector
        mv, best, zero = motion_search(cur, ref, cfg)
        exhaustive = SearchConfig(block_size, search_range)
        _, best_ex, zero_ex = motion_search(cur, ref, exhaustive)
        assert (zero == zero_ex).all()
        assert (best_ex <= best).all() and (best <= zero).all()
        assert (np.abs(mv) <= search_range).all()
        bs = block_size
        cur_p = pad_to_block_grid(cur, bs).astype(np.int64)
        ref_p = pad_to_block_grid(ref, bs).astype(np.int64)
        for by, bx in np.ndindex(best.shape):
            dx, dy = mv[by, bx]
            block = cur_p[by * bs : (by + 1) * bs, bx * bs : (bx + 1) * bs]
            window = ref_p[by * bs + dy :, bx * bs + dx :][:bs, :bs]
            assert best[by, bx] == ((block - window) ** 2).sum()

    @given(case=_frame_cases, block_size=st.sampled_from((8, 16, 32)))
    @settings(max_examples=10, deadline=None)
    @pytest.mark.parametrize("kind", ["exhaustive", "diamond"])
    def test_huge_range_equals_frame_sized_range(self, kind, case, block_size):
        content, height, width, seed = case
        cur, ref = _frames(content, height, width, seed)
        huge = motion_search(cur, ref, SearchConfig(block_size, 10_000, kind))
        frame_range = SearchConfig(block_size, max(height, width), kind)
        frame = motion_search(cur, ref, frame_range)
        for got, want in zip(huge, frame):
            assert np.array_equal(got, want)


class TestDiamond:
    def test_never_beats_exhaustive(self, rng):
        diamond = SearchConfig(search_kind="diamond")
        for _ in range(4):
            cur = random_plane(rng, 64, 48)
            ref = random_plane(rng, 64, 48)
            _, best_ex, _ = motion_search(cur, ref)
            _, best_di, zero_di = motion_search(cur, ref, diamond)
            assert (best_di >= best_ex).all()
            assert (best_di <= zero_di).all()

    def test_finds_exact_zero_optimum(self):
        plane = _textured()
        cfg = SearchConfig(search_kind="diamond")
        mv, best, zero = motion_search(plane, plane, cfg)
        assert not mv.any() and not best.any() and not zero.any()

    def test_tracks_clean_shifts(self):
        base = _textured(96, 64).samples
        shifted = np.empty_like(base)
        shifted[:, 3:] = base[:, :-3]
        shifted[:, :3] = base[:, :1]
        cfg = SearchConfig(search_kind="diamond")
        mv, best, _ = motion_search(shifted, base, cfg)
        assert tuple(mv[1, 2]) == (-3, 0)
        assert best[1, 2] == 0


class TestPadding:
    def test_pads_to_next_multiple(self):
        arr = np.arange(50 * 70, dtype=np.uint8).reshape(50, 70)
        padded = pad_to_block_grid(arr, 16)
        assert padded.shape == (64, 80)
        assert np.array_equal(padded[:50, :70], arr)
        # replicated edges
        assert np.array_equal(padded[50:, :70], np.tile(arr[-1:, :], (14, 1)))
        assert np.array_equal(padded[:50, 70:], np.tile(arr[:, -1:], (1, 10)))

    def test_already_aligned_returns_same_array(self):
        arr = np.zeros((48, 64), np.uint8)
        assert pad_to_block_grid(arr, 16) is arr

    def test_padded_blocks_participate(self):
        plane = generate(SynthSpec("static", 70, 50, 2, seed=3)).frames[0]
        stats = analyze_frame(plane, plane)
        assert stats.block_count == (80 // 16) * (64 // 16)
        assert stats.pcnt_zero_motion == 1.0


class TestFrameStats:
    def test_identical_frames(self):
        plane = _textured()
        stats = analyze_frame(plane, plane, frame_index=3)
        assert stats.frame_index == 3
        assert stats.pcnt_zero_motion == 1.0
        assert stats.frame_sse == 0
        assert stats.zero_mv_sse_stdev == 0.0
        assert stats.inter_count == stats.block_count == 12

    def test_constant_gray_ties_classify_inter(self):
        # best SSE 0 ties the zero intra proxy of a flat block: inter
        flat = np.full((48, 64), 128, np.uint8)
        _, best, _ = motion_search(flat, flat)
        assert not best.any()
        stats = analyze_frame(flat, flat)
        assert stats.inter_count == stats.block_count == 12
        assert stats.pcnt_zero_motion == 1.0

    def test_flat_frame_against_noise_is_intra(self, rng):
        # zero-variance blocks have intra proxy 0; any positive inter error
        # loses to it, so nothing is inter and the zero-motion share is 0
        flat = np.full((48, 64), 128, np.uint8)
        noise = random_plane(rng, 64, 48).samples
        stats = analyze_frame(flat, noise)
        assert stats.inter_count == 0
        assert stats.pcnt_zero_motion == 0.0

    def test_frame_sse_recomputable_from_blocks(self, rng):
        cur = random_plane(rng, 64, 48)
        prev = random_plane(rng, 64, 48)
        _, best, _ = motion_search(cur, prev)
        stats = analyze_frame(cur, prev)
        assert stats.frame_sse == sum(int(b) for b in best.ravel())
        assert stats.block_count == best.size

    def test_zero_mv_stdev_is_population_over_all_blocks(self, rng):
        cur = random_plane(rng, 64, 48)
        prev = random_plane(rng, 64, 48)
        _, _, zero = motion_search(cur, prev)
        values = zero.ravel().astype(np.float64)
        want = float(np.sqrt(((values - values.mean()) ** 2).mean()))
        got = analyze_frame(cur, prev).zero_mv_sse_stdev
        assert got == pytest.approx(want, abs=1e-9)

    def test_stats_invariant_under_brightness_shift(self):
        base = _textured(64, 48, seed=5).samples
        # keep headroom so adding the offset cannot clip
        cur = np.clip(base, 0, 200)
        prev = np.roll(np.clip(base, 0, 200), 1, axis=1)
        a = analyze_frame(cur, prev)
        b = analyze_frame(cur + 40, prev + 40)
        assert a.pcnt_zero_motion == b.pcnt_zero_motion
        assert a.frame_sse == b.frame_sse
        assert a.zero_mv_sse_stdev == b.zero_mv_sse_stdev
        assert a.inter_count == b.inter_count

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            analyze_frame(_textured(64, 48), _textured(64, 64))


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert (cfg.block_size, cfg.search_range, cfg.search_kind) == (
            16,
            8,
            "exhaustive",
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 12},
            {"search_range": 0},
            {"search_kind": "spiral"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)
