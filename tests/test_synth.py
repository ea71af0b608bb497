from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_generate, reference_hash01, serialize_y4m
from gfstill import synth
from gfstill.gop_planner import plan_sequence
from gfstill.synth import SYNTH_KINDS, SynthSpec, generate

# gfstill synth - --kind KIND --width W --height H --frames 3 --amplitude 2 | sha256sum
# recorded before noise frames were rendered in bands on a pool of threads
CLIP_SHA256 = {
    ("static", 1280, 720): "4734e1bdc8a116642ff893bd95cf3237086eb0dae82f47d0083b0c2c0e78bac0",
    ("static_noise", 1280, 720): "85968cdd153e6e684b04facb497e95cdf6e46772f469c1da5a83f530931a7ab0",
    ("pan", 1280, 720): "170dd47d4facface4ef29eb0ab74de211dfbcd49b01565f2c1e14901c0fa4890",
    ("zoom", 1280, 720): "595cb0379912ff09bb639cd66e5026c07d0438309e3090a60fc8fdef6c291d9f",
    ("cut", 1280, 720): "ed7d4319198a238ea1bef93a69487137873d8d3033d65ff4953777914bc160d9",
    ("static", 1920, 1080): "8202a552d5830cadcd7c41dd29d864b9e9c2aad845c679822ed84a27e90db6c5",
    ("static_noise", 1920, 1080): "6942a41807671dc318d343b9714d89576e0b065ccfaba52ba96d38f257a9c725",
    ("pan", 1920, 1080): "bf7c0edd0222a79206d1f4bab1d247e8b7c9e6626a89ae5b48824cd8142e6140",
    ("zoom", 1920, 1080): "9e9baada78653d8aec04866add24f0248ef584320c98d07c54cd596ef2897cae",
    ("cut", 1920, 1080): "d4223a916a72b58c4f37c375bdd04ab2775619c432060b663aad3fd564e07997",
}


def _frames(spec: SynthSpec) -> list[np.ndarray]:
    return list(generate(spec))


class TestSpec:
    def test_defaults(self):
        spec = SynthSpec("static")
        assert (spec.width, spec.height, spec.frame_count) == (176, 144, 16)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "wobble"},
            {"kind": "pan", "width": 8},
            {"kind": "pan", "height": 15},
            {"kind": "pan", "frame_count": 1},
            {"kind": "pan", "amplitude": -1.0},
            {"kind": "pan", "amplitude": float("nan")},
            {"kind": "zoom", "amplitude": float("nan")},
            {"kind": "static_noise", "amplitude": float("nan")},
            {"kind": "pan", "amplitude": float("inf")},
            # floats constructed and then failed inside generate with
            # TypeError, and a string raised TypeError
            {"kind": "pan", "width": 32.0},
            {"kind": "pan", "width": "32"},
            {"kind": "pan", "height": 32.0},
            {"kind": "pan", "frame_count": 3.5},
            {"kind": "pan", "seed": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)

    def test_integer_fields_are_stored_as_ints(self):
        # a numpy seed overflowed the 64-bit mask in the hash
        spec = SynthSpec("pan", width=np.int64(32), frame_count=np.int32(3),
                         seed=np.int64(5))
        fields = (spec.width, spec.height, spec.frame_count, spec.seed)
        assert fields == (32, 144, 3, 5)
        assert all(type(v) is int for v in fields)
        want = _frames(SynthSpec("pan", width=32, frame_count=3, seed=5))
        assert all(map(np.array_equal, _frames(spec), want))


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["static", "static_noise", "pan", "zoom", "cut"])
    def test_same_spec_same_bytes(self, kind):
        spec = SynthSpec(kind, width=64, height=48, frame_count=6, amplitude=2.0)
        a = _frames(spec)
        b = _frames(spec)
        for fa, fb in zip(a, b):
            assert fa.tobytes() == fb.tobytes()

    def test_seed_changes_content(self):
        a = _frames(SynthSpec("static", width=64, height=48, seed=0))[0]
        b = _frames(SynthSpec("static", width=64, height=48, seed=1))[0]
        assert not np.array_equal(a, b)

    def test_base_image_uses_full_range_well(self):
        base = _frames(SynthSpec("static", width=176, height=144))[0]
        assert base.std() > 20.0
        assert base.min() < 80 and base.max() > 175

    def test_fine_scale_detail_present(self):
        # a 4 px shift of textured content must not match itself
        base = _frames(SynthSpec("static", width=176, height=144))[0].astype(int)
        shifted = np.roll(base, 4, axis=1)
        mse = ((base - shifted) ** 2).mean()
        assert mse > 100.0


class TestKinds:
    def test_static_frames_identical(self):
        frames = _frames(SynthSpec("static", width=64, height=48, frame_count=5))
        for f in frames[1:]:
            assert np.array_equal(f, frames[0])

    def test_noise_stays_near_base(self):
        spec = SynthSpec("static_noise", width=64, height=48, frame_count=4,
                         amplitude=2.0)
        frames = _frames(spec)
        base = _frames(SynthSpec("static", width=64, height=48, frame_count=4))[0]
        for f in frames:
            delta = f.astype(int) - base.astype(int)
            assert np.abs(delta).max() <= np.ceil(3.0 * spec.amplitude)
            assert delta.std() == pytest.approx(spec.amplitude, rel=0.2)

    def test_noise_differs_per_frame(self):
        frames = _frames(
            SynthSpec("static_noise", width=64, height=48, frame_count=3,
                      amplitude=2.0)
        )
        assert not np.array_equal(frames[0], frames[1])

    def test_pan_relation_is_exact(self):
        # integer amplitude: each frame is the previous one shifted right,
        # so columns beyond the shift coincide exactly
        frames = _frames(SynthSpec("pan", width=64, height=48, frame_count=5,
                                   amplitude=2.0))
        for prev, cur in zip(frames, frames[1:]):
            assert np.array_equal(cur[:, 2:], prev[:, :-2])

    def test_pan_left_band_replicates_edge(self):
        frames = _frames(SynthSpec("pan", width=64, height=48, frame_count=3,
                                   amplitude=4.0))
        band = frames[2][:, :8]
        assert np.array_equal(band, np.repeat(frames[0][:, :1], 8, axis=1))

    def test_pan_beyond_frame_width_repeats_edge_column(self):
        for amplitude in (64.0, 1e300):
            frames = _frames(SynthSpec("pan", width=64, height=48, frame_count=3,
                                       amplitude=amplitude))
            edge = np.repeat(frames[0][:, :1], 64, axis=1)
            assert np.array_equal(frames[1], edge)
            assert np.array_equal(frames[2], edge)

    def test_zoom_fixes_centre_and_moves_edges(self):
        frames = _frames(SynthSpec("zoom", width=65, height=49, frame_count=4,
                                   amplitude=0.1))
        cy, cx = 24, 32
        for f in frames[1:]:
            assert f[cy, cx] == frames[0][cy, cx]
        assert not np.array_equal(frames[1], frames[0])

    def test_cut_switches_texture_halfway(self):
        frames = _frames(SynthSpec("cut", width=64, height=48, frame_count=6))
        assert np.array_equal(frames[0], frames[2])
        assert np.array_equal(frames[3], frames[5])
        assert not np.array_equal(frames[2], frames[3])


class TestRenderer:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(SYNTH_KINDS),
        width=st.integers(16, 300),
        height=st.integers(16, 300),
        frames=st.integers(2, 6),
        amplitude=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**64 - 1),
        band_samples=st.sampled_from([1, 300, 4099, synth._BAND_SAMPLES]),
    )
    @example(kind="static_noise", width=300, height=300, frames=3, amplitude=2.0,
             seed=2**64 - 1, band_samples=synth._BAND_SAMPLES)
    @example(kind="static_noise", width=177, height=145, frames=6, amplitude=1e6,
             seed=2**64 - 1, band_samples=4099)
    @example(kind="cut", width=100, height=70, frames=5, amplitude=0.0, seed=7,
             band_samples=1)
    def test_equals_the_whole_frame_reference(
        self, kind, width, height, frames, amplitude, seed, band_samples
    ):
        # bands of one row, of rows that do not divide the height, and of
        # the whole frame
        spec = SynthSpec(kind, width, height, frames, amplitude, seed)
        with mock.patch.object(synth, "_BAND_SAMPLES", band_samples):
            got = _frames(spec)
        want = reference_generate(spec)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert g.dtype == np.uint8 and g.shape == (height, width)
            assert np.array_equal(g, r)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", [1e19, 1e300, 1.7e308])
    def test_huge_noise_saturates(self, amplitude):
        # the noise is past 2**63, where an int64 cast has no value to give
        w, h, n, seed = 64, 48, 3, 5
        spec = SynthSpec("static_noise", w, h, n, amplitude, seed)
        base = _frames(SynthSpec("static", w, h, n, seed=seed))[0]
        ys, xs = np.arange(h)[:, None], np.arange(w)[None, :]
        for f, frame in enumerate(_frames(spec)):
            u = sum(reference_hash01(seed, 1_000 + 3 * f + k, ys, xs) for k in range(3))
            want = np.where(u > 1.5, 255, np.where(u < 1.5, 0, base))
            assert np.array_equal(frame, want)
            assert {0, 255} <= set(np.unique(frame))

    @pytest.mark.parametrize("kind, width, height", CLIP_SHA256)
    def test_pinned_clip_digests(self, kind, width, height):
        clip = serialize_y4m(generate(SynthSpec(kind, width, height, 3, 2.0)))
        assert hashlib.sha256(clip).hexdigest() == CLIP_SHA256[kind, width, height]

    @pytest.mark.parametrize("frames", [2, 5])
    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, frames):
        widths = []
        pool = synth.ordered_map

        def recording_map(fn, items, workers):
            widths.append(workers)
            return pool(fn, items, workers)

        spec = SynthSpec("static_noise", 320, 240, frames, 3.0, 11)
        monkeypatch.setattr(synth, "ordered_map", recording_map)
        clips = []
        for count in (1, 64):
            monkeypatch.setattr(synth, "cpus", lambda: count)
            clips.append(serialize_y4m(generate(spec)))
        assert clips[0] == clips[1]
        assert widths == [1, frames]


class TestClassificationIntegration:
    def test_static_clip_is_still(self):
        seq = generate(SynthSpec("static", width=176, height=144, frame_count=17))
        (result,) = plan_sequence(seq)
        assert result.verdict == "still"
        assert result.metrics.zero_motion_accumulator == 1.0

    def test_small_noise_is_still(self):
        seq = generate(
            SynthSpec("static_noise", width=176, height=144, frame_count=17,
                      amplitude=1.0)
        )
        (result,) = plan_sequence(seq)
        assert result.verdict == "still"

    def test_pan_is_non_still(self):
        seq = generate(
            SynthSpec("pan", width=176, height=144, frame_count=17, amplitude=4.0)
        )
        (result,) = plan_sequence(seq)
        assert result.verdict == "non-still"
        assert result.metrics.zero_motion_accumulator < 0.1

    def test_cut_is_non_still(self):
        seq = generate(SynthSpec("cut", width=176, height=144, frame_count=17))
        (result,) = plan_sequence(seq)
        assert result.verdict == "non-still"
