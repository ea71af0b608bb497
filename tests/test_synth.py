from __future__ import annotations

import numpy as np
import pytest

from gfstill.gop_planner import plan_sequence
from gfstill.synth import SynthSpec, generate


def _frames(spec: SynthSpec) -> list[np.ndarray]:
    return [f.samples for f in generate(spec).frames]


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
