"""End-to-end acceptance gate.

One test per shipping criterion; the verbose pytest line is the pass/fail
record for each.  Tolerances are stated inline next to every assertion.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from gfstill.cli import main
from gfstill.first_pass import SearchConfig, motion_search
from gfstill.gop_planner import (
    MULTILAYER,
    REF_BUFFER_SLOTS,
    SINGLE_LAYER,
    FrameRole,
    plan_group,
    plan_sequence,
    validate_plan,
)
from gfstill.quality import PSNR_CAP_DB, bd_rate, psnr, ssim
from gfstill.stillness import (
    GfGroupMetrics,
    classify_stillness,
    compute_group_metrics,
)
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import write_y4m

from conftest import brute_force_block_search, serialize_y4m
from test_gop_planner import max_live_references
from test_stillness import _stats

# frozen SHA-256 of the serialized 176x144, 16-frame, seed-0 reference clips;
# any platform- or revision-dependent drift in the generator trips these
PAN_CLIP_SHA256 = "6f4e7ae62ae443c10f8c42fee3987d6ee0cbcac5fd94b45380ad80d408363ec2"
STATIC_CLIP_SHA256 = "37dcd05ac4590237680789226dd6995220398f578d4f77381103c68dfc740e19"
# frozen SHA-256 of the entries JSON of plan_group(interval, verdict) for
# every interval 1..16 and both verdicts; the goldens reach only a few plans
PLANS_SHA256 = "58c09b3a3bf5caf0cc26a3fdc4d9693d3377271c832042f967ca83c2d32d1820"
# frozen SHA-256 of `plan --search-range 32` stdout for 5-frame 352x288 pan
# and zoom clips at blocks 8, 16 and 32; no benchmark workload searches that far
RANGE_32_PLANS_SHA256 = "b9c94699291c0ab6751c2c97fc1148ce5fbe0aad11bfaf8cd2530a2f4e89ecbf"
# frozen SHA-256 of `quality` stdout on the 176x144, 16-frame seed-0 static
# clip against static_noise at amplitude 3, and of `bdrate` stdout for the
# c6 base curve against each of its three test curves
QUALITY_SHA256 = "a66db6385e5eed97f23751319c8098fd1a35a6f2ad5dcf6332be6594afbc6277"
BDRATE_SHA256 = "01e582e9c607efbf22ee5b19f67b13e9860e069eff213223b76bccffe2831bca"

C6_PAIRS = [(100.0, 30.0), (200.0, 33.0), (400.0, 36.0), (800.0, 39.0)]
C6_SCALES = (1.0, 1.10, 0.95)


def test_c1_block_search_matches_brute_force_oracle(rng):
    start = time.perf_counter()
    cfg = SearchConfig(block_size=16, search_range=8, search_kind="exhaustive")
    for _ in range(20):
        cur = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
        ref = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
        mv, sse, _ = motion_search(cur, ref, cfg)
        assert sse.shape == (48 // 16, 64 // 16)
        for by in range(48 // 16):
            for bx in range(64 // 16):
                exp_mv, exp_sse, _ = brute_force_block_search(cur, ref, by, bx)
                assert tuple(mv[by, bx]) == exp_mv  # exact
                assert sse[by, bx] == exp_sse  # exact
    assert time.perf_counter() - start < 10.0


def test_c2_static_clip_is_still_and_flat():
    start = time.perf_counter()
    seq = generate(SynthSpec("static", width=176, height=144, frame_count=17))
    (result,) = plan_sequence(seq)
    m = result.metrics
    # exact: identical frames leave no residual anywhere
    assert (m.zero_motion_accumulator, m.avg_pixel_error, m.avg_error_stdev) == (
        1.0,
        0.0,
        0.0,
    )
    assert result.verdict == "still"
    assert result.plan.structure == SINGLE_LAYER
    roles = [e.role for e in result.plan.entries]
    assert roles.count(FrameRole.BWDREF) == 0
    assert roles.count(FrameRole.EXTRA_ALTREF) == 0
    assert time.perf_counter() - start < 5.0


def test_c3_pan_clip_is_non_still_with_pyramid():
    seq = generate(
        SynthSpec("pan", width=176, height=144, frame_count=17, amplitude=4.0)
    )
    (result,) = plan_sequence(seq)
    assert result.metrics.zero_motion_accumulator < 0.1
    assert result.verdict == "non-still"
    assert result.plan.structure == MULTILAYER
    assert result.plan.interval == 16
    roles = [e.role for e in result.plan.entries]
    assert roles.count(FrameRole.EXTRA_ALTREF) >= 1
    assert roles.count(FrameRole.BWDREF) >= 1


def test_c4_threshold_boundaries_are_strict():
    def triple(zm, ape, aes):
        return GfGroupMetrics(16, zm, ape, aes)

    # sitting exactly on any boundary fails that criterion
    assert classify_stillness(triple(0.9, 10.0, 100.0)) == "non-still"
    assert classify_stillness(triple(0.95, 40.0, 100.0)) == "non-still"
    assert classify_stillness(triple(0.95, 10.0, 2000.0)) == "non-still"
    # epsilon inside all three passes
    eps = 1e-9
    assert classify_stillness(triple(0.9 + eps, 40.0 - eps, 2000.0 - eps)) == "still"


def test_c5_plan_sweep_validates_within_budget():
    for interval in range(1, 17):
        for verdict in ("still", "non-still"):
            plan = plan_group(interval, verdict)
            violations = validate_plan(plan)
            assert not violations, (
                interval,
                verdict,
                [v.message for v in violations],
            )
            assert max_live_references(plan) <= REF_BUFFER_SLOTS
            # encode order must topologically respect the reference DAG
            coded = {0}
            for e in sorted(plan.entries, key=lambda e: e.encode_order):
                assert set(e.refs.values()) <= coded
                if e.show_existing:
                    assert e.display_index in coded
                coded.add(e.display_index)


def test_c6_bd_rate_analytic_values():
    base = C6_PAIRS
    same = list(C6_PAIRS)
    up = [(r * 1.10, q) for r, q in C6_PAIRS]
    down = [(r * 0.95, q) for r, q in C6_PAIRS]
    assert abs(bd_rate(base, same) - 0.0) < 1e-9
    assert abs(bd_rate(base, up) - 10.0) < 1e-6
    assert abs(bd_rate(base, down) - (-5.0)) < 1e-6


def test_c7_psnr_ssim_analytic_values():
    a = np.full((64, 64), 100, dtype=np.uint8)
    b = np.full((64, 64), 101, dtype=np.uint8)
    # MSE 1 -> 20*log10(255) = 48.1308 dB
    assert abs(psnr(a, b) - 48.1308) < 1e-3
    assert psnr(a, a) == PSNR_CAP_DB

    assert ssim(a, a) == 1.0  # exact
    c = np.full((64, 64), 110, dtype=np.uint8)
    c1 = (0.01 * 255.0) ** 2
    closed_form = (2.0 * 100.0 * 110.0 + c1) / (100.0**2 + 110.0**2 + c1)
    assert abs(ssim(a, c) - closed_form) < 1e-6


def test_c8_outputs_are_deterministic(tmp_path):
    clip = tmp_path / "clip.y4m"
    seq = generate(
        SynthSpec("pan", width=176, height=144, frame_count=16, amplitude=4.0)
    )
    write_y4m(seq, clip)

    for command, suffix in (("analyze", "csv"), ("plan", "json")):
        a = tmp_path / f"a.{suffix}"
        b = tmp_path / f"b.{suffix}"
        assert main([command, str(clip), "-o", str(a)]) == 0
        assert main([command, str(clip), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    assert hashlib.sha256(serialize_y4m(seq)).hexdigest() == PAN_CLIP_SHA256
    static = generate(SynthSpec("static", width=176, height=144, frame_count=16))
    assert hashlib.sha256(serialize_y4m(static)).hexdigest() == STATIC_CLIP_SHA256


def test_c8_every_plan_is_pinned():
    plans = [
        [asdict(e) for e in plan_group(interval, verdict).entries]
        for interval in range(1, 17)
        for verdict in ("still", "non-still")
    ]
    digest = hashlib.sha256(json.dumps(plans).encode()).hexdigest()
    assert digest == PLANS_SHA256


def test_c8_range_32_plans_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for kind in ("pan", "zoom"):
        clip = tmp_path / f"{kind}.y4m"
        write_y4m(generate(SynthSpec(kind, 352, 288, 5, amplitude=4.0)), clip)
        for block in ("8", "16", "32"):
            args = ["plan", str(clip), "--search-range", "32", "--block-size", block]
            assert main(args) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == RANGE_32_PLANS_SHA256


def test_c8_quality_output_is_pinned(tmp_path, capsys):
    clips = []
    for kind in ("static", "static_noise"):
        clip = tmp_path / f"{kind}.y4m"
        write_y4m(generate(SynthSpec(kind, 176, 144, 16, amplitude=3.0)), clip)
        clips.append(str(clip))
    assert main(["quality", *clips]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == QUALITY_SHA256


def test_c8_bdrate_output_is_pinned(tmp_path, capsys):
    paths = []
    for scale in C6_SCALES:
        path = tmp_path / f"x{scale}.csv"
        # repr keeps every float exact through the CSV
        path.write_text("".join(f"{r * scale!r},{q!r}\n" for r, q in C6_PAIRS))
        paths.append(str(path))
    digest = hashlib.sha256()
    for path in paths:
        assert main(["bdrate", paths[0], path]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BDRATE_SHA256


def test_c9_group_metrics_match_hand_computation():
    pixels = 25344  # 176 x 144
    stats = [
        _stats(0.90, 3 * pixels, 100.0),
        _stats(0.95, 5 * pixels, 200.0),
        _stats(0.92, 7 * pixels, 300.0),
        _stats(0.88, 1 * pixels, 400.0),
    ]
    m = compute_group_metrics(stats, pixels)
    assert m.zero_motion_accumulator == 0.88  # MIN, exact
    assert m.avg_pixel_error == 4.0  # MEAN of 3,5,7,1, exact
    assert m.avg_error_stdev == 250.0  # MEAN of stdevs, exact
