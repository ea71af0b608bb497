from __future__ import annotations

import json

import pytest

from gfstill.cli import main
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import load_y4m, serialize_y4m, write_y4m


def run(*argv):
    return main(list(argv))


@pytest.fixture
def static_clip(tmp_path):
    path = tmp_path / "static.y4m"
    write_y4m(generate(SynthSpec("static", width=64, height=48, frame_count=17)), path)
    return str(path)


@pytest.fixture
def pan_clip(tmp_path):
    path = tmp_path / "pan.y4m"
    write_y4m(
        generate(SynthSpec("pan", width=64, height=48, frame_count=17, amplitude=4.0)),
        path,
    )
    return str(path)


RD_BASE = "bitrate_kbps,quality\n100,30\n200,33\n400,36\n800,39\n"


class TestSynthCommand:
    def test_writes_valid_clip(self, tmp_path, capsys):
        out = tmp_path / "clip.y4m"
        assert run("synth", str(out), "--kind", "static", "--width", "32",
                   "--height", "32", "--frames", "4") == 0
        seq = load_y4m(out)
        assert (seq.width, seq.height, len(seq.frames)) == (32, 32, 4)
        assert "wrote 4 frame(s)" in capsys.readouterr().err

    def test_output_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.y4m", tmp_path / "b.y4m"
        argv = ["--kind", "pan", "--width", "32", "--height", "32",
                "--frames", "4", "--amplitude", "2.0", "--seed", "5"]
        assert run("synth", str(a), *argv) == 0
        assert run("synth", str(b), *argv) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_frame_count_is_usage_error(self, tmp_path, capsys):
        assert run("synth", str(tmp_path / "x.y4m"), "--kind", "static",
                   "--frames", "1") == 1
        assert "frame_count" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert run("synth", str(tmp_path / "x.y4m"), "--kind", "sparkle") == 1

    def test_unwritable_output_is_io_error(self, tmp_path):
        assert run("synth", str(tmp_path / "nodir" / "x.y4m"),
                   "--kind", "static") == 2


class TestAnalyzeCommand:
    def test_still_clip_metrics(self, static_clip, capsys):
        assert run("analyze", static_clip) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("group_id,first_display_index,interval,")
        assert lines[1] == "1,1,16,1.000000,0.000000,0.000000,still"
        assert "1 group(s): 1 still, 0 non-still" in captured.err

    def test_pan_clip_is_non_still(self, pan_clip, capsys):
        assert run("analyze", pan_clip) == 0
        assert capsys.readouterr().out.strip().splitlines()[1].endswith("non-still")

    def test_output_file(self, static_clip, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        assert run("analyze", static_clip, "-o", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[1].endswith("still")

    def test_threshold_flags_flip_verdict(self, static_clip, capsys):
        # the floor is exclusive, so zm == 1.0 no longer qualifies
        assert run("analyze", static_clip, "--zm-min", "1.0") == 0
        assert capsys.readouterr().out.strip().splitlines()[1].endswith("non-still")

    def test_histogram_sidecar(self, static_clip, tmp_path):
        hist = tmp_path / "hist.csv"
        assert run("analyze", static_clip, "--histogram", str(hist),
                   "--hist-bins", "4") == 0
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "metric,bin_index,bin_low,bin_high,count"
        assert len(lines) == 1 + 3 * 4

    def test_bad_hist_bins_is_usage_error(self, static_clip):
        assert run("analyze", static_clip, "--hist-bins", "0") == 1

    def test_block_size_warning(self, static_clip, capsys):
        assert run("analyze", static_clip, "--block-size", "8") == 0
        assert "recalibrate" in capsys.readouterr().err

    def test_no_warning_when_thresholds_overridden(self, static_clip, capsys):
        assert run("analyze", static_clip, "--block-size", "8",
                   "--zm-min", "0.8") == 0
        assert "recalibrate" not in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("analyze", str(tmp_path / "absent.y4m")) == 2

    def test_corrupt_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.y4m"
        bad.write_bytes(b"MPEG4YUV nonsense")
        assert run("analyze", str(bad)) == 2
        assert "gfstill:" in capsys.readouterr().err

    def test_raw_input_needs_dimensions(self, tmp_path, capsys):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(b"\x00" * 4096)
        assert run("analyze", str(raw)) == 1
        assert "--width" in capsys.readouterr().err

    def test_raw_input_with_dimensions(self, tmp_path, capsys):
        seq = generate(SynthSpec("static", width=32, height=32, frame_count=5))
        raw = tmp_path / "clip.yuv"
        chroma = bytes([128]) * (16 * 16 * 2)
        with open(raw, "wb") as fh:
            for frame in seq.frames:
                fh.write(frame.samples.tobytes())
                fh.write(chroma)
        assert run("analyze", str(raw), "--width", "32", "--height", "32") == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("still")

    @pytest.mark.parametrize("width, height", [(0, 0), (-16, 16), (8, 8)])
    def test_raw_geometry_below_minimum_is_input_error(
        self, tmp_path, capsys, width, height
    ):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(b"\x00" * 384)
        assert run("analyze", str(raw), "--width", str(width),
                   "--height", str(height)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("gfstill: ")
        assert f"got {width}x{height}" in err and "Traceback" not in err

    def test_bad_target_interval_is_usage_error(self, static_clip):
        assert run("analyze", static_clip, "--target-interval", "3") == 1
        assert run("analyze", static_clip, "--target-interval", "17") == 1

    def test_bad_key_interval_is_usage_error(self, static_clip):
        assert run("analyze", static_clip, "--key-interval", "1") == 1

    def test_bad_search_range_is_usage_error(self, static_clip):
        assert run("analyze", static_clip, "--search-range", "0") == 1


class TestPlanCommand:
    def test_plan_json_structures(self, static_clip, pan_clip, capsys):
        assert run("plan", static_clip) == 0
        still_payload = json.loads(capsys.readouterr().out)
        assert [g["structure"] for g in still_payload] == ["single_layer"]

        assert run("plan", pan_clip) == 0
        pan_payload = json.loads(capsys.readouterr().out)
        assert [g["structure"] for g in pan_payload] == ["multilayer"]
        roles = {e["role"] for e in pan_payload[0]["entries"]}
        assert {"ALTREF", "EXTRA_ALTREF", "BWDREF", "REGULAR", "OVERLAY"} <= roles

    def test_plan_runs_are_identical(self, pan_clip, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("plan", pan_clip, "-o", str(a)) == 0
        assert run("plan", pan_clip, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plan_respects_key_interval(self, static_clip, capsys):
        # frames 0 and 8 become keyframes (none lands on the final frame),
        # leaving a 7-frame and an 8-frame group
        assert run("plan", static_clip, "--key-interval", "8") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [g["interval"] for g in payload] == [7, 8]
        assert [g["start_display_index"] for g in payload] == [1, 9]


class TestQualityCommand:
    def test_identical_clips(self, static_clip, capsys):
        assert run("quality", static_clip, static_clip) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "frame,psnr_db,ssim"
        assert len(lines) == 1 + 17 + 1
        assert lines[1] == "0,100.000000,1.00000000"
        assert lines[-1] == "mean,100.000000,1.00000000"
        assert "17 frame(s)" in captured.err

    def test_different_clips_score_lower(self, static_clip, pan_clip, capsys):
        assert run("quality", static_clip, pan_clip) == 0
        mean = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(mean[1]) < 100.0
        assert float(mean[2]) < 1.0

    def test_dimension_mismatch_is_io_error(self, static_clip, tmp_path):
        other = tmp_path / "small.y4m"
        write_y4m(generate(SynthSpec("static", width=32, height=32,
                                     frame_count=17)), other)
        assert run("quality", static_clip, str(other)) == 2


class TestBdrateCommand:
    def _write(self, tmp_path, name, scale):
        path = tmp_path / name
        rows = ["bitrate_kbps,quality"]
        for r, q in ((100, 30), (200, 33), (400, 36), (800, 39)):
            rows.append(f"{r * scale},{q}")
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_identical_curves(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.csv", 1.0)
        assert run("bdrate", base, base) == 0
        assert capsys.readouterr().out.strip() == "0.000"

    def test_scaled_curves(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.csv", 1.0)
        up = self._write(tmp_path, "up.csv", 1.10)
        down = self._write(tmp_path, "down.csv", 0.95)
        assert run("bdrate", base, up) == 0
        assert capsys.readouterr().out.strip() == "10.000"
        assert run("bdrate", base, down) == 0
        assert capsys.readouterr().out.strip() == "-5.000"

    def test_malformed_curve_is_io_error(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.csv", 1.0)
        bad = tmp_path / "bad.csv"
        bad.write_text("100,30\nbroken,row\n400,36\n800,39\n")
        assert run("bdrate", base, str(bad)) == 2
        assert "malformed" in capsys.readouterr().err

    def test_too_few_points_is_io_error(self, tmp_path):
        base = self._write(tmp_path, "base.csv", 1.0)
        short = tmp_path / "short.csv"
        short.write_text("100,30\n200,33\n400,36\n")
        assert run("bdrate", base, str(short)) == 2


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("transmogrify") == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, static_clip, capsys):
        assert run("analyze", static_clip, "--sharpen") == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "analyze" in capsys.readouterr().out
