from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfstill

from gfstill import cli
from gfstill.cli import (
    MAX_HISTOGRAM_BINS,
    dump_group_metrics,
    dump_metric_histograms,
    main,
)
from gfstill.gop_planner import GroupPlanResult, plan_group
from gfstill.stillness import GfGroupMetrics
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import write_y4m, y4m_frames


def run(*argv):
    return main(list(argv))


# the command line as a child process, for what only real standard streams show
CLI = [sys.executable, "-m", "gfstill.cli"]


def child_env() -> dict[str, str]:
    """This environment, with the package under test first on the path."""
    env = dict(os.environ)
    package_root = str(Path(gfstill.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


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
        frames = list(y4m_frames(out))
        assert [f.shape for f in frames] == [(32, 32)] * 4
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

    @pytest.mark.parametrize(
        "kind, amplitude",
        [("zoom", "nan"), ("static_noise", "nan"), ("pan", "inf"), ("pan", "-inf")],
    )
    def test_non_finite_amplitude_is_usage_error(
        self, tmp_path, capsys, kind, amplitude
    ):
        out = tmp_path / "x.y4m"
        # joined with "=" so argparse does not read "-inf" as a flag
        assert run("synth", str(out), "--kind", kind, f"--amplitude={amplitude}") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("gfstill: amplitude")
        assert not out.exists()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        assert run("synth", str(tmp_path / "x.y4m"), "--kind", "sparkle") == 1

    def test_unwritable_output_is_io_error(self, tmp_path):
        assert run("synth", str(tmp_path / "nodir" / "x.y4m"),
                   "--kind", "static") == 2

    def test_dash_writes_standard_output(self, tmp_path):
        # the clip goes down a real pipe into `plan -`, and no file named -
        # is made
        argv = ["--kind", "pan", "--width", "64", "--height", "48",
                "--frames", "9", "--amplitude", "3"]
        clip = tmp_path / "clip.y4m"
        assert run("synth", str(clip), *argv) == 0
        env = child_env()
        by_path = subprocess.run(
            [*CLI, "plan", str(clip)], env=env, capture_output=True, timeout=120
        )
        synth = subprocess.Popen(
            [*CLI, "synth", "-", *argv], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        piped = subprocess.run(
            [*CLI, "plan", "-"], cwd=tmp_path, env=env, stdin=synth.stdout,
            capture_output=True, timeout=120,
        )
        synth.stdout.close()
        err = synth.stderr.read()
        synth.stderr.close()
        assert synth.wait(timeout=120) == 0, err
        assert err.startswith(b"wrote 9 frame(s)") and err.count(b"\n") == 1
        assert by_path.returncode == piped.returncode == 0, piped.stderr
        assert by_path.stdout and piped.stdout == by_path.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.y4m"]


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--zm-min", "nan"),
            ("--zm-min", "2"),
            ("--zm-min", "0"),
            ("--ape-max", "nan"),
            ("--aes-max", "nan"),
            ("--aes-max", "-inf"),
        ],
    )
    def test_nan_or_out_of_range_threshold_is_usage_error(
        self, static_clip, capsys, flag, value
    ):
        # joined with "=" so argparse does not read "-inf" as a flag
        assert run("analyze", static_clip, f"{flag}={value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("gfstill: ")

    def test_infinite_ceilings_stay_legal(self, static_clip, capsys):
        assert run("analyze", static_clip, "--ape-max", "inf",
                   "--aes-max", "inf") == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",still")

    def test_histogram_sidecar(self, static_clip, tmp_path):
        hist = tmp_path / "hist.csv"
        assert run("analyze", static_clip, "--histogram", str(hist),
                   "--hist-bins", "4") == 0
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "metric,bin_index,bin_low,bin_high,count"
        assert len(lines) == 1 + 3 * 4

    def test_bad_hist_bins_is_usage_error(self, static_clip):
        assert run("analyze", static_clip, "--hist-bins", "0") == 1

    @pytest.mark.parametrize("clip_exists", [True, False])
    def test_huge_hist_bins_is_usage_error(
        self, clip_exists, static_clip, tmp_path, capsys
    ):
        # numpy cannot allocate 10**13 bins and says so at once; the cap
        # rejects them with nothing written, and a missing input shows that
        # it does so before the input is read
        clip = static_clip if clip_exists else str(tmp_path / "missing.y4m")
        hist = tmp_path / "h.csv"
        argv = ["analyze", clip, "--histogram", str(hist)]
        assert run(*argv, "--hist-bins", str(10**13)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not hist.exists()
        assert captured.err == (
            f"gfstill: --hist-bins must lie in [1, {MAX_HISTOGRAM_BINS}]\n"
        )

    def test_hist_bins_at_the_cap(self, static_clip, tmp_path):
        hist = tmp_path / "h.csv"
        bins = str(MAX_HISTOGRAM_BINS)
        assert run("analyze", static_clip, "-o", os.devnull, "--histogram",
                   str(hist), "--hist-bins", bins) == 0
        assert hist.read_text().count("\n") == 1 + 3 * MAX_HISTOGRAM_BINS

    def test_block_size_warning(self, static_clip, capsys):
        assert run("analyze", static_clip, "--block-size", "8") == 0
        assert "recalibrate" in capsys.readouterr().err

    def test_no_warning_when_thresholds_overridden(self, static_clip, capsys):
        assert run("analyze", static_clip, "--block-size", "8",
                   "--zm-min", "0.8") == 0
        assert "recalibrate" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "plan"])
    def test_dash_reads_the_clip_from_stdin(
        self, command, pan_clip, monkeypatch, capsys
    ):
        assert run(command, pan_clip) == 0
        printed = capsys.readouterr().out
        stdin = io.TextIOWrapper(io.BytesIO(Path(pan_clip).read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(command, "-") == 0
        assert capsys.readouterr().out == printed

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["path", "stdin"])
    def test_huge_declared_size_is_truncated_payload(
        self, from_stdin, tmp_path, monkeypatch, capsys
    ):
        # the declared frame is ~15 PB; the reader must compare it with the
        # bytes present instead of allocating it
        header = b"YUV4MPEG2 W99999999 H99999999 F25:1 C420\n"
        data = header + b"FRAME\n" + bytes(64)
        clip = tmp_path / "huge.y4m"
        clip.write_bytes(data)
        if from_stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run("analyze", "-" if from_stdin else str(clip)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "truncated frame payload" in err
        assert f"(byte offset {len(header) + 6})" in err

    @pytest.mark.parametrize("raw", [False, True], ids=["y4m", "yuv"])
    def test_dash_reads_a_real_pipe(self, raw, pan_clip, tmp_path):
        clip = Path(pan_clip)
        flags = []
        if raw:
            frames = list(y4m_frames(clip))
            height, width = frames[0].shape
            clip = tmp_path / "pan.yuv"
            chroma = bytes([128]) * (2 * (width // 2) * (height // 2))
            clip.write_bytes(b"".join(f.tobytes() + chroma for f in frames))
            flags = ["--width", str(width), "--height", str(height)]
        env = child_env()
        argv = [*CLI, "analyze"]
        by_path = subprocess.run(
            [*argv, str(clip), *flags], env=env, capture_output=True, timeout=120
        )
        # `input=` feeds the child's stdin through an OS pipe
        piped = subprocess.run(
            [*argv, "-", *flags], env=env, input=clip.read_bytes(),
            capture_output=True, timeout=120,
        )
        assert by_path.returncode == piped.returncode == 0, piped.stderr
        assert by_path.stdout and piped.stdout == by_path.stdout

    @pytest.mark.parametrize(
        "head, marker, offset",
        [
            # the signature must be followed by a space
            (b"YUV4MPEG2X W16 H16", b"FRAME\n", 0),
            (b"YUV4MPEG2W16 H16", b"FRAME\n", 0),
            # a marker is FRAME, optionally followed by a space and
            # parameters; it starts after the 29-byte header
            (b"YUV4MPEG2 W16 H16", b"FRAMEX\n", 29),
            (b"YUV4MPEG2 W16 H16", b"FRAMES GARBAGE\n", 29),
        ],
    )
    def test_misspelt_magic_word_is_input_error(
        self, head, marker, offset, tmp_path, capsys
    ):
        clip = tmp_path / "bad.y4m"
        payload = bytes(16 * 16 * 3 // 2)
        clip.write_bytes(
            head + b" F25:1 C420\n" + marker + payload + b"FRAME\n" + payload
        )
        assert run("analyze", str(clip)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.endswith(f"(byte offset {offset})\n")

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
            for frame in seq:
                fh.write(frame.tobytes())
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

    @pytest.mark.parametrize("command", ["analyze", "plan"])
    @pytest.mark.parametrize("from_stdin", [False, True], ids=["path", "stdin"])
    def test_chroma_on_y4m_is_usage_error(
        self, command, from_stdin, static_clip, monkeypatch, capsys
    ):
        # the Y4M header names the layout, so --chroma would be ignored
        if from_stdin:
            data = Path(static_clip).read_bytes()
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        source = "-" if from_stdin else static_clip
        assert run(command, source, "--chroma", "444") == 1
        out, err = capsys.readouterr()
        assert not out and err == (
            "gfstill: --chroma applies only to raw input; Y4M names its own\n"
        )

    def test_chroma_selects_the_raw_layout(self, static_clip, tmp_path, capsys):
        assert run("analyze", static_clip) == 0
        printed = capsys.readouterr().out
        frames = list(y4m_frames(static_clip))
        height, width = frames[0].shape
        raw = tmp_path / "clip.yuv"
        chroma = bytes([128]) * (2 * width * height)
        raw.write_bytes(b"".join(f.tobytes() + chroma for f in frames))
        size = ["--width", str(width), "--height", str(height)]
        assert run("analyze", str(raw), *size, "--chroma", "444") == 0
        assert capsys.readouterr().out == printed
        # read as the default 4:2:0, the same bytes cut into other frames
        assert run("analyze", str(raw), *size) == 0
        assert capsys.readouterr().out != printed

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

    def test_dimension_mismatch_names_frame_width_and_height(
        self, tmp_path, capsys
    ):
        paths = []
        for name, height in (("ref.y4m", 32), ("dist.y4m", 48)):
            paths.append(str(tmp_path / name))
            write_y4m(generate(SynthSpec("static", width=32, height=height,
                                         frame_count=3)), paths[-1])
        assert run("quality", *paths) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gfstill: frame 0: reference is 32x32, distorted is 32x48\n"
        )

    @pytest.mark.parametrize("which", [0, 1])
    def test_dash_reads_one_clip_from_stdin(
        self, which, static_clip, pan_clip, monkeypatch, capsys
    ):
        clips = [static_clip, pan_clip]
        assert run("quality", *clips) == 0
        printed = capsys.readouterr().out
        stdin = io.TextIOWrapper(io.BytesIO(Path(clips[which]).read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        clips[which] = "-"
        assert run("quality", *clips) == 0
        assert capsys.readouterr().out == printed

    def test_dash_for_both_clips_is_usage_error(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"YUV4MPEG2"))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run("quality", "-", "-") == 1
        assert stdin.buffer.tell() == 0  # refused before anything was read
        captured = capsys.readouterr()
        assert captured.out == "" and "standard input" in captured.err


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

    def test_typo_in_first_row_is_io_error(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.csv", 1.0)
        typo = tmp_path / "typo.csv"
        typo.write_text("1O0,30\n200,33\n400,36\n800,39\n1600,42\n")
        assert run("bdrate", base, str(typo)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: malformed RD row 1")

    @pytest.mark.parametrize(
        "rows",
        [
            "100,30\nnan,33\n400,36\n800,39\n",
            "100,30\n200,33\n400,36\ninf,39\n",
            "100,30\n200,nan\n400,36\n800,39\n",
            "100,30\n200,33\n400,36\n800,inf\n",
        ],
        ids=["nan-bitrate", "inf-bitrate", "nan-quality", "inf-quality"],
    )
    def test_non_finite_value_is_io_error(self, tmp_path, capfd, rows):
        # capfd, not capsys: LAPACK used to write to the stderr descriptor
        base = self._write(tmp_path, "base.csv", 1.0)
        bad = tmp_path / "bad.csv"
        bad.write_text(rows)
        assert run("bdrate", base, str(bad)) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "must be finite" in err

    def test_too_few_points_is_io_error(self, tmp_path):
        base = self._write(tmp_path, "base.csv", 1.0)
        short = tmp_path / "short.csv"
        short.write_text("100,30\n200,33\n400,36\n")
        assert run("bdrate", base, str(short)) == 2


class TestOutputFile:
    @pytest.mark.parametrize("command", ["analyze", "plan", "quality"])
    def test_output_file_holds_exactly_the_stdout_bytes(
        self, command, static_clip, pan_clip, tmp_path, capsys
    ):
        inputs = [static_clip, pan_clip] if command == "quality" else [pan_clip]
        assert run(command, *inputs) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert run(command, *inputs, "-o", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    @pytest.mark.parametrize("command", ["analyze", "plan", "quality"])
    def test_output_in_missing_directory_is_io_error(
        self, command, static_clip, tmp_path, capsys
    ):
        inputs = [static_clip, static_clip] if command == "quality" else [static_clip]
        out = tmp_path / "missing_dir" / "x.csv"
        assert run(command, *inputs, "-o", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: ") and not out.parent.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_histogram_in_missing_directory_writes_nothing(
        self, to_file, static_clip, tmp_path, capsys
    ):
        out = tmp_path / "out.csv"
        hist = tmp_path / "missing_dir" / "h.csv"
        argv = ["analyze", static_clip, "--histogram", str(hist)]
        assert run(*argv, *(["-o", str(out)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: ") and not out.exists()


    @pytest.mark.parametrize("to_file", [False, True])
    def test_empty_histogram_path_writes_nothing(
        self, to_file, static_clip, tmp_path, capsys
    ):
        # an empty path cannot be opened, like any other such path
        out = tmp_path / "out.csv"
        argv = ["analyze", static_clip, "--histogram", ""]
        assert run(*argv, *(["-o", str(out)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: ") and not out.exists()

    @pytest.mark.parametrize("clip_exists", [True, False])
    def test_histogram_on_the_output_path_is_usage_error(
        self, clip_exists, static_clip, tmp_path, monkeypatch, capsys
    ):
        # the two spellings meet only once resolved; a missing input shows
        # that the check comes before the input is read
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        clip = static_clip if clip_exists else str(tmp_path / "missing.y4m")
        argv = ["analyze", clip, "-o", "same.csv", "--histogram", "sub/../same.csv"]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "same.csv").exists()


    def test_dash_histogram_is_stdout(
        self, static_clip, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["analyze", static_clip, "-o", "a.csv", "--histogram", "hist.csv"]
        assert run(*argv) == 0
        capsys.readouterr()
        assert run("analyze", static_clip, "-o", "b.csv", "--histogram", "-") == 0
        assert capsys.readouterr().out == (tmp_path / "hist.csv").read_text()
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("output", [[], ["-o", "-"]], ids=["no-o", "dash-o"])
    def test_dash_histogram_with_the_csv_on_stdout_is_usage_error(
        self, output, tmp_path, monkeypatch, capsys
    ):
        # a missing input shows that the check comes before the input is read
        monkeypatch.chdir(tmp_path)
        assert run("analyze", "missing.y4m", *output, "--histogram", "-") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("command", ["analyze", "plan", "quality"])
    def test_dash_output_is_stdout(
        self, command, static_clip, pan_clip, tmp_path, monkeypatch, capsys
    ):
        inputs = [static_clip, pan_clip] if command == "quality" else [pan_clip]
        assert run(command, *inputs) == 0
        printed = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        assert run(command, *inputs, "-o", "-") == 0
        assert capsys.readouterr().out == printed
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("spelling", ["path", "/dev/stdout"])
    def test_histogram_on_the_stdout_file_is_usage_error(
        self, spelling, static_clip, tmp_path
    ):
        if spelling == "/dev/stdout" and not os.path.exists(spelling):
            pytest.skip("no /dev/stdout here")
        out = tmp_path / "out.csv"
        hist = str(out) if spelling == "path" else spelling
        env = dict(os.environ)
        package_root = str(Path(gfstill.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "gfstill.cli", "analyze", static_clip]
        with open(out, "wb") as stdout:
            done = subprocess.run(
                [*argv, "--histogram", hist], env=env, stdout=stdout,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert done.returncode == 1
        assert done.stderr.startswith("gfstill: ") and done.stderr.count("\n") == 1
        assert out.read_bytes() == b""
        if spelling == "/dev/stdout":
            # a pipe is no file: the metrics and the histogram both reach it
            plain = subprocess.run(argv, env=env, capture_output=True, timeout=120)
            piped = subprocess.run(
                [*argv, "--histogram", hist], env=env, capture_output=True,
                timeout=120,
            )
            assert plain.returncode == piped.returncode == 0, piped.stderr
            assert plain.stdout in piped.stdout
            assert len(piped.stdout) > len(plain.stdout)

    @pytest.mark.parametrize("clip_exists", [True, False])
    def test_dash_histogram_with_stdout_on_the_output_file_is_usage_error(
        self, clip_exists, static_clip, tmp_path
    ):
        # `-o out.csv --histogram - > out.csv` names one file twice; a
        # missing input shows that the check comes before the input is read
        out = tmp_path / "out.csv"
        clip = static_clip if clip_exists else str(tmp_path / "missing.y4m")
        with open(out, "wb") as stdout:
            done = subprocess.run(
                [*CLI, "analyze", clip, "-o", str(out), "--histogram", "-"],
                env=child_env(), stdout=stdout, stderr=subprocess.PIPE,
                text=True, timeout=120,
            )
        assert done.returncode == 1
        assert done.stderr.startswith("gfstill: ") and done.stderr.count("\n") == 1
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("clip_exists", [True, False])
    def test_histogram_on_a_hard_link_to_the_output_is_usage_error(
        self, clip_exists, static_clip, tmp_path, capsys
    ):
        # two names of one file: the histogram would replace the metrics
        good, hard = tmp_path / "good.csv", tmp_path / "hard.csv"
        good.write_text("kept\n")
        try:
            os.link(good, hard)
        except OSError:
            pytest.skip("no hard links here")
        clip = static_clip if clip_exists else str(tmp_path / "missing.y4m")
        argv = ["analyze", clip, "-o", str(good), "--histogram", str(hard)]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gfstill: ") and captured.err.count("\n") == 1
        assert good.read_text() == "kept\n"


class TestAllocationFailure:
    """A MemoryError in any command is an input failure: exit 2, one stderr
    line and no output file.  The failing call is patched in: a frame large
    enough to fail for real takes gigabytes before numpy refuses it."""

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 71.1 TiB for an array"),
         "gfstill: Unable to allocate 71.1 TiB for an array\n"),
        (MemoryError(), "gfstill: MemoryError\n"),
    ])
    @pytest.mark.parametrize("command, name", [
        ("synth", "generate"),
        ("analyze", "plan_sequence"),
        ("plan", "plan_sequence"),
        ("quality", "sequence_quality"),
        ("bdrate", "bd_rate"),
    ])
    def test_is_input_error(
        self, command, name, exc, line, static_clip, tmp_path, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, fail)
        out = tmp_path / "out"
        curve = tmp_path / "rd.csv"
        curve.write_text(RD_BASE)
        argv = {
            "synth": [str(out), "--kind", "static"],
            "analyze": [static_clip, "-o", str(out)],
            "plan": [static_clip, "-o", str(out)],
            "quality": [static_clip, static_clip, "-o", str(out)],
            "bdrate": [str(curve), str(curve)],
        }[command]
        assert run(command, *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line
        assert not out.exists()


class TestDump:
    """The report writers, called on the library's data."""

    @staticmethod
    def _metrics(zm, ape, aes, interval=16):
        return GfGroupMetrics(interval, zm, ape, aes)

    @staticmethod
    def _histogram(metrics, bins) -> dict[str, list[tuple[float, float, int]]]:
        sink = io.StringIO()
        dump_metric_histograms(metrics, sink, bins=bins)
        table: dict[str, list[tuple[float, float, int]]] = {}
        for line in sink.getvalue().splitlines()[1:]:
            name, i, low, high, count = line.split(",")
            assert int(i) == len(table.setdefault(name, []))
            table[name].append((float(low), float(high), int(count)))
        return table

    def test_csv_layout_frozen(self):
        results = [
            GroupPlanResult(
                1, 1, self._metrics(1.0, 0.0, 0.0), "still", plan_group(16, "still")
            ),
            GroupPlanResult(
                2,
                17,
                self._metrics(0.25, 12.5, 3000.0, interval=9),
                "non-still",
                plan_group(9, "non-still"),
            ),
        ]
        sink = io.StringIO()
        dump_group_metrics(results, sink)
        assert sink.getvalue() == (
            "group_id,first_display_index,interval,zero_motion_accumulator,"
            "avg_pixel_error,avg_error_stdev,verdict\n"
            "1,1,16,1.000000,0.000000,0.000000,still\n"
            "2,17,9,0.250000,12.500000,3000.000000,non-still\n"
        )

    def test_empty_dump_is_header_only(self):
        sink = io.StringIO()
        dump_group_metrics([], sink)
        assert sink.getvalue().count("\n") == 1

    def test_histogram_counts_sum_to_group_count(self):
        metrics = [self._metrics(i / 20.0, i * 2.0, i * 50.0) for i in range(10)]
        table = self._histogram(metrics, bins=5)
        assert len(table) == 3
        for rows in table.values():
            assert sum(count for _, _, count in rows) == 10
            assert len(rows) == 5
            # 5 bins share 6 edges
            assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))

    def test_histogram_degenerate_range(self):
        table = self._histogram([self._metrics(0.5, 10.0, 100.0)] * 3, bins=4)
        for rows in table.values():
            assert sum(count for _, _, count in rows) == 3

    def test_histogram_csv_rows(self):
        metrics = [self._metrics(i / 20.0, i * 2.0, i * 50.0) for i in range(10)]
        sink = io.StringIO()
        dump_metric_histograms(metrics, sink, bins=5)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "metric,bin_index,bin_low,bin_high,count"
        assert len(lines) == 1 + 3 * 5

    # past the cap numpy is never asked for the bins
    @pytest.mark.parametrize("bins", [0, MAX_HISTOGRAM_BINS + 1, 10**13])
    def test_histogram_rejects_bad_bins(self, bins):
        sink = io.StringIO()
        with pytest.raises(ValueError):
            dump_metric_histograms([self._metrics(0.5, 1.0, 1.0)], sink, bins=bins)
        assert sink.getvalue() == ""

    def test_histogram_rejects_empty(self):
        with pytest.raises(ValueError):
            dump_metric_histograms([], io.StringIO(), bins=5)


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


class TestAllocatorPolicy:
    @pytest.mark.parametrize("libc", ["no-confstr-name", "not-glibc", "no-mallopt"])
    def test_other_platforms_are_skipped_silently(
        self, libc, static_clip, monkeypatch, capsys
    ):
        import ctypes

        from gfstill import cli

        def confstr(name):
            if libc == "no-confstr-name":
                raise ValueError("unrecognized configuration name")
            return None if libc == "not-glibc" else "glibc 2.36"

        monkeypatch.setattr(os, "confstr", confstr, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        cli._set_malloc_thresholds()
        assert run("analyze", static_clip) == 0
        assert capsys.readouterr().err.count("\n") == 1


# Runs one CLI command in a fresh interpreter, then reports which scipy
# modules that interpreter ended up holding.
_IMPORT_PROBE = """
import json, sys
from gfstill.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"exit": code, "scipy": loaded}))
"""


class TestImportFootprint:
    @pytest.mark.parametrize("command", ["quality", "plan"])
    def test_command_never_imports_scipy(self, command, static_clip, pan_clip, tmp_path):
        inputs = [static_clip, pan_clip] if command == "quality" else [pan_clip]
        env = child_env()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, command, *inputs,
             "-o", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report == {"exit": 0, "scipy": []}
