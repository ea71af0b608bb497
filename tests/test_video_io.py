from __future__ import annotations

import io

import numpy as np
import pytest

from gfstill import video_io
from gfstill.synth import SynthSpec, generate
from gfstill.video_io import (
    FramePlane,
    VideoSequence,
    Y4mError,
    write_y4m,
    y4m_frames,
    yuv_frames,
)

from conftest import NOT_LUMA, serialize_y4m


def _y4m_bytes(width, height, frames, colorspace=b"C420", extra=b" Ip A1:1"):
    header = b"YUV4MPEG2 W%d H%d F25:1%s %s\n" % (width, height, extra, colorspace)
    if colorspace == b"C444":
        cw, ch = width, height
    else:
        cw, ch = (width + 1) // 2, (height + 1) // 2
    body = b""
    for frame in frames:
        body += b"FRAME\n" + frame.tobytes() + bytes(cw * ch) + bytes(cw * ch)
    return header + body


def _frames(n, width=64, height=48, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, (height, width), dtype=np.uint8) for _ in range(n)]


class TestLoad:
    def test_basic_header_and_frames(self):
        frames = _frames(3)
        got = list(y4m_frames(_y4m_bytes(64, 48, frames)))
        assert [g.shape for g in got] == [(48, 64)] * 3
        for g, want in zip(got, frames):
            assert np.array_equal(g, want)

    def test_c444_luma(self):
        frames = _frames(2)
        got = list(y4m_frames(_y4m_bytes(64, 48, frames, colorspace=b"C444")))
        assert len(got) == 2
        assert np.array_equal(got[1], frames[1])

    def test_colorspace_defaults_to_420(self):
        frames = _frames(1)
        header = b"YUV4MPEG2 W64 H48 F30:1\n"
        body = b"FRAME\n" + frames[0].tobytes() + bytes(32 * 24) * 2
        (got,) = y4m_frames(header + body)
        assert np.array_equal(got, frames[0])

    def test_accepts_420_variants(self):
        for tag in (b"C420jpeg", b"C420mpeg2", b"C420paldv"):
            got = list(y4m_frames(_y4m_bytes(64, 48, _frames(1), colorspace=tag)))
            assert len(got) == 1

    def test_rejects_bad_signature(self):
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(b"YUV4MPEG9 W64 H48\n"))
        assert exc.value.offset == 0

    @pytest.mark.parametrize(
        "tag, chroma_bytes",
        # 33x17 luma: 4:2:2 halves the width only, rounding up; mono has
        # no chroma planes at all
        [(b"C422", 2 * 17 * 17), (b"Cmono", 0)],
        ids=["C422", "Cmono"],
    )
    def test_accepts_422_and_mono(self, tag, chroma_bytes):
        frames = _frames(2, width=33, height=17)
        data = b"YUV4MPEG2 W33 H17 F25:1 %s\n" % tag + b"".join(
            b"FRAME\n" + f.tobytes() + b"\x80" * chroma_bytes for f in frames
        )
        got = list(y4m_frames(data))
        assert len(got) == 2
        for g, want in zip(got, frames):
            assert np.array_equal(g, want)

    @pytest.mark.parametrize("tag", [b"C420p10", b"C444p12"])
    def test_rejects_unsupported_colorspace(self, tag):
        data = _y4m_bytes(64, 48, _frames(1), colorspace=tag)
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(data))
        assert b"YUV4MPEG2 " in data[: exc.value.offset + 1]
        assert exc.value.offset > 0

    def test_missing_dimensions(self):
        with pytest.raises(Y4mError):
            list(y4m_frames(b"YUV4MPEG2 F25:1 C420\nFRAME\n"))

    def test_malformed_width_token(self):
        with pytest.raises(Y4mError):
            list(y4m_frames(b"YUV4MPEG2 Wxx H48 F25:1\n"))

    def test_truncated_payload_reports_offset(self):
        data = _y4m_bytes(64, 48, _frames(1))
        clipped = data[:-100]
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(clipped))
        assert "truncated" in str(exc.value)
        # the offset points at the start of the bad payload
        assert clipped[exc.value.offset - 6 : exc.value.offset] == b"FRAME\n"

    def test_frame_marker_required(self):
        data = _y4m_bytes(64, 48, _frames(1))
        broken = data.replace(b"FRAME\n", b"FRAMX\n", 1)
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(broken))
        assert "FRAME" in str(exc.value)

    def test_frame_parameters_are_legal(self):
        frames = _frames(2)
        data = _y4m_bytes(64, 48, frames).replace(b"FRAME\n", b"FRAME Ip XY=1\n")
        got = list(y4m_frames(data))
        assert np.array_equal(got[1], frames[1])

    def test_header_only_means_no_frames(self):
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(b"YUV4MPEG2 W64 H48 F25:1 C420\n"))
        assert "no frames" in str(exc.value)

    def test_payload_spelling_frame_is_not_resynced(self):
        # a luma plane that contains the FRAME marker bytes must not
        # confuse the parser: frame boundaries come from arithmetic only
        frame = np.zeros((48, 64), np.uint8)
        marker = np.frombuffer(b"FRAME\n", np.uint8)
        frame.reshape(-1)[100 : 100 + marker.size] = marker
        got = list(y4m_frames(_y4m_bytes(64, 48, [frame, frame])))
        assert len(got) == 2

    def test_too_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            list(y4m_frames(_y4m_bytes(8, 8, [np.zeros((8, 8), np.uint8)])))

    @pytest.mark.parametrize(
        "token, message",
        [
            (b"W8", "width must be at least 16"),
            (b"H15", "height must be at least 16"),
            (b"W0", "width must be at least 16"),
            (b"F0:1", "frame rate must be a positive rational"),
            (b"F25:0", "frame rate must be a positive rational"),
            (b"F-30:1", "frame rate must be a positive rational"),
            # header numbers are ASCII digits; int() alone would read each
            # of these as 16 or 30
            (b"W1_6", "malformed header token"),
            (b"H+16", "malformed header token"),
            (b"H16\t", "malformed header token"),
            (b"F3_0:1", "malformed header token"),
            (b"F30:+1", "malformed header token"),
        ],
    )
    def test_bad_header_value_reports_token_offset(self, token, message):
        header = b"YUV4MPEG2 W64 H48 F25:1 C420\n"
        tag = token[:1]
        start = header.index(b" " + tag) + 1
        end = header.index(b" ", start)
        data = header[:start] + token + header[end:] + b"FRAME\n" + bytes(64 * 48 * 3 // 2)
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(data))
        assert message in str(exc.value)
        assert exc.value.offset == start
        assert data[exc.value.offset :].startswith(token)

    @pytest.mark.parametrize("rate", [b"F30000:1001", b"F1:1"])
    def test_any_positive_rational_rate_is_read(self, rate):
        frames = _frames(2)
        data = _y4m_bytes(64, 48, frames).replace(b"F25:1", rate, 1)
        got = list(y4m_frames(data))
        assert len(got) == 2
        assert np.array_equal(got[1], frames[1])

    def test_reads_from_stream_and_path(self, tmp_path):
        data = _y4m_bytes(64, 48, _frames(2))
        path = tmp_path / "clip.y4m"
        path.write_bytes(data)
        from_path = list(y4m_frames(path))
        from_stream = list(y4m_frames(io.BytesIO(data)))
        assert len(from_path) == len(from_stream) == 2


class TestStream:
    def test_each_frame_is_read_when_asked_for(self):
        frames = _frames(3)
        data = _y4m_bytes(64, 48, frames)
        stream = io.BytesIO(data)
        reader = y4m_frames(stream)
        assert stream.tell() == 0  # nothing is read before the first frame
        header = data.index(b"\n") + 1
        frame_bytes = len(b"FRAME\n") + 64 * 48 * 3 // 2
        for i, want in enumerate(frames, start=1):
            assert np.array_equal(next(reader), want)
            assert stream.tell() == header + i * frame_bytes
        assert next(reader, None) is None

    def test_an_error_comes_with_the_frame_it_is_in(self):
        frames = _frames(3)
        data = _y4m_bytes(64, 48, frames)
        reader = y4m_frames(data[:-1])
        assert np.array_equal(next(reader), frames[0])
        assert np.array_equal(next(reader), frames[1])
        with pytest.raises(Y4mError, match="truncated frame payload"):
            next(reader)

    @pytest.mark.parametrize("piece", [64, 1000, 1 << 24])
    def test_a_luma_plane_read_in_growing_arrays_keeps_every_byte_and_offset(
        self, piece, monkeypatch
    ):
        # below 3072 bytes, a luma plane is read into arrays that double
        monkeypatch.setattr(video_io, "_PIECE", piece)
        frames = _frames(2)
        data = _y4m_bytes(64, 48, frames)
        for got, want in zip(y4m_frames(data), frames):
            assert np.array_equal(got, want)
        blob = b"".join(f.tobytes() + bytes(32 * 24) * 2 for f in frames)
        assert all(
            np.array_equal(got, want) for got, want in zip(yuv_frames(blob, 64, 48), frames)
        )
        clipped = data[: len(data) - 3000]
        with pytest.raises(Y4mError) as exc:
            list(y4m_frames(clipped))
        offset = exc.value.offset
        got = len(clipped) - offset
        assert clipped[offset - 6 : offset] == b"FRAME\n"
        assert f"needed {64 * 48 * 3 // 2} bytes, got {got} " in str(exc.value)


class TestWrite:
    def test_round_trip_preserves_luma(self):
        frames = _frames(3, seed=7)
        data = serialize_y4m(frames)
        assert data.startswith(b"YUV4MPEG2 W64 H48 F30:1 ")
        back = list(y4m_frames(data))
        assert len(back) == 3
        for got, want in zip(back, frames):
            assert np.array_equal(got, want)

    def test_byte_count_matches_layout(self):
        buf = io.BytesIO()
        written = write_y4m([np.full((16, 16), 128, np.uint8)], buf)
        header = b"YUV4MPEG2 W16 H16 F30:1 Ip A0:0 C420\n"
        assert written == len(header) + 6 + 16 * 16 + 2 * (8 * 8)
        assert written == len(buf.getvalue())
        assert buf.getvalue().startswith(header)

    def test_writes_neutral_chroma(self):
        data = serialize_y4m([np.zeros((16, 16), np.uint8)])
        chroma = data[-128:]
        assert chroma == bytes([128]) * 128

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "out.y4m"
        count = write_y4m(_frames(1), path)
        assert path.stat().st_size == count

    def test_a_sequence_a_list_and_a_generator_write_the_same_bytes(self):
        seq = generate(SynthSpec("pan", width=176, height=144, frame_count=16, amplitude=4.0))
        arrays = list(seq)
        written = [serialize_y4m(seq), serialize_y4m(arrays), serialize_y4m(iter(arrays))]
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize(
        "frames, message",
        [
            (
                [np.zeros((48, 64), np.uint8), np.zeros((48, 32), np.uint8)],
                "frame 1 is 32x48, expected 64x48",
            ),
            ([], "no frames"),
            (iter([]), "no frames"),
            ([np.zeros((48, 64), np.uint8), np.zeros((48, 64), np.int16)], "2-D uint8"),
        ],
        ids=["mixed-sizes", "empty", "empty-generator", "int16"],
    )
    def test_bad_frames_are_refused_before_the_file_is_made(
        self, tmp_path, frames, message
    ):
        path = tmp_path / "out.y4m"
        with pytest.raises(ValueError, match=message):
            write_y4m(frames, path)
        assert not path.exists()


class TestRawYuv:
    def test_basic_420(self):
        frames = _frames(2)
        blob = b"".join(f.tobytes() + bytes(32 * 24) * 2 for f in frames)
        planes = list(yuv_frames(blob, 64, 48))
        assert len(planes) == 2
        assert np.array_equal(planes[0], frames[0])

    def test_basic_444(self):
        frames = _frames(1)
        blob = frames[0].tobytes() + bytes(64 * 48) * 2
        (plane,) = yuv_frames(blob, 64, 48, chroma="444")
        assert np.array_equal(plane, frames[0])

    def test_truncated(self):
        blob = _frames(1)[0].tobytes()  # luma only, chroma missing
        with pytest.raises(Y4mError):
            list(yuv_frames(blob, 64, 48))

    def test_empty(self):
        with pytest.raises(Y4mError):
            list(yuv_frames(b"", 64, 48))

    def test_unknown_chroma(self):
        with pytest.raises(ValueError):
            list(yuv_frames(b"\x00" * 100, 64, 48, chroma="422"))


class TestTypes:
    def test_frame_plane_rejects_small(self):
        for shape in ((8, 8), (15, 64), (48, 15)):
            with pytest.raises(ValueError, match="at least 16x16"):
                FramePlane(np.zeros(shape, np.uint8))

    def test_frame_plane_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="2-D uint8"):
            FramePlane(np.full((16, 16), 300, np.int32))

    @pytest.mark.parametrize("bad", NOT_LUMA)
    def test_frame_plane_rejects_non_luma(self, bad):
        # no cast and no reshape: a flat buffer or an in-range int32 plane
        # is refused like an out-of-range one
        with pytest.raises(ValueError, match="2-D uint8"):
            FramePlane(bad)

    def test_frame_plane_keeps_the_array(self):
        samples = np.zeros((48, 64), np.uint8)
        assert FramePlane(samples).samples is samples

    def test_sequence_iterates_over_its_arrays(self):
        frames = [FramePlane(f) for f in _frames(3)]
        seq = VideoSequence(frames)
        got = list(seq)
        assert len(got) == 3
        assert all(g is f.samples for g, f in zip(got, frames))
        assert list(seq) == got  # a container, not a one-shot reader

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            VideoSequence([])

    def test_sequence_rejects_mixed_sizes(self):
        a = FramePlane(np.zeros((48, 64), np.uint8))
        b = FramePlane(np.zeros((48, 32), np.uint8))
        with pytest.raises(ValueError, match="frame 1 is 32x48, expected 64x48"):
            VideoSequence([a, b])

    def test_sequence_cannot_change_once_made(self):
        # each change once made write_y4m write a file y4m_frames refused
        a = FramePlane(np.zeros((16, 16), np.uint8))
        seq = VideoSequence([a, a])
        assert seq.frames == (a, a)
        with pytest.raises(AttributeError):
            seq.frames = (a, a, a)
        with pytest.raises(AttributeError):
            seq.frames.append(FramePlane(np.zeros((32, 32), np.uint8)))
        with pytest.raises(AttributeError):
            a.samples = np.zeros((32, 32), np.uint8)
        assert seq.frames == (a, a)
        assert len(list(y4m_frames(serialize_y4m(seq)))) == 2
