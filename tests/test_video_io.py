from __future__ import annotations

import io

import numpy as np
import pytest

from gfstill.video_io import (
    FramePlane,
    VideoSequence,
    Y4mError,
    load_y4m,
    load_yuv,
    write_y4m,
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
        seq = load_y4m(_y4m_bytes(64, 48, frames))
        assert (seq.width, seq.height) == (64, 48)
        assert len(seq.frames) == 3
        assert seq.frame_rate == (25, 1)
        for got, want in zip(seq.frames, frames):
            assert np.array_equal(got.samples, want)

    def test_c444_luma(self):
        frames = _frames(2)
        seq = load_y4m(_y4m_bytes(64, 48, frames, colorspace=b"C444"))
        assert len(seq.frames) == 2
        assert np.array_equal(seq.frames[1].samples, frames[1])

    def test_colorspace_defaults_to_420(self):
        frames = _frames(1)
        header = b"YUV4MPEG2 W64 H48 F30:1\n"
        body = b"FRAME\n" + frames[0].tobytes() + bytes(32 * 24) * 2
        seq = load_y4m(header + body)
        assert np.array_equal(seq.frames[0].samples, frames[0])

    def test_accepts_420_variants(self):
        for tag in (b"C420jpeg", b"C420mpeg2", b"C420paldv"):
            seq = load_y4m(_y4m_bytes(64, 48, _frames(1), colorspace=tag))
            assert len(seq.frames) == 1

    def test_rejects_bad_signature(self):
        with pytest.raises(Y4mError) as exc:
            load_y4m(b"YUV4MPEG9 W64 H48\n")
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
        seq = load_y4m(data)
        assert len(seq.frames) == 2
        for got, want in zip(seq.frames, frames):
            assert np.array_equal(got.samples, want)

    @pytest.mark.parametrize("tag", [b"C420p10", b"C444p12"])
    def test_rejects_unsupported_colorspace(self, tag):
        data = _y4m_bytes(64, 48, _frames(1), colorspace=tag)
        with pytest.raises(Y4mError) as exc:
            load_y4m(data)
        assert b"YUV4MPEG2 " in data[: exc.value.offset + 1]
        assert exc.value.offset > 0

    def test_missing_dimensions(self):
        with pytest.raises(Y4mError):
            load_y4m(b"YUV4MPEG2 F25:1 C420\nFRAME\n")

    def test_malformed_width_token(self):
        with pytest.raises(Y4mError):
            load_y4m(b"YUV4MPEG2 Wxx H48 F25:1\n")

    def test_truncated_payload_reports_offset(self):
        data = _y4m_bytes(64, 48, _frames(1))
        clipped = data[:-100]
        with pytest.raises(Y4mError) as exc:
            load_y4m(clipped)
        assert "truncated" in str(exc.value)
        # the offset points at the start of the bad payload
        assert clipped[exc.value.offset - 6 : exc.value.offset] == b"FRAME\n"

    def test_frame_marker_required(self):
        data = _y4m_bytes(64, 48, _frames(1))
        broken = data.replace(b"FRAME\n", b"FRAMX\n", 1)
        with pytest.raises(Y4mError) as exc:
            load_y4m(broken)
        assert "FRAME" in str(exc.value)

    def test_frame_parameters_are_legal(self):
        frames = _frames(2)
        data = _y4m_bytes(64, 48, frames).replace(b"FRAME\n", b"FRAME Ip XY=1\n")
        seq = load_y4m(data)
        assert np.array_equal(seq.frames[1].samples, frames[1])

    def test_header_only_means_no_frames(self):
        with pytest.raises(Y4mError) as exc:
            load_y4m(b"YUV4MPEG2 W64 H48 F25:1 C420\n")
        assert "no frames" in str(exc.value)

    def test_payload_spelling_frame_is_not_resynced(self):
        # a luma plane that contains the FRAME marker bytes must not
        # confuse the parser: frame boundaries come from arithmetic only
        frame = np.zeros((48, 64), np.uint8)
        marker = np.frombuffer(b"FRAME\n", np.uint8)
        frame.reshape(-1)[100 : 100 + marker.size] = marker
        seq = load_y4m(_y4m_bytes(64, 48, [frame, frame]))
        assert len(seq.frames) == 2

    def test_too_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            load_y4m(_y4m_bytes(8, 8, [np.zeros((8, 8), np.uint8)]))

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
            load_y4m(data)
        assert message in str(exc.value)
        assert exc.value.offset == start
        assert data[exc.value.offset :].startswith(token)

    def test_reads_from_stream_and_path(self, tmp_path):
        data = _y4m_bytes(64, 48, _frames(2))
        path = tmp_path / "clip.y4m"
        path.write_bytes(data)
        from_path = load_y4m(path)
        from_stream = load_y4m(io.BytesIO(data))
        assert len(from_path.frames) == len(from_stream.frames) == 2


class TestWrite:
    def test_round_trip_preserves_luma(self):
        frames = [FramePlane(f) for f in _frames(3, seed=7)]
        seq = VideoSequence(frames, frame_rate=(24, 1))
        back = load_y4m(serialize_y4m(seq))
        assert back.frame_rate == (24, 1)
        assert len(back.frames) == 3
        for got, want in zip(back.frames, seq.frames):
            assert np.array_equal(got.samples, want.samples)

    def test_byte_count_matches_layout(self):
        plane = FramePlane(np.full((16, 16), 128, np.uint8))
        seq = VideoSequence([plane])
        buf = io.BytesIO()
        written = write_y4m(seq, buf)
        header = b"YUV4MPEG2 W16 H16 F30:1 Ip A0:0 C420\n"
        assert written == len(header) + 6 + 16 * 16 + 2 * (8 * 8)
        assert written == len(buf.getvalue())
        assert buf.getvalue().startswith(header)

    def test_writes_neutral_chroma(self):
        plane = FramePlane(np.zeros((16, 16), np.uint8))
        data = serialize_y4m(VideoSequence([plane]))
        chroma = data[-128:]
        assert chroma == bytes([128]) * 128

    def test_write_to_path(self, tmp_path):
        seq = VideoSequence([FramePlane(f) for f in _frames(1)])
        path = tmp_path / "out.y4m"
        count = write_y4m(seq, path)
        assert path.stat().st_size == count


class TestRawYuv:
    def test_basic_420(self):
        frames = _frames(2)
        blob = b"".join(f.tobytes() + bytes(32 * 24) * 2 for f in frames)
        seq = load_yuv(blob, 64, 48)
        assert len(seq.frames) == 2
        assert np.array_equal(seq.frames[0].samples, frames[0])

    def test_basic_444(self):
        frames = _frames(1)
        blob = frames[0].tobytes() + bytes(64 * 48) * 2
        seq = load_yuv(blob, 64, 48, chroma="444")
        assert np.array_equal(seq.frames[0].samples, frames[0])

    def test_truncated(self):
        blob = _frames(1)[0].tobytes()  # luma only, chroma missing
        with pytest.raises(Y4mError):
            load_yuv(blob, 64, 48)

    def test_empty(self):
        with pytest.raises(Y4mError):
            load_yuv(b"", 64, 48)

    def test_unknown_chroma(self):
        with pytest.raises(ValueError):
            load_yuv(b"\x00" * 100, 64, 48, chroma="422")


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

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            VideoSequence([])

    def test_sequence_rejects_mixed_sizes(self):
        a = FramePlane(np.zeros((48, 64), np.uint8))
        b = FramePlane(np.zeros((48, 32), np.uint8))
        with pytest.raises(ValueError, match="frame 1 is 32x48, expected 64x48"):
            VideoSequence([a, b])

    def test_sequence_rejects_bad_rate(self):
        a = FramePlane(np.zeros((48, 64), np.uint8))
        with pytest.raises(ValueError):
            VideoSequence([a], frame_rate=(0, 1))

    @pytest.mark.parametrize("rate", [(30.5, 1), ("30", "1"), (30, 1.0)])
    def test_sequence_rejects_a_rate_that_is_not_integers(self, rate):
        # write_y4m wrote F30.5:1, which load_y4m refuses
        a = FramePlane(np.zeros((48, 64), np.uint8))
        with pytest.raises(ValueError, match="^frame rate term must be an integer$"):
            VideoSequence([a], frame_rate=rate)

    @pytest.mark.parametrize(
        "rate, stored", [((True, 1), (1, 1)), ((np.int64(25), 1), (25, 1))]
    )
    def test_sequence_rate_is_stored_as_ints_and_round_trips(self, rate, stored):
        # True was written as FTrue:1
        a = FramePlane(np.zeros((48, 64), np.uint8))
        seq = VideoSequence([a, a], frame_rate=rate)
        assert seq.frame_rate == stored
        assert all(type(term) is int for term in seq.frame_rate)
        assert load_y4m(serialize_y4m(seq)).frame_rate == stored
