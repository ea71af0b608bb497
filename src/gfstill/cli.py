"""Command line front end.

Machine-readable results (CSV, JSON) go to the requested output or stdout;
anything meant for a human goes to stderr.  Every report's format is decided
here: the library returns data, and the writers below print it.  Exit codes:
0 success, 1 usage, 2 input/parse/allocation failure, 3 internal validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .first_pass import BLOCK_SIZES, SEARCH_KINDS, SearchConfig
from .gop_planner import (
    MAX_GROUP_INTERVAL,
    GroupPlanResult,
    check_intervals,
    plan_sequence,
    validate_plan,
)
from .quality import bd_rate, load_rd_csv, sequence_quality
from .stillness import METRIC_NAMES, STILL, GfGroupMetrics, StillnessThresholds
from .synth import SYNTH_KINDS, SynthSpec, generate
from .video_io import RAW_CHROMA, Y4mError, write_y4m, y4m_frames, yuv_frames

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

DEFAULT_HISTOGRAM_BINS = 20
# numpy tries to allocate whatever bin count it is given, and a clip has a few
# groups a second, so more bins than this only cost memory
MAX_HISTOGRAM_BINS = 10_000


class PlanValidationError(RuntimeError):
    pass


class UsageError(ValueError):
    """A syntactically valid flag carrying a semantically invalid value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for input
    # failures, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    cfg = SearchConfig()
    p.add_argument("--block-size", type=int, default=cfg.block_size, choices=BLOCK_SIZES)
    p.add_argument("--search-range", type=int, default=cfg.search_range)
    p.add_argument("--search-kind", default=cfg.search_kind, choices=SEARCH_KINDS)
    p.add_argument(
        "--target-interval",
        type=int,
        default=MAX_GROUP_INTERVAL,
        help="frames per golden-frame group before remainder handling",
    )
    p.add_argument("--key-interval", type=int, default=None)
    t = StillnessThresholds()
    p.add_argument(
        "--zm-min", type=float, default=t.zero_motion_min, help="zero-motion floor"
    )
    p.add_argument(
        "--ape-max", type=float, default=t.pixel_error_max, help="pixel-error ceiling"
    )
    p.add_argument(
        "--aes-max", type=float, default=t.error_stdev_max, help="error-spread ceiling"
    )
    p.add_argument("--width", type=int, default=None, help="raw .yuv width")
    p.add_argument("--height", type=int, default=None, help="raw .yuv height")
    # None means not given: Y4M input rejects the flag, raw input defaults it
    p.add_argument("--chroma", default=None, choices=RAW_CHROMA)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gfstill", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-group stillness metrics CSV")
    p.add_argument("input", help="Y4M or raw .yuv clip; - reads standard input")
    p.add_argument("-o", "--output", default=None, help="- writes standard output")
    p.add_argument(
        "--histogram", default=None, help="also write histogram CSV here; - is stdout"
    )
    p.add_argument(
        "--hist-bins", type=int, default=DEFAULT_HISTOGRAM_BINS, help="histogram bins"
    )
    _add_analysis_flags(p)

    p = sub.add_parser("plan", help="group coding-structure plans as JSON")
    p.add_argument("input", help="Y4M or raw .yuv clip; - reads standard input")
    p.add_argument("-o", "--output", default=None, help="- writes standard output")
    _add_analysis_flags(p)

    p = sub.add_parser("quality", help="per-frame PSNR/SSIM CSV")
    p.add_argument("reference", help="Y4M clip; - reads standard input")
    p.add_argument("distorted", help="Y4M clip; - reads standard input")
    p.add_argument("-o", "--output", default=None, help="- writes standard output")

    p = sub.add_parser("bdrate", help="BD-rate between two RD CSV files")
    p.add_argument("base")
    p.add_argument("test")

    p = sub.add_parser("synth", help="write a deterministic synthetic Y4M clip")
    p.add_argument("output", help="- writes standard output")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--width", type=int, default=SynthSpec.width)
    p.add_argument("--height", type=int, default=SynthSpec.height)
    p.add_argument("--frames", type=int, default=SynthSpec.frame_count)
    p.add_argument("--amplitude", type=float, default=SynthSpec.amplitude)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)

    return parser


def _source(path: str):
    return sys.stdin.buffer if path == "-" else path


def _input_frames(path: str, args) -> Iterator[np.ndarray]:
    source = _source(path)
    raw_flags = args.width is not None or args.height is not None
    if path.endswith(".yuv") or raw_flags:
        if args.width is None or args.height is None:
            raise UsageError("raw input needs both --width and --height")
        chroma = args.chroma or RAW_CHROMA[0]
        return yuv_frames(source, args.width, args.height, chroma)
    if args.chroma is not None:
        raise UsageError("--chroma applies only to raw input; Y4M names its own")
    return y4m_frames(source)


@contextmanager
def _output(path: str | None, mode: str):
    """`path` opened for writing in `mode`; None and `-` are standard output."""
    if path is None or path == "-":
        yield sys.stdout.buffer if "b" in mode else sys.stdout
    else:
        with open(path, mode, newline=None if "b" in mode else "") as out:
            yield out


def _same_file(a: str | None, b: str | None) -> bool:
    """True when outputs `a` and `b` (None or `-` is standard output) write one
    file: one resolved path, or one existing regular file (a pipe is none)."""
    a, b = (None if p == "-" else p for p in (a, b))
    if a == b or (None not in (a, b) and os.path.realpath(a) == os.path.realpath(b)):
        return True
    try:
        stats = [os.fstat(1) if p is None else os.stat(p) for p in (a, b)]
    except OSError:
        return False
    return all(stat.S_ISREG(s.st_mode) for s in stats) and os.path.samestat(*stats)


def _analysed_groups(args) -> list[GroupPlanResult]:
    # every flag is checked before the input is read
    try:
        cfg = SearchConfig(
            block_size=args.block_size,
            search_range=args.search_range,
            search_kind=args.search_kind,
        )
        thresholds = StillnessThresholds(
            zero_motion_min=args.zm_min,
            pixel_error_max=args.ape_max,
            error_stdev_max=args.aes_max,
        )
        check_intervals(args.target_interval, args.key_interval)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    results = plan_sequence(
        _input_frames(args.input, args),
        cfg,
        thresholds,
        target_interval=args.target_interval,
        key_interval=args.key_interval,
    )
    bs = SearchConfig.block_size
    if cfg.block_size != bs and thresholds == StillnessThresholds():
        print(
            f"warning: default thresholds were calibrated for {bs}x{bs} blocks; "
            "recalibrate before trusting verdicts",
            file=sys.stderr,
        )
    return results


def _write_csv(sink: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def dump_group_metrics(results: Sequence[GroupPlanResult], sink: IO[str]) -> None:
    """Write the per-group calibration CSV, one row per planned group."""
    header = ("group_id", "first_display_index", "interval", *METRIC_NAMES, "verdict")
    rows = []
    for r in results:
        metrics = (f"{getattr(r.metrics, name):.6f}" for name in METRIC_NAMES)
        row = (r.group_id, r.start_display, r.metrics.interval, *metrics, r.verdict)
        rows.append(row)
    _write_csv(sink, header, rows)


def dump_metric_histograms(
    metrics: Sequence[GfGroupMetrics],
    sink: IO[str],
    bins: int = DEFAULT_HISTOGRAM_BINS,
) -> None:
    """Write a fixed-bin histogram of each metric as CSV rows, its bounds
    taken from the data."""
    if not 1 <= bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(f"bins must lie in [1, {MAX_HISTOGRAM_BINS}]")
    if not metrics:
        raise ValueError("no metrics to histogram")
    rows = []
    for name in METRIC_NAMES:
        counts, edges = np.histogram([getattr(m, name) for m in metrics], bins=bins)
        rows += (
            (name, i, f"{edges[i]:.6f}", f"{edges[i + 1]:.6f}", int(c))
            for i, c in enumerate(counts)
        )
    _write_csv(sink, ("metric", "bin_index", "bin_low", "bin_high", "count"), rows)


def plans_to_json(results: Sequence[GroupPlanResult]) -> list[dict]:
    """JSON-ready structure plans, one object per group."""
    return [
        {
            "group_id": r.group_id,
            "start_display_index": r.start_display,
            "interval": r.plan.interval,
            "verdict": r.verdict,
            "structure": r.plan.structure,
            "metrics": asdict(r.metrics),
            "entries": [asdict(e) for e in r.plan.entries],
        }
        for r in results
    ]


def _summarise(results: list[GroupPlanResult]) -> str:
    still = sum(1 for r in results if r.verdict == STILL)
    return f"{len(results)} group(s): {still} still, {len(results) - still} non-still"


def cmd_analyze(args) -> int:
    # checked before the input is read, so a bad value or a clash writes nothing
    if not 1 <= args.hist_bins <= MAX_HISTOGRAM_BINS:
        raise UsageError(f"--hist-bins must lie in [1, {MAX_HISTOGRAM_BINS}]")
    wants_hist = args.histogram is not None
    if wants_hist and _same_file(args.histogram, args.output):
        raise UsageError("--histogram names the file the CSV goes to")
    results = _analysed_groups(args)
    # the histogram is built before any output is opened, and the sidecar
    # opens first, so neither a failed build nor a bad path writes anything
    hist = io.StringIO()
    if wants_hist:
        dump_metric_histograms([r.metrics for r in results], hist, args.hist_bins)
    hist_file = _output(args.histogram, "w") if wants_hist else nullcontext()
    with hist_file as hist_out, _output(args.output, "w") as out:
        dump_group_metrics(results, out)
        if wants_hist:
            hist_out.write(hist.getvalue())
    print(_summarise(results), file=sys.stderr)
    return EXIT_OK


def cmd_plan(args) -> int:
    results = _analysed_groups(args)
    for r in results:
        violations = validate_plan(r.plan)
        if violations:
            details = "; ".join(v.message for v in violations)
            raise PlanValidationError(
                f"group {r.group_id} produced an invalid plan: {details}"
            )
    with _output(args.output, "w") as out:
        json.dump(plans_to_json(results), out, indent=2)
        out.write("\n")
    print(_summarise(results), file=sys.stderr)
    return EXIT_OK


def cmd_quality(args) -> int:
    if args.reference == args.distorted == "-":
        raise UsageError("standard input can feed only one of the two clips")
    psnr_db, ssim = sequence_quality(
        y4m_frames(_source(args.reference)), y4m_frames(_source(args.distorted))
    )
    mean_psnr_db = math.fsum(psnr_db) / len(psnr_db)
    mean_ssim = math.fsum(ssim) / len(ssim)
    rows = [(i, f"{p:.6f}", f"{s:.8f}") for i, (p, s) in enumerate(zip(psnr_db, ssim))]
    rows.append(("mean", f"{mean_psnr_db:.6f}", f"{mean_ssim:.8f}"))
    with _output(args.output, "w") as out:
        _write_csv(out, ("frame", "psnr_db", "ssim"), rows)
    print(
        f"{len(psnr_db)} frame(s): mean PSNR {mean_psnr_db:.3f} dB, "
        f"mean SSIM {mean_ssim:.5f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_bdrate(args) -> int:
    base = load_rd_csv(args.base)
    test = load_rd_csv(args.test)
    value = bd_rate(base, test)
    text = f"{value:.3f}"
    if text == "-0.000":
        text = "0.000"
    print(text)
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        spec = SynthSpec(
            kind=args.kind,
            width=args.width,
            height=args.height,
            frame_count=args.frames,
            amplitude=args.amplitude,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sequence = generate(spec)
    with _output(args.output, "wb") as out:
        written = write_y4m(sequence, out)
    print(
        f"wrote {args.frames} frame(s) ({written} bytes) to {args.output}",
        file=sys.stderr,
    )
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "plan": cmd_plan,
    "quality": cmd_quality,
    "bdrate": cmd_bdrate,
    "synth": cmd_synth,
}


# glibc's malloc serves a block of at least M_MMAP_THRESHOLD bytes by mmap and
# returns the top of the heap to the system once it exceeds M_TRIM_THRESHOLD.
# Both start at 128 KiB and rise only when a large mmapped block is freed.  The
# first pass and SSIM allocate numpy temporaries of a few hundred KiB per call,
# so at the start values each call maps and page-faults them afresh.  On one
# CPU of a 2-CPU x86-64 Linux host, the 32 first-pass calls of a 33-frame CIF
# pan took 19,474 minor faults and 158-182 ms, against 691 and 95-129 ms with
# these thresholds; SSIM over 33 CIF pairs took 27,766 faults and 492-543 ms,
# against 328 and 271-457 ms.  These are the values glibc itself sets after it
# frees a 32 MiB block.
def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; do nothing on any other libc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not glibc:
        return
    import ctypes  # already loaded by numpy

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _set_malloc_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"gfstill: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PlanValidationError as exc:
        print(f"gfstill: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (Y4mError, OSError, ValueError, MemoryError) as exc:
        # one without a message, as a bare MemoryError, is named by its type
        print(f"gfstill: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
