"""Command line front end.

Machine-readable results (CSV, JSON) go to the requested output or stdout;
anything meant for a human goes to stderr.  Exit codes: 0 success, 1 usage,
2 input/parse failure, 3 internal validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager, nullcontext

from .first_pass import BLOCK_SIZES, SEARCH_KINDS, SearchConfig
from .gop_planner import (
    MAX_GROUP_INTERVAL,
    GroupPlanResult,
    check_intervals,
    dump_group_metrics,
    plan_sequence,
    plans_to_json,
    validate_plan,
)
from .quality import bd_rate, load_rd_csv, sequence_quality
from .stillness import (
    DEFAULT_HISTOGRAM_BINS,
    STILL,
    StillnessThresholds,
    dump_metric_histograms,
)
from .synth import SYNTH_KINDS, SynthSpec, generate
from .video_io import RAW_CHROMA, VideoSequence, Y4mError, load_y4m, load_yuv, write_y4m

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


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

    p = sub.add_parser("analyze", parents=[], help="per-group stillness metrics CSV")
    p.add_argument("input", help="Y4M or raw .yuv clip; - reads standard input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--histogram", default=None, help="also write histogram CSV here")
    p.add_argument(
        "--hist-bins", type=int, default=DEFAULT_HISTOGRAM_BINS, help="histogram bins"
    )
    _add_analysis_flags(p)

    p = sub.add_parser("plan", help="group coding-structure plans as JSON")
    p.add_argument("input", help="Y4M or raw .yuv clip; - reads standard input")
    p.add_argument("-o", "--output", default=None)
    _add_analysis_flags(p)

    p = sub.add_parser("quality", help="per-frame PSNR/SSIM CSV")
    p.add_argument("reference", help="Y4M clip; - reads standard input")
    p.add_argument("distorted", help="Y4M clip; - reads standard input")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bdrate", help="BD-rate between two RD CSV files")
    p.add_argument("base")
    p.add_argument("test")

    p = sub.add_parser("synth", help="write a deterministic synthetic Y4M clip")
    p.add_argument("output")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--width", type=int, default=SynthSpec.width)
    p.add_argument("--height", type=int, default=SynthSpec.height)
    p.add_argument("--frames", type=int, default=SynthSpec.frame_count)
    p.add_argument("--amplitude", type=float, default=SynthSpec.amplitude)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)

    return parser


def _source(path: str):
    return sys.stdin.buffer if path == "-" else path


def _load_sequence(path: str, args) -> VideoSequence:
    source = _source(path)
    raw_flags = args.width is not None or args.height is not None
    if path.endswith(".yuv") or raw_flags:
        if args.width is None or args.height is None:
            raise UsageError("raw input needs both --width and --height")
        chroma = args.chroma or RAW_CHROMA[0]
        return load_yuv(source, args.width, args.height, chroma)
    if args.chroma is not None:
        raise UsageError("--chroma applies only to raw input; Y4M names its own")
    return load_y4m(source)


@contextmanager
def _output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


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
    sequence = _load_sequence(args.input, args)
    bs = SearchConfig.block_size
    if cfg.block_size != bs and thresholds == StillnessThresholds():
        print(
            f"warning: default thresholds were calibrated for {bs}x{bs} blocks; "
            "recalibrate before trusting verdicts",
            file=sys.stderr,
        )
    return plan_sequence(
        sequence,
        cfg,
        thresholds,
        target_interval=args.target_interval,
        key_interval=args.key_interval,
    )


def _summarise(results: list[GroupPlanResult]) -> str:
    still = sum(1 for r in results if r.verdict == STILL)
    return f"{len(results)} group(s): {still} still, {len(results) - still} non-still"


def cmd_analyze(args) -> int:
    if args.hist_bins < 1:
        raise UsageError("--hist-bins must be >= 1")
    results = _analysed_groups(args)
    # the sidecar opens first, so a bad path fails before any output is written
    hist = open(args.histogram, "w", newline="") if args.histogram else nullcontext()
    with hist as hist_out, _output(args.output) as out:
        dump_group_metrics(results, out)
        if args.histogram:
            dump_metric_histograms(
                [r.metrics for r in results], hist_out, bins=args.hist_bins
            )
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
    with _output(args.output) as out:
        json.dump(plans_to_json(results), out, indent=2)
        out.write("\n")
    print(_summarise(results), file=sys.stderr)
    return EXIT_OK


def cmd_quality(args) -> int:
    if args.reference == args.distorted == "-":
        raise UsageError("standard input can feed only one of the two clips")
    ref = load_y4m(_source(args.reference))
    dist = load_y4m(_source(args.distorted))
    psnr_db, ssim = sequence_quality(
        [f.samples for f in ref.frames], [f.samples for f in dist.frames]
    )
    mean_psnr_db = math.fsum(psnr_db) / len(psnr_db)
    mean_ssim = math.fsum(ssim) / len(ssim)
    with _output(args.output) as out:
        out.write("frame,psnr_db,ssim\n")
        for i, (p, s) in enumerate(zip(psnr_db, ssim)):
            out.write(f"{i},{p:.6f},{s:.8f}\n")
        out.write(f"mean,{mean_psnr_db:.6f},{mean_ssim:.8f}\n")
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
    written = write_y4m(sequence, args.output)
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


def main(argv: list[str] | None = None) -> int:
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
    except (Y4mError, OSError, ValueError) as exc:
        print(f"gfstill: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
