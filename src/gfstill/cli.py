"""Command line front end.

Machine-readable results (CSV, JSON) go to the requested output or stdout;
anything meant for a human goes to stderr.  Exit codes: 0 success, 1 usage,
2 input/parse failure, 3 internal validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .first_pass import BLOCK_SIZES, SEARCH_KINDS, SearchConfig
from .gop_planner import (
    MAX_GROUP_INTERVAL,
    MIN_GROUP_INTERVAL,
    GroupPlanResult,
    plan_sequence,
    plans_to_json,
    validate_plan,
)
from .quality import bd_rate, load_rd_csv, sequence_quality
from .stillness import (
    DEFAULT_HISTOGRAM_BINS,
    StillnessThresholds,
    dump_group_metrics,
    dump_metric_histograms,
)
from .synth import SYNTH_KINDS, SynthSpec, generate
from .video_io import VideoSequence, Y4mError, load_y4m, load_yuv, write_y4m

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
    p.add_argument("--block-size", type=int, default=16, choices=BLOCK_SIZES)
    p.add_argument("--search-range", type=int, default=8)
    p.add_argument("--search-kind", default="exhaustive", choices=SEARCH_KINDS)
    p.add_argument(
        "--target-interval",
        type=int,
        default=MAX_GROUP_INTERVAL,
        help="frames per golden-frame group before remainder handling",
    )
    p.add_argument("--key-interval", type=int, default=None)
    p.add_argument("--zm-min", type=float, default=None, help="zero-motion floor")
    p.add_argument("--ape-max", type=float, default=None, help="pixel-error ceiling")
    p.add_argument(
        "--aes-max", type=float, default=None, help="error-spread ceiling"
    )
    p.add_argument("--width", type=int, default=None, help="raw .yuv width")
    p.add_argument("--height", type=int, default=None, help="raw .yuv height")
    p.add_argument("--chroma", default="420", choices=("420", "444"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gfstill", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="per-group stillness metrics CSV")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--histogram", default=None, help="also write histogram CSV here")
    p.add_argument(
        "--hist-bins", type=int, default=DEFAULT_HISTOGRAM_BINS, help="histogram bins"
    )
    _add_analysis_flags(p)

    p = sub.add_parser("plan", help="group coding-structure plans as JSON")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    _add_analysis_flags(p)

    p = sub.add_parser("quality", help="per-frame PSNR/SSIM CSV")
    p.add_argument("reference")
    p.add_argument("distorted")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bdrate", help="BD-rate between two RD CSV files")
    p.add_argument("base")
    p.add_argument("test")

    p = sub.add_parser("synth", help="write a deterministic synthetic Y4M clip")
    p.add_argument("output")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--width", type=int, default=176)
    p.add_argument("--height", type=int, default=144)
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _thresholds_from(args) -> StillnessThresholds:
    defaults = StillnessThresholds()
    return StillnessThresholds(
        zero_motion_min=args.zm_min if args.zm_min is not None else defaults.zero_motion_min,
        pixel_error_max=args.ape_max if args.ape_max is not None else defaults.pixel_error_max,
        error_stdev_max=args.aes_max if args.aes_max is not None else defaults.error_stdev_max,
    )


def _load_sequence(path: str, args) -> VideoSequence:
    raw_flags = args.width is not None or args.height is not None
    if path.endswith(".yuv") or raw_flags:
        if args.width is None or args.height is None:
            raise UsageError("raw input needs both --width and --height")
        return load_yuv(path, args.width, args.height, args.chroma)
    return load_y4m(path)


def _open_output(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _analysed_groups(args) -> tuple[list[GroupPlanResult], VideoSequence]:
    try:
        cfg = SearchConfig(
            block_size=args.block_size,
            search_range=args.search_range,
            search_kind=args.search_kind,
        )
        thresholds = _thresholds_from(args)
        if not MIN_GROUP_INTERVAL <= args.target_interval <= MAX_GROUP_INTERVAL:
            raise ValueError(
                f"--target-interval must lie in "
                f"[{MIN_GROUP_INTERVAL}, {MAX_GROUP_INTERVAL}]"
            )
        if args.key_interval is not None and args.key_interval < 2:
            raise ValueError("--key-interval must be >= 2")
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sequence = _load_sequence(args.input, args)
    if cfg.block_size != 16 and thresholds == StillnessThresholds():
        print(
            "warning: default thresholds were calibrated for 16x16 blocks; "
            "recalibrate before trusting verdicts",
            file=sys.stderr,
        )
    results = plan_sequence(
        sequence,
        cfg,
        thresholds,
        target_interval=args.target_interval,
        key_interval=args.key_interval,
    )
    return results, sequence


def _summarise(results: list[GroupPlanResult]) -> str:
    still = sum(1 for r in results if r.verdict == "still")
    return f"{len(results)} group(s): {still} still, {len(results) - still} non-still"


def cmd_analyze(args) -> int:
    if args.hist_bins < 1:
        raise UsageError("--hist-bins must be >= 1")
    results, _ = _analysed_groups(args)
    out, own = _open_output(args.output)
    try:
        dump_group_metrics(results, out)
    finally:
        if own:
            out.close()
    if args.histogram:
        with open(args.histogram, "w", newline="") as hist_out:
            dump_metric_histograms(
                [r.metrics for r in results], hist_out, bins=args.hist_bins
            )
    print(_summarise(results), file=sys.stderr)
    return EXIT_OK


def cmd_plan(args) -> int:
    results, _ = _analysed_groups(args)
    for r in results:
        report = validate_plan(r.plan)
        if not report.ok:
            details = "; ".join(v.message for v in report.violations)
            raise PlanValidationError(
                f"group {r.group_id} produced an invalid plan: {details}"
            )
    out, own = _open_output(args.output)
    try:
        json.dump(plans_to_json(results), out, indent=2)
        out.write("\n")
    finally:
        if own:
            out.close()
    print(_summarise(results), file=sys.stderr)
    return EXIT_OK


def cmd_quality(args) -> int:
    ref = load_y4m(args.reference)
    dist = load_y4m(args.distorted)
    report = sequence_quality(ref.frames, dist.frames)
    out, own = _open_output(args.output)
    try:
        out.write("frame,psnr_db,ssim\n")
        for i, (p, s) in enumerate(zip(report.psnr_db, report.ssim)):
            out.write(f"{i},{p:.6f},{s:.8f}\n")
        out.write(f"mean,{report.avg_psnr_db:.6f},{report.avg_ssim:.8f}\n")
    finally:
        if own:
            out.close()
    print(
        f"{len(report.psnr_db)} frame(s): mean PSNR {report.avg_psnr_db:.3f} dB, "
        f"mean SSIM {report.avg_ssim:.5f}",
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
