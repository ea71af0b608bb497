#!/usr/bin/env python3
"""Benchmark of the gfstill command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; gfstill is imported from ``src/``.
Each run renders the workload's synthetic clips with ``SynthSpec.seed`` set
to ``--seed`` and writes them as Y4M (set-up, repeated and timed), then
launches ``python3 -m gfstill.cli`` as a child process, one at a time, for
``--seconds`` seconds.  Every child's exit code and stdout are checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced children with children running ``perfbench/traced.py``, which calls
``gfstill.cli.main`` in-process with timing wrappers on each layer's entry
points, and reports the per-layer metrics.  ``--workload all`` runs every
workload in turn.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# set-up is short next to a run, so it is repeated (at least this many times
# and for at least this long) and its median reported
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
CHILD_TIMEOUT_S = 75.0  # a traced cycle of two hung children still ends within 180 s
MIB = 1 << 20


@dataclass(frozen=True)
class Clip:
    stem: str
    kind: str
    width: int
    height: int
    frames: int
    amplitude: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # gfstill subcommand: plan, analyze or quality
    clips: tuple[Clip, ...]
    flags: tuple[str, ...] = ()
    verdict: str = ""  # the verdict every group's clip kind implies
    intervals: tuple[int, ...] = ()  # group lengths the clip length implies
    seed0_sha256: str = ""  # stdout digest at seed 0, recorded from the seed commit

    @property
    def frames(self) -> int:
        """Frames in the input clip; for quality, the frames scored."""
        return self.clips[0].frames


WORKLOADS = {
    w.name: w
    for w in (
        # The exhaustive first pass does most of the work: 32 frame pairs,
        # two non-still multilayer groups.
        Workload(
            "plan-cif-pan-exhaustive",
            "plan",
            (Clip("pan", "pan", 352, 288, 33, 4.0),),
            verdict="non-still",
            intervals=(16, 16),
            seed0_sha256="c32729026c9e24a97f01a4346aa454d3d9e762e4c8b04832da2c37ae01d4c592",
        ),
        # Diamond search on the largest frames: whole-clip decode sets peak
        # memory, and the output is CSV.  One still single-layer group.
        Workload(
            "analyze-720p-still-diamond",
            "analyze",
            (Clip("still", "static_noise", 1280, 720, 17, 2.0),),
            flags=("--search-kind", "diamond"),
            verdict="still",
            intervals=(16,),
            seed0_sha256="a4eee3daa5249622dc4c6dfe6b265b657010a8b2e601e3c56082261136015c05",
        ),
        # SSIM dominates; decodes two files and never reaches first_pass or
        # gop_planner, so it is the no-change control for first-pass work.
        Workload(
            "quality-cif-noise",
            "quality",
            (
                Clip("reference", "static", 352, 288, 33, 0.0),
                Clip("distorted", "static_noise", 352, 288, 33, 3.0),
            ),
        ),
    )
}

# (name, unit); the names and units BENCHMARK.json declares
END_TO_END = (
    ("frames_per_s", "frames/s"),
    ("peak_rss_mb", "MiB"),
    ("first_row_s", "s"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.output_ms", "ms"),
    ("video_io.load_y4m_ms", "ms"),
    ("video_io.decode_mb_per_s", "MiB/s"),
    ("video_io.held_mb", "MiB"),
    ("first_pass.analyze_frame_ms", "ms"),
    ("first_pass.analyze_frame_ms_hi", "ms"),
    ("first_pass.blocks", "count"),
    ("first_pass.blocks_per_s", "1/s"),
    ("first_pass.share", "ratio"),
    ("stillness.metrics_verdict_ms", "ms"),
    ("stillness.groups", "count"),
    ("stillness.still_groups", "count"),
    ("gop_planner.segment_ms", "ms"),
    ("gop_planner.plan_validate_ms", "ms"),
    ("gop_planner.entries", "count"),
    ("quality.psnr_ms", "ms"),
    ("quality.ssim_ms", "ms"),
    ("quality.ssim_share", "ratio"),
    ("synth.generate_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)
QUALITY_SEED0 = HERE / "quality_seed0.csv"
SSIM_TOLERANCE = 1e-6


def now_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so a child can time from
    # the moment its parent launched it
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------- set-up


@dataclass
class Setup:
    paths: list[Path]
    setup_s: list[float]
    generate_s: list[float]
    psnr_rows: list[str]  # for quality: each frame's PSNR, then the mean


def set_up(workload: Workload, seed: int, workdir: Path) -> Setup:
    """Render and write the clips repeatedly in a child process, timing each pass.

    This process never imports gfstill or numpy: a child's ru_maxrss starts
    from its parent's RSS at spawn, so a small parent keeps peak_rss_mb the
    CLI's own.
    """
    paths = [workdir / f"{c.stem}.y4m" for c in workload.clips]
    request = {
        "clips": [[str(p), c.kind, c.width, c.height, c.frames, c.amplitude]
                  for p, c in zip(paths, workload.clips)],
        "seed": seed,
        "repeats": SETUP_REPEATS,
        "min_s": SETUP_MIN_S,
    }
    done = subprocess.run(
        [sys.executable, str(HERE / "clips.py"), json.dumps(request)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    record = json.loads(done.stdout)
    return Setup(paths, record["setup_s"], record["generate_s"], record["psnr_rows"])


# ---------------------------------------------------------------- children


@dataclass
class ChildRun:
    launch_ns: int
    wall_s: float
    first_row_s: float
    rss_mib: float
    exit_code: int
    stdout: bytes
    stderr: str


def _first_row_seen(command: str, out: bytes) -> bool:
    if command == "plan":
        # the first group object of the indent-2 JSON array is complete
        return b"\n  }\n" in out or b"\n  },\n" in out
    return out.count(b"\n") >= 2  # CSV header plus the first data row


def run_child(cmd_for_launch, command: str, env: dict, stderr_path: Path) -> ChildRun:
    """Launch one child, stream its stdout, and reap it with wait4.

    cmd_for_launch maps the launch timestamp to the argument list, so a
    traced child can be told when it was launched.
    """
    with open(stderr_path, "wb") as err:
        launch = now_ns()
        proc = subprocess.Popen(
            cmd_for_launch(launch), stdout=subprocess.PIPE, stderr=err, env=env,
            cwd=ROOT,
        )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        chunks: list[bytes] = []
        first = None
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
            if first is None and _first_row_seen(command, b"".join(chunks)):
                first = now_ns()
        _, status, usage = os.wait4(proc.pid, 0)
        end = now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ChildRun(
        launch_ns=launch,
        wall_s=(end - launch) / 1e9,
        first_row_s=((first if first is not None else end) - launch) / 1e9,
        rss_mib=usage.ru_maxrss * 1024 / MIB,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout=b"".join(chunks),
        stderr=stderr_path.read_text(errors="replace"),
    )


def cli_args(workload: Workload, setup: Setup) -> list[str]:
    return [workload.command, *map(str, setup.paths), *workload.flags]


# ---------------------------------------------------------------- checks


def check_quality(stdout: bytes, setup: Setup, seed: int) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout.decode("ascii"))))
    if rows[:1] != [["frame", "psnr_db", "ssim"]]:
        return "quality: bad header"
    frames = len(setup.psnr_rows) - 1
    expected_ids = [str(i) for i in range(frames)] + ["mean"]
    body = rows[1:]
    if [r[0] for r in body] != expected_ids:
        return "quality: frame column does not list every frame plus mean"
    if [r[1] for r in body] != setup.psnr_rows:
        return "quality: PSNR differs from the reference computation"
    ssim = [float(r[2]) for r in body]
    if seed == 0:
        recorded = list(csv.reader(io.StringIO(QUALITY_SEED0.read_text())))[1:]
        if [r[1] for r in recorded] != [r[1] for r in body]:
            return "quality: PSNR differs from the recorded seed-0 values"
        if any(abs(float(r[2]) - s) > SSIM_TOLERANCE for r, s in zip(recorded, ssim)):
            return "quality: SSIM differs from the recorded seed-0 values"
    if not all(0.0 < s <= 1.0 for s in ssim):
        return "quality: SSIM outside (0, 1]"
    if abs(math.fsum(ssim[:-1]) / frames - ssim[-1]) > SSIM_TOLERANCE:
        return "quality: mean SSIM row is not the mean of the frame rows"
    return None


def _check_groups(workload: Workload, groups: list[tuple[int, int, str]]) -> str | None:
    """groups: (first display index, interval, verdict) per output group."""
    starts = [1 + sum(workload.intervals[:i]) for i in range(len(workload.intervals))]
    expected = [(s, n, workload.verdict) for s, n in zip(starts, workload.intervals)]
    if groups != expected:
        return f"{workload.command}: groups {groups}, expected {expected}"
    return None


def check_output(workload: Workload, seed: int, stdout: bytes, setup: Setup) -> str | None:
    """Return why stdout is wrong, or None when it is right."""
    if workload.command == "quality":
        return check_quality(stdout, setup, seed)
    if seed == 0 and workload.seed0_sha256:
        digest = hashlib.sha256(stdout).hexdigest()
        return None if digest == workload.seed0_sha256 else f"sha256 {digest} differs"
    if workload.command == "analyze":
        rows = list(csv.DictReader(io.StringIO(stdout.decode("ascii"))))
        groups = [(int(r["first_display_index"]), int(r["interval"]), r["verdict"])
                  for r in rows]
        return _check_groups(workload, groups)
    plans = json.loads(stdout)
    structure = {"still": "single_layer", "non-still": "multilayer"}[workload.verdict]
    for p in plans:
        if p["structure"] != structure or len(p["entries"]) != p["interval"] + 1:
            return f"plan: group {p['group_id']} has a wrong structure"
    return _check_groups(
        workload, [(p["start_display_index"], p["interval"], p["verdict"]) for p in plans]
    )


# ---------------------------------------------------------------- spans


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    run: int
    info: dict

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


@dataclass
class TracedRun:
    child: ChildRun
    startup_s: float
    spans: list[Span]
    self_s: list[float]  # per span, its duration minus its children's
    missing: list[str]


def load_trace(path: Path, child: ChildRun, run_id: int) -> TracedRun:
    record = json.loads(path.read_text())
    spans = [Span(n, s, e, p, run_id, i) for n, s, e, p, i in record["spans"]]
    self_s = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            self_s[s.parent] -= s.seconds
    return TracedRun(
        child=child,
        startup_s=(record["import_done_ns"] - child.launch_ns) / 1e9,
        spans=spans,
        self_s=self_s,
        missing=record["missing"],
    )


def _percentile_hi(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, else the median."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1], pct
    return statistics.median(samples), 50


def layer_metrics(traced: list[TracedRun], untraced_wall: float, setup: Setup) -> tuple[dict, list[str]]:
    """Per-layer values from the traced runs; times are medians of per-run totals."""

    def total(run: TracedRun, *names: str, use_self: bool = False) -> float:
        return sum(run.self_s[i] if use_self else s.seconds
                   for i, s in enumerate(run.spans) if s.name in names)

    def per_run(fn) -> float:
        return statistics.median(fn(r) for r in traced)

    def info_sum(run: TracedRun, name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in run.spans if s.name == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pairs = [s.seconds * 1e3 for r in traced for s in r.spans
             if s.name == "first_pass.analyze_frame"]
    hi, pct = _percentile_hi(pairs) if pairs else (0.0, 0)
    traced_wall = statistics.median(r.child.wall_s for r in traced)
    values = {
        "cli.startup_s": per_run(lambda r: r.startup_s),
        "cli.output_ms": per_run(lambda r: 1e3 * total(
            r, "gop_planner.plans_to_json", "cli.json_dump", "stillness.dump_group_metrics")),
        "video_io.load_y4m_ms": per_run(lambda r: 1e3 * total(r, "video_io.load_y4m")),
        "video_io.decode_mb_per_s": per_run(lambda r: ratio(
            info_sum(r, "video_io.load_y4m", "file_bytes") / MIB,
            total(r, "video_io.load_y4m"))),
        "video_io.held_mb": per_run(lambda r: max(
            [s.info.get("held_bytes", 0) for s in r.spans], default=0) / MIB),
        "first_pass.analyze_frame_ms": statistics.median(pairs) if pairs else 0.0,
        "first_pass.analyze_frame_ms_hi": hi,
        "first_pass.blocks": per_run(lambda r: info_sum(r, "first_pass.analyze_frame", "blocks")),
        "first_pass.blocks_per_s": per_run(lambda r: ratio(
            info_sum(r, "first_pass.analyze_frame", "blocks"),
            total(r, "first_pass.analyze_frame", use_self=True))),
        "first_pass.share": per_run(lambda r: ratio(
            total(r, "first_pass.analyze_frame", use_self=True), r.child.wall_s)),
        "stillness.metrics_verdict_ms": per_run(lambda r: 1e3 * total(
            r, "stillness.compute_group_metrics", "stillness.classify_stillness")),
        "stillness.groups": per_run(lambda r: sum(
            s.name == "stillness.classify_stillness" for s in r.spans)),
        "stillness.still_groups": per_run(lambda r: info_sum(
            r, "stillness.classify_stillness", "still")),
        "gop_planner.segment_ms": per_run(lambda r: 1e3 * total(r, "gop_planner.segment_groups")),
        "gop_planner.plan_validate_ms": per_run(lambda r: 1e3 * total(
            r, "gop_planner.plan_group", "gop_planner.validate_plan")),
        "gop_planner.entries": per_run(lambda r: info_sum(r, "gop_planner.plan_group", "entries")),
        "quality.psnr_ms": per_run(lambda r: 1e3 * total(r, "quality.psnr")),
        "quality.ssim_ms": per_run(lambda r: 1e3 * total(r, "quality.ssim")),
        "quality.ssim_share": per_run(lambda r: ratio(
            total(r, "quality.ssim", use_self=True), r.child.wall_s)),
        "synth.generate_s": statistics.median(setup.generate_s),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": per_run(lambda r: ratio(
            r.startup_s + sum(r.self_s), r.child.wall_s)),
    }
    notes = [f"first_pass.analyze_frame_ms_hi is p{pct} of {len(pairs)} frame pairs"] if pairs else []
    missing = sorted({m for r in traced for m in r.missing})
    if missing:
        notes.append("missing spans (reported as 0): " + ", ".join(missing))
    return values, notes


# ---------------------------------------------------------------- runs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    return env


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {
        "seed": seed,
        "cpus": NPROC,
        "threads": {var: str(NPROC) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
    }


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list[str]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    setup = set_up(workload, seed, workdir)
    args = cli_args(workload, setup)
    env = child_env()
    untraced: list[ChildRun] = []
    traced: list[TracedRun] = []
    failures: list[str] = []
    reference_stdout = None

    def judge(child: ChildRun) -> bool:
        nonlocal reference_stdout
        if child.exit_code != 0:
            failures.append(f"exit {child.exit_code}: {child.stderr.strip()[-300:]}")
            return False
        if reference_stdout is None:
            try:
                problem = check_output(workload, seed, child.stdout, setup)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unparseable stdout: {exc!r}"
            if problem:
                failures.append(problem)
                return False
            reference_stdout = child.stdout
        elif child.stdout != reference_stdout:
            failures.append("stdout differs from the first run's")
            return False
        return True

    cli = [sys.executable, "-m", "gfstill.cli", *args]
    deadline = time.monotonic() + seconds
    cycles: list[float] = []
    while not cycles or time.monotonic() + statistics.median(cycles) <= deadline:
        cycle_start = time.monotonic()
        child = run_child(lambda _: cli, workload.command, env, workdir / "stderr.txt")
        if judge(child):
            untraced.append(child)
        if trace:
            spans_path = workdir / f"trace{len(traced)}.json"
            run_id = len(traced)
            child = run_child(
                lambda launch: [sys.executable, str(HERE / "traced.py"), str(launch),
                                str(spans_path), str(run_id), *args],
                workload.command, env, workdir / "stderr.txt",
            )
            if judge(child):
                traced.append(load_trace(spans_path, child, run_id))
        cycles.append(time.monotonic() - cycle_start)

    attempted = len(cycles) * (2 if trace else 1)
    if trace:
        if not (traced and untraced):
            return Result(attempted, len(failures), {}, failures)
        values, notes = layer_metrics(
            traced, statistics.median(c.wall_s for c in untraced), setup)
        units = dict(PER_LAYER)
    else:
        if not untraced:
            return Result(attempted, len(failures), {}, failures)
        values = {
            "frames_per_s": statistics.median(workload.frames / c.wall_s for c in untraced),
            "peak_rss_mb": statistics.median(c.rss_mib for c in untraced),
            "first_row_s": statistics.median(c.first_row_s for c in untraced),
            "setup_s": statistics.median(setup.setup_s),
        }
        notes = [f"{len(untraced)} timed runs"]
        units = dict(END_TO_END)
    notes.append(f"error_rate {len(failures) / attempted:g} ratio "
                 f"({len(failures)} of {attempted} runs failed)")
    notes.extend(failures)
    return Result(attempted, len(failures),
                  {k: (v, units[k]) for k, v in values.items()}, notes)


def report(name: str, result: Result) -> dict:
    """Print a human-readable block and return the JSON-ready result."""
    print(f"== {name}")
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:<34} {value:>14.6g} {unit}")
    for note in result.notes:
        print(f"  # {note}")
    return {
        "correct": result.failed == 0 and bool(result.metrics),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gfstill" / "__init__.py").is_file():
        print(f"perfbench: no gfstill sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.seed)))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outcomes = {}
        for name in names:
            result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir)
            outcomes[name] = report(name, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(outcomes) == 1:
        line = outcomes[names[0]]
    else:
        line = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}/{k}": v for n, o in outcomes.items()
                        for k, v in o["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
