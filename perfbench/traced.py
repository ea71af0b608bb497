"""Run ``gfstill.cli.main`` in-process with timing wrappers on each layer.

    python3 traced.py LAUNCH_NS SPANS_JSON RUN_ID CLI_ARGS...

LAUNCH_NS is the CLOCK_MONOTONIC time at which the parent launched this
process.  Wrappers replace the names the callers look up (``cli.load_y4m``,
``gop_planner.analyze_frame``, ...), so the program itself is unchanged and
its stdout must equal an untraced run's.  Spans stay in memory and are
written to SPANS_JSON on exit as ``[name, start_ns, end_ns, parent, info]``,
with the time ``import gfstill`` returned and the wrapped names that were
never called.
"""

import json
import os
import sys
import time
import types


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.called = set()
        self.wrapped = []
        self.held = 0  # luma bytes returned by earlier loads, still referenced

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr with a wrapper that records a span per call."""
        fn = getattr(owner, attr, None)
        self.wrapped.append(name)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, now_ns(), None, self.stack[-1] if self.stack else None, {}]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now_ns()
                self.stack.pop()
            self.called.add(name)
            if note is not None:
                span[4] = note(self, args, result)
            return result

        setattr(owner, attr, wrapper)


def _note_load(tracer, args, seq):
    file_bytes = os.path.getsize(args[0]) if isinstance(args[0], (str, os.PathLike)) else 0
    luma = sum(f.samples.nbytes for f in getattr(seq, "frames", ()))
    # the file buffer is alive together with this call's luma and that of
    # every earlier load (quality keeps the reference while it decodes)
    held = file_bytes + luma + tracer.held
    tracer.held += luma
    return {"file_bytes": file_bytes, "held_bytes": held}


def main() -> int:
    launch_ns, spans_path, run_id, *cli_args = sys.argv[1:]
    import gfstill  # noqa: F401  (the import whose cost is cli.startup_s)

    import_done_ns = now_ns()
    from gfstill import cli, gop_planner, quality

    t = Tracer()
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "load_y4m", "video_io.load_y4m", _note_load)
    t.wrap(cli, "plan_sequence", "gop_planner.plan_sequence")
    t.wrap(gop_planner, "segment_groups", "gop_planner.segment_groups")
    t.wrap(gop_planner, "analyze_frame", "first_pass.analyze_frame",
           lambda _t, _a, r: {"blocks": getattr(r, "block_count", 0)})
    t.wrap(gop_planner, "compute_group_metrics", "stillness.compute_group_metrics")
    t.wrap(gop_planner, "classify_stillness", "stillness.classify_stillness",
           lambda _t, _a, r: {"still": int(r == "still")})
    t.wrap(gop_planner, "plan_group", "gop_planner.plan_group",
           lambda _t, _a, r: {"entries": len(getattr(r, "entries", ()))})
    t.wrap(cli, "validate_plan", "gop_planner.validate_plan")
    t.wrap(cli, "plans_to_json", "gop_planner.plans_to_json")
    t.wrap(cli, "dump_group_metrics", "stillness.dump_group_metrics")
    t.wrap(cli, "sequence_quality", "quality.sequence_quality")
    t.wrap(quality, "psnr", "quality.psnr")
    t.wrap(quality, "ssim", "quality.ssim")
    # cli looks json.dump up through its own `json` global
    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__)
    t.wrap(proxy, "dump", "cli.json_dump")
    cli.json = proxy

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w") as out:
        json.dump(
            {
                "run_id": int(run_id),
                "launch_ns": int(launch_ns),
                "import_done_ns": import_done_ns,
                "spans": t.spans,
                "missing": [n for n in t.wrapped if n not in t.called],
            },
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
