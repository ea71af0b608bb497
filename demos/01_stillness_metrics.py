"""
Measuring how still a group of frames really is
===============================================

Three numbers summarise a run of frames: the worst-frame share of
zero-motion blocks, the mean per-pixel prediction error, and the mean
spread of that error.  A group counts as still only when all three are
good at once.
"""

from gfstill import SynthSpec, generate, plan_sequence

# three clips that look different to a motion search: a frozen image,
# the same image under faint sensor noise, and a 4 px/frame camera pan
clips = {
    "static": SynthSpec("static", width=64, height=48, frame_count=17),
    "faint noise": SynthSpec(
        "static_noise", width=64, height=48, frame_count=17, amplitude=1.0
    ),
    "pan 4 px/frame": SynthSpec(
        "pan", width=64, height=48, frame_count=17, amplitude=4.0
    ),
}

print(f"{'clip':<16} {'zero-motion':>12} {'pixel error':>12} "
      f"{'error spread':>13} verdict")
for label, spec in clips.items():
    (group,) = plan_sequence(generate(spec))
    m = group.metrics
    print(
        f"{label:<16} {m.zero_motion_accumulator:>12.4f} "
        f"{m.avg_pixel_error:>12.4f} {m.avg_error_stdev:>13.4f} {group.verdict}"
    )

# The accumulator is a MIN over frames, so one busy frame disqualifies the
# whole group: splice four panning frames into an otherwise frozen clip.
still = list(generate(SynthSpec("static", width=64, height=48, frame_count=17)))
moving = list(
    generate(SynthSpec("pan", width=64, height=48, frame_count=5, amplitude=4.0))
)
(group,) = plan_sequence(still[:13] + moving[1:])
print(
    f"\nspliced clip: zero-motion {group.metrics.zero_motion_accumulator:.4f} "
    f"-> {group.verdict}"
)
