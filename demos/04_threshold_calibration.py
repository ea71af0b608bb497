"""
Where the still/non-still boundary sits
=======================================

Sweeping synthetic clips across noise and pan amplitudes shows how the
three metrics move and where the default thresholds flip the verdict.
Histograms of the metrics over many groups are the raw material for
recalibrating those thresholds on real footage.
"""

import io

from gfstill import StillnessThresholds, SynthSpec, generate, plan_sequence
from gfstill.cli import dump_metric_histograms

# noise amplitude sweep: pixel error and its spread grow with the noise
# while zero-motion stays high, so the error ceilings do the rejecting
print("noise amplitude sweep")
print(f"{'amp':>5} {'zero-motion':>12} {'pixel error':>12} "
      f"{'error spread':>13} verdict")
for amp in (0.5, 1.0, 2.0, 4.0, 8.0):
    spec = SynthSpec(
        "static_noise", width=64, height=48, frame_count=17, amplitude=amp
    )
    (group,) = plan_sequence(generate(spec))
    m = group.metrics
    print(
        f"{amp:>5.1f} {m.zero_motion_accumulator:>12.4f} "
        f"{m.avg_pixel_error:>12.4f} {m.avg_error_stdev:>13.4f} {group.verdict}"
    )

# pan amplitude sweep: motion kills the zero-motion share first
print("\npan amplitude sweep")
print(f"{'amp':>5} {'zero-motion':>12} verdict")
metrics = []
for amp in (0.0, 1.0, 2.0, 4.0):
    spec = SynthSpec("pan", width=64, height=48, frame_count=17, amplitude=amp)
    (group,) = plan_sequence(generate(spec))
    metrics.append(group.metrics)
    print(f"{amp:>5.1f} {group.metrics.zero_motion_accumulator:>12.4f} "
          f"{group.verdict}")

# custom thresholds plumb straight through: a 99 % zero-motion floor still
# admits faint noise, whose best vector stays (0,0) in every block
strict = StillnessThresholds(zero_motion_min=0.99)
spec = SynthSpec("static_noise", width=64, height=48, frame_count=17, amplitude=1.0)
(group,) = plan_sequence(generate(spec), thresholds=strict)
print(f"\nfaint noise under a 0.99 zero-motion floor: {group.verdict}")

# histogram dump, the CSV behind `gfstill analyze --histogram`
sink = io.StringIO()
dump_metric_histograms(metrics, sink, bins=4)
print("\nmetric histograms over the pan sweep")
print(sink.getvalue())
