"""
Scoring reconstructions: PSNR, SSIM and BD-rate
===============================================

PSNR and SSIM compare two frames; BD-rate compares two whole
rate-distortion curves and reports the average bitrate difference at equal
quality, in percent.
"""

import numpy as np

from gfstill import SynthSpec, bd_rate, generate, psnr, ssim

# degrade a synthetic frame with increasing amounts of clipped noise
base = generate(SynthSpec("static", width=176, height=144)).frames[0].samples
rng = np.random.default_rng(7)

print(f"{'noise stdev':>11} {'PSNR dB':>9} {'SSIM':>8}")
for stdev in (0, 2, 5, 10, 20):
    noisy = np.clip(
        base.astype(np.int16) + rng.normal(0, stdev, base.shape).round(),
        0,
        255,
    ).astype(np.uint8)
    print(f"{stdev:>11} {psnr(base, noisy):>9.3f} {ssim(base, noisy):>8.5f}")

# BD-rate on synthetic RD curves.  Scaling every bitrate by a constant
# factor shifts log-rate uniformly, so the answer is exactly that factor.
# A curve is a list of (bitrate, quality) pairs.
base_curve = [(100.0, 30.0), (200.0, 33.0), (400.0, 36.0), (800.0, 39.0)]
print(f"\n{'rate scaling':>12} {'BD-rate %':>10}")
for scale in (1.0, 1.10, 0.95, 0.80):
    test = [(r * scale, q) for r, q in base_curve]
    print(f"{scale:>12.2f} {bd_rate(base_curve, test):>10.3f}")

# a genuinely better hypothetical encoder: same quality from less bitrate
# at the low end, slightly more at the top
test = [(80.0, 30.0), (170.0, 33.0), (380.0, 36.0), (820.0, 39.0)]
print(f"\nmixed curve vs base: {bd_rate(base_curve, test):+.3f}% bitrate")
