"""Render a workload's synthetic clips as Y4M, timing each pass: the set-up.

    python3 clips.py REQUEST_JSON

REQUEST_JSON is ``{"clips": [[path, kind, width, height, frames, amplitude],
...], "seed": N, "repeats": R, "min_s": S}``.  The clips are rendered and
written at least R times and for at least S seconds.  Prints one JSON object:
``{"setup_s": [...], "generate_s": [...], "psnr_rows": [...]}``, where
``psnr_rows`` holds, for a reference/distorted pair, every frame's PSNR and
then their mean, formatted as ``gfstill quality`` prints them.

This runs apart from ``run.py`` so that ``run.py`` stays small:
a child's ``ru_maxrss`` starts from its parent's RSS at the time of spawn.
"""

import json
import math
import sys
import time

from gfstill import SynthSpec, generate, write_y4m


def psnr_rows(ref, dist) -> list[str]:
    """PSNR per frame pair and the mean, computed here rather than by gfstill."""
    import numpy as np

    values = []
    for a, b in zip(ref, dist):
        diff = a.astype(np.int64) - b.astype(np.int64)
        sse = int((diff * diff).sum())
        values.append(100.0 if sse == 0 else 10.0 * math.log10(255.0 * 255.0 / (sse / a.size)))
    return [f"{v:.6f}" for v in values] + [f"{math.fsum(values) / len(values):.6f}"]


def main() -> int:
    request = json.loads(sys.argv[1])
    setup_s: list[float] = []
    generate_s: list[float] = []
    while len(setup_s) < request["repeats"] or sum(setup_s) < request["min_s"]:
        start = time.perf_counter()
        generating = 0.0
        lumas = []
        for path, kind, width, height, frames, amplitude in request["clips"]:
            g0 = time.perf_counter()
            seq = generate(SynthSpec(kind, width, height, frames, amplitude, request["seed"]))
            generating += time.perf_counter() - g0
            write_y4m(seq, path)
            lumas.append([f.samples for f in seq.frames])
        setup_s.append(time.perf_counter() - start)
        generate_s.append(generating)
    rows = psnr_rows(*lumas) if len(lumas) == 2 else []
    print(json.dumps({"setup_s": setup_s, "generate_s": generate_s, "psnr_rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
