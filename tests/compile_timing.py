"""Per-N compile timing of two source trees, in alternating fresh processes.

    python tests/compile_timing.py BASE_SRC HEAD_SRC

For N = 8, 16, 32 and 64 it prints the median ms per call of
``clements_decompose`` (the reversed variant) and of ``reconstruct`` for
each tree, one line per N.  Every round starts one fresh interpreter per
tree, the trees in turn and the first of them alternating round by round,
and each interpreter times the same Haar-random targets, so that the two
trees share the host's load.  It prints and never fails; wall times depend
on the host, so compare the two columns of one run only.
"""

import json
import os
import statistics
import subprocess
import sys
import time

SIZES = (8, 16, 32, 64)
ROUNDS = 6
TARGETS = 5  # Haar targets per N and process


def measure() -> dict:
    """Per-call seconds of each layer at each N, in this interpreter."""
    import numpy as np

    from mzmesh.compiler import clements_decompose, reconstruct

    times = {}
    for n in SIZES:
        rng = np.random.default_rng(n)
        decompose, rebuild = [], []
        for _ in range(TARGETS + 1):  # the first call per N warms the caches
            q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            t0 = time.perf_counter()
            plan = clements_decompose(u, True)
            t1 = time.perf_counter()
            reconstruct(plan)
            decompose.append(t1 - t0)
            rebuild.append(time.perf_counter() - t1)
        times[n] = {"decompose": decompose[1:], "reconstruct": rebuild[1:]}
    return times


def main(base_src: str, head_src: str) -> None:
    trees = {"base": os.path.abspath(base_src), "head": os.path.abspath(head_src)}
    samples = {side: {n: {"decompose": [], "reconstruct": []} for n in SIZES} for side in trees}
    for k in range(ROUNDS):
        for side in sorted(trees, reverse=bool(k % 2)):
            out = subprocess.run([sys.executable, __file__, "--measure"], check=True,
                                 capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONPATH=trees[side])).stdout
            for n, layers in json.loads(out).items():
                for layer, values in layers.items():
                    samples[side][int(n)][layer] += values
    print(f"median ms per call, {ROUNDS} rounds x {TARGETS} Haar targets, base -> head")
    for n in SIZES:
        cells = []
        for layer in ("decompose", "reconstruct"):
            base, head = (1e3 * statistics.median(samples[side][n][layer]) for side in trees)
            cells.append(f"{layer} {base:.3f} -> {head:.3f} ({head / base - 1:+.0%})")
        print(f"N = {n}: " + ", ".join(cells))


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        print(json.dumps(measure()))
    else:
        main(*sys.argv[1:])
