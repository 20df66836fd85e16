"""Margins of the banded acceptance criteria on fixed seed blocks.

    PYTHONPATH=src python tests/margins.py

Each banded criterion of ``tests/test_acceptance.py`` runs there on one
fixed set of seeds, so its margin on other seeds is unknown.  This script
rebuilds two of them on further seed blocks and prints what they read,
without judging it:

* criterion 5b: the share of corrected crossings whose recorded extinction
  lies in [10, 20] dB, and on which edge each miss falls, on chip-seed
  blocks 6000, 7000, 8000, 9000 and 10000 with imbalance streams 0-4 (the
  test's own block is 6000 with stream 0);
* criterion 8: link F mean, per-chip minimum link F and the unitary F range
  of ``runner.monte_carlo(100, base, None)`` at bases 100 (the test's),
  1000, 2000 and 3000.

It uses the package's API only, so it runs unchanged on older commits; run
it against two checkouts (``PYTHONPATH=<checkout>/src``) to compare them.
It takes about 30 s on one core of a 2-core host.
"""

from dataclasses import replace

import numpy as np

from mzmesh import calibration as cal
from mzmesh import compiler, mesh, runner
from mzmesh.emulator import EmuConfig, EmulatedChip, paper_detector_model

BAND_DB = (10.0, 20.0)
BLOCKS_5B = ((6000, 0), (7000, 1), (8000, 2), (9000, 3), (10000, 4))
BASES_8 = (100, 1000, 2000, 3000)


def corrected_cross_extinctions(first_seed: int, stream: int) -> np.ndarray:
    """Recorded extinction of circuit 2's first corrected crossing on the
    100 paper chips from ``first_seed``, with a structure-arm imbalance
    drawn uniformly in 0.2-0.5 dB from ``default_rng(stream)``, built as
    criterion 5b builds them."""
    group = compiler.ohqe_circuits()["2"].groups[0]
    topo = mesh.MeshTopology(8)
    rng = np.random.default_rng(stream)
    exts = []
    for s in range(100):
        imb_db = rng.uniform(0.2, 0.5)
        spec = mesh.paper_noise_spec()
        spec.arm_imbalance_db_sigma = 0.0
        state = runner.build_mesh(spec, seed=first_seed + s)
        trans = []
        for k, mid in enumerate(group.intermediates):
            p = state.params[mid]
            top, _ = topo.node_ports(mid)
            arm = p.arm_loss_top if group.ports[k] == top else p.arm_loss_bot
            trans.append(p.amp_loss_in * p.amp_loss_out * arm * p.tap_loss)
        delta = imb_db - 20 * np.log10(trans[0] / trans[1])
        nd = group.intermediates[1] if delta > 0 else group.intermediates[0]
        amp = mesh.db_to_amplitude(abs(delta))
        p = state.params[nd]
        state.params[nd] = replace(
            p, arm_loss_top=p.arm_loss_top * amp, arm_loss_bot=p.arm_loss_bot * amp)
        chip = EmulatedChip(
            state, EmuConfig(detector=paper_detector_model(), offset_scale=1.0,
                             seed=first_seed + s))
        record = cal.calibrate_full_mesh(chip)
        exts.append(cal.calibrate_corrected_cross(chip, group, record).extinction_db)
    return np.array(exts)


def main() -> None:
    low, high = BAND_DB
    print(f"criterion 5b: corrected-crossing extinction in [{low:g}, {high:g}] dB "
          "(the test asks a share >= 0.80 on block 6000, stream 0)")
    for first_seed, stream in BLOCKS_5B:
        exts = corrected_cross_extinctions(first_seed, stream)
        below, above = int(np.sum(exts < low)), int(np.sum(exts > high))
        print(f"  chips {first_seed}+ (imbalance stream {stream}): in band "
              f"{1 - (below + above) / exts.size:.2f}, {below} below {low:g} dB, "
              f"{above} above {high:g} dB, median {np.median(exts):.1f} dB", flush=True)
    print("criterion 8: monte_carlo(100, base, None) (the test asks link F mean in "
          "[0.985, 0.999], each chip's minimum >= 0.96, unitary F in [0.88, 0.99], "
          "no circuit failure, at base 100)")
    for base in BASES_8:
        mc = runner.monte_carlo(100, base, None)
        failed = sum(bool(chip["circuit_failures"]) for chip in mc["chips"])
        print(f"  base {base}: link F mean {mc['link_f_mean']:.5f}, per-chip minimum "
              f"{min(mc['per_chip_min_f']):.4f}, unitary F {mc['unitary_f_min']:.4f}-"
              f"{mc['unitary_f_max']:.4f}, chips with a circuit failure {failed}", flush=True)


if __name__ == "__main__":
    main()
