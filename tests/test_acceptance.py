"""Acceptance suite: one test per exit criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass lines.  The Monte Carlo criterion takes about half a minute on a 2-core
machine (33 s measured alone, 35 s inside a full run, against its 300 s
gate); everything else finishes in seconds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mzmesh import calibration as cal
from mzmesh import compiler, lattice, mesh, metrology, runner
from mzmesh.compiler import clements_decompose, reconstruct
from mzmesh.emulator import (
    THETA,
    PHI,
    EmuConfig,
    EmulatedChip,
    VoltageFrame,
    channel,
    paper_detector_model,
)
from mzmesh.herald import HeraldedSpinState, corrected_fidelity
from mzmesh.mesh import MziParams, NoiseSpec

from oracles import coupler, exact_circuit_frame, fringe_curve, haar_unitary, read_exact


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]", flush=True)


class TestCriterion1ClementsRoundTrip:
    def test_200_haar_unitaries_both_variants(self):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        worst = 0.0
        for k in range(200):
            u = haar_unitary(8, rng)
            variant = k % 2 == 0
            plan = clements_decompose(u, reversed_variant=variant)
            worst = max(worst, float(np.max(np.abs(reconstruct(plan) - u))))
        elapsed = time.time() - t0
        assert worst < 1e-9
        assert elapsed < 10.0
        report("1 (Clements round-trip)", f"max entry error {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2ReversedUniversality:
    def test_each_step_nulls_upper_right(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(25):
            plan = clements_decompose(haar_unitary(8, rng), reversed_variant=True)
            entries = sorted((r, c) for r, c, _ in plan.nulled_trace)
            assert entries == sorted((r, c) for r in range(8) for c in range(r + 1, 8))
            worst = max(worst, max(v for _, _, v in plan.nulled_trace))
        assert worst < 1e-12
        report("2 (reversed universality)", f"max nulled residual {worst:.2e}")


class TestCriterion3ContrastFidelityEquivalence:
    def test_three_formulas_pairwise(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10_000):
            r = rng.uniform(0.05, 1.0)
            frac = rng.uniform(0.01, 0.99)
            ua = math.sqrt(r * frac) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            ub = math.sqrt(r * (1 - frac)) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            contrast = (abs(ua) - abs(ub)) ** 2 / (abs(ua) + abs(ub)) ** 2
            f_contrast = metrology.link_fidelity(contrast)
            f_overlap = math.sqrt(
                (abs(ua) + abs(ub)) ** 2 / (2 * (abs(ua) ** 2 + abs(ub) ** 2))
            )
            norm = math.hypot(abs(ua), abs(ub))
            post = HeraldedSpinState(ua / norm, ub / norm)
            for f_state in (corrected_fidelity(post, +1), corrected_fidelity(post, -1)):
                worst = max(
                    worst,
                    abs(f_contrast - f_overlap),
                    abs(f_contrast - f_state),
                    abs(f_overlap - f_state),
                )
        assert worst < 1e-12
        report("3 (contrast<->fidelity equivalence)", f"max pairwise dev {worst:.2e}")


class TestCriterion4FringeLaw:
    def test_emulated_sweep_matches_closed_form(self, default_circuits):
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=0.0, seed=0))
        record = cal.CalibrationRecord()
        spec = default_circuits["1"]
        frame = VoltageFrame(exact_circuit_frame(spec))
        worst = 0.0
        for pair in spec.matching:
            chip.set_frame(frame)
            trace = metrology.run_phase_sweep(chip, record, spec, pair)
            chip.set_frame(frame)
            u = chip._true_transfer()
            for out_port in trace.outputs:
                curve = trace.averaged[:, out_port - 1]
                expect = fringe_curve(u, pair, out_port, trace.alpha_nominal)
                assert curve.shape == (125,)
                worst = max(worst, float(np.max(np.abs(curve - expect))))
        assert worst < 1e-10
        report("4 (fringe law)", f"max pointwise dev {worst:.2e} over 125 samples")


class TestCriterion5CorrectedCrossing:
    def test_noiseless_null_and_single_floor(self, default_circuits):
        group = default_circuits["2"].groups[0]
        rng = np.random.default_rng(3)
        worst_leak = 0.0
        for trial in range(5):
            state = mesh.nominal_mesh(8)
            etas = {}
            for node in (group.left, group.right):
                p = state.params[node]
                e_in, e_out = rng.uniform(0.45, 0.55, 2)
                etas[node] = (e_in, e_out)
                state.params[node] = replace(p, eta_in=e_in, eta_out=e_out)
            chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=50 + trial))
            record = cal.calibrate_full_mesh(chip)
            g = cal.calibrate_corrected_cross(chip, group, record)

            # true (hidden-state) leakage at the calibrated settings
            path = cal.isolation_sequence(group.ports[0] + 1, group.left, state.topology)
            frame = cal._path_frame(chip, record, path)
            topo = state.topology
            for mid in group.intermediates:
                frame[channel(topo, mid, THETA)] = record.nodes[mid].bar_v
            frame[channel(topo, group.left, THETA)] = g.theta_l_v
            frame[channel(topo, group.right, THETA)] = g.theta_r_v
            frame[channel(topo, group.right, PHI)] = g.phi_r_v
            chip.set_frame(VoltageFrame(frame))
            inp = np.zeros(8, complex)
            inp[group.ports[0]] = 1.0
            _, mons = read_exact(chip, inp)
            idx = chip._compiled.node_index[group.right]
            gains = chip._compiled.mon_gain[idx]
            bar = mons[idx, path.arrival_arm] / gains[path.arrival_arm]
            crs = mons[idx, 1 - path.arrival_arm] / gains[1 - path.arrival_arm]
            worst_leak = max(worst_leak, bar / (bar + crs))
            chip.reset()
        assert worst_leak < 1e-10

        # single-MZI cross leakage floor (2 eta - 1)^2, exact
        for eta in np.linspace(0.45, 0.55, 11):
            p = MziParams(eta_in=eta, eta_out=eta)
            leak = abs(mesh.mzi_transfer(p)[0, 0]) ** 2
            assert abs(leak - (2 * eta - 1) ** 2) < 1e-12
        report(
            "5a (corrected crossing, noiseless)",
            f"double-MZI leak < {worst_leak:.1e}, single floor exact",
        )

    def test_imbalance_band_10_to_20_db(self, default_circuits):
        # 0.2-0.5 dB structure-arm imbalance in the paper-noise environment:
        # achieved (recorded) extinction in [10, 20] dB for >= 80% of seeds
        group = default_circuits["2"].groups[0]
        topo = mesh.MeshTopology(8)
        rng = np.random.default_rng(0)
        exts = []
        for s in range(100):
            imb_db = rng.uniform(0.2, 0.5)
            spec = mesh.paper_noise_spec()
            spec.arm_imbalance_db_sigma = 0.0
            state = runner.build_mesh(spec, seed=6000 + s)
            trans = []
            for k, mid in enumerate(group.intermediates):
                p = state.params[mid]
                top, _ = topo.node_ports(mid)
                arm = p.arm_loss_top if group.ports[k] == top else p.arm_loss_bot
                trans.append(p.amp_loss_in * p.amp_loss_out * arm * p.tap_loss)
            cur_db = 20 * np.log10(trans[0] / trans[1])
            delta = imb_db - cur_db
            nd = group.intermediates[1] if delta > 0 else group.intermediates[0]
            amp = mesh.db_to_amplitude(abs(delta))
            p = state.params[nd]
            state.params[nd] = replace(
                p, arm_loss_top=p.arm_loss_top * amp, arm_loss_bot=p.arm_loss_bot * amp
            )
            chip = EmulatedChip(
                state,
                EmuConfig(detector=paper_detector_model(), offset_scale=1.0, seed=6000 + s),
            )
            record = cal.calibrate_full_mesh(chip)
            g = cal.calibrate_corrected_cross(chip, group, record)
            exts.append(g.extinction_db)
        exts = np.array(exts)
        in_band = float(np.mean((exts >= 10.0) & (exts <= 20.0)))
        assert in_band >= 0.80
        report(
            "5b (corrected crossing, imbalance band)",
            f"{100 * in_band:.0f}% of 100 seeds in 10-20 dB "
            f"(median {np.median(exts):.1f} dB)",
        )


class TestCriterion6HadamardBalance:
    def test_ratio_root_implies_balanced_block(self):
        # 1000 random collection gains and lossless 2x2 blocks: the
        # ratio-equality root puts the hidden block at |a| = |b| within 1e-6
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            g_n, g_m = rng.uniform(0.2, 2.0, 2)
            eta_in, eta_out = rng.uniform(0.4, 0.6, 2)
            off = rng.uniform(-np.pi, np.pi)
            c_in = coupler(eta_in)
            c_out = coupler(eta_out)

            def block(v):
                th = off + np.pi * v / 25.0
                inner = np.diag([np.exp(1j * th / 2), np.exp(-1j * th / 2)])
                return c_out @ inner @ c_in

            def ratio_diff(v):
                b = block(v)
                ratio_i = (g_n * abs(b[0, 0]) ** 2) / (g_m * abs(b[1, 0]) ** 2)
                ratio_j = (g_n * abs(b[0, 1]) ** 2) / (g_m * abs(b[1, 1]) ** 2)
                return math.log(ratio_i) - math.log(ratio_j)

            # bracket between the block's bar-most and cross-most drives
            grid = np.linspace(-25.0, 25.0, 201)
            vals = [ratio_diff(v) for v in grid]
            k = int(np.argmax(np.abs(np.diff(np.sign(vals)))))
            lo, hi = grid[k], grid[k + 1]
            f_lo = ratio_diff(lo)
            for _ in range(60):
                mid = (lo + hi) / 2
                f_mid = ratio_diff(mid)
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            b = block((lo + hi) / 2)
            worst = max(worst, abs(abs(b[0, 0]) - abs(b[1, 0])))
        assert worst < 1e-6
        report("6 (Hadamard-balance soundness)", f"max | |a|-|b| | = {worst:.2e}")


class TestCriterion7LossAccounting:
    def test_noiseless_total(self):
        cm = mesh.CompiledMesh(mesh.uniform_loss_mesh(8, 2.33, mesh.DEFAULT_TAP_DB))
        bar = np.full(28, np.pi / 2)
        columns = cm.columns(bar, -bar, np.zeros(28), np.zeros(28))
        worst = 0.0
        for k in range(8):
            inp = np.zeros(8, complex)
            inp[k] = 1.0
            fields, _ = cm.propagate(inp, columns)
            total_db = 10 * np.log10(np.sum(np.abs(fields[0]) ** 2))
            worst = max(worst, abs(total_db + 18.64))
        assert worst < 0.01
        report("7a (loss accounting, noiseless)", f"-18.64 dB +/- {worst:.1e}")

    def test_sampled_iqr_band(self):
        noise = NoiseSpec(loss_db_mean=2.33, loss_db_sigma=1.87)
        base = mesh.uniform_loss_mesh(8, 2.33, mesh.DEFAULT_TAP_DB)
        totals = []
        for seed in range(1000):
            state = mesh.perturb(base, noise, seed=seed)
            cm = mesh.CompiledMesh(state)
            bar = np.full(28, np.pi / 2)
            u = cm.transfer(bar, -bar, np.zeros(28), np.zeros(28))
            totals.extend(10 * np.log10(np.sum(np.abs(u) ** 2, axis=0)))
        q1, q3 = np.percentile(totals, [25, 75])
        assert -20.0 <= q1 < q3 <= -16.0
        report("7b (loss accounting, sampled)", f"IQR [{q1:.2f}, {q3:.2f}] dB")


@pytest.fixture(scope="session")
def paper_band_ensemble():
    """The 100-chip paper-noise ensemble of criterion 8, with its wall time
    (measured around the Monte Carlo call only)."""
    t0 = time.perf_counter()
    mc = runner.monte_carlo(trials=100, seed=100, noise=None)
    return mc, time.perf_counter() - t0


class TestCriterion8PaperBandMonteCarlo:
    def test_100_chip_ensemble(self, paper_band_ensemble):
        mc, elapsed = paper_band_ensemble
        per_chip_min = np.array(mc["per_chip_min_f"])
        assert 0.985 <= mc["link_f_mean"] <= 0.999
        assert np.all(per_chip_min >= 0.96)
        assert not any(chip["circuit_failures"] for chip in mc["chips"])
        assert elapsed < 300.0
        report(
            "8 (paper-band Monte Carlo)",
            f"mean F {mc['link_f_mean']:.4f} +/- {mc['link_f_std']:.4f}, "
            f"worst chip min {per_chip_min.min():.4f}, {elapsed:.0f}s",
        )

    def test_unitary_fidelity_band(self, paper_band_ensemble):
        # criterion 9's band check on the criterion-8 ensemble
        mc, _ = paper_band_ensemble
        assert 0.88 <= mc["unitary_f_min"] <= mc["unitary_f_max"] <= 0.99
        report(
            "9b (unitary fidelity band)",
            f"F_N in [{mc['unitary_f_min']:.3f}, {mc['unitary_f_max']:.3f}]",
        )


class TestCriterion9UnitaryFidelity:
    def test_ideal_circuits_unity(self, default_circuits):
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=0.0, seed=0))
        record = cal.calibrate_full_mesh(chip)
        result = runner.run_circuit(chip, record, default_circuits["1"])
        assert abs(result.estimate.fidelity - 1.0) < 1e-9
        assert all(abs(f - 1.0) < 1e-9 for r in result.links for f in (r.f_plus, r.f_minus))
        report("9a (ideal-circuit fidelities)", "all F+- and F_N = 1 +/- 1e-9")

    def test_degenerate_uniform_magnitudes(self):
        ideal = compiler.ideal_circuit_magnitudes(
            compiler.route_matching([(1, 2), (3, 4), (5, 6), (7, 8)])
        )
        uniform = np.full((8, 8), 1 / math.sqrt(8))
        f = metrology.unitary_fidelity(ideal, uniform)
        assert abs(f - 0.5) < 1e-12
        report("9c (degenerate case)", f"F = {f:.12f} (closed form 0.5)")


class TestCriterion10LatticeCounts:
    def test_counts_and_schedules(self):
        cell = lattice.unit_cell(0, False)
        assert (len(cell.nodes), len(cell.edges)) == (8, 12)
        assert len(lattice.unit_cell(0, include_optional=True).edges) == 16

        pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
        assert len(lattice.link_schedule(pairs)) == 7

        node = (0, 1)
        deg = sum(1 for e in cell.edges if node in e)
        after = lattice.z_measure(cell, [node])
        assert len(after.edges) == len(cell.edges) - deg

        graph, links = lattice.assembly_2x2x2(False)
        assert len(graph.nodes) == 64
        assert len(graph.edges) == 8 * 12 + len(links)
        report(
            "10 (lattice counts)",
            "unit cell 8/12 (+4 optional), 7-circuit all-to-all, "
            "z-removal and 2x2x2 recounts exact",
        )


class TestCriterion11Determinism:
    def test_cli_rerun_byte_identical(self, tmp_path):
        import json

        from mzmesh.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": "ideal"}))
        chip_dir = tmp_path / "chip"
        assert main(["new-chip", "--config", str(cfg), "--seed", "2",
                     "--out", str(chip_dir)]) == 0
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "run-circuit",
                "--mesh", str(chip_dir / "mesh.json"),
                "--emu", str(chip_dir / "emu.json"),
                "--cal", str(_calibrate(tmp_path, chip_dir)),
                "--circuit", "1",
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        for fname in names:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
        report("11 (determinism)", f"{len(names)} output files byte-identical on rerun")


def _calibrate(tmp_path, chip_dir):
    from mzmesh.cli import main

    out = tmp_path / "calshared"
    if not (out / "cal.json").exists():
        assert main([
            "calibrate",
            "--mesh", str(chip_dir / "mesh.json"),
            "--emu", str(chip_dir / "emu.json"),
            "--out", str(out),
        ]) == 0
    return out / "cal.json"
