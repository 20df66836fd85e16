import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from mzmesh import calibration as cal
from mzmesh import mesh, runner
from mzmesh.calibration import (
    CalibrationRecord,
    HadamardBalanceError,
    IsolationError,
    calibrate_corrected_cross,
    calibrate_full_mesh,
    calibrate_hadamard,
    calibrate_mzi,
    circuit_frame,
    isolation_sequence,
    load_record,
    program_circuit,
    save_record,
)
from mzmesh.emulator import (
    THETA,
    V_MAX,
    ActuatorModel,
    DetectorModel,
    EmuConfig,
    EmulatedChip,
    VoltageFrame,
    channel,
    paper_detector_model,
)
from mzmesh.mesh import MeshTopology, node_label

from oracles import read_exact


def labels(path):
    return [node_label(n) for n in path.nodes] + [node_label(path.target)]


def walk_path(kind, input_port, target):
    """The isolation path to ``target`` along one straight walk of ``cal.WALKS``."""
    walk = cal._walk(MeshTopology(8), input_port, cal.WALKS[kind])
    return cal._walk_path(input_port, walk, [n for n, _, _ in walk].index(target))


class TestIsolationSequences:
    def test_input1_diagonal_matches_chip_sequence(self):
        # the documented all-cross walk from input 1 to U_0_3
        path = walk_path("diagonal", 1, (0, 3))
        assert labels(path) == ["U_6_0", "U_5_0", "U_4_1", "U_3_1", "U_2_2", "U_1_2", "U_0_3"]
        assert all(s == "CROSS" for s in path.states)

    def test_input1_all_bar(self):
        path = walk_path("all-bar", 1, (0, 0))
        assert labels(path) == ["U_6_0", "U_4_0", "U_2_0", "U_0_0"]
        assert all(s == "BAR" for s in path.states)

    def test_first_node_has_empty_prefix(self):
        path = isolation_sequence(1, (6, 0), MeshTopology(8))
        assert path.nodes == ()

    def test_off_mesh_target_rejected(self):
        with pytest.raises(ValueError, match="unknown node U_8_0"):
            isolation_sequence(1, (8, 0), MeshTopology(8))

    def test_unreachable_target(self):
        with pytest.raises(IsolationError, match="input 1 cannot reach U_7_2"):
            isolation_sequence(1, (7, 2), MeshTopology(8))

    def test_auto_reaches_every_node_from_some_input(self):
        topo = MeshTopology(8)
        for node in topo.nodes():
            ok = False
            for port in range(1, 9):
                try:
                    isolation_sequence(port, node, topo)
                    ok = True
                    break
                except IsolationError:
                    continue
            assert ok, f"no isolation for {node_label(node)}"

    def test_ideal_isolation_power(self, ideal_calibrated):
        # programmed path delivers >= 0.999 of the light to the target arm
        chip, record = ideal_calibrated
        topo = chip.topology
        path = walk_path("diagonal", 1, (0, 3))
        frame = cal._path_frame(chip, record, path)
        chip.set_frame(VoltageFrame(frame))
        inp = np.zeros(8, complex)
        inp[0] = 1.0
        th = chip._phase_arrays(np.atleast_2d(chip._volts))
        fields, _ = chip._compiled.propagate(np.atleast_2d(inp), chip._compiled.columns(*th))
        # light should sit on the target's top arm (port 6) entering column 0
        # -> measure right before column 0 by checking the target monitors
        _, mons = read_exact(chip, inp)
        idx = chip._compiled.node_index[(0, 3)]
        total = mons[idx].sum()
        # lossless apart from taps: compare against the tap-scaled launch
        chip.reset()
        assert total > 0.999 * mons[idx].max()


class TestCalibrateMzi:
    def test_zero_offset_convention_voltages(self, ideal_calibrated):
        _, record = ideal_calibrated
        for node, c in record.nodes.items():
            assert abs(c.cross_v) < 0.05
            assert abs(abs(c.bar_v) - 25.0) < 0.05

    def test_extinctions_at_coupler_floor(self, offset_calibrated):
        # ideal couplers, no noise: the fit lands on the exact null, far
        # beyond any (2 eta - 1)^2 floor
        _, record = offset_calibrated
        exts = [c.cross_extinction_db for c in record.nodes.values()]
        assert min(exts) > 60.0

    @pytest.mark.parametrize("seed", [0, 6, 11])
    def test_extinctions_stop_at_rounding_floor(self, seed):
        # a noiseless leak reads zero or a rounding residue (down to 1e-126
        # on these chips): either reports against num * eps**2
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=seed))
        record = calibrate_full_mesh(chip)
        exts = [db for c in record.nodes.values()
                for db in (c.bar_extinction_db, c.cross_extinction_db)]
        assert len(exts) == 56
        assert max(exts) <= 10.0 * math.log10(np.finfo(float).eps ** -2) + 1e-9

    def test_coupler_floor_with_eta_errors(self):
        # all couplers at eta = 0.55: cross extinction pinned at 20 dB floor
        state = mesh.nominal_mesh(8)
        for node in state.topology.nodes():
            p = state.params[node]
            p.eta_in = p.eta_out = 0.55
        chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=3))
        record = CalibrationRecord()
        calibrate_mzi(chip, record, isolation_sequence(1, (6, 0), chip.topology))
        floor_db = -10 * np.log10((2 * 0.55 - 1) ** 2)
        assert record.nodes[(6, 0)].cross_extinction_db == pytest.approx(floor_db, abs=0.5)

    @pytest.mark.parametrize("seed, edge", [(0, 1.0), (2, -1.0)], ids=["top", "bottom"])
    def test_drives_map_in_range_at_range_edges(self, seed, edge):
        # small offsets put U_6_0's bar null inside the last coarse step
        # before one end of the drive range, and its other phase equivalent
        # past the other end: the drive is the in-range one, on the null,
        # not a range end
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=0.01, seed=seed))
        record = CalibrationRecord()
        calibrate_mzi(chip, record, isolation_sequence(1, (6, 0), chip.topology))
        assert V_MAX - 0.25 < edge * record.nodes[(6, 0)].bar_v < V_MAX
        assert max(null_misses_v(chip, record)) <= 1e-6

    def test_short_drive_range_fails_nodes_it_misses(self):
        # at v_pi = 30 V the drive range spans 5/6 of a period: a node whose
        # bar or cross phase lies outside it is a recorded failure, and every
        # recorded drive lies on its null
        chip = EmulatedChip(mesh.nominal_mesh(8),
                            EmuConfig(actuator=ActuatorModel(v_pi=30.0), offset_scale=1.0, seed=3))
        record = calibrate_full_mesh(chip)
        reasons = [reason for _, reason in record.failures]
        assert any("misses the" in r for r in reasons)
        assert len(record.nodes) + len(reasons) == 28
        assert max(null_misses_v(chip, record)) <= 1e-6

    def test_tiny_v_pi_takes_few_turns(self, monkeypatch):
        # at v_pi = 1e-300 V the drive range spans some 1e301 turns of the
        # phase: each of a node's two drives is chosen from at most four
        # turns around its coarse peak, so the calibration ends with every
        # node recorded or failed
        volts, calls = ActuatorModel.volts, []
        monkeypatch.setattr(ActuatorModel, "volts",
                            lambda self, phase: calls.append(1) or volts(self, phase))
        calibrate, nodes = cal.calibrate_mzi, []
        monkeypatch.setattr(cal, "calibrate_mzi",
                            lambda *args: nodes.append(1) or calibrate(*args))
        config = dataclasses.replace(runner.paper_emu_config(3),
                                     actuator=ActuatorModel(v_pi=1e-300))
        chip = EmulatedChip(runner.build_mesh(mesh.paper_noise_spec(), 3), config)
        record = calibrate_full_mesh(chip)
        assert len(record.nodes) + len(record.failures) == 28
        assert 0 < len(calls) <= 4 * 2 * len(nodes)

    def test_noisy_voltage_scatter(self):
        # detector sigma 0.01: recovered voltages within 0.2 V of the
        # noiseless result across seeds
        state = mesh.nominal_mesh(8)
        quiet_chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=21))
        quiet = CalibrationRecord()
        calibrate_mzi(quiet_chip, quiet, isolation_sequence(1, (6, 0), quiet_chip.topology))
        for seed in range(12):
            chip = EmulatedChip(
                state,
                EmuConfig(
                    detector=DetectorModel(relative_noise_sigma=0.01),
                    offset_scale=1.0,
                    seed=21,
                ),
            )
            chip._noise_rng = np.random.default_rng(9000 + seed)
            record = CalibrationRecord()
            calibrate_mzi(chip, record, isolation_sequence(1, (6, 0), chip.topology))
            assert abs(record.nodes[(6, 0)].bar_v - quiet.nodes[(6, 0)].bar_v) < 0.2
            assert abs(record.nodes[(6, 0)].cross_v - quiet.nodes[(6, 0)].cross_v) < 0.2


class TestFullMesh:
    def test_all_28_calibrated(self, offset_calibrated):
        _, record = offset_calibrated
        assert len(record.nodes) == 28
        assert record.failures == []

    def test_clipped_leak_gives_finite_extinction(self, monkeypatch):
        # paper-noise chip 21: the detector clips the leak readings of U_4_1
        # (cross) and U_1_1 (bar) to zero, which read as ~2980 dB when divided
        # by the 1e-300 guard
        chip = EmulatedChip(runner.build_mesh(mesh.paper_noise_spec(), 21),
                            runner.paper_emu_config(21))
        clipped = []
        sweep = chip.sweep_channel

        def spy(ch, volts, inputs):
            mons = sweep(ch, volts, inputs)  # the swept node's own monitors
            if len(volts) == 2 and np.any(mons == 0.0):  # the extinction sweep
                clipped.append(ch)
            return mons

        monkeypatch.setattr(chip, "sweep_channel", spy)
        record = calibrate_full_mesh(chip)
        assert clipped
        exts = [e for c in record.nodes.values()
                for e in (c.bar_extinction_db, c.cross_extinction_db)]
        assert max(exts) < 60.0
        assert 10.0 < record.nodes[(4, 1)].cross_extinction_db < 60.0
        assert 10.0 < record.nodes[(1, 1)].bar_extinction_db < 60.0

    def test_perturbed_chip_median_extinction(self):
        # true cross extinction at the calibrated voltages is limited only
        # by the (2 eta - 1)^2 coupler floor, >= 20 dB for |eta-0.5| <= 0.05
        noise = mesh.paper_noise_spec()
        state = mesh.perturb(mesh.uniform_loss_mesh(8, 2.33, mesh.DEFAULT_TAP_DB), noise, seed=77)
        chip = EmulatedChip(state, EmuConfig(detector=paper_detector_model(),
                                             offset_scale=1.0, seed=77))
        record = calibrate_full_mesh(chip)
        assert len(record.nodes) == 28
        topo = state.topology
        etas_ok = []
        for node, c in record.nodes.items():
            p = state.params[node]
            if not (abs(p.eta_in - 0.5) <= 0.05 and abs(p.eta_out - 0.5) <= 0.05):
                continue
            path = isolation_sequence(c.input_port, node, topo)
            frame = cal._path_frame(chip, record, path)
            frame[channel(topo, node, THETA)] = c.cross_v
            chip.set_frame(VoltageFrame(frame))
            inp = np.zeros(8, complex)
            inp[c.input_port - 1] = 1.0
            _, mons = read_exact(chip, inp)
            idx = chip._compiled.node_index[node]
            gains = chip._compiled.mon_gain[idx]
            bar = mons[idx, path.arrival_arm] / gains[path.arrival_arm]
            crs = mons[idx, 1 - path.arrival_arm] / gains[1 - path.arrival_arm]
            etas_ok.append(10 * np.log10(crs / max(bar, 1e-300)))
            chip.reset()
        assert np.median(etas_ok) >= 20.0

    def test_mixed_paths_reproduce_full_mesh_voltages(self, offset_calibrated):
        # the mixed-path fallback after a node failure finds the voltages
        # the straight walks found
        chip, record = offset_calibrated
        checked = 0
        for node in chip.topology.nodes():
            for port in range(1, 9):
                try:
                    path = isolation_sequence(port, node, chip.topology)
                except IsolationError:
                    continue
                if len(set(path.states)) < 2:  # a straight walk, not a mixed path
                    continue
                without = copy.deepcopy(record)
                del without.nodes[node]
                got = calibrate_mzi(chip, without, path)
                assert got.bar_v == pytest.approx(record.nodes[node].bar_v, abs=1e-4)
                assert got.cross_v == pytest.approx(record.nodes[node].cross_v, abs=1e-4)
                checked += 1
        assert checked == 68

    @pytest.mark.parametrize("n_modes", [12, 16])
    def test_dark_attempts_are_failures(self, n_modes, monkeypatch):
        # At 2.33 dB per depth, some inputs light some nodes of the seed-21
        # chips so weakly that an arm reads no brighter than its leak; kept,
        # such attempts would leave 30 nodes at N = 16 and 3 at N = 12
        # recorded at <= 0 dB.  Each is a per-node failure that leaves the
        # record as it was; a node is recorded only from a path whose
        # monitors resolve it.
        chip = EmulatedChip(runner.build_mesh(mesh.paper_noise_spec(), 21, n_modes=n_modes),
                            runner.paper_emu_config(21))
        dark = []
        calibrate = cal.calibrate_mzi

        def spy(chip, record, path):
            try:
                return calibrate(chip, record, path)
            except IsolationError as exc:
                if "is not above 0 dB" in str(exc):
                    assert path.target not in record.nodes
                    dark.append(path.target)
                raise

        monkeypatch.setattr(cal, "calibrate_mzi", spy)
        record = calibrate_full_mesh(chip)
        assert dark
        failed = dict(record.failures)
        assert all(n in record.nodes or node_label(n) in failed for n in dark)
        assert all(min(c.bar_extinction_db, c.cross_extinction_db) > 0.0
                   for c in record.nodes.values())

    def test_dead_monitor_isolated_failure(self):
        state = mesh.nominal_mesh(8)
        state.params[(6, 0)].monitor_gains = (1e-12, 1e-12)
        chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=5))
        record = calibrate_full_mesh(chip)
        assert len(record.nodes) == 27
        assert [f[0] for f in record.failures] == ["U_6_0"]


class TestCorrectedCross:
    def test_noiseless_reaches_theoretical_null(self, default_circuits):
        # eta in [0.45, 0.55] on both members, zero imbalance, no noise
        group = default_circuits["2"].groups[0]
        state = mesh.nominal_mesh(8)
        rng = np.random.default_rng(0)
        for node in (group.left, group.right):
            p = state.params[node]
            p.eta_in = rng.uniform(0.45, 0.55)
            p.eta_out = rng.uniform(0.45, 0.55)
        chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=8))
        record = calibrate_full_mesh(chip)
        g = calibrate_corrected_cross(chip, group, record)
        assert g.extinction_db > 100.0
        assert not g.flagged

    def test_untuned_group_cannot_be_programmed(self, ideal_calibrated, default_circuits):
        record = copy.deepcopy(ideal_calibrated[1])
        record.groups.clear()
        with pytest.raises(cal.CalibrationError, match="U_5_0\\+U_3_0 is not tuned"):
            circuit_frame(record, default_circuits["2"])

    def test_paper_noise_groups_stop_within_budget(self, default_circuits):
        # the simplex stops on the objective's read-to-read spread instead of
        # spending its whole evaluation budget on detector noise
        state = runner.build_mesh(mesh.paper_noise_spec(), 21)
        _, record, _ = runner.run_chip(state, runner.paper_emu_config(21),
                                       circuits=default_circuits)
        assert len(record.groups) == 3
        assert all(g.n_evals < cal.NM_MAX_EVALS for g in record.groups.values())

    def test_noiseless_polish_restart_reached(self, default_circuits, monkeypatch):
        # A noiseless chip's objective is quiet, so the tight polish restart
        # follows the first simplex and runs on the remaining budget.
        xatols = []

        nelder_mead = cal._nelder_mead

        def spy(f, simplex, xatol, fatol, maxfev):
            xatols.append(xatol)
            return nelder_mead(f, simplex, xatol, fatol, maxfev)

        monkeypatch.setattr(cal, "_nelder_mead", spy)
        group = default_circuits["2"].groups[1]
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=1))
        record = calibrate_full_mesh(chip)
        g = calibrate_corrected_cross(chip, group, record)
        assert xatols == [cal.NM_XATOL_V, cal.NM_POLISH_XATOL_V]
        assert g.n_evals < cal.NM_MAX_EVALS
        assert g.extinction_db > 150.0
        assert not g.flagged

    def test_monotone_improvement_vs_stage2(self, default_circuits):
        # noiseless: the returned settings are never worse than the sweep point
        group = default_circuits["2"].groups[1]
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=14))
        record = calibrate_full_mesh(chip)
        g = calibrate_corrected_cross(chip, group, record)
        assert not g.flagged
        assert g.extinction_db > 40.0


def recorded(kind, seed, n):
    """An objective of ``kind`` that records every point it is given (then
    overwrites it, so a caller that passes its own array would notice), and
    the list of points."""
    rng = np.random.default_rng(seed)
    centre = rng.standard_normal(n)
    a = rng.standard_normal((n, n))
    curvature = a @ a.T + 0.1 * np.eye(n)
    noise = np.random.default_rng(seed + 1)
    points = []

    def f(x):
        points.append(x.copy())
        if kind == "spike":  # every vertex but the first ties: a shrink follows
            value = 0.0 if points[0].tobytes() == x.tobytes() else 1.0
        else:
            d = x - centre
            value = float(d @ curvature @ d)
            if kind == "noisy":
                value += 0.05 * noise.standard_normal()
            elif kind == "tied":
                value = float(np.floor(4.0 * value))
        x[:] = np.nan
        return value

    return f, points


def both_runs(kind, seed, n, maxfev, xatol, fatol):
    """(points, x, fun) of scipy's Nelder-Mead and of ``cal._nelder_mead``
    from one random initial simplex."""
    simplex = np.random.default_rng(seed + 2).standard_normal((n + 1, n))
    f, ref_points = recorded(kind, seed, n)
    ref = minimize(f, simplex[0], method="Nelder-Mead", options={
        "initial_simplex": simplex, "xatol": xatol, "fatol": fatol,
        "maxfev": maxfev, "adaptive": False})
    assert ref.nfev == len(ref_points)
    f, points = recorded(kind, seed, n)
    x, fun = cal._nelder_mead(f, simplex, xatol, fatol, maxfev)
    return (ref_points, ref.x, ref.fun), (points, x, fun)


class TestNelderMead:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["smooth", "noisy", "tied", "spike"]),
           seed=st.integers(0, 2**32 - 3), n=st.integers(1, 4),
           maxfev=st.integers(1, 500), xatol=st.floats(1e-9, 1e-1),
           fatol=st.floats(1e-9, 1e-1))
    @example(kind="noisy", seed=0, n=3, maxfev=500, xatol=1e-3, fatol=1e-2)
    @example(kind="smooth", seed=1, n=3, maxfev=2, xatol=1e-3, fatol=1e-3)
    def test_same_points_and_result_as_scipy(self, kind, seed, n, maxfev, xatol, fatol):
        (ref_points, ref_x, ref_fun), (points, x, fun) = both_runs(
            kind, seed, n, maxfev, xatol, fatol)
        assert len(points) == len(ref_points) <= maxfev
        assert all(p.tobytes() == q.tobytes() for p, q in zip(points, ref_points))
        assert x.tobytes() == ref_x.tobytes()
        assert repr(fun) == repr(ref_fun)

    @pytest.mark.parametrize("maxfev", [1, 3, 7, 8, 9])
    def test_budget_stops_inside_initial_simplex_and_shrink(self, maxfev):
        # spike objective in 3-D: 4 vertices, reflection, inside contraction,
        # then a shrink of vertices 1..3 (evaluations 7, 8 and 9)
        (ref_points, ref_x, ref_fun), (points, x, fun) = both_runs(
            "spike", 5, 3, maxfev, 1e-12, 1e-12)
        assert len(points) == len(ref_points) == maxfev
        assert all(p.tobytes() == q.tobytes() for p, q in zip(points, ref_points))
        assert x.tobytes() == ref_x.tobytes() and repr(fun) == repr(ref_fun)
        if maxfev > 6:  # the last point is initial vertex maxfev - 6 shrunk toward vertex 0
            best, vertex = points[0], points[maxfev - 6]
            assert points[-1].tobytes() == (best + 0.5 * (vertex - best)).tobytes()


class TestHadamardBalance:
    def test_equal_gains_ideal_block(self, ideal_calibrated, default_circuits):
        chip, record = ideal_calibrated
        spec = default_circuits["1"]
        calibrate_hadamard(chip, (0, 0), (1, 2), record, circuit=spec)
        program_circuit(chip, record, spec)
        u = chip._true_transfer()
        # half of the light input 1 delivers reaches each Hadamard output
        assert abs(u[0, 0]) == pytest.approx(np.linalg.norm(u[:, 0]) / np.sqrt(2), rel=1e-6)
        ratio = abs(u[0, 0]) / abs(u[1, 0])
        assert abs(ratio - 1.0) < 1e-6
        chip.reset()

    def test_unequal_gains_still_true_5050(self, default_circuits):
        # collection gains (1.0, 0.5), then monitor gains (1.0, 0.5) on the
        # balanced node itself: the balance still lands on the true 50:50
        # point, verified against the hidden transfer matrix
        collection = mesh.nominal_mesh(8)
        collection.output_gains = np.array([1.0, 0.5, 1, 1, 1, 1, 1, 1], dtype=float)
        monitor = mesh.nominal_mesh(8)
        monitor.params[(0, 0)] = dataclasses.replace(monitor.params[(0, 0)],
                                                     monitor_gains=(1.0, 0.5))
        spec = default_circuits["1"]
        for state in (collection, monitor):
            chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=6))
            record = calibrate_full_mesh(chip)
            calibrate_hadamard(chip, (0, 0), (1, 2), record, circuit=spec)
            program_circuit(chip, record, spec)
            u = chip._true_transfer()
            assert abs(abs(u[0, 0]) - abs(u[1, 0])) < 1e-6
            chip.reset()

    def test_noisy_split_error(self, default_circuits):
        # sigma = 0.01 detectors: split ratio error < 1% across seeds
        state = mesh.nominal_mesh(8)
        spec = default_circuits["1"]
        for seed in range(10):
            chip = EmulatedChip(
                state,
                EmuConfig(detector=DetectorModel(relative_noise_sigma=0.01),
                          offset_scale=1.0, seed=30),
            )
            chip._noise_rng = np.random.default_rng(40 + seed)
            record = calibrate_full_mesh(chip)
            calibrate_hadamard(chip, (0, 0), (1, 2), record, circuit=spec)
            program_circuit(chip, record, spec)
            u = chip._true_transfer()
            split = abs(u[0, 0]) ** 2 / (abs(u[0, 0]) ** 2 + abs(u[1, 0]) ** 2)
            assert abs(split - 0.5) < 0.01
            chip.reset()

    def test_chip_with_clipped_spread_keeps_its_links(self, default_circuits):
        # chip 4717222 (bench bringup seed 53, chip 65): a spread measured at
        # readings the detector clipped once let circuit 3's U_0_2 stop at
        # f_x = -1.92 for pair (3, 7), for a link F of 0.9518
        summary, _, _ = runner.run_chip(runner.build_mesh(mesh.paper_noise_spec(), 4717222),
                                        runner.paper_emu_config(4717222), default_circuits)
        assert summary.failures == 0 and summary.circuit_failures == {}
        assert min(summary.link_f) >= 0.96

    def test_stop_needs_resolved_readings(self, default_circuits):
        # chips 114, 115 and 128 once read points inside the bracket whose
        # outputs lay at the detector floor; their fitted balances keep
        # every circuit and every link
        for seed in (114, 115, 128):
            summary, _, _ = runner.run_chip(runner.build_mesh(mesh.paper_noise_spec(), seed),
                                            runner.paper_emu_config(seed), default_circuits)
            assert summary.failures == 0 and summary.circuit_failures == {}
            assert min(summary.link_f) >= 0.96

    def test_no_light_flagged(self, ideal_calibrated, default_circuits):
        chip, record = ideal_calibrated
        # node (0,3) never sees the (1,2) pair in circuit 1: flat dark ratio
        with pytest.raises(HadamardBalanceError):
            calibrate_hadamard(chip, (0, 3), (1, 2), record, circuit=default_circuits["1"])
        chip.reset()

    def test_dark_monitors_name_the_node(self, ideal_calibrated, default_circuits):
        # the same dark Hadamard behind a detector with multiplicative noise
        # only, which reads exact zeros but draws a deviate per reading: the
        # error names the node, and both inputs' sweeps were read before it
        _, record = ideal_calibrated
        chip = EmulatedChip(mesh.nominal_mesh(8),
                            EmuConfig(detector=DetectorModel(relative_noise_sigma=0.01),
                                      offset_scale=0.0, seed=0))
        twin = copy.deepcopy(chip._noise_rng)
        with pytest.raises(HadamardBalanceError,
                           match=r"^U_0_3: no light at the Hadamard monitors for \(1, 2\)"):
            calibrate_hadamard(chip, (0, 3), (1, 2), record, circuit=default_circuits["1"])
        twin.standard_normal(2 * cal.HADAMARD_POINTS * 2)
        assert chip._noise_rng.bit_generator.state == twin.bit_generator.state


def spy_hadamards(monkeypatch) -> list[dict]:
    """Record, per calibrate_hadamard call, the split voltage it returns,
    the (input rows, points) of each step sweep it makes, its number of
    point reads,
    and the hidden power split at its split voltage: for each input of the
    pair, the share of the node's two output ports on its top port."""
    calls = []
    hadamard = cal.calibrate_hadamard

    def spy(chip, node, pair, record, circuit):
        sweeps, point_reads = [], 0
        sweep_channel, read_detectors = chip.sweep_channel, chip.read_detectors

        def sweep_spy(ch, volts, inputs):
            sweeps.append((len(inputs) if np.ndim(inputs) == 2 else 1, np.size(volts)))
            return sweep_channel(ch, volts, inputs)

        def read_spy(inputs):
            nonlocal point_reads
            point_reads += 1
            return read_detectors(inputs)

        monkeypatch.setattr(chip, "sweep_channel", sweep_spy)
        monkeypatch.setattr(chip, "read_detectors", read_spy)
        split = hadamard(chip, node, pair, record, circuit)
        monkeypatch.setattr(chip, "sweep_channel", sweep_channel)
        monkeypatch.setattr(chip, "read_detectors", read_detectors)

        frame = circuit_frame(record, circuit)
        frame[channel(chip.topology, node, THETA)] = split
        chip.set_frame(VoltageFrame(frame))
        power = np.abs(chip._true_transfer()[list(chip.topology.node_ports(node))]) ** 2
        chip.reset()
        share = [power[0, k - 1] / power[:, k - 1].sum() for k in pair]
        calls.append({"split": split, "sweeps": sweeps, "point_reads": point_reads,
                      "top_share": share})
        return split

    monkeypatch.setattr(cal, "calibrate_hadamard", spy)
    return calls


def null_misses_v(chip, record) -> list[float]:
    """How far, in volts, each recorded bar and cross drive lies from its
    node's analytic null on a noiseless chip with ideal couplers and a
    linear actuator: internal phase pi at bar, 0 at cross, with the chip's
    hidden offsets."""
    actuator = chip.config.actuator
    misses = []
    for node, c in record.nodes.items():
        offset = chip._offsets[chip.node_index[node], 1]
        for v, target in ((c.bar_v, math.pi), (c.cross_v, 0.0)):
            miss = (actuator.phase(v) + offset - target + math.pi) % (2.0 * math.pi) - math.pi
            misses.append(abs(miss) * actuator.v_pi / math.pi)
    return misses


class TestSearchStops:
    """The fringe fits put every bar and cross drive on its analytic null,
    and every Hadamard's hidden block at 50:50, on a noiseless chip."""

    @pytest.mark.parametrize("seed", [0, 11, 14])
    def test_noiseless_searches_reach_their_windows(self, seed, default_circuits, monkeypatch):
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=seed))
        record = calibrate_full_mesh(chip)
        misses = null_misses_v(chip, record)
        assert len(misses) == 2 * len(record.nodes) == 56
        assert max(misses) <= 1e-6

        hadamards = spy_hadamards(monkeypatch)
        for name in ("1", "2", "3", "4"):
            cal.calibrate_circuit(chip, record, default_circuits[name])
        assert len(hadamards) == 16
        for call in hadamards:
            assert np.allclose(call["top_share"], 0.5, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_modes", [6, 10])
    def test_noiseless_mesh_searches_reach_their_window(self, n_modes):
        # the coarse sweep is exactly first-harmonic in each node's phase at
        # every N, so the fit lands every drive on its null
        chip = EmulatedChip(mesh.nominal_mesh(n_modes), EmuConfig(offset_scale=1.0, seed=11))
        record = calibrate_full_mesh(chip)
        misses = null_misses_v(chip, record)
        assert len(misses) == 2 * len(record.nodes) == 2 * len(chip.topology.nodes())
        assert max(misses) <= 1e-6

    def test_paper_noise_search_costs(self, default_circuits, monkeypatch):
        # The fit decides both drives from the coarse sweep, so a node takes
        # the coarse sweep and one two-point sweep, its two extinction reads,
        # and no point read.  A Hadamard takes one step sweep of its two
        # inputs stacked, and no point read.
        state = runner.build_mesh(mesh.paper_noise_spec(), 21)
        chip = EmulatedChip(state, runner.paper_emu_config(21))
        sweeps, point_reads = [], 0
        sweep_channel, read_detectors = chip.sweep_channel, chip.read_detectors

        def sweep_spy(ch, volts, inputs):
            sweeps.append(np.size(volts))
            mons = sweep_channel(ch, volts, inputs)
            assert mons.shape == (np.size(volts), 2)  # the swept node's own monitors
            return mons

        def read_spy(inputs):
            nonlocal point_reads
            point_reads += 1
            return read_detectors(inputs)

        monkeypatch.setattr(chip, "sweep_channel", sweep_spy)
        monkeypatch.setattr(chip, "read_detectors", read_spy)
        record = calibrate_full_mesh(chip)
        assert len(record.nodes) == 28 and record.failures == []
        assert sweeps == [cal.COARSE_POINTS, 2] * len(record.nodes)
        assert point_reads == 0
        monkeypatch.setattr(chip, "sweep_channel", sweep_channel)
        monkeypatch.setattr(chip, "read_detectors", read_detectors)

        hadamards = spy_hadamards(monkeypatch)
        for name in ("1", "2", "3", "4"):
            cal.calibrate_circuit(chip, record, default_circuits[name])
        assert len(hadamards) == 16
        for call in hadamards:
            assert call["sweeps"] == [(2, cal.HADAMARD_POINTS)]
            assert call["point_reads"] == 0


class TestRecordPersistence:
    def test_round_trip_bit_for_bit(self, tmp_path, offset_calibrated, default_circuits):
        chip, record = offset_calibrated
        p1 = tmp_path / "cal.json"
        p2 = tmp_path / "cal2.json"
        save_record(record, p1)
        loaded = load_record(p1)
        save_record(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # frames built from the two records are identical bit for bit
        spec = default_circuits["1"]
        f1 = circuit_frame(record, spec)
        f2 = circuit_frame(loaded, spec)
        assert np.array_equal(f1, f2)

    def test_schema_tag(self, offset_calibrated):
        _, record = offset_calibrated
        d = cal.record_to_dict(record)
        assert d["schema"] == "cal-v1"
        d["schema"] = "x"
        with pytest.raises(ValueError):
            cal.record_from_dict(d)


class TestOffsetOpacity:
    def test_recalibration_equivalence_across_offsets(self):
        # chips that differ only in hidden offsets calibrate to equivalent
        # optical behaviour (extinction within tolerance), without the
        # calibration ever reading the offsets
        exts = []
        for seed in (101, 202):
            chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=seed))
            record = calibrate_full_mesh(chip)
            exts.append(np.median([c.cross_extinction_db for c in record.nodes.values()]))
        assert abs(exts[0] - exts[1]) < 15.0
        assert min(exts) > 60.0
