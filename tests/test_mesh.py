import json
import math

import numpy as np
import pytest

from mzmesh import mesh
from mzmesh.mesh import (
    CouplerParams,
    MeshTopology,
    MziParams,
    NoiseSpec,
    ideal_mesh,
    mzi_transfer,
    nominal_mesh,
    perturb,
    uniform_loss_mesh,
)

from oracles import dense_mesh_taps, dense_mesh_transfer, fringe_curve


def random_phases(state, rng):
    for node in state.topology.nodes():
        p = state.params[node]
        p.theta1, p.theta2, p.phi1, p.phi2 = rng.uniform(-np.pi, np.pi, 4)
    return state


class TestMziTransfer:
    def test_bar_state_at_pi(self):
        u = mzi_transfer(MziParams(theta1=np.pi / 2, theta2=-np.pi / 2, phi1=0.0, phi2=0.0))
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-15)

    def test_cross_state_at_zero(self):
        u = mzi_transfer(MziParams(theta1=0.0, theta2=0.0, phi1=0.0, phi2=0.0))
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-15)

    def test_coupler_error_leakage_floor(self):
        # eta = 0.55 on both couplers leaves (2 eta - 1)^2 power in the bar
        # port of the cross state; direct 2x2 multiplication oracle.
        eta = 0.55
        p = MziParams(c_in=CouplerParams(eta), c_out=CouplerParams(eta))
        u = mzi_transfer(p)
        c = CouplerParams(eta).matrix()
        oracle = c @ c
        assert np.allclose(u, oracle, atol=1e-15)
        assert abs(u[0, 0]) ** 2 == pytest.approx((2 * eta - 1) ** 2, abs=1e-12)

    def test_differential_phase_only(self, rng):
        # with ideal couplers, |U| depends only on theta1 - theta2
        diff = 1.1
        base = np.abs(mzi_transfer(MziParams(theta1=diff / 2, theta2=-diff / 2)))
        for common in rng.uniform(-np.pi, np.pi, 20):
            p = MziParams(theta1=common + diff / 2, theta2=common - diff / 2)
            assert np.allclose(np.abs(mzi_transfer(p)), base, atol=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CouplerParams(eta=1.2)
        with pytest.raises(ValueError):
            CouplerParams(amp_loss=0.0)
        with pytest.raises(ValueError):
            MziParams(arm_loss_top=1.5)
        with pytest.raises(ValueError):
            MziParams(theta1=float("nan"))


class TestTopology:
    def test_paper_chip_has_28_nodes(self):
        topo = MeshTopology(8)
        nodes = topo.nodes()
        assert len(nodes) == 28
        for col in range(8):
            expected = 4 if col % 2 == 0 else 3
            assert len(topo.column_rows(col)) == expected

    def test_port_pairs(self):
        topo = MeshTopology(8)
        assert topo.node_ports((0, 0)) == (0, 1)
        assert topo.node_ports((0, 3)) == (6, 7)
        assert topo.node_ports((1, 0)) == (1, 2)
        assert topo.node_ports((7, 2)) == (5, 6)
        assert topo.node_at(7, 0) is None  # boundary port passes odd columns
        assert topo.node_at(6, 0) == (6, 0)

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(7)

    @pytest.mark.parametrize("node", [(8, 0), (-1, 0), (0, 4), (1, 3), (0, -1)])
    def test_off_mesh_node_rejected(self, node):
        topo = MeshTopology(8)
        assert not topo.has_node(node)
        with pytest.raises(ValueError, match="no node"):
            topo.node_ports(node)

    def test_has_node_matches_node_list(self):
        topo = MeshTopology(6)
        grid = [(c, r) for c in range(-1, 8) for r in range(-1, 5)]
        assert [n for n in grid if topo.has_node(n)] == sorted(topo.nodes())


class TestMeshTransfer:
    def test_all_bar_is_identity(self):
        state = ideal_mesh(8)
        for node in state.topology.nodes():
            state.params[node] = MziParams(theta1=np.pi / 2, theta2=-np.pi / 2)
        u = mesh.CompiledMesh(state).transfer()
        assert np.max(np.abs(np.abs(u) - np.eye(8))) < 1e-14

    def test_lone_splitter(self):
        # single 50:50 on ports (1,2) at column 0, rest bar
        state = ideal_mesh(8)
        for node in state.topology.nodes():
            state.params[node] = MziParams(theta1=np.pi / 2, theta2=-np.pi / 2)
        state.params[(0, 0)] = MziParams(theta1=np.pi / 4, theta2=-np.pi / 4)
        u = mesh.CompiledMesh(state).transfer()
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(u[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_unitarity_1000_random_phase_assignments(self, rng):
        cm = mesh.CompiledMesh(ideal_mesh(8))
        eye = np.eye(8)
        for _ in range(1000):
            th1, th2, ph1, ph2 = rng.uniform(-np.pi, np.pi, (4, 28))
            u = cm.transfer(th1, th2, ph1, ph2)
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            state = random_phases(ideal_mesh(8), rng)
            # sprinkle imperfections
            for node in state.topology.nodes():
                p = state.params[node]
                p.c_in = CouplerParams(rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.0))
                p.c_out = CouplerParams(rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.0))
                p.arm_loss_top = rng.uniform(0.8, 1.0)
                p.arm_loss_bot = rng.uniform(0.8, 1.0)
                p.tap_loss = rng.uniform(0.9, 1.0)
            u = mesh.CompiledMesh(state).transfer()
            assert np.max(np.abs(u - dense_mesh_transfer(state))) < 1e-13

    @pytest.mark.parametrize("n_modes", [2, 6, 8, 16, 64])
    def test_lossy_mesh_matches_dense_oracle(self, n_modes, rng):
        state = lossy_random_mesh(n_modes, rng)
        u = mesh.CompiledMesh(state).transfer()
        assert u.shape == (n_modes, n_modes)
        assert np.max(np.abs(u - dense_mesh_transfer(state))) < 1e-12


def lossy_random_mesh(n_modes, rng):
    """Random phases, unequal lossy couplers, arm, tap and pass-through losses."""
    state = random_phases(ideal_mesh(n_modes), rng)
    for node in state.topology.nodes():
        p = state.params[node]
        p.c_in = CouplerParams(rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.0))
        p.c_out = CouplerParams(rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.0))
        p.arm_loss_top = rng.uniform(0.8, 1.0)
        p.arm_loss_bot = rng.uniform(0.8, 1.0)
        p.tap_loss = rng.uniform(0.9, 1.0)
    topo = state.topology
    for col in range(topo.n_columns):
        for port in range(n_modes):
            if topo.node_at(col, port) is None:
                state.passthrough_loss[(col, port)] = rng.uniform(0.7, 1.0)
    return state


class TestPropagationKernel:
    @pytest.mark.parametrize("n_modes", [8, 6, 2])
    def test_taps_match_dense_partial_products(self, n_modes, rng):
        for _ in range(10):
            state = lossy_random_mesh(n_modes, rng)
            inp = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
            cm = mesh.CompiledMesh(state)
            fields, taps = cm.propagate(inp, cm.columns(), want_taps=True)
            want_fields, want_taps = dense_mesh_taps(state, inp)
            assert taps.shape == (1, len(state.topology.nodes()), 2)
            assert np.max(np.abs(taps[0] - want_taps)) < 1e-12
            assert np.max(np.abs(fields[0] - want_fields)) < 1e-12

    @pytest.mark.parametrize("n_modes", [8, 6, 10])
    def test_batch_rows_equal_single_calls(self, n_modes, rng):
        state = lossy_random_mesh(n_modes, rng)
        cm = mesh.CompiledMesh(state)
        batch, n_nodes = 7, len(cm.nodes)
        inp = rng.standard_normal((batch, n_modes)) + 1j * rng.standard_normal((batch, n_modes))
        phases = rng.uniform(-np.pi, np.pi, (4, batch, n_nodes))
        fields, taps = cm.propagate(inp, cm.columns(*phases), want_taps=True)
        lost = cm._dissipated(inp, phases)
        assert fields.shape == (batch, n_modes)
        assert taps.shape == (batch, n_nodes, 2)
        assert lost.shape == (batch,)
        for b in range(batch):
            f1, t1 = cm.propagate(inp[b], cm.columns(*phases[:, b]), want_taps=True)
            l1 = cm._dissipated(inp[b], phases[:, b])
            assert np.array_equal(fields[b], f1[0])
            assert np.array_equal(taps[b], t1[0])
            assert abs(lost[b] - l1[0]) < 1e-13

    @pytest.mark.parametrize("n_modes", [6, 10])
    def test_shared_columns_equal_full_build(self, n_modes, rng):
        # three swept nodes, two of them in one column: only those two
        # columns get per-row matrices, the rest stay shared
        state = lossy_random_mesh(n_modes, rng)
        cm = mesh.CompiledMesh(state)
        batch = 5
        swept = [cm.node_index[nd] for nd in ((0, 0), (0, 1), (n_modes - 1, 1))]
        stored = np.array([[getattr(state.params[nd], name) for nd in cm.nodes]
                           for name in ("theta1", "theta2", "phi1", "phi2")])
        phases = np.repeat(stored[:, None], batch, axis=1)
        phases[:, :, swept] = rng.uniform(-np.pi, np.pi, (4, batch, len(swept)))
        shared = cm.columns(*phases[:, :, swept], nodes=swept, base=cm.columns())
        assert [len(c) for c in shared].count(batch) == 2
        inp = rng.standard_normal((batch, n_modes)) + 1j * rng.standard_normal((batch, n_modes))
        fields, taps = cm.propagate(inp, shared, want_taps=True)
        want_fields, want_taps = cm.propagate(inp, cm.columns(*phases), want_taps=True)
        assert np.array_equal(fields, want_fields)
        assert np.array_equal(taps, want_taps)

    def test_wrong_phase_length_rejected(self):
        cm = mesh.CompiledMesh(ideal_mesh(8))
        with pytest.raises(ValueError):
            cm.columns(theta1=np.zeros(56))


class TestOutputPowers:
    def test_identity_passthrough(self):
        state = ideal_mesh(8)
        for node in state.topology.nodes():
            state.params[node] = MziParams(theta1=np.pi / 2, theta2=-np.pi / 2)
        inp = np.zeros(8, complex)
        inp[0] = 1.0
        powers = mesh.output_powers(mesh.CompiledMesh(state), inp)
        assert powers[0] == pytest.approx(1.0, abs=1e-12)
        assert powers[1:].sum() < 1e-12

    def test_lone_splitter_fringe(self):
        # lone 50:50 on ports (1,2), two inputs with relative phase alpha
        state = ideal_mesh(8)
        for node in state.topology.nodes():
            state.params[node] = MziParams(theta1=np.pi / 2, theta2=-np.pi / 2)
        state.params[(0, 0)] = MziParams(theta1=np.pi / 4, theta2=-np.pi / 4)
        u = mesh.CompiledMesh(state).transfer()
        for alpha in np.linspace(-np.pi, np.pi, 17):
            inp = np.zeros(8, complex)
            inp[0] = 1.0 / math.sqrt(2)
            inp[1] = np.exp(1j * alpha) / math.sqrt(2)
            powers = mesh.output_powers(mesh.CompiledMesh(state), inp)
            # oracle: closed-form fringe with |u| = 1/sqrt(2) entries
            expect = fringe_curve(u, (1, 2), 1, [-alpha])[0] / 2.0
            assert powers[0] == pytest.approx(expect, abs=1e-12)

    def test_depth_loss_totals(self):
        # -2.33 dB per depth over 8 depths: -18.64 dB end to end
        state = uniform_loss_mesh(8, 2.33)
        for node in state.topology.nodes():
            p = state.params[node]
            p.theta1, p.theta2 = np.pi / 2, -np.pi / 2
        for k in range(8):
            inp = np.zeros(8, complex)
            inp[k] = 1.0
            total_db = 10 * np.log10(mesh.output_powers(mesh.CompiledMesh(state), inp).sum())
            assert total_db == pytest.approx(-18.64, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mesh.output_powers(mesh.CompiledMesh(ideal_mesh(8)), np.ones(4, complex))


class TestMonitors:
    def test_bar_state_taps(self):
        state = nominal_mesh(8)
        state.params[(6, 0)].theta1 = np.pi / 2
        state.params[(6, 0)].theta2 = -np.pi / 2
        inp = np.zeros(8, complex)
        inp[0] = 1.0
        readings = mesh.monitor_readings(mesh.CompiledMesh(state), inp)
        top, bot = readings[(6, 0)]
        assert top > 1e3 * max(bot, 1e-300)

    def test_cross_state_taps(self):
        state = nominal_mesh(8)  # all cross by default phases
        inp = np.zeros(8, complex)
        inp[0] = 1.0
        top, bot = mesh.monitor_readings(mesh.CompiledMesh(state), inp)[(6, 0)]
        assert bot > 1e3 * max(top, 1e-300)

    def test_monitor_gain_linearity(self):
        state = nominal_mesh(8)
        inp = np.zeros(8, complex)
        inp[0] = 1.0
        base = mesh.monitor_readings(mesh.CompiledMesh(state), inp)[(6, 0)]
        state.monitor_gains[(6, 0)] = (2.0, 2.0)
        doubled = mesh.monitor_readings(mesh.CompiledMesh(state), inp)[(6, 0)]
        assert doubled[0] == pytest.approx(2 * base[0], rel=1e-12)
        assert doubled[1] == pytest.approx(2 * base[1], rel=1e-12)

    def test_default_tap_fraction(self):
        state = nominal_mesh(8)
        frac = state.params[(0, 0)].tap_fraction
        assert frac == pytest.approx(1 - 10 ** (-0.05), abs=1e-12)


class TestEnergyConservation:
    @pytest.mark.parametrize("n_modes", [2, 6, 8])
    def test_audit_closes(self, n_modes, rng):
        state = lossy_random_mesh(n_modes, rng)
        inp = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        audit = mesh.energy_audit(mesh.CompiledMesh(state), inp)
        total = audit["output"] + audit["tapped"] + audit["dissipated"]
        assert total == pytest.approx(audit["input"], rel=1e-10)


class TestPerturb:
    def test_zero_width_is_identity(self):
        state = nominal_mesh(8)
        sampled = perturb(state, NoiseSpec(), seed=3)
        for node in state.topology.nodes():
            assert sampled.params[node] == state.params[node]
        assert np.allclose(sampled.output_gains, state.output_gains)

    def test_same_seed_identical(self):
        noise = mesh.paper_noise_spec()
        a = perturb(uniform_loss_mesh(8, 2.33), noise, seed=42)
        b = perturb(uniform_loss_mesh(8, 2.33), noise, seed=42)
        assert mesh.mesh_to_dict(a) == mesh.mesh_to_dict(b)

    def test_loss_band(self):
        # mean -2.33 dB/depth, sigma 1.87 dB per full-depth path: straight
        # path totals concentrate in the -16..-20 dB band
        noise = NoiseSpec(loss_db_mean=2.33, loss_db_sigma=1.87)
        totals = []
        for seed in range(60):
            state = perturb(uniform_loss_mesh(8, 2.33), noise, seed=seed)
            for node in state.topology.nodes():
                state.params[node].theta1 = np.pi / 2
                state.params[node].theta2 = -np.pi / 2
            for k in range(8):
                inp = np.zeros(8, complex)
                inp[k] = 1.0
                totals.append(10 * np.log10(mesh.output_powers(mesh.CompiledMesh(state), inp).sum()))
        q1, q3 = np.percentile(totals, [25, 75])
        assert -20.5 < q1 < q3 < -16.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(eta_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(eta_bounds=(0.6, 0.4))


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        state = perturb(uniform_loss_mesh(8, 2.33), mesh.paper_noise_spec(), seed=9)
        state = random_phases(state, rng)
        path = tmp_path / "mesh.json"
        mesh.save_mesh(state, path)
        loaded = mesh.load_mesh(path)
        assert np.max(np.abs(mesh.CompiledMesh(loaded).transfer() - mesh.CompiledMesh(state).transfer())) == 0.0
        # byte-identical re-save
        path2 = tmp_path / "mesh2.json"
        mesh.save_mesh(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_schema_tag(self, tmp_path):
        state = ideal_mesh(8)
        d = mesh.mesh_to_dict(state)
        assert d["schema"] == "mesh-v1"
        d["schema"] = "other"
        with pytest.raises(ValueError):
            mesh.mesh_from_dict(d)

    def test_noise_round_trip(self):
        spec = mesh.paper_noise_spec()
        assert mesh.noise_from_dict(mesh.noise_to_dict(spec)) == spec
