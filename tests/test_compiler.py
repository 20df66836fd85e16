import dataclasses

import numpy as np
import pytest

from mzmesh import compiler, mesh
from mzmesh.compiler import (
    ALL_TO_ALL_CIRCUITS,
    CircuitSpec,
    Gate,
    clements_decompose,
    crossing_cost,
    ideal_circuit_magnitudes,
    ohqe_circuits,
    reconstruct,
    route_matching,
    sweep_shifter_nodes,
    upgrade_to_corrected,
)
from mzmesh.mesh import MeshTopology, MziParams, ideal_mesh, mesh_transfer

from oracles import bfs_min_crossings, haar_unitary, pair_min_crossings, solve_corrected_cross


def simulate_gates(spec: CircuitSpec) -> np.ndarray:
    """Ideal-component simulation of a routed circuit's gate pattern."""
    state = ideal_mesh(spec.n_modes)
    for node, gate in spec.gates.items():
        if gate in (Gate.BAR, Gate.UNUSED, Gate.CORR_INTERMEDIATE):
            td = np.pi
        elif gate is Gate.CROSS_SINGLE:
            td = 0.0
        else:  # HADAMARD and corrected-cross members sit at 50:50
            td = np.pi / 2
        state.params[node] = MziParams(theta1=td / 2, theta2=-td / 2)
    return mesh_transfer(state)


class TestClements:
    def test_identity_all_bar_zero_screen(self):
        plan = clements_decompose(np.eye(8))
        for theta, _ in plan.settings().values():
            assert abs(abs(theta) - np.pi) < 1e-12
        assert np.max(np.abs(plan.phase_screen - 1.0)) < 1e-12

    def test_2x2_hadamard_is_half_pi_splitter(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        plan = clements_decompose(h)
        assert len(plan.entries) == 1
        assert plan.entries[0].theta_diff == pytest.approx(np.pi / 2, abs=1e-12)
        assert np.max(np.abs(reconstruct(plan) - h)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("variant", [True, False])
    def test_round_trip(self, n, variant, rng):
        for _ in range(10):
            u = haar_unitary(n, rng)
            plan = clements_decompose(u, reversed_variant=variant)
            assert np.max(np.abs(reconstruct(plan) - u)) < 1e-9

    def test_reversed_nulls_upper_right(self, rng):
        u = haar_unitary(8, rng)
        plan = clements_decompose(u, reversed_variant=True)
        entries = sorted((r, c) for r, c, _ in plan.nulled_trace)
        assert entries == sorted((r, c) for r in range(8) for c in range(r + 1, 8))
        assert max(v for _, _, v in plan.nulled_trace) < 1e-12

    def test_standard_nulls_lower_left(self, rng):
        u = haar_unitary(8, rng)
        plan = clements_decompose(u, reversed_variant=False)
        entries = sorted((r, c) for r, c, _ in plan.nulled_trace)
        assert entries == sorted((r, c) for r in range(8) for c in range(r))
        assert max(v for _, _, v in plan.nulled_trace) < 1e-12

    def test_variants_reconstruct_same_target(self, rng):
        u = haar_unitary(8, rng)
        rec_r = reconstruct(clements_decompose(u, reversed_variant=True))
        rec_s = reconstruct(clements_decompose(u, reversed_variant=False))
        assert np.max(np.abs(rec_r - u)) < 1e-9
        assert np.max(np.abs(rec_s - u)) < 1e-9

    def test_each_node_visited_once(self, rng):
        plan = clements_decompose(haar_unitary(8, rng))
        nodes = [e.node for e in plan.entries]
        assert len(nodes) == len(set(nodes)) == 28
        assert set(nodes) == set(MeshTopology(8).nodes())

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            clements_decompose(np.eye(8) * 1.01)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            clements_decompose(np.eye(3))

    def test_csv_export(self, tmp_path, rng):
        plan = clements_decompose(haar_unitary(8, rng))
        path = tmp_path / "plan.csv"
        plan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "col,row,theta_diff_rad,phi_rad"
        assert len(lines) == 29


class TestRouting:
    def test_adjacent_pairs_zero_crossings(self):
        spec = route_matching([(1, 2), (3, 4), (5, 6), (7, 8)])
        assert spec.crossings() == []
        assert len(spec.hadamard_nodes()) == 4

    def test_routing_validity_hadamard_structure(self, default_circuits):
        for name in ("1", "2", "3", "4"):
            spec = default_circuits[name]
            u = np.abs(simulate_gates(spec))
            for col in range(8):
                top2 = np.sort(u[:, col])[-2:]
                assert np.allclose(top2, 1 / np.sqrt(2), atol=1e-12)
                assert np.sort(u[:, col])[-3] < 1e-12

    def test_crossing_counts_match_bfs_oracle(self):
        matching = [(1, 5), (2, 6), (3, 7), (4, 8)]
        spec = route_matching(matching)
        assert len(spec.crossings()) == bfs_min_crossings(matching)

    def test_paper_optional_set_routable(self):
        spec = route_matching([(1, 4), (2, 3), (5, 8), (6, 7)])
        assert len(spec.hadamard_nodes()) == 4

    def test_partial_matching(self):
        spec = route_matching([(1, 3)])
        assert len(spec.hadamard_nodes()) == 1
        (pair,) = spec.matching
        assert pair == (1, 3)

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            route_matching([(1, 2), (2, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            route_matching([(0, 2)])

    @pytest.mark.parametrize(
        "pair,expected",
        [((1, 2), 0), ((3, 4), 0), ((1, 8), 6), ((1, 5), 3), ((4, 5), 2)],
    )
    def test_pair_costs_frozen_from_oracle(self, pair, expected):
        # expected values computed once with the BFS swap-count oracle
        assert crossing_cost(pair).uncorrected_crossings == expected

    def test_pair_cost_matches_oracle_live(self):
        for pair in [(2, 7), (1, 6), (3, 8)]:
            assert crossing_cost(pair).uncorrected_crossings == pair_min_crossings(pair)


class TestCorrectedCrossings:
    def test_upgrade_structure(self, default_circuits):
        spec = default_circuits["2"]
        assert spec.groups, "circuit 2 carries corrected crossings"
        for g in spec.groups:
            assert g.left[0] - 2 == g.right[0]
            assert g.left[1] == g.right[1]
            assert 1 <= len(g.intermediates) <= 2
            for mid in g.intermediates:
                assert spec.gates[mid] is Gate.CORR_INTERMEDIATE
            assert spec.gates[g.left] is Gate.CORR_LEFT
            assert spec.gates[g.right] is Gate.CORR_RIGHT

    def test_upgrade_on_bar_node_rejected(self):
        spec = route_matching([(1, 2), (3, 4), (5, 6), (7, 8)])
        with pytest.raises(ValueError):
            upgrade_to_corrected(spec, (6, 0))

    def test_span_conflicts_reported(self):
        spec = route_matching([(1, 5), (2, 6), (3, 7), (4, 8)])
        upgraded, failures = upgrade_to_corrected(spec, "all")
        assert len(upgraded.groups) + len(failures) == len(spec.crossings())
        for node, reason in failures:
            assert upgraded.gates[node] is Gate.CROSS_SINGLE
            assert reason

    def test_exact_solve_zero_leakage_with_coupler_error(self):
        # ideal-loss double-MZI with eta = 0.55 couplers nulls the bar port
        # exactly once the three phases are solved (Miller construction)
        _, residual = solve_corrected_cross(0.55, 0.55, 0.55, 0.55)
        assert residual < 1e-12

    def test_exact_solve_over_coupler_range(self, rng):
        # arbitrary eta in [0.4, 0.6] on both members, no loss imbalance:
        # the solved group still reaches a < 1e-12 bar null
        for _ in range(10):
            etas = rng.uniform(0.4, 0.6, 4)
            _, residual = solve_corrected_cross(*etas)
            assert residual < 1e-12

    def test_single_mzi_floor_for_comparison(self):
        from mzmesh.mesh import CouplerParams, mzi_transfer

        p = MziParams(c_in=CouplerParams(0.55), c_out=CouplerParams(0.55))
        assert abs(mzi_transfer(p)[0, 0]) ** 2 == pytest.approx(0.01, abs=1e-12)


class TestOhqeCircuits:
    def test_union_of_main_circuits_is_16_links(self, default_circuits):
        union = set()
        for name in ("1", "2", "3", "4"):
            union |= set(default_circuits[name].matching)
        assert len(union) == 16

    def test_all_to_all_covers_28_pairs(self, default_circuits):
        pairs = set()
        for name in ALL_TO_ALL_CIRCUITS:
            new = set(default_circuits[name].matching)
            assert not pairs & new, "matchings must partition the pair set"
            pairs |= new
        assert len(pairs) == 28

    def test_each_circuit_is_perfect_matching(self, default_circuits):
        for spec in default_circuits.values():
            ports = [p for pair in spec.matching for p in pair]
            assert sorted(ports) == list(range(1, 9))

    def test_matchings_overridable(self):
        custom = {"1": ((1, 3), (2, 4), (5, 6), (7, 8))}
        circuits = ohqe_circuits(matchings=custom)
        assert circuits["1"].matching == ((1, 3), (2, 4), (5, 6), (7, 8))

    def test_cold_cache_hands_out_copies(self, monkeypatch):
        monkeypatch.setattr(compiler, "_DEFAULT_CIRCUIT_CACHE", None)
        first = ohqe_circuits()
        n_gates = len(first["1"].gates)
        first["1"].gates.clear()
        first["2"].outputs.clear()
        again = ohqe_circuits()
        assert len(again["1"].gates) == n_gates > 0
        assert again["2"].outputs == ohqe_circuits(dict(compiler.DEFAULT_MATCHINGS))["2"].outputs

    @pytest.mark.parametrize("alias, original", [("alt3", "3"), ("alt4", "4")])
    def test_repeated_matching_routed_once(self, monkeypatch, alias, original):
        monkeypatch.setattr(compiler, "_DEFAULT_CIRCUIT_CACHE", None)
        routed = []
        route = compiler.route_matching
        monkeypatch.setattr(compiler, "route_matching",
                            lambda m, topo=None: routed.append(m) or route(m, topo))
        circuits = ohqe_circuits()
        assert len(routed) == len(set(compiler.DEFAULT_MATCHINGS.values())) < len(circuits)
        spec = circuits[alias]
        assert spec.name == alias
        assert dataclasses.replace(spec, name=original) == circuits[original]
        assert spec.gates is not circuits[original].gates
        # the copy is what routing the matching on its own gives
        alone = ohqe_circuits({original: compiler.DEFAULT_MATCHINGS["1"]})[alias]
        assert alone == spec

    def test_optional_pairs_are_circuit_2(self):
        assert set(compiler.OPTIONAL_PAIRS) == {(1, 4), (2, 3), (5, 8), (6, 7)}

    def test_sweepable_everywhere(self, default_circuits):
        topo = MeshTopology(8)
        for spec in default_circuits.values():
            for pair in spec.matching:
                nodes = sweep_shifter_nodes(pair, topo, spec)
                assert nodes

    def test_ideal_magnitudes_structure(self, default_circuits):
        for name in ("1", "2", "3", "4"):
            spec = default_circuits[name]
            mags = ideal_circuit_magnitudes(spec)
            assert np.allclose(np.sum(mags**2, axis=0), 1.0, atol=1e-12)
            sim = np.abs(simulate_gates(spec))
            assert np.max(np.abs(mags - sim)) < 1e-12


class TestCircuitSerialization:
    def test_round_trip(self, tmp_path, default_circuits):
        spec = default_circuits["3"]
        path = tmp_path / "circuit.json"
        compiler.save_circuit(spec, path)
        loaded = compiler.load_circuit(path)
        assert loaded.matching == spec.matching
        assert loaded.gates == spec.gates
        assert loaded.outputs == spec.outputs
        assert loaded.groups == spec.groups

    def test_schema_tag(self, default_circuits):
        d = compiler.circuit_to_dict(default_circuits["1"])
        assert d["schema"] == "circuit-v1"
        d["schema"] = "nope"
        with pytest.raises(ValueError):
            compiler.circuit_from_dict(d)
