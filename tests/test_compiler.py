import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzmesh import compiler, mesh
from mzmesh.compiler import (
    ALL_TO_ALL_CIRCUITS,
    CircuitSpec,
    Gate,
    clements_decompose,
    ideal_circuit_magnitudes,
    ohqe_circuits,
    reconstruct,
    route_matching,
    sweep_shifter_nodes,
    upgrade_to_corrected,
)
from mzmesh.mesh import MeshTopology, MziParams, ideal_mesh

from oracles import (
    bfs_min_crossings,
    edf_lowest_slots,
    enumerated_route,
    haar_unitary,
    package_ops,
    pair_crossings,
    pair_min_crossings,
    reference_synthesize,
    scalar_clements,
    scalar_reconstruct,
    schedulable,
    solve_corrected_cross,
    state_transfer,
)


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
    return state_transfer(state)


class TestClements:
    def test_identity_all_bar_zero_screen(self):
        plan = clements_decompose(np.eye(8))
        for e in plan.entries:
            assert abs(abs(e.theta_diff) - np.pi) < 1e-12
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

    @pytest.mark.parametrize("target", [
        np.diag([np.nan, 1.0, 1.0, 1.0]),
        np.diag([np.inf, 1.0, 1.0, 1.0]),
        np.array(1.0),
        np.ones(4) / 2.0,
    ], ids=["nan", "inf", "0-d", "1-D"])
    def test_malformed_target_rejected(self, target):
        with pytest.raises(ValueError):
            clements_decompose(target)


def assert_plan_matches(plan, ref):
    """Same mode count and node order, settings equal mod 2 pi and phase
    screen to 1e-12, and the same nulling trace."""
    assert plan.n_modes == ref.n_modes
    assert [e.node for e in plan.entries] == [e.node for e in ref.entries]
    for name in ("theta_diff", "phi_diff"):
        diff = np.array([getattr(e, name) - getattr(f, name)
                         for e, f in zip(plan.entries, ref.entries)])
        assert np.max(np.abs(np.angle(np.exp(1j * diff))), initial=0.0) < 1e-12
    assert np.max(np.abs(plan.phase_screen - ref.phase_screen)) < 1e-12
    assert plan.nulled_trace == ref.nulled_trace


def degenerate_targets(n):
    """Targets whose blocks hit the bar-like and cross-like branches."""
    rng = np.random.default_rng(n)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    yield "identity", np.eye(n)
    yield "anti-identity", np.eye(n)[::-1]
    for k in range(3):
        yield f"permutation{k}", np.eye(n)[rng.permutation(n)]
    yield "hadamard-sum", np.kron(np.eye(n // 2), h)
    yield "flipped-hadamard-sum", np.kron(np.eye(n // 2), h[::-1])
    # Haar 2x2 blocks coupled by rotations of 1e-15 rad: entries from
    # 1e-15 down, which the nulling takes as already null (below _NULL_TOL)
    u = np.zeros((n, n), dtype=complex)
    for m in range(0, n, 2):
        u[m : m + 2, m : m + 2] = haar_unitary(2, rng)
    for m in range(1, n - 1, 2):
        g = np.eye(n)
        g[m : m + 2, m : m + 2] = [[1.0, -1e-15], [1e-15, 1.0]]
        u = g @ u
    yield "tiny-coupled-blocks", u


class TestNullingAgainstReferenceLoop:
    """The two-row nulling against the loop that updates whole rows and
    columns with one 2x2 array per op."""

    @pytest.mark.parametrize("n", range(2, 66, 2))
    def test_ops_diagonal_and_trace(self, n):
        rng = np.random.default_rng(n)
        targets = [("haar0", haar_unitary(n, rng)), ("haar1", haar_unitary(n, rng)),
                   *degenerate_targets(n)]
        for name, u in targets:
            left, right, diag, trace = package_ops(u)
            ref_left, ref_right, ref_diag, ref_trace = reference_synthesize(np.asarray(u, complex))
            for ops, ref_ops in ((left, ref_left), (right, ref_right)):
                assert [p for p, _ in ops] == [p for p, _ in ref_ops], name
                worst = max((np.max(np.abs(g - h)) for (_, g), (_, h) in zip(ops, ref_ops)),
                            default=0.0)
                assert worst <= 1e-12, name
            assert np.max(np.abs(diag - ref_diag)) <= 1e-12, name
            assert [(r, c) for r, c, _ in trace] == [(r, c) for r, c, _ in ref_trace], name
            assert max(v for _, _, v in trace) <= 1e-12, name
        # the cached layout holds the blocks in the order the nulling emits them
        ports = [m for (m, _), _ in ref_right + ref_left[::-1]]
        assert compiler._layout(n).ports.tolist() == ports
        assert compiler._layout(n).n_right == len(ref_right)


class TestClementsAgainstScalarOracle:
    @pytest.mark.parametrize("n", range(2, 34, 2))
    @pytest.mark.parametrize("variant", [True, False])
    def test_haar(self, n, variant):
        rng = np.random.default_rng(n)
        for _ in range(3):
            u = haar_unitary(n, rng)
            assert_plan_matches(clements_decompose(u, variant), scalar_clements(u, variant))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 16])
    @pytest.mark.parametrize("variant", [True, False])
    def test_degenerate(self, n, variant):
        for name, u in degenerate_targets(n):
            plan = clements_decompose(u, variant)
            assert_plan_matches(plan, scalar_clements(u, variant))
            assert np.max(np.abs(reconstruct(plan) - u)) < 1e-12, name

    @given(half=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), variant=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, half, seed, variant):
        u = haar_unitary(2 * half, np.random.default_rng(seed))
        plan = clements_decompose(u, variant)
        assert_plan_matches(plan, scalar_clements(u, variant))
        rec = reconstruct(plan)
        assert np.max(np.abs(rec - u)) < 1e-10
        assert np.max(np.abs(rec - scalar_reconstruct(plan))) < 1e-12

    @pytest.mark.parametrize("variant", [True, False])
    def test_n64_residual(self, variant):
        u = haar_unitary(64, np.random.default_rng(64))
        assert np.max(np.abs(reconstruct(clements_decompose(u, variant)) - u)) <= 1e-10


class TestSharedIdealMesh:
    """``reconstruct`` shares one read-only compiled ideal mesh per mode
    count, and ``clements_decompose`` one read-only block layout."""

    def test_arrays_read_only(self):
        compiled = compiler._ideal_compiled(8)
        arrays = [v for v in vars(compiled).values() if isinstance(v, np.ndarray)]
        assert len(arrays) > 10
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_layout_read_only(self, n):
        layout = compiler._layout(n)
        arrays = [layout.ports, *(a for column in layout.columns for a in column)]
        assert len(arrays) == 2 * n + 1
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert isinstance(layout.nodes, tuple) and isinstance(layout.flipped, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.n_right = 0

    def test_same_bytes_as_a_fresh_process(self):
        # the fresh process builds N = 8 first and N = 64 second, this one
        # the other way round, each layout and mesh from its own cache
        script = ("import sys, numpy as np; from mzmesh.compiler import clements_decompose, "
                  "reconstruct; from oracles import haar_unitary\n"
                  "for n in (8, 64):\n"
                  "    u = haar_unitary(n, np.random.default_rng(n))\n"
                  "    for variant in (True, False):\n"
                  "        print(reconstruct(clements_decompose(u, variant)).tobytes().hex())")
        here = Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")) if p))
        fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=60, check=True).stdout.split()
        here_bytes = {}
        for n in (64, 8):
            u = haar_unitary(n, np.random.default_rng(n))
            for variant in (True, False):
                here_bytes[n, variant] = reconstruct(clements_decompose(u, variant)).tobytes().hex()
        assert [here_bytes[n, v] for n in (8, 64) for v in (True, False)] == fresh

    def test_call_order_independent(self):
        plans = [clements_decompose(haar_unitary(n, np.random.default_rng(n)), variant)
                 for n in (8, 64, 16) for variant in (True, False)]
        first = [reconstruct(p).tobytes() for p in plans]
        assert [reconstruct(p).tobytes() for p in reversed(plans)] == first[::-1]


class TestRouting:
    def test_adjacent_pairs_zero_crossings(self):
        spec = route_matching([(1, 2), (3, 4), (5, 6), (7, 8)])
        assert spec.crossings() == []
        assert sum(g is Gate.HADAMARD for g in spec.gates.values()) == 4

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
        assert sum(g is Gate.HADAMARD for g in spec.gates.values()) == 4

    def test_partial_matching(self):
        spec = route_matching([(1, 3)])
        assert sum(g is Gate.HADAMARD for g in spec.gates.values()) == 1
        (pair,) = spec.matching
        assert pair == (1, 3)

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            route_matching([(1, 2), (2, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            route_matching([(0, 2)])

    @pytest.mark.parametrize("pair, port", [((1.5, 3), "1.5"), ((True, 2), "True"),
                                            (("3", 4), "'3'"), ((2.0, 3), "2.0")])
    def test_port_must_be_an_integer(self, pair, port):
        # int() would route (1.5, 3) as (1, 3), (True, 2) as (1, 2) and ("3", 4) as (3, 4)
        with pytest.raises(ValueError, match=f"holds port {port}, not an integer"):
            route_matching([pair])
        # a numpy integer is an integer port
        assert route_matching([(np.int64(1), 3)]) == route_matching([(1, 3)])

    @pytest.mark.parametrize(
        "pair,expected",
        [((1, 2), 0), ((3, 4), 0), ((1, 8), 6), ((1, 5), 3), ((4, 5), 2)],
    )
    def test_pair_costs_frozen_from_oracle(self, pair, expected):
        # expected values computed once with the BFS swap-count oracle
        assert pair_crossings(route_matching([pair]), pair) == expected

    def test_pair_cost_matches_oracle_live(self):
        for pair in [(2, 7), (1, 6), (3, 8)]:
            assert pair_crossings(route_matching([pair]), pair) == pair_min_crossings(pair)


def matchings(ports):
    """Every partial matching of ``ports``, the empty one first: the lowest
    port stays unpaired, then pairs with each higher port in turn."""
    if not ports:
        yield ()
        return
    low, rest = ports[0], ports[1:]
    yield from matchings(rest)
    for partner in rest:
        for tail in matchings([p for p in rest if p != partner]):
            yield ((low, partner),) + tail


def random_matching(n, n_pairs, rng):
    ports = rng.permutation(np.arange(1, n + 1))[: 2 * n_pairs]
    return [(int(ports[2 * k]), int(ports[2 * k + 1])) for k in range(n_pairs)]


def inversions(target):
    return sum(a > b for k, a in enumerate(target) for b in target[k + 1:])


@st.composite
def sized_matchings(draw):
    """(n, partial matching) at even n <= 32."""
    n = draw(st.integers(1, 16).map(lambda k: 2 * k))
    order = draw(st.permutations(range(1, n + 1)))
    return n, [(order[2 * k], order[2 * k + 1]) for k in range(draw(st.integers(0, n // 2)))]


N8_MATCHINGS = [m for m in matchings(list(range(1, 9))) if m]
N8_FULL = [m for m in N8_MATCHINGS if len(m) == 4]

# Fewest crossings of each full N = 8 matching, in N8_FULL order (15 to a
# row); computed once with the BFS swap-count oracle, which takes 30 s.
BFS_CROSSINGS_N8 = [
    0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6,
    1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6, 5, 6, 7,
    2, 3, 4, 3, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7, 8,
    3, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7, 8, 7, 8, 9,
    4, 5, 6, 5, 6, 7, 6, 7, 8, 7, 8, 9, 8, 9, 10,
    5, 6, 7, 6, 7, 8, 7, 8, 9, 8, 9, 10, 9, 10, 11,
    6, 7, 8, 7, 8, 9, 8, 9, 10, 9, 10, 11, 10, 11, 12,
]


class TestExactRouter:
    def test_matches_enumerator_on_every_n8_matching(self):
        assert len(N8_MATCHINGS) == 763 and len(N8_FULL) == 105
        topo = MeshTopology(8)
        for m in N8_MATCHINGS:
            assert route_matching(m, topo) == enumerated_route(m, topo), m

    @pytest.mark.parametrize("n, max_pairs", [(6, 3), (10, 5), (12, 4)])
    def test_matches_enumerator_at_other_n(self, n, max_pairs):
        rng = np.random.default_rng(n)
        topo = MeshTopology(n)
        for _ in range(15):
            m = random_matching(n, int(rng.integers(1, max_pairs + 1)), rng)
            assert route_matching(m, topo) == enumerated_route(m, topo), m

    def test_schedulable_against_every_order(self):
        # job 1 must follow job 0, fixed at slot 1; slot 2 is taken by job 2
        assert not schedulable([[], [0], []], {0: 1, 2: 2})
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            before = [[a for a in range(b) if rng.random() < 0.3] for b in range(m)]
            fixed = {int(u): int(rng.integers(m)) for u in rng.choice(m, rng.integers(m + 1),
                                                                      replace=False)}
            exists = any(
                all(slot[u] == s for u, s in fixed.items())
                and all(slot[a] < slot[b] for b in range(m) for a in before[b])
                for slot in itertools.permutations(range(m))
            )
            assert schedulable(before, fixed) == exists, (before, fixed)

    def test_lowest_slots_match_edf_oracle_on_every_n8_matching(self):
        for m in N8_MATCHINGS:
            pairs = compiler._normalize_matching(m, 8)
            assert compiler._lowest_slots(pairs, 8) == edf_lowest_slots(pairs, 8), m

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(sized_matchings())
    @example((32, [(k, 33 - k) for k in range(1, 17)]))
    def test_lowest_slots_match_edf_oracle_up_to_n32(self, case):
        n, matching = case
        pairs = compiler._normalize_matching(matching, n)
        assert compiler._lowest_slots(pairs, n) == edf_lowest_slots(pairs, n)

    def test_earliest_slots_lexicographically_first_over_every_order(self):
        # unit 0 must follow unit 2, so filling slots from the first with the
        # lowest ready unit, (2, 0, 1), would put unit 0 later than it need be
        assert compiler._earliest_slots([[2], [], []]) == (1, 2, 0)
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            rank = rng.permutation(m)  # a hidden order every relation below respects
            before = [[a for a in range(m) if rank[a] < rank[b] and rng.random() < 0.4]
                      for b in range(m)]
            best = min(slot for slot in itertools.permutations(range(m))
                       if all(slot[a] < slot[b] for b in range(m) for a in before[b]))
            assert compiler._earliest_slots(before) == best, before

    def test_full_n8_crossings_frozen_from_bfs_oracle(self):
        counts = [len(route_matching(m).crossings()) for m in N8_FULL]
        assert counts == BFS_CROSSINGS_N8

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(sized_matchings())
    @example((16, [(k, 17 - k) for k in range(1, 9)]))
    def test_one_simulation_costing_the_inversions(self, case):
        n, matching = case
        route, calls = compiler._route_target, []

        def spy(pairs, slots, target, topo):
            calls.append((list(target), route(pairs, slots, target, topo)))
            return calls[-1][1]

        with mock.patch.object(compiler, "_route_target", spy):
            spec = route_matching(matching, MeshTopology(n))
        ((target, routed),) = calls
        crossings = routed.crossings()
        assert len(crossings) == len(spec.crossings()) == inversions(target)


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
            upgrade_to_corrected(spec, [(6, 0)])

    def test_upgrade_of_a_lone_node_names_which(self):
        spec = route_matching([(1, 2), (3, 4), (5, 6), (7, 8)])
        with pytest.raises(ValueError, match="which"):
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
        from mzmesh.mesh import mzi_transfer

        p = MziParams(eta_in=0.55, eta_out=0.55)
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

    def test_specs_are_immutable(self):
        first = ohqe_circuits()
        spec = first["1"]
        for mapping in (spec.gates, spec.outputs):
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = mapping[key]
            with pytest.raises(AttributeError):
                mapping.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "renamed"
        assert ohqe_circuits() == first

    @pytest.mark.parametrize("alias, original", [("alt3", "3"), ("alt4", "4")])
    def test_repeated_matching_routed_once(self, monkeypatch, alias, original):
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
        for spec in default_circuits.values():
            for pair in spec.matching:
                nodes = sweep_shifter_nodes(pair, spec)
                assert nodes

    def test_ideal_magnitudes_structure(self, default_circuits):
        for name in ("1", "2", "3", "4"):
            spec = default_circuits[name]
            mags = ideal_circuit_magnitudes(spec)
            assert np.allclose(np.sum(mags**2, axis=0), 1.0, atol=1e-12)
            sim = np.abs(simulate_gates(spec))
            assert np.max(np.abs(mags - sim)) < 1e-12

