import json
from pathlib import Path

import pytest

from mzmesh import artifact, lattice
from mzmesh.lattice import (
    ClusterGraph,
    assembly_2x2x2,
    interconnect,
    link_schedule,
    unit_cell,
    z_measure,
)

SELECTION = Path(__file__).parent.parent / "src" / "mzmesh" / "data" / "raussendorf_selection.json"


class TestUnitCell:
    def test_cube_counts(self):
        g = unit_cell(0, False)
        assert len(g.nodes) == 8
        assert len(g.edges) == 12

    def test_optional_counts(self):
        g = unit_cell(0, include_optional=True)
        assert len(g.edges) == 16

    def test_is_a_cube(self):
        # bonds connect corners differing in exactly one coordinate bit
        g = unit_cell(0, False)
        for a, b, _ in g.edge_pairs():
            diff = (a[1] - 1) ^ (b[1] - 1)
            assert diff in (1, 2, 4)

    def test_deterministic(self):
        assert unit_cell(3, False).edges == unit_cell(3, False).edges


class TestInterconnect:
    def test_assembly_counts(self):
        graph, links = assembly_2x2x2(False)
        assert len(graph.nodes) == 64
        assert len(links) == 48
        assert len(graph.edges) == 8 * 12 + len(links)
        # independent recount: intra edges per module + inter links
        intra = sum(1 for _, tag in graph.edges.items() if tag == "intra")
        inter = sum(1 for _, tag in graph.edges.items() if tag == "inter")
        assert intra == 96 and inter == 48

    def test_empty_links_disjoint_union(self):
        g = interconnect([unit_cell(0, False), unit_cell(1, False)], [])
        assert len(g.nodes) == 16
        assert len(g.edges) == 24

    def test_duplicate_link_rejected(self):
        cells = [unit_cell(0, False), unit_cell(1, False)]
        link = ((0, 1), (1, 1))
        with pytest.raises(ValueError):
            interconnect(cells, [link, link])

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ValueError):
            interconnect([unit_cell(0, False)], [((0, 1), (5, 2))])

    def test_intra_submitted_as_inter_rejected(self):
        with pytest.raises(ValueError):
            interconnect([unit_cell(0, False)], [((0, 5), (0, 6))])

    def test_preserves_intra_subgraphs(self):
        graph, _ = assembly_2x2x2(False)
        for m in range(8):
            sub = {e for e, tag in graph.edges.items() if tag == "intra"
                   and all(n[0] == m for n in e)}
            assert sub == set(unit_cell(m, False).edges)


class TestZMeasure:
    def test_degree_drop(self):
        g = unit_cell(0, False)
        node = (0, 1)
        deg = sum(1 for e in g.edges if node in e)
        assert deg == 3
        after = z_measure(g, [node])
        assert len(after.edges) == len(g.edges) - deg
        assert node not in after.nodes

    def test_measure_all_empties(self):
        g = unit_cell(0, False)
        after = z_measure(g, list(g.nodes))
        assert not after.nodes and not after.edges

    def test_commutes_across_disjoint_sets(self):
        g, _ = assembly_2x2x2(False)
        a = [(0, 1), (3, 5)]
        b = [(6, 2), (1, 8)]
        seq = z_measure(z_measure(g, a), b)
        joint = z_measure(g, a + b)
        assert seq.nodes == joint.nodes and seq.edges == joint.edges

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            z_measure(unit_cell(0, False), [(9, 1)])

    @pytest.mark.parametrize("node", [(0, True), (0, 1.0), [0, "1"], (0, 1, 2), 1])
    def test_node_must_be_a_pair_of_integers(self, node):
        # (0, True) would equal (0, 1) and delete qubit 1
        g = unit_cell(0, False)
        with pytest.raises(ValueError, match=r"node .* (holds|is not a pair)"):
            z_measure(g, [node])
        with pytest.raises(ValueError, match=r"node .* (holds|is not a pair)"):
            interconnect([g, unit_cell(1, False)], [((1, 1), node)])

    def test_shipped_selection_pattern(self):
        # the packaged z-measurement pattern carves the 2x2x2 assembly; the
        # counting oracle recounts surviving edges independently
        g, _ = assembly_2x2x2(False)
        selection = artifact.read(SELECTION, lambda d: [tuple(n) for n in d["measure"]],
                                  "selection")
        after = z_measure(g, selection)
        measured = set(map(tuple, selection))
        recount = sum(1 for e in g.edges if not (e & measured))
        assert len(after.nodes) == 64 - len(measured)
        assert len(after.edges) == recount
        # the carved lattice is sparse but connected enough to be nontrivial
        assert 0 < len(after.edges) < len(g.edges)


class TestLinkSchedule:
    def test_cubic_cell_needs_three_circuits(self):
        wanted = [e for e in unit_cell(0, False).edge_pairs()]
        pairs = [(a[1], b[1]) for a, b, _ in wanted]
        schedule = link_schedule(pairs)
        assert len(schedule) == 3
        covered = [p for _, ps in schedule for p in ps]
        assert sorted(covered) == sorted(pairs)

    def test_all_28_pairs_need_seven(self):
        pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
        schedule = link_schedule(pairs)
        assert len(schedule) == 7

    def test_empty_schedule(self):
        assert len(link_schedule([])) == 0

    def test_every_pair_exactly_once(self):
        pairs = [(1, 2), (3, 4), (1, 4), (5, 8)]
        schedule = link_schedule(pairs)
        covered = [p for _, ps in schedule for p in ps]
        assert sorted(covered) == sorted(pairs)
        assert all(ps for _, ps in schedule)

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError):
            link_schedule([(0, 9)])

    @pytest.mark.parametrize("pair, port", [((1.9, 2), "1.9"), ((True, 2), "True"),
                                            (("3", 4), "'3'"), ((2.0, 3), "2.0")])
    def test_port_must_be_an_integer(self, pair, port):
        # int() would read 1.9 as 1, True as 1 and "3" as 3
        with pytest.raises(ValueError, match=f"holds {port}, not an integer"):
            link_schedule([pair])


class TestGraphSerialization:
    def test_round_trip(self, tmp_path):
        # graph-v1 is written for the reader: the file lists every node and
        # tagged edge, and the same graph writes the same bytes
        g, _ = assembly_2x2x2(include_optional=True)
        path = tmp_path / "graph.json"
        lattice.save_graph(g, path)
        data = json.loads(path.read_text())
        assert {tuple(n) for n in data["nodes"]} == g.nodes
        assert [(tuple(a), tuple(b), tag) for a, b, tag in data["edges"]] == g.edge_pairs()
        path2 = tmp_path / "graph2.json"
        lattice.save_graph(assembly_2x2x2(include_optional=True)[0], path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_edge_csv(self, tmp_path):
        g = unit_cell(0, False)
        path = tmp_path / "edges.csv"
        lattice.graph_to_edge_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "module_a,qubit_a,module_b,qubit_b,tag"
        assert len(lines) == 13

    def test_schema_tag(self):
        d = lattice.graph_to_dict(unit_cell(0, False))
        assert d["schema"] == "graph-v1"

    def test_self_loop_rejected(self):
        g = ClusterGraph(nodes={(0, 1)})
        with pytest.raises(ValueError):
            g.add_edge((0, 1), (0, 1), "intra")
