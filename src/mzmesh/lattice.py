"""Cluster-graph bookkeeping for the modular entanglement architecture.

Each 8-qubit module contributes a cubic unit cell (the bonds generated by
three of the entanglement circuits, plus four optional face diagonals from
the fourth); cells join into larger lattices through inter-module links,
and Z-basis measurements delete nodes with their incident bonds, carving
sparser structures out of the cubic scaffold.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from . import artifact
from .compiler import ALL_TO_ALL_CIRCUITS, DEFAULT_MATCHINGS, OPTIONAL_PAIRS, Pair

GRAPH_SCHEMA = "graph-v1"

QNode = tuple[int, int]  # (module_id, qubit 1..8)

#: Matchings whose union forms the 12 cube edges of one module.
UNIT_CELL_CIRCUITS = ("1", "3", "4")


@dataclass
class ClusterGraph:
    """Undirected multigraph-free graph of qubit nodes and entanglement bonds."""

    nodes: set[QNode] = field(default_factory=set)
    edges: dict[frozenset, str] = field(default_factory=dict)  # bond -> "intra"|"inter"

    def __post_init__(self):
        for edge in self.edges:
            a, b = tuple(edge)
            if a == b:
                raise ValueError("self-loops are not allowed")
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge {a}-{b} references a missing node")

    def add_edge(self, a: QNode, b: QNode, tag: str) -> None:
        if a == b:
            raise ValueError("self-loops are not allowed")
        if a not in self.nodes or b not in self.nodes:
            raise ValueError(f"edge {a}-{b} references a missing node")
        key = frozenset((a, b))
        if key in self.edges:
            raise ValueError(f"duplicate edge {a}-{b}")
        self.edges[key] = tag

    def edge_pairs(self) -> list[tuple[QNode, QNode, str]]:
        out = []
        for e, tag in self.edges.items():
            a, b = sorted(e)
            out.append((a, b, tag))
        return sorted(out)


def _int_pair(entry, what: str) -> tuple[int, int]:
    """``entry`` as a pair of integers; a ``what`` that is anything else, a
    JSON boolean or float among them, raises naming it."""
    pair = tuple(entry) if isinstance(entry, (list, tuple)) else ()
    if len(pair) != 2:
        raise ValueError(f"{what} {entry!r} is not a pair")
    for x in pair:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{what} {entry!r} holds {x!r}, not an integer")
    return int(pair[0]), int(pair[1])


def unit_cell(module_id: int, include_optional: bool) -> ClusterGraph:
    """One module's cluster graph: 8 qubits, the 12 cube bonds, and the four
    optional bonds when requested (16 total)."""
    g = ClusterGraph(nodes={(module_id, q) for q in range(1, 9)})
    for name in UNIT_CELL_CIRCUITS:
        for i, j in DEFAULT_MATCHINGS[name]:
            g.add_edge((module_id, i), (module_id, j), "intra")
    if include_optional:
        for i, j in OPTIONAL_PAIRS:
            g.add_edge((module_id, i), (module_id, j), "intra")
    return g


def interconnect(cells: list[ClusterGraph], links: list[tuple[QNode, QNode]]) -> ClusterGraph:
    """Disjoint union of module cells plus inter-module bonds."""
    merged = ClusterGraph()
    for cell in cells:
        overlap = merged.nodes & cell.nodes
        if overlap:
            raise ValueError(f"cells share nodes: {sorted(overlap)[:4]}")
        merged.nodes |= cell.nodes
        for e, tag in cell.edges.items():
            merged.edges[e] = tag
    for a, b in links:
        a, b = _int_pair(a, "node"), _int_pair(b, "node")
        if a[0] == b[0]:
            raise ValueError(f"link {a}-{b} stays inside module {a[0]}; tag it intra instead")
        merged.add_edge(a, b, "inter")
    return merged


def z_measure(graph: ClusterGraph, nodes) -> ClusterGraph:
    """Z-basis measurement: each measured node and its incident bonds vanish."""
    targets = {_int_pair(n, "node") for n in nodes}
    unknown = targets - graph.nodes
    if unknown:
        raise ValueError(f"unknown nodes: {sorted(unknown)[:4]}")
    out = ClusterGraph(
        nodes=graph.nodes - targets,
        edges={e: tag for e, tag in graph.edges.items() if not (e & targets)},
    )
    return out


def link_schedule(wanted) -> list[tuple[str, tuple[Pair, ...]]]:
    """Cover the wanted port pairs with the fewest circuit configurations:
    the circuits to execute, and which wanted pairs each one serves.

    The seven distinct default matchings partition all 28 pairs, so each
    wanted pair determines its circuit; pairs sharing a circuit run
    sequentially without reconfiguration.
    """
    owner: dict[Pair, str] = {}
    for name in ALL_TO_ALL_CIRCUITS:
        for pair in DEFAULT_MATCHINGS[name]:
            owner[pair] = name
    chosen: dict[str, list[Pair]] = {}
    for pair in wanted:
        i, j = sorted(_int_pair(pair, "pair"))
        if not (1 <= i <= 8 and 1 <= j <= 8) or i == j:
            raise ValueError(f"pair {pair} outside port range")
        name = owner[(i, j)]
        chosen.setdefault(name, []).append((i, j))
    return [(name, tuple(sorted(set(pairs)))) for name, pairs in sorted(chosen.items())]


def assembly_2x2x2(include_optional: bool) -> tuple[ClusterGraph, list[tuple[QNode, QNode]]]:
    """Eight unit cells on the corners of a cube, joined by face links.

    Module m sits at binary coordinate (m2, m1, m0); qubit q-1 carries the
    binary position of its corner inside the module.  Facing corners of
    adjacent modules are linked (4 links per face, 12 faces, 48 links).
    """
    cells = [unit_cell(m, include_optional) for m in range(8)]
    links: list[tuple[QNode, QNode]] = []
    for m in range(8):
        for axis in range(3):
            if (m >> axis) & 1:
                continue
            m2 = m | (1 << axis)
            for q in range(8):
                if (q >> axis) & 1:
                    q2 = q & ~(1 << axis)
                    links.append(((m, q + 1), (m2, q2 + 1)))
    return interconnect(cells, links), links


# ---------------------------------------------------------------------------
# graph-v1 serialisation
# ---------------------------------------------------------------------------


def graph_to_dict(graph: ClusterGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "nodes": sorted([list(n) for n in graph.nodes]),
        "edges": [[list(a), list(b), tag] for a, b, tag in graph.edge_pairs()],
    }


def save_graph(graph: ClusterGraph, path) -> None:
    artifact.write(path, graph_to_dict(graph))


def graph_to_edge_csv(graph: ClusterGraph, path) -> None:
    artifact.write_csv(path, ["module_a", "qubit_a", "module_b", "qubit_b", "tag"],
                       [[*a, *b, tag] for a, b, tag in graph.edge_pairs()])

