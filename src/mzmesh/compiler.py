"""Compilation of target unitaries and entanglement-link requests to mesh settings.

Two compilation paths live here:

* :func:`clements_decompose` turns an arbitrary N x N unitary into per-node
  ``(theta_diff, phi_diff)`` settings plus a residual output phase screen.
  The ``reversed`` variant nulls the upper-right triangle of the target so
  that the synthesized blocks land on the chip's orientation (inputs at the
  highest column, output-pair nodes at column 0 left free for Hadamards);
  the standard variant nulls the lower-left triangle.

* :func:`route_matching` / :func:`ohqe_circuits` program bar/cross routing
  that brings requested input pairs together at column-0 Hadamard nodes,
  with optional upgrade of single crossings to error-corrected double-MZI
  crossings spanning three columns.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations, product

import numpy as np

from .mesh import (
    MeshState,
    MeshTopology,
    MziParams,
    Node,
    ideal_mesh,
    mesh_transfer,
    node_label,
    parse_node_label,
)

CIRCUIT_SCHEMA = "circuit-v1"

_NULL_TOL = 1e-13


# ---------------------------------------------------------------------------
# Clements decomposition
# ---------------------------------------------------------------------------


@dataclass
class PlanEntry:
    node: Node
    theta_diff: float
    phi_diff: float


@dataclass
class DecompositionPlan:
    """Ordered node settings (input column first) plus output phase screen."""

    n_modes: int
    reversed_variant: bool
    entries: list[PlanEntry]
    phase_screen: np.ndarray
    nulled_trace: list[tuple[int, int, float]] = field(default_factory=list)

    def settings(self) -> dict[Node, tuple[float, float]]:
        return {e.node: (e.theta_diff, e.phi_diff) for e in self.entries}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["col", "row", "theta_diff_rad", "phi_rad"])
            for e in self.entries:
                writer.writerow([e.node[0], e.node[1], repr(e.theta_diff), repr(e.phi_diff)])


def plan_mesh_state(plan: DecompositionPlan) -> MeshState:
    """Ideal-component mesh programmed with the plan's differential settings."""
    state = ideal_mesh(plan.n_modes)
    for entry in plan.entries:
        state.params[entry.node] = MziParams(
            theta1=entry.theta_diff / 2.0,
            theta2=-entry.theta_diff / 2.0,
            phi1=entry.phi_diff / 2.0,
            phi2=-entry.phi_diff / 2.0,
        )
    return state


def reconstruct(plan: DecompositionPlan) -> np.ndarray:
    """Simulate the plan on an ideal mesh and apply the output phase screen."""
    return np.diag(plan.phase_screen) @ mesh_transfer(plan_mesh_state(plan))


def _right_null(w: np.ndarray, row: int, col: int) -> np.ndarray | None:
    """2x2 unitary G mixing matrix columns (col-1, col) with (W G)[row, col] = 0."""
    x, y = w[row, col - 1], w[row, col]
    if abs(y) < _NULL_TOL:
        return None
    rho = math.hypot(abs(x), abs(y))
    return np.array([[np.conj(x), y], [np.conj(y), -x]], dtype=complex) / rho


def _left_null(w: np.ndarray, row: int, col: int) -> np.ndarray | None:
    """2x2 unitary G mixing rows (row, row+1) with (G W)[row, col] = 0."""
    y, z = w[row, col], w[row + 1, col]
    if abs(y) < _NULL_TOL:
        return None
    rho = math.hypot(abs(y), abs(z))
    return np.array([[z, -y], [np.conj(y), np.conj(z)]], dtype=complex) / rho


def _factor_block(y: np.ndarray) -> tuple[float, float, complex, complex]:
    """Factor a 2x2 unitary as diag(d1, d2) @ B(theta_diff, phi_diff).

    B is the ideal differential MZI block
    ``i * [[s e^{i phi/2}, c e^{-i phi/2}], [c e^{i phi/2}, -s e^{-i phi/2}]]``
    with ``s = sin(delta/2)``, ``c = cos(delta/2)``.
    """
    s = abs(y[0, 0])
    c = abs(y[0, 1])
    delta = 2.0 * math.atan2(s, c)
    if s > 1e-12 and c > 1e-12:
        phi = float(np.angle(y[0, 0]) - np.angle(y[0, 1]))
        d1 = y[0, 0] / (1j * s * np.exp(1j * phi / 2.0))
        d2 = y[1, 0] / (1j * c * np.exp(1j * phi / 2.0))
    elif s <= 1e-12:  # cross-like
        delta, phi = 0.0, 0.0
        d1 = y[0, 1] / 1j
        d2 = y[1, 0] / 1j
    else:  # bar-like
        delta, phi = math.pi, 0.0
        d1 = y[0, 0] / 1j
        d2 = y[1, 1] / (-1j)
    return delta, phi, complex(d1 / abs(d1)), complex(d2 / abs(d2))


def _pack_blocks(
    ops: list[tuple[tuple[int, int], np.ndarray]], topo: MeshTopology
) -> list[tuple[Node, np.ndarray]]:
    """Assign an input-ordered block sequence to physical (col, row) nodes.

    Greedy earliest-column placement: each block lands in the highest free
    column compatible with everything already placed on its two ports.
    """
    n = topo.n_modes
    frontier = [topo.n_columns - 1] * n
    placed: list[tuple[Node, np.ndarray]] = []
    used: set[Node] = set()
    for (m, _), g in ops:
        col = min(frontier[m], frontier[m + 1])
        if col % 2 != m % 2:
            col -= 1
        if col < 0:
            raise RuntimeError("block sequence does not fit the mesh topology")
        node = (col, m // 2 if col % 2 == 0 else (m - 1) // 2)
        if node in used:
            raise RuntimeError(f"node {node_label(node)} assigned twice during packing")
        used.add(node)
        placed.append((node, g))
        frontier[m] = frontier[m + 1] = col - 1
    return placed


def _synthesize(u: np.ndarray):
    """Zig-zag upper-right-triangle nulling.

    Alternates right-multiplications (column mixing) and left-multiplications
    (row mixing) per anti-diagonal so that the emitted factor sequence maps
    onto the chip's column structure.  Returns (left_ops, right_ops, diag,
    trace) with one trace record per nulled entry.
    """
    n = u.shape[0]
    w = u.astype(complex).copy()

    left_ops: list[tuple[tuple[int, int], np.ndarray]] = []
    right_ops: list[tuple[tuple[int, int], np.ndarray]] = []
    trace: list[tuple[int, int, float]] = []

    def record(r, c):
        trace.append((r, c, float(abs(w[r, c]))))

    for k in reversed(range(n - 1)):
        if k % 2 == 1:
            for j in range(n - 1 - k):
                i = k + j + 1
                g = _right_null(w, j, i)
                if g is not None:
                    w[:, i - 1 : i + 1] = w[:, i - 1 : i + 1] @ g
                    right_ops.append(((i - 1, i), g))
                else:
                    right_ops.append(((i - 1, i), np.eye(2, dtype=complex)))
                record(j, i)
        else:
            for j in reversed(range(n - 1 - k)):
                i = k + j + 1
                g = _left_null(w, j, i)
                if g is not None:
                    w[j : j + 2, :] = g @ w[j : j + 2, :]
                    left_ops.append(((j, j + 1), g))
                else:
                    left_ops.append(((j, j + 1), np.eye(2, dtype=complex)))
                record(j, i)

    diag = np.diag(w).copy()
    return left_ops, right_ops, diag, trace


def clements_decompose(u: np.ndarray, reversed_variant: bool = True) -> DecompositionPlan:
    """Decompose a unitary into mesh settings plus an output phase screen.

    The reversed variant nulls the upper-right triangle of the target
    (recorded step by step in ``nulled_trace``); the standard variant nulls
    the lower-left triangle.  Both reconstruct the same unitary on the same
    topology, differing only in which node carries which rotation.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("target must be a square matrix")
    if n % 2 or n < 2:
        raise ValueError("mesh topology requires an even dimension >= 2")
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-10:
        raise ValueError("target matrix is not unitary to 1e-10")
    if not reversed_variant:
        return _flip_plan(u)

    topo = MeshTopology(n)
    left_ops, right_ops, diag, trace = _synthesize(u)

    # L_q .. L_1 W R_1 .. R_p = D  =>  W = L_1^+ .. L_q^+ D R_p^+ .. R_1^+.
    # Input-to-output block order is therefore [R_1^+, .., R_p^+, L_q^+, .., L_1^+]
    # after commuting D (diagonal) out to the output side.
    seq: list[tuple[tuple[int, int], np.ndarray]] = []
    for ports, g in right_ops:
        seq.append((ports, g.conj().T))
    lam = diag.copy()
    for ports, g in reversed(left_ops):
        m = ports[0]
        d = lam[m : m + 2]
        seq.append((ports, np.diag(1.0 / d) @ g.conj().T @ np.diag(d)))

    placed = _pack_blocks(seq, topo)

    kappa = np.ones(n, dtype=complex)
    entries: list[PlanEntry] = []
    for node, g in placed:
        m = topo.node_ports(node)[0]
        y = g @ np.diag(kappa[m : m + 2])
        delta, phi, d1, d2 = _factor_block(y)
        kappa[m], kappa[m + 1] = d1, d2
        entries.append(PlanEntry(node=node, theta_diff=delta, phi_diff=phi))

    screen = lam * kappa
    return DecompositionPlan(
        n_modes=n,
        reversed_variant=True,
        entries=entries,
        phase_screen=screen,
        nulled_trace=trace,
    )


def _flip_plan(u: np.ndarray) -> DecompositionPlan:
    """Standard (lower-left nulling) variant via port-reversal conjugation."""
    n = u.shape[0]
    topo = MeshTopology(n)
    flipped = clements_decompose(np.flipud(np.fliplr(u)), reversed_variant=True)
    entries = []
    for e in flipped.entries:
        col, row = e.node
        max_row = len(topo.column_rows(col)) - 1
        entries.append(
            PlanEntry(node=(col, max_row - row), theta_diff=-e.theta_diff, phi_diff=-e.phi_diff)
        )
    trace = [(n - 1 - r, n - 1 - c, v) for (r, c, v) in flipped.nulled_trace]
    return DecompositionPlan(
        n_modes=n,
        reversed_variant=False,
        entries=entries,
        phase_screen=flipped.phase_screen[::-1].copy(),
        nulled_trace=trace,
    )


# ---------------------------------------------------------------------------
# Bar/cross routing of entanglement circuits
# ---------------------------------------------------------------------------


class Gate(Enum):
    BAR = "BAR"
    CROSS_SINGLE = "CROSS_SINGLE"
    CORR_LEFT = "CORR_LEFT"
    CORR_RIGHT = "CORR_RIGHT"
    CORR_INTERMEDIATE = "CORR_INTERMEDIATE"
    HADAMARD = "HADAMARD"
    UNUSED = "UNUSED"


@dataclass(frozen=True)
class CorrectedCrossGroup:
    """Double-MZI error-corrected crossing: left/right 50:50 members spanning
    three columns with bar-state intermediates; the right member's external
    phase completes the routing."""

    left: Node
    right: Node
    intermediates: tuple[Node, ...]
    ports: tuple[int, int]


Pair = tuple[int, int]


@dataclass
class CircuitSpec:
    """Bar/cross/Hadamard gate assignment routing input pairs to output pairs."""

    n_modes: int
    matching: tuple[Pair, ...]
    gates: dict[Node, Gate]
    outputs: dict[Pair, Pair]  # pair -> (n, m) 1-based output ports
    groups: tuple[CorrectedCrossGroup, ...] = ()
    pair_crossings: dict[Pair, tuple[Node, ...]] = field(default_factory=dict)
    name: str = ""

    @property
    def topology(self) -> MeshTopology:
        return MeshTopology(self.n_modes)

    def hadamard_nodes(self) -> list[Node]:
        return [n for n, g in self.gates.items() if g is Gate.HADAMARD]

    def crossings(self) -> list[Node]:
        return sorted(n for n, g in self.gates.items() if g is Gate.CROSS_SINGLE)


def _normalize_matching(matching, n_modes: int) -> tuple[Pair, ...]:
    pairs = []
    seen = set()
    for pair in matching:
        i, j = sorted(int(x) for x in pair)
        if not (1 <= i <= n_modes and 1 <= j <= n_modes):
            raise ValueError(f"pair {pair} outside port range 1..{n_modes}")
        if i == j:
            raise ValueError(f"pair {pair} is degenerate")
        if i in seen or j in seen:
            raise ValueError("matching pairs must be disjoint")
        seen.update((i, j))
        pairs.append((i, j))
    return tuple(sorted(pairs))


def _simulate_routing(target: list[int], topo: MeshTopology):
    """Odd-even transposition routing toward ``target`` positions.

    Returns (cross moves, port history) or None when the network's
    ``n_columns - 1`` routing columns cannot complete the sort.
    """
    n = topo.n_modes
    pos = list(target)  # pos[p] = target position of the token currently at port p
    owner = list(range(n))  # owner[p] = input port of the token currently at p
    crossings: list[tuple[Node, int, int]] = []
    for col in reversed(range(1, topo.n_columns)):
        for row in topo.column_rows(col):
            m, mb = topo.node_ports((col, row))
            if pos[m] > pos[mb]:
                pos[m], pos[mb] = pos[mb], pos[m]
                ow_top, ow_bot = owner[m], owner[mb]
                owner[m], owner[mb] = ow_bot, ow_top
                crossings.append(((col, row), ow_top, ow_bot))
    if pos != sorted(pos):
        return None
    return crossings, owner


def route_matching(matching, topology: MeshTopology | None = None) -> CircuitSpec:
    """Route a (partial) matching of input ports to column-0 Hadamard nodes.

    Enumerates Hadamard-slot assignments and pair orientations, routes each
    by greedy column-by-column odd-even transposition, and keeps the
    feasible candidate with the fewest crossings (ties broken toward the
    lexicographically first assignment, i.e. lower rows first).
    """
    topo = topology or MeshTopology(8)
    n = topo.n_modes
    pairs = _normalize_matching(matching, n)
    n_slots = n // 2
    if len(pairs) > n_slots:
        raise ValueError("more pairs than output Hadamard slots")

    best = None
    for slots in permutations(range(n_slots), len(pairs)):
        for orient in product((0, 1), repeat=len(pairs)):
            target = [-1] * n
            for (i, j), s, o in zip(pairs, slots, orient):
                top, bot = 2 * s, 2 * s + 1
                if o:
                    top, bot = bot, top
                target[i - 1] = top
                target[j - 1] = bot
            free_positions = sorted(set(range(n)) - set(t for t in target if t >= 0))
            it = iter(free_positions)
            for p in range(n):
                if target[p] < 0:
                    target[p] = next(it)
            sim = _simulate_routing(target, topo)
            if sim is None:
                continue
            crossings, _ = sim
            key = (len(crossings), slots, orient)
            if best is None or key < best[0]:
                best = (key, crossings, target, slots, orient)

    if best is None:
        raise AssertionError("disjoint pairs on the full mesh must be routable")
    _, crossings, target, slots, orient = best

    paired_ports = {p - 1 for pair in pairs for p in pair}
    # Replay the routing to find which nodes see a paired token.
    pos = list(target)
    owner = list(range(n))
    gates: dict[Node, Gate] = {node: Gate.UNUSED for node in topo.nodes()}
    pair_of_port = {}
    for pair in pairs:
        pair_of_port[pair[0] - 1] = pair
        pair_of_port[pair[1] - 1] = pair
    pair_crossings: dict[Pair, list[Node]] = {pair: [] for pair in pairs}
    for col in reversed(range(1, topo.n_columns)):
        for row in topo.column_rows(col):
            m, mb = topo.node_ports((col, row))
            touched = {owner[m], owner[mb]} & paired_ports
            if pos[m] > pos[mb]:
                pos[m], pos[mb] = pos[mb], pos[m]
                owner[m], owner[mb] = owner[mb], owner[m]
                gates[(col, row)] = Gate.CROSS_SINGLE
                for port in touched:
                    pair_crossings[pair_of_port[port]].append((col, row))
            elif touched:
                gates[(col, row)] = Gate.BAR

    outputs: dict[Pair, Pair] = {}
    for pair, s in zip(pairs, slots):
        gates[(0, s)] = Gate.HADAMARD
        outputs[pair] = (2 * s + 1, 2 * s + 2)

    return CircuitSpec(
        n_modes=n,
        matching=pairs,
        gates=gates,
        outputs=outputs,
        pair_crossings={p: tuple(c) for p, c in pair_crossings.items()},
    )


def upgrade_to_corrected(spec: CircuitSpec, which="all") -> tuple[CircuitSpec, list[tuple[Node, str]]]:
    """Upgrade selected single crossings to double-MZI corrected crossings.

    ``which`` is a node, an iterable of nodes, or ``"all"``.  Upgrades whose
    three-column span is structurally unavailable are reported and the
    crossing left single.
    """
    topo = spec.topology
    if which == "all":
        selected = spec.crossings()
    elif isinstance(which, tuple) and len(which) == 2 and all(isinstance(x, int) for x in which):
        selected = [which]
    else:
        selected = sorted(which)

    gates = dict(spec.gates)
    groups = list(spec.groups)
    failures: list[tuple[Node, str]] = []
    for node in sorted(selected, key=lambda nd: (-nd[0], nd[1])):
        if gates.get(node) is not Gate.CROSS_SINGLE:
            raise ValueError(f"{node_label(node)} is not a single crossing")
        col, row = node
        ports = topo.node_ports(node)
        right = (col - 2, row)
        if col - 2 < 1:
            failures.append((node, "no routing column available for the right member"))
            continue
        if gates.get(right) not in (Gate.UNUSED, Gate.BAR):
            failures.append((node, f"right member {node_label(right)} is occupied"))
            continue
        mids = []
        ok = True
        for port in ports:
            mid = topo.node_at(col - 1, port)
            if mid is None:
                continue
            if gates.get(mid) not in (Gate.UNUSED, Gate.BAR, Gate.CORR_INTERMEDIATE):
                failures.append((node, f"intermediate {node_label(mid)} is occupied"))
                ok = False
                break
            mids.append(mid)
        if not ok:
            continue
        gates[node] = Gate.CORR_LEFT
        gates[right] = Gate.CORR_RIGHT
        for mid in mids:
            gates[mid] = Gate.CORR_INTERMEDIATE
        groups.append(
            CorrectedCrossGroup(left=node, right=right, intermediates=tuple(mids), ports=ports)
        )

    new_spec = CircuitSpec(
        n_modes=spec.n_modes,
        matching=spec.matching,
        gates=gates,
        outputs=dict(spec.outputs),
        groups=tuple(groups),
        pair_crossings=dict(spec.pair_crossings),
        name=spec.name,
    )
    return new_spec, failures


def _entry_positions(circuit: CircuitSpec | None, topo: MeshTopology):
    """Token port entering each of the two input columns, plus the ports a
    double-MZI crossing leaves in superposition at the second column."""
    hi, lo = topo.input_columns()
    pos_hi = list(range(topo.n_modes))  # pos[token] = port entering column hi
    pos_lo = list(pos_hi)
    blurred: set[int] = set()  # ports superposed while a corrected cross is in flight
    if circuit is not None:
        for row in topo.column_rows(hi):
            gate = circuit.gates.get((hi, row), Gate.UNUSED)
            m, mb = topo.node_ports((hi, row))
            if gate in (Gate.CROSS_SINGLE, Gate.CORR_LEFT):
                a = pos_lo.index(m)
                b = pos_lo.index(mb)
                pos_lo[a], pos_lo[b] = pos_lo[b], pos_lo[a]
            if gate is Gate.CORR_LEFT:
                blurred.update((m, mb))
    return pos_hi, pos_lo, blurred


def sweep_shifter_nodes(
    pair: Pair, topology: MeshTopology, circuit: CircuitSpec | None = None
) -> dict[Node, int]:
    """External-shifter nodes and polarities sweeping a pair's phase.

    Each lit input is driven at the first input-column MZI its light
    reaches, with opposite polarities on the two inputs; candidates are
    validated against the circuit's routing so the differential phase
    between the pair equals the actuator ramp phase exactly (coefficient
    +1), including the case where both inputs share one MZI.  Raises when
    in-flight corrected-crossing superpositions make that impossible.
    """
    topo = topology
    hi, lo = topo.input_columns()
    pos_hi, pos_lo, blurred = _entry_positions(circuit, topo)

    def first_node(token: int) -> Node:
        node = topo.node_at(hi, pos_hi[token])
        if node is not None:
            return node
        node = topo.node_at(lo, pos_lo[token])
        if node is None:
            raise ValueError(f"input {token + 1} has no input-column shifter")
        return node

    def coefficient(nodes: dict[Node, int], token: int) -> float | None:
        total = 0.0
        for node, pol in nodes.items():
            col = node[0]
            port = pos_hi[token] if col == hi else pos_lo[token]
            m, mb = topo.node_ports(node)
            if col == lo and (m in blurred or mb in blurred):
                return None
            if port == m:
                total += pol / 2.0
            elif port == mb:
                total -= pol / 2.0
        return total

    ti, tj = pair[0] - 1, pair[1] - 1
    node_i = first_node(ti)
    node_j = first_node(tj)

    candidates: list[dict[Node, int]] = []
    if node_i == node_j:
        candidates += [{node_i: +1}, {node_i: -1}]
    else:
        for pol_i in (+1, -1):
            for pol_j in (+1, -1):
                candidates.append({node_i: pol_i, node_j: pol_j})
        for node in (node_i, node_j):
            candidates += [{node: +1}, {node: -1}]

    for nodes in candidates:
        ci = coefficient(nodes, ti)
        cj = coefficient(nodes, tj)
        if ci is None or cj is None:
            continue
        if abs((ci - cj) - 1.0) < 1e-12:
            return nodes
    raise ValueError(f"no clean sweep-shifter assignment for pair {pair}")


def ideal_circuit_magnitudes(spec: CircuitSpec) -> np.ndarray:
    """Target |U| of a routed circuit: a port permutation followed by 50:50
    mixing at each Hadamard node (two 1/sqrt(2) entries per routed column)."""
    topo = spec.topology
    n = spec.n_modes
    content = list(range(n))  # content[port] = input index currently there
    for col in reversed(range(1, topo.n_columns)):
        for row in topo.column_rows(col):
            gate = spec.gates.get((col, row), Gate.UNUSED)
            if gate in (Gate.CROSS_SINGLE, Gate.CORR_LEFT):
                m, mb = topo.node_ports((col, row))
                content[m], content[mb] = content[mb], content[m]
    mags = np.zeros((n, n))
    s = 1.0 / math.sqrt(2.0)
    for row in topo.column_rows(0):
        m, mb = topo.node_ports((0, row))
        if spec.gates.get((0, row)) is Gate.HADAMARD:
            for out in (m, mb):
                mags[out, content[m]] = s
                mags[out, content[mb]] = s
        else:
            mags[m, content[m]] = 1.0
            mags[mb, content[mb]] = 1.0
    return mags


@dataclass(frozen=True)
class LinkCost:
    pair: Pair
    uncorrected_crossings: int


def crossing_cost(pair, topology: MeshTopology | None = None) -> LinkCost:
    """Crossings needed to bring one pair together (no double-MZI upgrades)."""
    topo = topology or MeshTopology(8)
    spec = route_matching([pair], topo)
    p = _normalize_matching([pair], topo.n_modes)[0]
    return LinkCost(pair=p, uncorrected_crossings=len(spec.pair_crossings[p]))


DEFAULT_MATCHINGS: dict[str, tuple[Pair, ...]] = {
    "1": ((1, 2), (3, 4), (5, 6), (7, 8)),
    "2": ((1, 4), (2, 3), (5, 8), (6, 7)),
    "3": ((1, 5), (2, 6), (3, 7), (4, 8)),
    "4": ((1, 3), (2, 4), (5, 7), (6, 8)),
    "alt3": ((1, 5), (2, 6), (3, 7), (4, 8)),
    "alt4": ((1, 3), (2, 4), (5, 7), (6, 8)),
    "alt5": ((1, 6), (2, 7), (3, 8), (4, 5)),
    "alt6": ((1, 7), (2, 8), (3, 5), (4, 6)),
    "alt7": ((1, 8), (2, 5), (3, 6), (4, 7)),
}

#: Circuits whose union covers all C(8,2)=28 port pairs exactly once.
ALL_TO_ALL_CIRCUITS = ("1", "2", "alt3", "alt4", "alt5", "alt6", "alt7")

#: The four optional bonds on top of the cubic unit cell.
OPTIONAL_PAIRS = DEFAULT_MATCHINGS["2"]


_DEFAULT_CIRCUIT_CACHE: dict[str, CircuitSpec] | None = None


def ohqe_circuits(matchings: dict[str, tuple[Pair, ...]] | None = None,
                  upgrade: bool = True) -> dict[str, CircuitSpec]:
    """The four default entanglement circuits plus the five alternatives.

    Circuit matchings are overridable; crossings are upgraded to corrected
    double-MZI groups wherever the three-column span is free and the
    upgrade does not rob a pair of its sweepable input phase shifters (a
    corrected cross starting at the input column superposes light across
    the second column, where the sweep needs localised tokens).
    """
    global _DEFAULT_CIRCUIT_CACHE
    if matchings is None and upgrade and _DEFAULT_CIRCUIT_CACHE is not None:
        return {k: _copy_spec(s) for k, s in _DEFAULT_CIRCUIT_CACHE.items()}
    table = dict(DEFAULT_MATCHINGS)
    if matchings:
        table.update({k: _normalize_matching(v, 8) for k, v in matchings.items()})
    topo = MeshTopology(8)
    circuits = {}
    routed: dict[tuple[Pair, ...], CircuitSpec] = {}  # each distinct matching is routed once
    for name, matching in table.items():
        key = _normalize_matching(matching, 8)
        if key in routed:
            circuits[name] = _copy_spec(routed[key])
            circuits[name].name = name
            continue
        base = route_matching(matching, topo)
        spec = base
        if upgrade and base.crossings():
            excluded: set[Node] = set()
            while True:
                wanted = [c for c in base.crossings() if c not in excluded]
                spec = upgrade_to_corrected(base, wanted)[0] if wanted else base
                if _sweepable(spec):
                    break
                top_lefts = [g.left for g in spec.groups if g.left[0] >= topo.n_columns - 1]
                if not top_lefts:
                    raise AssertionError(f"circuit {name!r} is unsweepable even uncorrected")
                excluded.update(top_lefts)
        spec.name = name
        circuits[name] = routed[key] = spec
    if matchings is None and upgrade:
        _DEFAULT_CIRCUIT_CACHE = circuits
        return {k: _copy_spec(s) for k, s in circuits.items()}
    return circuits


def _sweepable(spec: CircuitSpec) -> bool:
    topo = spec.topology
    try:
        for pair in spec.matching:
            sweep_shifter_nodes(pair, topo, spec)
    except ValueError:
        return False
    return True


def _copy_spec(spec: CircuitSpec) -> CircuitSpec:
    return CircuitSpec(
        n_modes=spec.n_modes,
        matching=spec.matching,
        gates=dict(spec.gates),
        outputs=dict(spec.outputs),
        groups=spec.groups,
        pair_crossings=dict(spec.pair_crossings),
        name=spec.name,
    )


# ---------------------------------------------------------------------------
# CircuitSpec JSON (schema "circuit-v1")
# ---------------------------------------------------------------------------


def circuit_to_dict(spec: CircuitSpec) -> dict:
    return {
        "schema": CIRCUIT_SCHEMA,
        "name": spec.name,
        "n_modes": spec.n_modes,
        "matching": [list(p) for p in spec.matching],
        "gates": {node_label(n): g.value for n, g in sorted(spec.gates.items())},
        "outputs": {f"{i}_{j}": list(out) for (i, j), out in sorted(spec.outputs.items())},
        "groups": [
            {
                "left": node_label(g.left),
                "right": node_label(g.right),
                "intermediates": [node_label(m) for m in g.intermediates],
                "ports": list(g.ports),
            }
            for g in spec.groups
        ],
        "pair_crossings": {
            f"{i}_{j}": [node_label(n) for n in nodes]
            for (i, j), nodes in sorted(spec.pair_crossings.items())
        },
    }


def circuit_from_dict(data: dict) -> CircuitSpec:
    if data.get("schema") != CIRCUIT_SCHEMA:
        raise ValueError(f"expected schema {CIRCUIT_SCHEMA!r}, got {data.get('schema')!r}")

    def parse_pair(key: str) -> Pair:
        i, j = key.split("_")
        return (int(i), int(j))

    return CircuitSpec(
        n_modes=int(data["n_modes"]),
        matching=tuple(tuple(p) for p in data["matching"]),
        gates={parse_node_label(k): Gate(v) for k, v in data["gates"].items()},
        outputs={parse_pair(k): tuple(v) for k, v in data["outputs"].items()},
        groups=tuple(
            CorrectedCrossGroup(
                left=parse_node_label(g["left"]),
                right=parse_node_label(g["right"]),
                intermediates=tuple(parse_node_label(m) for m in g["intermediates"]),
                ports=tuple(g["ports"]),
            )
            for g in data.get("groups", [])
        ),
        pair_crossings={
            parse_pair(k): tuple(parse_node_label(n) for n in v)
            for k, v in data.get("pair_crossings", {}).items()
        },
        name=data.get("name", ""),
    )


def save_circuit(spec: CircuitSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(spec), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_circuit(path) -> CircuitSpec:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))
