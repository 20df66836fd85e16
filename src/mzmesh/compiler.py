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

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType

import numpy as np

from . import artifact
from .mesh import (
    CompiledMesh,
    MeshTopology,
    Node,
    ideal_mesh,
    node_label,
)

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
        artifact.write_csv(path, ["col", "row", "theta_diff_rad", "phi_rad"],
                           [[*e.node, e.theta_diff, e.phi_diff] for e in self.entries])


@functools.lru_cache(maxsize=4)
def _ideal_compiled(n_modes: int) -> CompiledMesh:
    """Ideal compiled mesh shared by every reconstruction with ``n_modes``
    modes; its arrays are read-only, so no call can change another's."""
    compiled = CompiledMesh(ideal_mesh(n_modes))
    for value in vars(compiled).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return compiled


def reconstruct(plan: DecompositionPlan) -> np.ndarray:
    """Simulate the plan on an ideal mesh and apply the output phase screen.

    Each planned node runs at ``theta1 = -theta2 = theta_diff / 2`` and
    ``phi1 = -phi2 = phi_diff / 2``; any other node keeps zero phases.
    """
    compiled = _ideal_compiled(plan.n_modes)
    half = np.zeros((2, len(compiled.nodes)))  # theta_diff / 2 and phi_diff / 2 by node
    index = [compiled.node_index[e.node] for e in plan.entries]
    half[:, index] = [[e.theta_diff for e in plan.entries], [e.phi_diff for e in plan.entries]]
    half /= 2.0
    return plan.phase_screen[:, None] * compiled.transfer(half[0], -half[0], half[1], -half[1])


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


def _place(ports: list[int], n: int) -> list[Node]:
    """Physical (col, row) node of each block of an input-ordered sequence
    on an n-mode mesh, given the top port ``m`` of each block's ports
    (m, m + 1).

    Greedy earliest-column placement: each block lands in the highest free
    column compatible with everything already placed on its two ports.
    """
    frontier = [n - 1] * n  # an n-mode mesh has n columns
    nodes = []
    for m in ports:
        col = min(frontier[m], frontier[m + 1])
        if col % 2 != m % 2:
            col -= 1
        frontier[m] = frontier[m + 1] = col - 1
        nodes.append((col, m // 2))
    return nodes


def _factor_columns(blocks: np.ndarray, ports: np.ndarray, cols: np.ndarray, n: int):
    """Factor each placed 2x2 block, input column first, as
    ``blocks[b] @ diag(kappa) = diag(d1, d2) @ B(theta_diff, phi_diff)``.

    ``kappa`` holds the phases (d1, d2) that the previous blocks on the same
    ports pushed forward; B is the ideal differential MZI block
    ``i * [[s e^{i phi/2}, c e^{-i phi/2}], [c e^{i phi/2}, -s e^{-i phi/2}]]``
    with ``s = sin(delta/2)``, ``c = cos(delta/2)``.  The blocks of one
    column sit on disjoint ports, so each column is one vectorised step.
    Returns (theta_diff, phi_diff, kappa), the last being the phases left
    on the n output ports.
    """
    kappa = np.ones(n, dtype=complex)
    delta = np.empty(len(blocks))
    phi = np.empty(len(blocks))
    for col in reversed(range(n)):
        b = np.flatnonzero(cols == col)
        pp = ports[b, None] + (0, 1)
        # + 0.0 turns signed zeros positive, so that a negative real entry
        # has angle +pi however the products above rounded
        y = blocks[b] * kappa[pp][:, None, :] + 0.0
        s, c = np.abs(y[:, 0, 0]), np.abs(y[:, 0, 1])
        cross = s <= 1e-12
        bar = ~cross & (c <= 1e-12)
        mixed = ~cross & ~bar
        delta[b] = np.where(cross, 0.0, np.where(bar, math.pi, 2.0 * np.arctan2(s, c)))
        phi[b] = np.where(mixed, np.angle(y[:, 0, 0]) - np.angle(y[:, 0, 1]), 0.0)
        rot = np.exp(1j * phi[b] / 2.0)
        d1 = np.where(cross, y[:, 0, 1], y[:, 0, 0]) / np.where(mixed, 1j * s * rot, 1j)
        d2 = np.where(bar, y[:, 1, 1], y[:, 1, 0]) / np.where(
            mixed, 1j * c * rot, np.where(bar, -1j, 1j))
        d = np.stack((d1, d2), axis=1)
        kappa[pp] = d / np.abs(d)
    return delta, phi, kappa


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
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("target must be a square matrix")
    n = u.shape[0]
    if n % 2 or n < 2:
        raise ValueError("mesh topology requires an even dimension >= 2")
    if not np.isfinite(u).all():
        raise ValueError("target matrix has non-finite entries")
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-10:
        raise ValueError("target matrix is not unitary to 1e-10")
    if not reversed_variant:
        return _flip_plan(u)

    left_ops, right_ops, lam, trace = _synthesize(u)

    # L_q .. L_1 W R_1 .. R_p = D  =>  W = L_1^+ .. L_q^+ D R_p^+ .. R_1^+.
    # Input-to-output block order is therefore [R_1^+, .., R_p^+, L_q^+, .., L_1^+]
    # after commuting D (diagonal) out to the output side, which turns each
    # L^+ on ports (m, m + 1) into diag(1/d) L^+ diag(d) with d = D[m : m + 2].
    ops = right_ops + left_ops[::-1]
    ports = np.array([m for (m, _), _ in ops])
    blocks = np.array([g for _, g in ops]).conj().transpose(0, 2, 1)
    left = slice(len(right_ops), None)
    d = lam[ports[left, None] + (0, 1)]
    blocks[left] = (1.0 / d)[:, :, None] * blocks[left] * d[:, None, :]
    # _synthesize emits an op even where it nulls nothing, so the placement
    # depends on n only
    nodes = _place(ports.tolist(), n)
    delta, phi, kappa = _factor_columns(blocks, ports, np.array([c for c, _ in nodes]), n)
    entries = [PlanEntry(node, t, p) for node, t, p in zip(nodes, delta.tolist(), phi.tolist())]
    return DecompositionPlan(
        n_modes=n,
        reversed_variant=True,
        entries=entries,
        phase_screen=lam * kappa,
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


@dataclass(frozen=True)
class CircuitSpec:
    """Bar/cross/Hadamard gate assignment routing input pairs to output pairs.

    A value: each mapping is a read-only view of the spec's own copy, so
    specs share no state and a variant is derived with ``replace``."""

    n_modes: int
    matching: tuple[Pair, ...]
    gates: Mapping[Node, Gate]
    outputs: Mapping[Pair, Pair]  # pair -> (n, m) 1-based output ports
    groups: tuple[CorrectedCrossGroup, ...] = ()
    pair_crossings: Mapping[Pair, tuple[Node, ...]] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        # a dict, or another spec's view under replace(): copy() copies either
        # at C speed, where dict() would read a view key by key
        for name in ("gates", "outputs", "pair_crossings"):
            object.__setattr__(self, name, MappingProxyType(getattr(self, name).copy()))

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


def _schedulable(before: list[list[int]], fixed: dict[int, int]) -> bool:
    """Whether unit jobs 0..m-1, in an order that ``before[b]`` (the jobs
    that must precede job b) respects, fill slots 0..m-1 with each job in
    ``fixed`` at its slot.

    Precedences tighten release times forward and deadlines backward; then
    earliest-deadline-first fills the slots in order, or shows none works.
    """
    m = len(before)
    release = [fixed.get(u, 0) for u in range(m)]
    deadline = [fixed.get(u, m - 1) for u in range(m)]
    for b in range(m):
        for a in before[b]:
            release[b] = max(release[b], release[a] + 1)
    for b in reversed(range(m)):
        for a in before[b]:
            deadline[a] = min(deadline[a], deadline[b] - 1)
    pending = set(range(m))
    for t in range(m):
        ready = [u for u in pending if release[u] <= t]
        u = min(ready, key=deadline.__getitem__, default=None)
        if u is None or deadline[u] < t:
            return False
        pending.remove(u)
    return True


def _lowest_slots(pairs: tuple[Pair, ...], n: int) -> tuple[int, ...]:
    """Hadamard slots of the fewest-inversion target, lexicographically first.

    A target splits into units that each fill one slot: every pair, and
    every consecutive couple of free ports (free ports keep their order).
    Its inversions are one per flipped pair plus, for each two units, the
    port pairs inverted by whichever sits in the lower slot; the two orders
    of a couple of units invert 4 port pairs between them. Sorting units by
    smallest port keeps every couple at or below 2, so the optimal targets
    have no flips and are exactly the slot orders that put A below B
    whenever that inverts fewer than 2 port pairs. Each pair in turn takes
    the lowest slot that still admits such an order (:func:`_schedulable`).
    """
    paired = {p for pair in pairs for p in pair}
    free = [p for p in range(1, n + 1) if p not in paired]
    units = sorted(pairs + tuple(zip(free[::2], free[1::2])))  # by smallest port
    m = len(units)
    before = [[a for a in range(b) if sum(x > y for x in units[a] for y in units[b]) < 2]
              for b in range(m)]

    fixed: dict[int, int] = {}
    for pair in pairs:
        u = units.index(pair)
        fixed[u] = next(s for s in range(m) if _schedulable(before, {**fixed, u: s}))
    return tuple(fixed.values())  # in pair order


def route_matching(matching, topology: MeshTopology | None = None) -> CircuitSpec:
    """Route a (partial) matching of input ports to column-0 Hadamard nodes.

    Greedy column-by-column odd-even transposition crosses one adjacent
    inverted couple of tokens per crossing, so a routable target costs
    exactly its inversion count. The router picks the target with the
    fewest inversions, ties broken toward the lexicographically first
    Hadamard slots (lower rows first) and unflipped pairs, in polynomial
    time (see :func:`_lowest_slots`), and routes that one target.
    """
    topo = topology or MeshTopology(8)
    n = topo.n_modes
    pairs = _normalize_matching(matching, n)
    if len(pairs) > n // 2:
        raise ValueError("more pairs than output Hadamard slots")

    slots = _lowest_slots(pairs, n)
    target = [-1] * n
    for (i, j), s in zip(pairs, slots):
        target[i - 1], target[j - 1] = 2 * s, 2 * s + 1
    free_positions = iter(sorted(set(range(n)) - set(target)))
    target = [t if t >= 0 else next(free_positions) for t in target]
    return _route_target(pairs, slots, target, topo)


def _route_target(pairs: tuple[Pair, ...], slots: tuple[int, ...], target: list[int],
                  topo: MeshTopology) -> CircuitSpec:
    """Odd-even transposition routing toward ``target`` positions, column by
    column over the ``n_columns - 1`` routing columns.  Gates: crossings
    where it swaps, bars where a paired token passes unswapped, Hadamards at
    the pairs' slots.  Raises AssertionError if the target is unroutable."""
    n = topo.n_modes
    paired_ports = {p - 1 for pair in pairs for p in pair}
    pos = list(target)  # pos[p] = target position of the token currently at port p
    owner = list(range(n))  # owner[p] = input port of the token currently at p
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
    if pos != sorted(pos):
        raise AssertionError(f"target {target} is not routable in {topo.n_modes} columns")

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

    ``which`` is an iterable of nodes or ``"all"``.  Upgrades whose
    three-column span is structurally unavailable are reported and the
    crossing left single.
    """
    topo = spec.topology
    selected = spec.crossings() if which == "all" else list(which)
    if not all(isinstance(n, tuple) and len(n) == 2 and topo.has_node(n) for n in selected):
        raise ValueError(f"which must be 'all' or nodes of the {topo.n_modes}-mode mesh, "
                         f"got {which!r}")

    gates = spec.gates.copy()
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

    return replace(spec, gates=gates, groups=tuple(groups)), failures


def _entry_positions(circuit: CircuitSpec, topo: MeshTopology):
    """Token port entering each of the two input columns, plus the ports a
    double-MZI crossing leaves in superposition at the second column."""
    hi, lo = topo.input_columns()
    pos_hi = list(range(topo.n_modes))  # pos[token] = port entering column hi
    pos_lo = list(pos_hi)
    blurred: set[int] = set()  # ports superposed while a corrected cross is in flight
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


def sweep_shifter_nodes(pair: Pair, circuit: CircuitSpec) -> dict[Node, int]:
    """External-shifter nodes and polarities sweeping a pair's phase.

    Each lit input is driven at the first input-column MZI its light
    reaches, with opposite polarities on the two inputs; candidates are
    validated against the circuit's routing so the differential phase
    between the pair equals the actuator ramp phase exactly (coefficient
    +1), including the case where both inputs share one MZI.  Raises when
    in-flight corrected-crossing superpositions make that impossible.
    """
    topo = circuit.topology
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


def ohqe_circuits(matchings: dict[str, tuple[Pair, ...]] | None = None) -> dict[str, CircuitSpec]:
    """The four default entanglement circuits plus the five alternatives.

    Circuit matchings are overridable; crossings are upgraded to corrected
    double-MZI groups wherever the three-column span is free and the
    upgrade does not rob a pair of its sweepable input phase shifters (a
    corrected cross starting at the input column superposes light across
    the second column, where the sweep needs localised tokens).
    """
    table = dict(DEFAULT_MATCHINGS)
    if matchings:
        table.update({k: _normalize_matching(v, 8) for k, v in matchings.items()})
    topo = MeshTopology(8)
    circuits = {}
    routed: dict[tuple[Pair, ...], CircuitSpec] = {}  # each distinct matching is routed once
    for name, matching in table.items():
        key = _normalize_matching(matching, 8)
        if key in routed:
            circuits[name] = replace(routed[key], name=name)
            continue
        base = route_matching(matching, topo)
        spec = base
        if base.crossings():
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
        circuits[name] = routed[key] = replace(spec, name=name)
    return circuits


def _sweepable(spec: CircuitSpec) -> bool:
    try:
        for pair in spec.matching:
            sweep_shifter_nodes(pair, spec)
    except ValueError:
        return False
    return True

