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
import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from types import MappingProxyType

import numpy as np

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
    entries: list[PlanEntry]
    phase_screen: np.ndarray
    nulled_trace: list[tuple[int, int, float]]


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


@dataclass(frozen=True)
class _Layout:
    """Where the blocks of every ``n``-mode decomposition go.

    ``ports`` holds the top port m of each block's ports (m, m + 1) in input
    order: the ``n_right`` right ops' blocks, then the left ops' in reverse.
    ``nodes`` places them in the reversed variant and ``flipped`` in the
    standard one (the same nodes under port reversal). ``columns`` holds, per
    mesh column, input column first, its blocks' indices and their
    (top, bottom) ports.
    """

    ports: np.ndarray
    n_right: int
    nodes: tuple[Node, ...]
    flipped: tuple[Node, ...]
    columns: tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=4)
def _layout(n: int) -> _Layout:
    """The layout of every ``n``-mode decomposition: :func:`_synthesize`
    emits an op even where it nulls nothing, so it depends on n alone. It is
    shared, so its arrays are read-only."""
    # the right ops in the order the nulling emits them, the left ops reversed
    right = [k + j for k in reversed(range(1, n - 1, 2)) for j in range(n - 1 - k)]
    left = [j for k in range(0, n - 1, 2) for j in range(n - 1 - k)]
    ports = np.array(right + left)
    nodes = _place(ports.tolist(), n)
    cols = np.array([c for c, _ in nodes])
    columns = []
    for col in reversed(range(n)):
        b = np.flatnonzero(cols == col)
        columns.append((b, ports[b, None] + (0, 1)))
    for array in (ports, *(a for column in columns for a in column)):
        array.flags.writeable = False
    topo = MeshTopology(n)
    flipped = tuple((c, len(topo.column_rows(c)) - 1 - r) for c, r in nodes)
    return _Layout(ports, len(right), tuple(nodes), flipped, tuple(columns))


def _factor_columns(blocks: np.ndarray, layout: _Layout, n: int):
    """Factor each placed 2x2 block, input column first, as
    ``blocks[b] @ diag(kappa) = diag(d1, d2) @ B(theta_diff, phi_diff)``.

    ``kappa`` holds the phases (d1, d2) that the previous blocks on the same
    ports pushed forward; B is the ideal differential MZI block
    ``i * [[s e^{i phi/2}, c e^{-i phi/2}], [c e^{i phi/2}, -s e^{-i phi/2}]]``
    with ``s = sin(delta/2)``, ``c = cos(delta/2)``.  ``kappa`` has modulus
    1, so ``s`` and ``c`` are the magnitudes of the block's own top row:
    ``delta``, the cross, bar and mixed cases, and the entries d1 and d2 are
    read from, with their divisors but for ``e^{i phi/2}``, are found for
    every block at once.  The blocks of one column sit on disjoint ports,
    so each column is one vectorised step, and it carries phases alone:
    ``phi`` from the angles of the top row times ``kappa``, then d1, d2 and
    the next ``kappa``.  Returns (theta_diff, phi_diff, kappa), the last
    being the phases left on the n output ports.
    """
    top = blocks[:, 0]
    s, c = np.abs(top).T
    cross = s <= 1e-12
    bar = ~cross & (c <= 1e-12)
    mixed = ~cross & ~bar
    delta = np.where(cross, 0.0, np.where(bar, math.pi, 2.0 * np.arctan2(s, c)))
    # zeros give angles 0, so a block that is not mixed gets phi = 0
    angled = np.where(mixed[:, None], top, 0.0)
    # d1 is read from column 1 of the top row if cross, else column 0, and
    # d2 from column 1 of the bottom row if bar, else column 0; the kappa
    # of port ``ports + column`` multiplies each
    side = np.stack((cross, bar), axis=1)
    read = np.take_along_axis(blocks, side[:, :, None].astype(int), axis=2)[..., 0]
    port = layout.ports[:, None] + side
    divisor = np.stack((np.where(mixed, 1j * s, 1j),
                        np.where(mixed, 1j * c, np.where(bar, -1j, 1j))), axis=1)
    kappa = np.ones(n, dtype=complex)
    phi = np.empty(len(blocks))
    for b, pp in layout.columns:
        # + 0.0 turns signed zeros positive, so that a negative real entry
        # has angle +pi however the products above rounded
        angle = np.angle(angled[b] * kappa[pp] + 0.0)
        phi[b] = p = angle[:, 0] - angle[:, 1]
        d = read[b] * kappa[port[b]]
        d /= divisor[b] * np.exp(0.5j * p)[:, None]
        kappa[pp] = d / np.abs(d)
    return delta, phi, kappa


def _synthesize(u: np.ndarray):
    """Zig-zag upper-right-triangle nulling.

    Alternates right-multiplications (column mixing) and left-multiplications
    (row mixing) per anti-diagonal so that the emitted factor sequence maps
    onto the chip's column structure.  Each op nulls ``w[j, i]`` with one
    2x2 unitary G, stored as its (x, y, rho): the two entries it mixes and
    their norm.

    * A right op mixes columns (i-1, i), where ``x, y = w[j, i-1], w[j, i]``
      and ``G = [[x*, y], [y*, -x]] / rho``. It updates rows j..n-1 only, as
      two contiguous rows of a transposed copy of ``w`` made once per
      anti-diagonal.
    * A left op mixes rows (j, j+1), where ``x, y = w[j, i], w[j+1, i]`` and
      ``G = [[y, -x], [x*, y*]] / rho``. It updates columns 0..i only.

    The entries left out are those the nulling has already made zero: rows
    above j of columns i-1 and i, and columns right of i of rows j and j+1.
    That is exact. A right op mixes each row of its two columns on its own,
    and a left op each column of its two rows, so leaving those entries out
    changes no other entry. No later op reads them either, since every later
    pivot pair, and the diagonal read at the end, is an entry not yet
    nulled.  An op whose ``abs(w[j, i])`` is below ``_NULL_TOL`` is the
    identity, stored with rho 0.

    Returns (left_ops, right_ops, diag, trace), with one trace record
    ``(j, i, abs(w[j, i]))`` per nulled entry: the residual its update left.
    """
    n = u.shape[0]
    w = np.array(u, dtype=complex)
    g = np.empty((2, 2), dtype=complex)
    identity = (0j, 0j, 0.0)
    right_ops: list[tuple[complex, complex, float]] = []
    left_ops: list[tuple[complex, complex, float]] = []
    trace: list[tuple[int, int, float]] = []

    for k in reversed(range(n - 1)):
        if k % 2 == 1:
            wt = w.T.copy()  # columns (i-1, i) of w are contiguous rows of wt
            for j in range(n - 1 - k):
                i = k + j + 1
                x, y = wt.item(i - 1, j), wt.item(i, j)
                if abs(y) < _NULL_TOL:
                    right_ops.append(identity)
                else:
                    rho = math.hypot(abs(x), abs(y))
                    s = 1.0 / rho
                    # g is G^T: wt[i-1:i+1, j:] <- G^T wt[i-1:i+1, j:]
                    g[0, 0], g[0, 1] = x.conjugate() * s, y.conjugate() * s
                    g[1, 0], g[1, 1] = y * s, -x * s
                    pair = wt[i - 1 : i + 1, j:]
                    pair[...] = g @ pair
                    right_ops.append((x, y, rho))
                trace.append((j, i, abs(wt.item(i, j))))
            w = wt.T.copy()
        else:
            for j in reversed(range(n - 1 - k)):
                i = k + j + 1
                x, y = w.item(j, i), w.item(j + 1, i)
                if abs(x) < _NULL_TOL:
                    left_ops.append(identity)
                else:
                    rho = math.hypot(abs(x), abs(y))
                    s = 1.0 / rho
                    g[0, 0], g[0, 1] = y * s, -x * s
                    g[1, 0], g[1, 1] = x.conjugate() * s, y.conjugate() * s
                    pair = w[j : j + 2, : i + 1]
                    pair[...] = g @ pair
                    left_ops.append((x, y, rho))
                trace.append((j, i, abs(w.item(j, i))))

    return left_ops, right_ops, np.diag(w).copy(), trace


def _rotations(right_ops, left_ops) -> np.ndarray:
    """The input-ordered blocks ``G^H`` of the ops, one array pass: the right
    ops', then the left ops' in reverse (see :func:`_synthesize` for G)."""
    nr = len(right_ops)
    x, y, rho = np.array(right_ops + left_ops[::-1], dtype=complex).reshape(-1, 3).T
    rho = rho.real
    xc, yc = x.conj(), y.conj()
    # right ops: G^H = [[x, y], [y*, -x*]] / rho; left: G^H = [[y*, x], [-x*, y]] / rho
    blocks = np.stack((x, y, yc, -xc), axis=1).reshape(-1, 2, 2)
    blocks[nr:] = np.stack((yc[nr:], x[nr:], -xc[nr:], y[nr:]), axis=1).reshape(-1, 2, 2)
    nulled = rho > 0.0
    blocks[nulled] /= rho[nulled, None, None]
    blocks[~nulled] = np.eye(2)
    return blocks


def _null_upper_right(u: np.ndarray, layout: _Layout):
    """(theta_diff, phi_diff, phase_screen, nulled_trace) of the reversed
    variant, the settings in the order of ``layout.nodes``."""
    n = u.shape[0]
    left_ops, right_ops, lam, trace = _synthesize(u)

    # L_q .. L_1 W R_1 .. R_p = D  =>  W = L_1^+ .. L_q^+ D R_p^+ .. R_1^+.
    # Input-to-output block order is therefore [R_1^+, .., R_p^+, L_q^+, .., L_1^+]
    # after commuting D (diagonal) out to the output side, which turns each
    # L^+ on ports (m, m + 1) into diag(1/d) L^+ diag(d) with d = D[m : m + 2].
    blocks = _rotations(right_ops, left_ops)
    left = slice(layout.n_right, None)
    d = lam[layout.ports[left, None] + (0, 1)]
    blocks[left] = (1.0 / d)[:, :, None] * blocks[left] * d[:, None, :]
    delta, phi, kappa = _factor_columns(blocks, layout, n)
    return delta, phi, lam * kappa, trace


def clements_decompose(u: np.ndarray, reversed_variant: bool = True) -> DecompositionPlan:
    """Decompose a unitary into mesh settings plus an output phase screen.

    The reversed variant nulls the upper-right triangle of the target
    (recorded step by step in ``nulled_trace``); the standard variant nulls
    the lower-left triangle, as the reversed variant of the port-reversed
    target.  Both reconstruct the same unitary on the same topology,
    differing only in which node carries which rotation.
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

    layout = _layout(n)
    if reversed_variant:
        delta, phi, screen, trace = _null_upper_right(u, layout)
        nodes = layout.nodes
    else:
        delta, phi, screen, trace = _null_upper_right(u[::-1, ::-1], layout)
        delta, phi, screen = -delta, -phi, screen[::-1].copy()
        trace = [(n - 1 - r, n - 1 - c, v) for r, c, v in trace]
        nodes = layout.flipped
    entries = [PlanEntry(node, t, p) for node, t, p in zip(nodes, delta.tolist(), phi.tolist())]
    return DecompositionPlan(n_modes=n, entries=entries, phase_screen=screen, nulled_trace=trace)


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
    name: str = ""

    def __post_init__(self):
        # a dict, or another spec's view under replace(): copy() copies either
        # at C speed, where dict() would read a view key by key
        for name in ("gates", "outputs"):
            object.__setattr__(self, name, MappingProxyType(getattr(self, name).copy()))

    @property
    def topology(self) -> MeshTopology:
        return MeshTopology(self.n_modes)

    def crossings(self) -> list[Node]:
        return sorted(n for n, g in self.gates.items() if g is Gate.CROSS_SINGLE)


def _normalize_matching(matching, n_modes: int) -> tuple[Pair, ...]:
    pairs = []
    seen = set()
    for pair in matching:
        for port in pair:
            if isinstance(port, bool) or not isinstance(port, numbers.Integral):
                raise ValueError(f"pair {pair} holds port {port!r}, not an integer")
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


def _lowest_slots(pairs: tuple[Pair, ...], n: int) -> tuple[int, ...]:
    """Hadamard slots of the fewest-inversion target, lexicographically first.

    A target splits into units that each fill one slot: every pair, and
    every consecutive couple of free ports (free ports keep their order).
    Its inversions are one per flipped pair plus, for each two units, the
    port pairs inverted by whichever sits in the lower slot; the two orders
    of a couple of units invert 4 port pairs between them. Ordering units by
    smallest port keeps every couple at or below 2, so the optimal targets
    have no flips and are exactly the slot orders that put A below B
    whenever that inverts fewer than 2 port pairs: when A's lower and upper
    ports lie below B's. With the pairs first, in pair order,
    :func:`_earliest_slots` gives each pair its lowest such slot.
    """
    free = sorted(set(range(1, n + 1)).difference(*pairs))
    units = pairs + tuple(zip(free[::2], free[1::2]))
    before = [[a for a, low in enumerate(units) if low[0] < high[0] and low[1] < high[1]]
              for high in units]
    return _earliest_slots(before)[: len(pairs)]


def _earliest_slots(before: list[list[int]]) -> tuple[int, ...]:
    """Slots 0..m-1 of units 0..m-1 in an order that ``before[b]`` (the
    units that must precede unit b) respects, with unit 0 as low as any such
    order allows, then unit 1, and so on: one reverse topological pass fills
    slots from the last down, each with the highest ready unit."""
    m = len(before)
    waiting = Counter(a for b in before for a in b)  # followers of each unit not yet placed
    ready = {u for u in range(m) if not waiting[u]}
    slots = [0] * m
    for s in reversed(range(m)):
        u = max(ready)
        ready.remove(u)
        slots[u] = s
        for a in before[u]:
            waiting[a] -= 1
            if not waiting[a]:
                ready.add(a)
    return tuple(slots)


def route_matching(matching, topology: MeshTopology | None = None) -> CircuitSpec:
    """Route a (partial) matching of input ports to column-0 Hadamard nodes.

    Greedy column-by-column odd-even transposition crosses one adjacent
    inverted couple of tokens per crossing, so a routable target costs
    exactly its inversion count. The router picks the target with the
    fewest inversions, ties broken toward the lexicographically first
    Hadamard slots (lower rows first) and unflipped pairs, in O(N^2)
    steps (see :func:`_lowest_slots`), and routes that one target.
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


@functools.lru_cache(maxsize=4)
def _port_table(n_modes: int) -> Mapping[Node, tuple[int, int]]:
    """0-based (top, bottom) ports of every node of an ``n_modes`` mesh, in
    the order light meets them: input column first, rows top down. Shared
    by every route with ``n_modes`` modes, so it is read-only."""
    topo = MeshTopology(n_modes)
    return MappingProxyType({(col, row): topo.node_ports((col, row))
                             for col in reversed(range(n_modes)) for row in topo.column_rows(col)})


def _route_target(pairs: tuple[Pair, ...], slots: tuple[int, ...], target: list[int],
                  topo: MeshTopology) -> CircuitSpec:
    """Odd-even transposition routing toward ``target`` positions, column by
    column over the ``n_columns - 1`` routing columns.  Gates: crossings
    where it swaps, bars where a paired token passes unswapped, Hadamards at
    the pairs' slots.  Raises AssertionError if the target is unroutable."""
    n = topo.n_modes
    pos = list(target)  # pos[p] = target position of the token currently at port p
    owner = list(range(n))  # owner[p] = input port of the token currently at p
    gates: dict[Node, Gate] = dict.fromkeys(topo.nodes(), Gate.UNUSED)
    paired = {p - 1 for pair in pairs for p in pair}
    for node, (m, mb) in _port_table(n).items():
        if node[0] == 0:  # the Hadamard column comes last
            break
        if pos[m] > pos[mb]:
            pos[m], pos[mb] = pos[mb], pos[m]
            owner[m], owner[mb] = owner[mb], owner[m]
            gates[node] = Gate.CROSS_SINGLE
        elif owner[m] in paired or owner[mb] in paired:
            gates[node] = Gate.BAR
    if pos != sorted(pos):
        raise AssertionError(f"target {target} is not routable in {topo.n_modes} columns")

    gates.update({(0, s): Gate.HADAMARD for s in slots})
    outputs = {pair: (2 * s + 1, 2 * s + 2) for pair, s in zip(pairs, slots)}

    return CircuitSpec(n_modes=n, matching=pairs, gates=gates, outputs=outputs)


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
    n = spec.n_modes
    content = list(range(n))  # content[port] = input index currently there
    mags = np.zeros((n, n))
    s = 1.0 / math.sqrt(2.0)
    for node, (m, mb) in _port_table(n).items():  # the Hadamard column comes last
        gate = spec.gates.get(node)
        if node[0]:
            if gate in (Gate.CROSS_SINGLE, Gate.CORR_LEFT):
                content[m], content[mb] = content[mb], content[m]
        elif gate is Gate.HADAMARD:
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

