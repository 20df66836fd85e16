"""Independent brute-force oracles the production code is checked against."""

import itertools
import math
from dataclasses import replace

import numpy as np


from mzmesh.compiler import _NULL_TOL, _synthesize
from mzmesh.mesh import (
    CompiledMesh,
    MeshState,
    MeshTopology,
    MziParams,
    ideal_mesh,
    node_label,
)


def coupler(eta: float, amp_loss: float = 1.0) -> np.ndarray:
    """2x2 directional coupler with bar-path power fraction ``eta``:
    amp_loss * [[sqrt(eta), i sqrt(1-eta)], [i sqrt(1-eta), sqrt(eta)]]."""
    s, t = math.sqrt(eta), math.sqrt(1.0 - eta)
    return amp_loss * np.array([[s, 1j * t], [1j * t, s]], dtype=complex)


def mzi_block(p: MziParams) -> np.ndarray:
    """2x2 transfer matrix of one MZI as the written-out product
    tap * C_out diag(arms) diag(e^{i theta}) C_in diag(e^{i phi})."""
    ext = np.diag([np.exp(1j * p.phi1), np.exp(1j * p.phi2)]).astype(complex)
    inner = np.diag([np.exp(1j * p.theta1), np.exp(1j * p.theta2)]).astype(complex)
    arms = np.diag([p.arm_loss_top, p.arm_loss_bot]).astype(complex)
    c_in, c_out = coupler(p.eta_in, p.amp_loss_in), coupler(p.eta_out, p.amp_loss_out)
    return p.tap_loss * (c_out @ arms @ inner @ c_in @ ext)


def dense_mesh_transfer(state: MeshState) -> np.ndarray:
    """Embed every 2x2 block into NxN and multiply dense matrices in order."""
    topo = state.topology
    n = topo.n_modes
    u = np.eye(n, dtype=complex)
    for col in reversed(range(topo.n_columns)):  # input column first
        m = np.eye(n, dtype=complex)
        coupled = set()
        for row in topo.column_rows(col):
            a, b = topo.node_ports((col, row))
            coupled.update((a, b))
            block = mzi_block(state.params[(col, row)])
            m[a, a], m[a, b] = block[0, 0], block[0, 1]
            m[b, a], m[b, b] = block[1, 0], block[1, 1]
        for port in range(n):
            if port not in coupled:
                m[port, port] = state.passthrough_loss.get((col, port), 1.0)
        u = m @ u
    return u


def dense_mesh_taps(state: MeshState, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Output fields and monitor-side tapped powers (n_nodes, 2), gain not
    applied, for one input vector.

    Each column is a dense N x N matrix of tap-free ``mzi_block`` blocks
    and pass-through losses.  The taps read the column's pre-tap partial
    product applied to ``inputs``; the tap amplitudes then scale it before
    the next column.
    """
    topo = state.topology
    n = topo.n_modes
    inputs = np.asarray(inputs, dtype=complex)
    u = np.eye(n, dtype=complex)
    taps = {}
    for col in reversed(range(topo.n_columns)):  # input column first
        m = np.zeros((n, n), dtype=complex)
        tap_amp = np.ones(n)
        for port in range(n):
            m[port, port] = state.passthrough_loss.get((col, port), 1.0)
        for row in topo.column_rows(col):
            p = state.params[(col, row)]
            ports = list(topo.node_ports((col, row)))
            m[np.ix_(ports, ports)] = mzi_block(replace(p, tap_loss=1.0))
            tap_amp[ports] = p.tap_loss
        pre = m @ u
        fields = pre @ inputs
        for row in topo.column_rows(col):
            a, b = topo.node_ports((col, row))
            frac = 1.0 - state.params[(col, row)].tap_loss ** 2
            taps[(col, row)] = (abs(fields[a]) ** 2 * frac, abs(fields[b]) ** 2 * frac)
        u = tap_amp[:, None] * pre
    return u @ inputs, np.array([taps[node] for node in topo.nodes()]).reshape(-1, 2)


def stored_phases(state: MeshState) -> tuple[np.ndarray, ...]:
    """The (theta1, theta2, phi1, phi2) arrays of the nodes of ``state``,
    in node order: the phases ``CompiledMesh`` takes for the state's own
    setting."""
    nodes = state.topology.nodes()
    return tuple(np.array([getattr(state.params[nd], name) for nd in nodes], dtype=float)
                 for name in ("theta1", "theta2", "phi1", "phi2"))


def state_transfer(state: MeshState) -> np.ndarray:
    """The kernel's N x N transfer matrix of ``state`` at its own phases."""
    return CompiledMesh(state).transfer(*stored_phases(state))


def state_fields(state: MeshState, inputs) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's output fields and monitor-side tapped powers (gain not
    applied) of ``state`` at its own phases, for one input row or a stack."""
    cm = CompiledMesh(state)
    return cm.propagate(inputs, cm.columns(*stored_phases(state)), want_taps=True)


def dissipated(cm: CompiledMesh, inputs: np.ndarray, phases) -> np.ndarray:
    """Per-row power absorbed by the couplers, arms and dummy blocks of
    ``cm`` at the four node ``phases`` (as for ``CompiledMesh.columns``),
    computed from their loss factors and the fields entering each column."""
    v_in = cm._input_rows(inputs)
    pre = np.empty((cm.topology.n_columns,) + v_in.shape, dtype=complex)
    cm._column_outputs(v_in, cm.columns(*phases), pre)
    entering = np.concatenate((v_in[None], pre[:-1] * cm._tap_amp[:-1, None]))[..., 0]
    _, _, ph1, ph2 = cm._phase_rows(phases)
    # fields entering each node after its external phases: (node, 2, batch)
    w = entering[cm._node_k, :, cm._node_ports] * np.exp(1j * np.stack((ph1, ph2), axis=1))
    s, t = cm.s_in[:, None], cm.t_in[:, None]
    x = np.stack((s * w[:, 0] + 1j * t * w[:, 1], 1j * t * w[:, 0] + s * w[:, 1]), axis=1)
    p_x = np.abs(x) ** 2  # after the input coupler, before the arms
    arm2 = cm.arm.T[..., None] ** 2
    lost = (
        (1.0 - cm.a_in[:, None] ** 2) * np.sum(np.abs(w) ** 2, axis=1)
        + np.sum((1.0 - arm2) * p_x, axis=1)
        + (1.0 - cm.a_out[:, None] ** 2) * np.sum(arm2 * p_x, axis=1)
    )
    pt_in = np.abs(entering[cm._pt_k, :, cm._pt_port]) ** 2
    return np.sum(lost, axis=0) + (1.0 - cm._pt_amp**2) @ pt_in


def energy_audit(state: MeshState, inputs: np.ndarray) -> dict[str, float]:
    """Power bookkeeping of ``state`` at its own phases: input = output +
    tapped + dissipated."""
    inputs = np.asarray(inputs, dtype=complex)
    fields, taps = state_fields(state, inputs)
    return {
        "input": float(np.sum(np.abs(inputs) ** 2)),
        "output": float(np.sum(np.abs(fields[0]) ** 2)),
        "tapped": float(np.sum(taps[0])),
        "dissipated": float(dissipated(CompiledMesh(state), inputs, stored_phases(state))[0]),
    }


def sequential_reads(detector, rng, reads: int, true) -> np.ndarray:
    """Detector readings of the true powers ``true``, shaped (reads,) +
    true.shape, drawn one read at a time: each read gives every element, in
    their flat order, one deviate z from its own ``standard_normal`` call,
    and reads max(true + floor + hypot(sigma * true, floor) * z, 0); a
    noiseless detector draws nothing."""
    sigma, floor = detector.relative_noise_sigma, detector.additive_floor

    def apply(power):
        out = np.asarray(power, dtype=float)
        if sigma > 0 or floor > 0:
            out = out + floor + np.hypot(sigma * out, floor) * rng.standard_normal(out.shape)
        return np.maximum(out, 0.0)

    return np.array([apply(true) for _ in range(reads)])


def fringe_curve(u: np.ndarray, pair, out_port, alpha) -> np.ndarray:
    """Closed-form two-input interference at one output for unit input power:
    I = |u_ni|^2 + |u_nj|^2 + 2|u_ni||u_nj| cos(alpha + phi_ni - phi_nj)."""
    i, j = pair
    uni = u[out_port - 1, i - 1]
    unj = u[out_port - 1, j - 1]
    return (
        abs(uni) ** 2
        + abs(unj) ** 2
        + 2.0 * abs(uni) * abs(unj) * np.cos(np.asarray(alpha) + np.angle(uni) - np.angle(unj))
    )


def bfs_min_crossings(matching, n_modes: int = 8) -> int:
    """Fewest adjacent swaps routing a matching to Hadamard pairs, by layered
    breadth-first search over the column-constrained swap network."""
    topo = MeshTopology(n_modes)
    pairs = [tuple(sorted(p)) for p in matching]
    paired = {p for pr in pairs for p in pr}

    def accepted(state) -> bool:
        # every pair occupies one output pair (2k+1, 2k+2), 1-based ports
        position = {tok: port for port, tok in enumerate(state)}
        for i, j in pairs:
            a, b = position[i], position[j]
            if a > b:
                a, b = b, a
            if b != a + 1 or a % 2 != 0:
                return False
        return True

    start = tuple(range(1, n_modes + 1))
    frontier = {start: 0}
    best = math.inf
    for col in reversed(range(1, topo.n_columns)):
        blocks = [topo.node_ports((col, r)) for r in topo.column_rows(col)]
        nxt = {}
        for state, cost in frontier.items():
            for k in range(len(blocks) + 1):
                for combo in itertools.combinations(range(len(blocks)), k):
                    s = list(state)
                    for b in combo:
                        a, bb = blocks[b]
                        s[a], s[bb] = s[bb], s[a]
                    key = tuple(s)
                    c = cost + k
                    if c < nxt.get(key, math.inf):
                        nxt[key] = c
        frontier = nxt
    for state, cost in frontier.items():
        if accepted(state):
            best = min(best, cost)
    return int(best)


def pair_min_crossings(pair, n_modes: int = 8) -> int:
    return bfs_min_crossings([pair], n_modes)


def pair_crossings(spec, pair) -> int:
    """Single crossings of the routed ``spec`` that a token of ``pair``
    passes: each input port's token followed from the input column through
    the swaps of the spec's ``CROSS_SINGLE`` gates."""
    from mzmesh.compiler import Gate

    topo = spec.topology
    at = list(range(1, topo.n_modes + 1))  # at[p] = input port of the token at 0-based port p
    count = 0
    for col in reversed(range(topo.n_columns)):
        for row in topo.column_rows(col):
            if spec.gates[(col, row)] is Gate.CROSS_SINGLE:
                a, b = topo.node_ports((col, row))
                count += at[a] in pair or at[b] in pair
                at[a], at[b] = at[b], at[a]
    return count


def enumerated_route(matching, topology: MeshTopology):
    """Reference router: every Hadamard-slot assignment x pair orientation.

    Each candidate target (free ports keep their order on the free slots)
    is routed by greedy column-by-column odd-even transposition, all
    candidates at once as rows of one array.  The feasible candidate with
    the fewest crossings wins, ties broken toward the lexicographically
    first (slots, orientations); its gates come from the router's walk.
    """
    from mzmesh.compiler import _normalize_matching, _route_target

    topo = topology
    n = topo.n_modes
    pairs = _normalize_matching(matching, n)
    keys, targets = [], []
    for slots in itertools.permutations(range(n // 2), len(pairs)):
        for orient in itertools.product((0, 1), repeat=len(pairs)):
            target = [-1] * n
            for (i, j), s, o in zip(pairs, slots, orient):
                target[i - 1], target[j - 1] = (2 * s + o, 2 * s + 1 - o)
            free = iter(sorted(set(range(n)) - set(target)))
            targets.append([t if t >= 0 else next(free) for t in target])
            keys.append((slots, orient))
    pos = np.array(targets)
    crossings = np.zeros(len(pos), dtype=int)
    for col in reversed(range(1, topo.n_columns)):
        for row in topo.column_rows(col):
            m, mb = topo.node_ports((col, row))
            swap = pos[:, m] > pos[:, mb]
            pos[swap, m], pos[swap, mb] = pos[swap, mb], pos[swap, m]
            crossings += swap
    feasible = np.flatnonzero(np.all(pos[:, 1:] > pos[:, :-1], axis=1))
    c = min(feasible, key=lambda c: (crossings[c], keys[c]))
    return _route_target(pairs, keys[c][0], targets[c], topo)


def schedulable(before: list[list[int]], fixed: dict[int, int]) -> bool:
    """Whether unit jobs 0..m-1, in an order that ``before[b]`` (the jobs
    that must precede job b) respects, fill slots 0..m-1 with each job in
    ``fixed`` at its slot.

    Precedences tighten release times forward and deadlines backward; then
    earliest-deadline-first fills the slots in order, or shows none works.
    ``before[b]`` may name only jobs below b.
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


def edf_lowest_slots(pairs, n: int) -> tuple[int, ...]:
    """Reference Hadamard slots of a normalized matching: the same units and
    "must come first" relation as ``compiler._lowest_slots``, with each pair
    in turn given the lowest slot that :func:`schedulable` still admits.
    O(N^4), but independent of the reverse topological pass."""
    paired = {p for pair in pairs for p in pair}
    free = [p for p in range(1, n + 1) if p not in paired]
    units = sorted(tuple(pairs) + tuple(zip(free[::2], free[1::2])))  # by smallest port
    m = len(units)
    before = [[a for a in range(b) if sum(x > y for x in units[a] for y in units[b]) < 2]
              for b in range(m)]
    fixed: dict[int, int] = {}
    for pair in pairs:
        u = units.index(pair)
        fixed[u] = next(s for s in range(m) if schedulable(before, {**fixed, u: s}))
    return tuple(fixed.values())  # in pair order


def solve_corrected_cross(eta_l_in, eta_l_out, eta_r_in, eta_r_out,
                          arm_top=1.0, arm_bot=1.0):
    """Exact double-MZI null: (theta_L, theta_R, phi_R) zeroing the bar-port
    amplitude of the four-matrix product (Miller construction).

    theta_L is pinned at the left member's exact 50:50 point (bisection);
    (theta_R, phi_R) then solve the complex null condition by root finding.
    The two structure arms carry amplitude factors ``arm_top``/``arm_bot``.
    Returns (params, residual bar amplitude).
    """
    from scipy.optimize import brentq, fsolve

    def coupler(eta):
        s, t = math.sqrt(eta), math.sqrt(1 - eta)
        return np.array([[s, 1j * t], [1j * t, s]])

    def member(eta_in, eta_out, theta):
        return coupler(eta_out) @ np.diag(
            [np.exp(1j * theta / 2), np.exp(-1j * theta / 2)]
        ) @ coupler(eta_in)

    def split_imbalance(theta):
        m = member(eta_l_in, eta_l_out, theta)
        return abs(m[0, 0]) ** 2 - abs(m[1, 0]) ** 2

    # 50:50 lies between the bar (pi) and cross (0) extremes
    th_l = brentq(split_imbalance, 1e-9, math.pi - 1e-9, xtol=1e-15)

    def bar_amp(th_r, ph_r):
        left = member(eta_l_in, eta_l_out, th_l)
        arms = np.diag([arm_top * np.exp(1j * ph_r / 2), arm_bot * np.exp(-1j * ph_r / 2)])
        right = member(eta_r_in, eta_r_out, th_r)
        return (right @ arms @ left)[0, 0]

    def residuals(x):
        a = bar_amp(*x)
        return [a.real, a.imag]

    best = None
    for th0 in np.linspace(0.3, math.pi - 0.3, 7):
        for ph0 in np.linspace(-math.pi, math.pi, 9):
            x, info, ier, _ = fsolve(residuals, [th0, ph0], full_output=True, xtol=1e-14)
            r = abs(bar_amp(*x))
            if best is None or r < best[1]:
                best = ((th_l, x[0], x[1]), r)
    return best


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def exact_circuit_frame(spec) -> np.ndarray:
    """Convention voltages programming a circuit on a zero-offset chip with
    no calibration residual (bar 25 V, cross 0 V, 50:50 members 12.5 V)."""
    from mzmesh.compiler import Gate
    from mzmesh.emulator import THETA, channel

    topo = spec.topology
    frame = np.zeros(2 * len(topo.nodes()))
    for node, gate in spec.gates.items():
        if gate in (Gate.BAR, Gate.UNUSED, Gate.CORR_INTERMEDIATE):
            v = 25.0
        elif gate is Gate.CROSS_SINGLE:
            v = 0.0
        else:
            v = 12.5
        frame[channel(topo, node, THETA)] = v
    return frame


def drive(chip, values):
    """A frame setting each ``(node, kind)`` channel in ``values`` to its
    voltage and every other channel to 0 V."""
    from mzmesh.emulator import VoltageFrame, channel

    frame = np.zeros(2 * len(chip.node_index))
    for (node, kind), v in values.items():
        frame[channel(chip.topology, node, kind)] = v
    return VoltageFrame(frame)


def read_exact(chip, inputs):
    """Noiseless output and monitor powers of the chip's current drive, from
    a full column build."""
    outputs, monitors = chip._true_powers(inputs)
    return outputs[0], monitors[0]


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


def reference_synthesize(u: np.ndarray):
    """Zig-zag upper-right-triangle nulling, one whole-row or whole-column
    update and one 2x2 array per op: the loop the package's nulling is
    checked against.

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


def nulling_ports(n: int) -> tuple[list[int], list[int]]:
    """Top port of each right op and each left op of the zig-zag nulling,
    in the order it emits them (the loops of :func:`reference_synthesize`)."""
    right, left = [], []
    for k in reversed(range(n - 1)):
        if k % 2 == 1:
            right += [k + j for j in range(n - 1 - k)]
        else:
            left += list(reversed(range(n - 1 - k)))
    return right, left


def package_ops(u):
    """The package's nulling of ``u`` in :func:`reference_synthesize`'s form:
    each op's stored (x, y, rho) turned into its 2x2 unitary one op at a
    time, rho 0 into the identity."""
    u = np.asarray(u, dtype=complex)
    left, right, diag, trace = _synthesize(u)
    right_ports, left_ports = nulling_ports(u.shape[0])

    def matrix(op, is_right):
        x, y, rho = op
        if rho == 0.0:
            return np.eye(2, dtype=complex)
        if is_right:
            return np.array([[np.conj(x), y], [np.conj(y), -x]], dtype=complex) / rho
        return np.array([[y, -x], [np.conj(x), np.conj(y)]], dtype=complex) / rho

    return ([((m, m + 1), matrix(op, False)) for m, op in zip(left_ports, left, strict=True)],
            [((m, m + 1), matrix(op, True)) for m, op in zip(right_ports, right, strict=True)],
            diag, trace)


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


def _pack_blocks(ops, topo: MeshTopology):
    """Assign an input-ordered block sequence to physical (col, row) nodes.

    Greedy earliest-column placement: each block lands in the highest free
    column compatible with everything already placed on its two ports.
    """
    n = topo.n_modes
    frontier = [topo.n_columns - 1] * n
    placed = []
    used = set()
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


def scalar_clements(u, reversed_variant: bool = True):
    """Reference decomposition: the same nulling as ``clements_decompose``,
    then one 2x2 block at a time, each op a separate matrix product and each
    node factored by its own scalar ``_factor_block`` call in sequence order.
    The standard variant is the reversed one of the port-reversed target."""
    from mzmesh.compiler import DecompositionPlan, PlanEntry

    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    topo = MeshTopology(n)
    if not reversed_variant:
        flipped = scalar_clements(np.flipud(np.fliplr(u)), reversed_variant=True)
        entries = []
        for e in flipped.entries:
            col, row = e.node
            max_row = len(topo.column_rows(col)) - 1
            entries.append(PlanEntry((col, max_row - row), -e.theta_diff, -e.phi_diff))
        return DecompositionPlan(
            n_modes=n,
            entries=entries,
            phase_screen=flipped.phase_screen[::-1].copy(),
            nulled_trace=[(n - 1 - r, n - 1 - c, v) for (r, c, v) in flipped.nulled_trace],
        )

    left_ops, right_ops, diag, trace = package_ops(u)
    seq = [(ports, g.conj().T) for ports, g in right_ops]
    lam = diag.copy()
    for ports, g in reversed(left_ops):
        m = ports[0]
        d = lam[m : m + 2]
        seq.append((ports, np.diag(1.0 / d) @ g.conj().T @ np.diag(d)))

    kappa = np.ones(n, dtype=complex)
    entries = []
    for node, g in _pack_blocks(seq, topo):
        m = topo.node_ports(node)[0]
        # + 0.0 makes signed zeros positive, as ``clements_decompose`` does
        y = g @ np.diag(kappa[m : m + 2]) + 0.0
        delta, phi, d1, d2 = _factor_block(y)
        kappa[m], kappa[m + 1] = d1, d2
        entries.append(PlanEntry(node=node, theta_diff=delta, phi_diff=phi))
    return DecompositionPlan(
        n_modes=n,
        entries=entries,
        phase_screen=lam * kappa,
        nulled_trace=trace,
    )


def scalar_reconstruct(plan) -> np.ndarray:
    """A plan simulated on a freshly built ideal mesh, one ``MziParams`` per
    node, with the output phase screen applied as a diagonal matrix."""
    state = ideal_mesh(plan.n_modes)
    for e in plan.entries:
        state.params[e.node] = MziParams(
            theta1=e.theta_diff / 2.0,
            theta2=-e.theta_diff / 2.0,
            phi1=e.phi_diff / 2.0,
            phi2=-e.phi_diff / 2.0,
        )
    return np.diag(plan.phase_screen) @ state_transfer(state)
