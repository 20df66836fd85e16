"""Physical model of MZIs and the rectangular Mach-Zehnder mesh.

Conventions used throughout the package
---------------------------------------

A single Mach-Zehnder interferometer (MZI) couples two adjacent waveguides
and is built from, in the order light traverses them:

    external phase shifters (phi1 top, phi2 bottom)
    input directional coupler  C(eta_in)
    internal phase shifters (theta1 top, theta2 bottom)
    per-arm amplitude factors  (arm_loss_top, arm_loss_bot)
    output directional coupler C(eta_out)
    pick-off tap (amplitude factor ``tap_loss`` on both ports; the removed
    power fraction ``1 - tap_loss**2`` feeds the per-node power monitors)

with the coupler matrix

    C(eta) = amp_loss * [[sqrt(eta),        1j*sqrt(1-eta)],
                         [1j*sqrt(1-eta),   sqrt(eta)]]

For ideal 50:50 couplers the magnitude response depends only on
``theta1 - theta2``: the MZI is in the *bar* state (|U| = I) at
``theta1 - theta2 = pi`` and in the *cross* state (|U| = X) at
``theta1 - theta2 = 0``.  A single MZI with coupler power fractions
``eta`` on both couplers has a cross-state bar-port leakage floor of
``(2*eta - 1)**2``.

Mesh layout (``U_col_row`` labelling): an ``N``-mode mesh has ``N``
columns indexed ``0 .. N-1``.  Light enters at column ``N-1`` and exits
at column ``0``.  Using 0-based ports, an MZI at ``(col, row)`` couples

    even col:  ports (2*row,     2*row + 1)      -> N/2 nodes
    odd  col:  ports (2*row + 1, 2*row + 2)      -> N/2 - 1 nodes

For ``N = 8`` this gives the 28-node brickwork of the 8x8 chip; column 0
hosts the four output-pair nodes used as Hadamard gates.  Ports that a
column does not couple pass through a dummy waveguide block with its own
amplitude factor, so that every route sees the same nominal per-depth
loss.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat

import numpy as np

from . import artifact

logger = logging.getLogger(__name__)

MESH_SCHEMA = "mesh-v1"

# Default pick-off sampling: -0.5 dB of power removed per depth.
DEFAULT_TAP_DB = 0.5


def db_to_amplitude(loss_db: float) -> float:
    """Amplitude transmission factor for a power loss given in (positive) dB."""
    return 10.0 ** (-loss_db / 20.0)


def amplitude_to_db(amp: float) -> float:
    """Power loss in dB for an amplitude transmission factor."""
    return -20.0 * math.log10(amp)


@dataclass
class MziParams:
    """One node's physical state, with exactly the fields of its mesh-v1
    entry: four phases, the bar-path power fraction ``eta`` and amplitude
    transmission ``amp_loss`` of each coupler, the arm losses, the tap and
    the two grating-monitor efficiencies."""

    theta1: float = 0.0
    theta2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    eta_in: float = 0.5
    amp_loss_in: float = 1.0
    eta_out: float = 0.5
    amp_loss_out: float = 1.0
    arm_loss_top: float = 1.0
    arm_loss_bot: float = 1.0
    tap_loss: float = 1.0
    monitor_gains: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        for name in ("eta_in", "eta_out"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("amp_loss_in", "amp_loss_out", "arm_loss_top", "arm_loss_bot", "tap_loss"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        for name in ("theta1", "theta2", "phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        g1, g2 = self.monitor_gains
        if not (0 < g1 < math.inf and 0 < g2 < math.inf):
            raise ValueError(f"monitor_gains must be finite and positive, got {g1!r}, {g2!r}")
        self.monitor_gains = (g1, g2)


Node = tuple[int, int]  # (col, row)


def node_label(node: Node) -> str:
    return f"U_{node[0]}_{node[1]}"


def parse_node_label(label: str) -> Node:
    """The node of ``label``, spelled exactly as :func:`node_label` writes it."""
    return _parse_pair(label, "U_", "node label")


def _parse_pair(text: str, prefix: str, what: str) -> tuple[int, int]:
    """The integers ``a`` and ``b`` of ``text``, a ``what`` that must equal
    ``f"{prefix}{a}_{b}"``, so that each pair has one spelling."""
    try:
        a, b = text.removeprefix(prefix).split("_")
        pair = (int(a), int(b))
    except (AttributeError, ValueError):
        pair = None
    if pair is None or f"{prefix}{pair[0]}_{pair[1]}" != text:
        raise ValueError(f"bad {what} {text!r}: expected {prefix}<int>_<int>")
    return pair


@dataclass(frozen=True)
class MeshTopology:
    """Node layout of a rectangular mesh with inputs at the highest column."""

    n_modes: int

    def __post_init__(self):
        n = self.n_modes
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2 or n % 2:
            raise ValueError(f"n_modes must be an even integer >= 2, got {n!r}")

    @property
    def n_columns(self) -> int:
        return self.n_modes

    def column_rows(self, col: int) -> range:
        if col % 2 == 0:
            return range(self.n_modes // 2)
        return range(self.n_modes // 2 - 1)

    def nodes(self) -> list[Node]:
        """All nodes, ordered by (col, row) ascending."""
        return [(c, r) for c in range(self.n_columns) for r in self.column_rows(c)]

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is one of this mesh's MZIs (constant time)."""
        col, row = node
        return 0 <= col < self.n_columns and row in self.column_rows(col)

    def node_ports(self, node: Node) -> tuple[int, int]:
        """0-based (top, bottom) ports coupled by ``node``."""
        col, row = node
        if not self.has_node(node):
            raise ValueError(f"no node {node_label(node)} in a {self.n_modes}-mode mesh")
        if col % 2 == 0:
            return (2 * row, 2 * row + 1)
        return (2 * row + 1, 2 * row + 2)

    def node_at(self, col: int, port: int) -> Node | None:
        """Node in ``col`` coupling 0-based ``port``, or None if it passes through."""
        if col % 2 == 0:
            row = port // 2
        else:
            if port == 0 or port == self.n_modes - 1:
                return None
            row = (port - 1) // 2
        if row in self.column_rows(col):
            return (col, row)
        return None

    def input_columns(self) -> tuple[int, int]:
        """The two input-side columns whose external shifters set input phases."""
        return (self.n_columns - 1, self.n_columns - 2)


@dataclass
class MeshState:
    """A fully parameterised chip: topology plus every node's physical state.

    ``passthrough_loss`` holds the dummy-block amplitude factor of each
    uncoupled (col, port) cell so that straight-through routes see the same
    per-depth loss as routes through MZIs; ``output_gains`` are the
    per-channel collection efficiencies at the chip outputs.
    """

    topology: MeshTopology
    params: dict[Node, MziParams]
    output_gains: np.ndarray | None = None
    passthrough_loss: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        topo = self.topology
        if set(self.params) != set(topo.nodes()):
            raise ValueError("params must cover every topology node exactly once")
        for (col, port), amp in self.passthrough_loss.items():
            if not (0 <= col < topo.n_columns and 0 <= port < topo.n_modes
                    and topo.node_at(col, port) is None):
                raise ValueError(f"passthrough_loss {col}_{port} is not an uncoupled cell")
            if not 0.0 < amp <= 1.0:
                raise ValueError(f"passthrough_loss {col}_{port} must lie in (0, 1], got {amp}")
        if self.output_gains is None:
            self.output_gains = np.ones(topo.n_modes)
        else:
            self.output_gains = np.asarray(self.output_gains, dtype=float)
            if self.output_gains.shape != (topo.n_modes,):
                raise ValueError("output_gains must have one entry per mode")
            if not np.all((0 < self.output_gains) & (self.output_gains < np.inf)):
                raise ValueError("output_gains must be finite and positive")

    def copy(self) -> "MeshState":
        return MeshState(
            topology=self.topology,
            params={n: replace(p) for n, p in self.params.items()},
            output_gains=self.output_gains.copy(),
            passthrough_loss=dict(self.passthrough_loss),
        )


def ideal_mesh(n_modes: int) -> MeshState:
    """Lossless mesh with perfect 50:50 couplers and all phases zero."""
    topo = MeshTopology(n_modes)
    return MeshState(topology=topo, params={n: MziParams() for n in topo.nodes()})


def nominal_mesh(n_modes: int) -> MeshState:
    """Zero-imperfection chip: perfect couplers, no excess loss, but the
    designed pick-off taps (so the power monitors see light)."""
    return uniform_loss_mesh(n_modes, DEFAULT_TAP_DB, DEFAULT_TAP_DB)


class CompiledMesh:
    """Vectorised propagation engine for a fixed topology and loss set.

    Phases are supplied per call, all four of them (theta1, theta2, phi1,
    phi2), so one compiled mesh serves arbitrarily many voltage frames and
    never reads the phases of the state it was built from; all per-sample
    work is numpy array arithmetic and supports a leading batch axis.

    In the rectangular layout each column is one block-diagonal N x N
    matrix: the 2x2 pre-tap blocks of its MZIs, plus the pass-through losses
    of its uncoupled ports on the diagonal.  :meth:`columns` builds every
    block in one vectorised pass and scatters the blocks straight into one
    C-contiguous (n_columns, phase batch, N, N) array, whose per-column
    matrices are the kernel's only input.  :meth:`propagate` multiplies the
    columns in order, input column first, applying the tap amplitudes after
    each; through every column it can keep the pre-tap column outputs in
    one stack and gather every node's monitor taps from it at the end.
    Given only the leading columns, it stops after the last of them and
    returns their output fields alone.  :meth:`transfer` builds no column
    matrix: it builds every block of :meth:`columns` in one pass and
    applies each column's blocks to the row pairs they mix, one stacked
    product per column, then the column's tap and dummy-block amplitudes
    as row scalings, O(N^3) in all, equal to the product of the column
    matrices bit for bit but for the sign of parts that are exactly zero.

    :meth:`set_node` is the one partial rebuild: it gives several nodes new
    phases, floats or arrays of one phase batch, in the arithmetic of
    :meth:`columns`, one node's block at a time, in copies of their columns
    (repeated to the batch when a column has a phase batch of 1).  A column
    with a phase batch of 1 is shared by every input row, so rebuilding a
    few nodes gives per-row matrices only to their columns.  Every column
    matrix is read-only once built, so a column object stands for one
    setting of its nodes.  Every column matrix is C-contiguous, so numpy
    multiplies a shared column and a row's own copy of it through the same
    routine: a batched row equals the same row alone bit for bit at every
    N.  One input row through phase batch 1 columns, without taps, runs as
    a loop of matrix-vector products on 1-D vectors; its outputs equal a
    batched row's bit for bit.

    :meth:`node_taps` reads one node's monitors through the node's two
    rows of its column alone, with :meth:`set_node`'s block per point, for
    a stack of input rows; its row products take the BLAS matrix-vector
    routine a whole column's do, so its taps equal :meth:`propagate`'s bit
    for bit.
    """

    def __init__(self, state: MeshState):
        topo = state.topology
        self.topology = topo
        self.n = n = topo.n_modes
        self.nodes = topo.nodes()
        self.node_index = {nd: i for i, nd in enumerate(self.nodes)}
        self.output_gains = state.output_gains.copy()
        params = [state.params[nd] for nd in self.nodes]
        self.mon_gain = np.array([p.monitor_gains for p in params], dtype=float)

        def per_node(*names) -> np.ndarray:
            """(len(names), n_nodes) array of the named per-node fields."""
            return np.array([[getattr(p, name) for p in params] for name in names], dtype=float)

        eta_in, self.a_in, eta_out, self.a_out, tap_amp = per_node(
            "eta_in", "amp_loss_in", "eta_out", "amp_loss_out", "tap_loss"
        )
        self.arm = per_node("arm_loss_top", "arm_loss_bot")
        self.tap_frac = 1.0 - tap_amp**2
        # coupler factors folded with their amplitude losses
        self.s_in = self.a_in * np.sqrt(eta_in)
        self.t_in = self.a_in * np.sqrt(1.0 - eta_in)
        s_out = self.a_out * np.sqrt(eta_out)
        t_out = self.a_out * np.sqrt(1.0 - eta_out)
        # Pre-tap block C_out diag(arm e^{i theta}) C_in diag(e^{i phi}) has
        # entries (i, j) = sum_k coef[k, i, j] e^{i (theta_k + phi_j)}.
        s, t = self.s_in, self.t_in
        via_top = np.array([[s_out * s, 1j * s_out * t], [1j * t_out * s, -t_out * t]])
        via_bot = np.array([[-t_out * t, 1j * t_out * s], [1j * s_out * t, s_out * s]])
        coef = np.stack((via_top * self.arm[0], via_bot * self.arm[1]))  # (k, i, j, node)
        self._coef = np.ascontiguousarray(coef.transpose(3, 0, 1, 2))  # (node, k, i, j)

        # column k = n_columns - 1 - col, so that k = 0 is the input column
        n_cols = topo.n_columns
        self._node_k = np.array([n_cols - 1 - c for c, _ in self.nodes], dtype=int)[:, None]
        self._node_ports = np.array([topo.node_ports(nd) for nd in self.nodes])
        # complex, as each product with a column output is: a float operand
        # would be cast to complex on every call, for the same bits
        self._tap_amp = np.ones((n_cols, n, 1), dtype=complex)
        self._tap_amp[self._node_k, self._node_ports, 0] = tap_amp[:, None]
        coupled = np.zeros((n_cols, n), dtype=bool)
        coupled[self._node_k, self._node_ports] = True
        self._pt_k, self._pt_port = np.nonzero(~coupled)  # cells of the dummy blocks
        self._pt_amp = np.array(
            [
                state.passthrough_loss.get((n_cols - 1 - k, p), 1.0)
                for k, p in zip(self._pt_k, self._pt_port)
            ],
            dtype=float,
        )
        # flat (row, col) cells of the dummy-block diagonal entries and of every
        # block entry in their column matrix, the latter shaped (i, j, node)
        self._pt_cell = self._pt_port * (n + 1)
        ports = self._node_ports.T
        self._block_cell = ports[:, None] * n + ports[None, :]
        # per node: its column and top port
        self._node_at = list(zip(self._node_k[:, 0].tolist(), self._node_ports[:, 0].tolist()))
        self._tap_rows = list(self._tap_amp[..., 0].copy())  # C-contiguous rows
        # per column, input column first, for transfer: the slice of the
        # node order holding its nodes (consecutive there, top row first),
        # the slice of the rows they mix with their taps' amplitudes, shaped
        # (node, 2, 1), and the slice of its uncoupled rows (0 and n - 1 of
        # an odd column) with their dummy blocks' amplitudes
        row_amp = self._tap_amp.copy()
        row_amp[self._pt_k, self._pt_port, 0] = self._pt_amp
        row_amp.flags.writeable = False
        steps, start = [], 0
        for col in range(n_cols):
            m, top = len(topo.column_rows(col)), col % 2
            rows = slice(top, top + 2 * m)
            through = slice(0, n, n - 1) if top else slice(0, 0)
            k = n_cols - 1 - col
            steps.append((slice(start, start + m), rows, row_amp[k, rows].reshape(m, 2, 1),
                          through, row_amp[k, through]))
            start += m
        self._column_steps = tuple(reversed(steps))

    def columns(self, theta1: np.ndarray, theta2: np.ndarray, phi1: np.ndarray,
                phi2: np.ndarray) -> list[np.ndarray]:
        """Column matrices for the given phases, input column first: views
        of one C-contiguous (n_columns, phase batch, n, n) array; phases
        without a batch axis give a phase batch of 1."""
        th1, th2, ph1, ph2 = self._phase_rows((theta1, theta2, phi1, phi2))
        # theta_k + phi_j = (theta2 + phi1) + [theta1 - theta2 if k = 1] + [phi2 - phi1 if j = 2]
        batch = max(th1.shape[1], th2.shape[1], ph1.shape[1], ph2.shape[1])
        rot = np.empty((3, th1.shape[0], batch), dtype=complex)
        np.add(th2, ph1, out=rot[0])
        np.subtract(th1, th2, out=rot[1])
        np.subtract(ph2, ph1, out=rot[2])
        n = self.n
        cols = np.zeros((self.topology.n_columns, batch, n * n), dtype=complex)
        cols[self._pt_k, :, self._pt_cell] = self._pt_amp[:, None]
        coef = self._coef.transpose(1, 2, 3, 0)[..., None]
        cols[self._node_k[:, 0], :, self._block_cell] = self._blocks(rot, coef)
        cols.flags.writeable = False
        return list(cols.reshape(-1, batch, n, n))

    def set_node(self, columns: list[np.ndarray], nodes: list[int], phases) -> None:
        """Give the nodes of index list ``nodes`` their ``phases``, one
        (theta1, theta2, phi1, phi2) per node, floats or arrays of one phase
        batch, in ``columns``: each column holding one of them becomes a
        read-only copy, repeated to the phases' batch, holding the blocks
        :meth:`columns` builds, bit for bit."""
        batched = isinstance(phases[0][0], np.ndarray)
        copies = {}
        for i, node_phases in zip(nodes, phases):
            block = self._node_block(i, node_phases, batched)  # (2, 2[, batch])
            k, a = self._node_at[i]
            col = copies.get(k)
            if col is None:
                col = columns[k]
                col = copies[k] = (col.repeat(block.shape[-1], axis=0)
                                   if batched and len(col) == 1 else col.copy())
            # a node's block is the 2x2 square on the diagonal at its top port
            col[:, a:a + 2, a:a + 2] = block.transpose(2, 0, 1) if batched else block
        for k, col in copies.items():
            col.flags.writeable = False
            columns[k] = col

    def _node_block(self, i: int, phases, batched: bool) -> np.ndarray:
        """Node ``i``'s pre-tap block for its (theta1, theta2, phi1, phi2)
        ``phases``, shaped (2, 2), or (2, 2, batch) for arrays of one phase
        batch when ``batched``."""
        t1, t2, p1, p2 = phases
        # the node's own contiguous operands, which numpy multiplies fastest
        coef = self._coef[i]
        rot = np.array((t2 + p1, t1 - t2, p2 - p1), dtype=complex)
        return self._blocks(rot, coef[..., None] if batched else coef)

    def node_taps(self, inputs: np.ndarray, columns: list[np.ndarray], i: int,
                  phases) -> np.ndarray:
        """Tapped powers (gain *not* applied) of node ``i``'s two monitors,
        shaped (rows, points, 2): the complex input rows ``inputs`` (rows,
        n) through ``columns`` of phase batch 1 up to the node's column
        (:meth:`propagate`), then through the node's two rows of it, holding
        the block :meth:`set_node` gives ``phases`` (arrays of one phase
        batch) per point, or, with None, the column's own at one point."""
        k, a = self._node_at[i]
        v = self.propagate(inputs, columns[:k])[0] if k else inputs
        rows = columns[k][:, a:a + 2]  # (1, 2, n)
        if phases is not None:
            block = self._node_block(i, phases, True)
            rows = rows.repeat(block.shape[-1], axis=0)
            rows[:, :, a:a + 2] = block.transpose(2, 0, 1)
        # per input row and point a matrix-vector product, as propagate's
        # whole column is
        return np.abs(np.matmul(rows, v[:, None, :, None])[..., 0]) ** 2 * self.tap_frac[i]

    def _phase_rows(self, phases):
        """The four node ``phases`` (theta1, theta2, phi1, phi2) shaped
        (node, phase batch)."""
        n_nodes = len(self.nodes)

        def rows(x):
            x = np.asarray(x, dtype=float)
            if x.ndim < 2:
                x = x.reshape(1, -1)
            if x.shape[1] != n_nodes:
                raise ValueError(f"phase array length {x.shape[1]} != n_nodes {n_nodes}")
            return x.T

        return tuple(rows(x) for x in phases)

    def propagate(self, inputs: np.ndarray, columns: list[np.ndarray], want_taps: bool = False):
        """Propagate field amplitudes through the mesh, input column first.

        ``inputs`` has shape (n,) or (batch, n); ``columns`` come from
        :meth:`columns`, all of them or, without ``want_taps``, the leading
        ones, whose last gives the output fields.  A column with a phase
        batch of 1 is shared by every input row, and one input row by every
        phase row.  Returns ``(fields, taps)`` where ``taps`` holds the
        monitor-side tapped powers (gain *not* applied) of every node, in
        node order, shaped (batch, nodes, 2), or None without ``want_taps``.
        """
        v_in = self._input_rows(inputs)
        if not want_taps and len(v_in) == 1 and max(map(len, columns)) == 1:
            return self._propagate_row(v_in[0, :, 0], columns)[None], None
        if want_taps and len(columns) != self.topology.n_columns:
            raise ValueError(f"taps need all {self.topology.n_columns} columns, got {len(columns)}")
        batch = max(len(v_in), *map(len, columns))
        pre = np.empty((len(columns), batch, self.n, 1), dtype=complex) if want_taps else None
        v = self._column_outputs(v_in, columns, pre)
        if not want_taps:
            return v[..., 0], None
        tapped = np.abs(pre[self._node_k, :, self._node_ports, 0]) ** 2
        return v[..., 0], (tapped * self.tap_frac[:, None, None]).transpose(2, 0, 1)

    def _propagate_row(self, v: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
        """Output fields (1-D) of one input row ``v`` (1-D) through
        ``columns``, leading columns of phase batch 1, as matrix-vector
        products."""
        for col, tap_amp in zip(columns, self._tap_rows):
            v = np.dot(col[0], v) * tap_amp
        return v

    def _input_rows(self, inputs: np.ndarray) -> np.ndarray:
        """``inputs`` as complex column vectors shaped (batch, n, 1)."""
        v_in = np.asarray(inputs, dtype=complex)
        v_in = (v_in.reshape(1, -1) if v_in.ndim < 2 else v_in)[..., None]
        if v_in.shape[1] != self.n:
            raise ValueError(f"input vector length {v_in.shape[1]} != n_modes {self.n}")
        return v_in

    def _column_outputs(self, v: np.ndarray, columns: list[np.ndarray],
                        pre: np.ndarray | None) -> np.ndarray:
        """``v`` multiplied by the columns in order, each product followed
        by its column's tap amplitudes.  Each column's output before its
        taps goes into the matching entry of ``pre``, a stack shaped (k,) +
        output shape, or is not kept when ``pre`` is None."""
        for col, out, tap_amp in zip(columns, repeat(None) if pre is None else pre, self._tap_amp):
            v = np.matmul(col, v, out=out) * tap_amp
        return v

    @staticmethod
    def _blocks(rot: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Pre-tap 2x2 blocks shaped (2, 2, ...) from the coefficients
        ``coef`` (k, i, j, ...) and ``rot``, which holds theta2 + phi1,
        theta1 - theta2 and phi2 - phi1 as complex (3, ...) and is
        overwritten with their phase factors."""
        rot *= 1j
        np.exp(rot, out=rot)
        blocks = coef[0] * rot[1]
        blocks += coef[1]
        blocks *= rot[0]
        blocks[:, 1] *= rot[2]
        return blocks

    def transfer(self, theta1: np.ndarray, theta2: np.ndarray, phi1: np.ndarray,
                 phi2: np.ndarray) -> np.ndarray:
        """N x N transfer matrix for one row of node phases, input column
        applied first: the blocks of :meth:`columns`, built in one pass,
        mix the rows of the running product column by column, one stacked
        (m, 2, 2) @ (m, 2, N) product per column, after which each row
        takes its column's tap or dummy-block amplitude, in O(N^3).  It
        equals the product of :meth:`columns`' matrices bit for bit, but for
        the sign of a real or imaginary part that is exactly zero."""
        th1, th2, ph1, ph2 = (x[:, 0] for x in self._phase_rows((theta1, theta2, phi1, phi2)))
        rot = np.array((th2 + ph1, th1 - th2, ph2 - ph1), dtype=complex)
        # (node, 2, 2) and C-contiguous, so that each block's product is BLAS's
        blocks = self._blocks(rot, self._coef.transpose(1, 2, 3, 0)).transpose(2, 0, 1).copy()
        n = self.n
        v = np.eye(n, dtype=complex)
        for nodes, rows, amp, through, through_amp in self._column_steps:
            pairs = v[rows].reshape(-1, 2, n)
            np.multiply(np.matmul(blocks[nodes], pairs), amp, out=pairs)
            cells = v[through]
            cells *= through_amp
        return v


def mzi_transfer(p: MziParams) -> np.ndarray:
    """2x2 transfer matrix of one MZI (external phases applied first): the
    propagation kernel's block, tap included, on a one-node 2-mode mesh."""
    compiled = CompiledMesh(MeshState(topology=MeshTopology(2), params={(0, 0): p}))
    return compiled.transfer([p.theta1], [p.theta2], [p.phi1], [p.phi2])


@dataclass
class NoiseSpec:
    """Fabrication/readout spread used by :func:`perturb`.

    ``loss_db_sigma`` is the standard deviation of the *total* loss along a
    full-depth route; individual (col, port) cells are sampled i.i.d. with
    sigma ``loss_db_sigma / sqrt(n_columns)`` so that straight-through path
    totals carry the quoted spread.  ``None`` means "keep the base value"
    and is allowed for ``eta_mean``, ``loss_db_mean`` and ``tap_db``; every
    other value is a finite real number, and ``eta_bounds`` a pair of them.
    """

    eta_mean: float | None = None
    eta_sigma: float = 0.0
    eta_bounds: tuple[float, float] = (0.4, 0.6)
    loss_db_mean: float | None = None
    loss_db_sigma: float = 0.0
    arm_imbalance_db_sigma: float = 0.0
    tap_db: float | None = None
    monitor_gain_db_sigma: float = 0.0
    output_gain_db_sigma: float = 0.0

    def __post_init__(self):
        values = dict(vars(self))
        bounds = values.pop("eta_bounds")
        if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
            raise ValueError(f"eta_bounds must be a pair, got {bounds!r}")
        values["eta_bounds[0]"], values["eta_bounds[1]"] = bounds
        for name, value in values.items():
            if value is None and name in ("eta_mean", "loss_db_mean", "tap_db"):
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in (
            "eta_sigma",
            "loss_db_sigma",
            "arm_imbalance_db_sigma",
            "monitor_gain_db_sigma",
            "output_gain_db_sigma",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.eta_bounds[0] >= self.eta_bounds[1]:
            raise ValueError("eta_bounds must be an increasing pair")


def paper_noise_spec() -> NoiseSpec:
    """Default spread tuned to reproduce the reported fidelity/loss bands."""
    return NoiseSpec(
        eta_mean=0.5,
        eta_sigma=0.042,
        eta_bounds=(0.4, 0.6),
        loss_db_mean=2.33,
        loss_db_sigma=0.9,
        arm_imbalance_db_sigma=0.3,
        tap_db=DEFAULT_TAP_DB,
        monitor_gain_db_sigma=1.75,
        output_gain_db_sigma=1.0,
    )


def perturb(state: MeshState, noise: NoiseSpec, seed: int) -> MeshState:
    """Monte Carlo sample of fabrication spread around ``state``.

    Deterministic in ``seed``; sampled values are clamped to physical
    ranges and clamps are logged.
    """
    rng = np.random.default_rng(seed)
    topo = state.topology
    new = state.copy()
    n_clamped = 0

    def clamp(x, lo, hi):
        nonlocal n_clamped
        y = min(max(x, lo), hi)
        if y != x:
            n_clamped += 1
        return y

    cell_sigma = noise.loss_db_sigma / math.sqrt(topo.n_columns)
    tap_db = noise.tap_db

    for node in topo.nodes():
        p = state.params[node]
        eta_base_in = p.eta_in if noise.eta_mean is None else noise.eta_mean
        eta_base_out = p.eta_out if noise.eta_mean is None else noise.eta_mean
        eta_in = clamp(eta_base_in + rng.normal(0.0, noise.eta_sigma), *noise.eta_bounds)
        eta_out = clamp(eta_base_out + rng.normal(0.0, noise.eta_sigma), *noise.eta_bounds)

        if noise.loss_db_mean is None:
            cell_db = amplitude_to_db(
                p.amp_loss_in * p.amp_loss_out * math.sqrt(p.arm_loss_top * p.arm_loss_bot)
                * p.tap_loss
            )
        else:
            cell_db = noise.loss_db_mean
        cell_db = clamp(cell_db + rng.normal(0.0, cell_sigma), 0.0, 60.0)
        node_tap_db = tap_db if tap_db is not None else amplitude_to_db(p.tap_loss)
        node_tap_db = clamp(node_tap_db, 0.0, cell_db)
        arm_db = max(cell_db - node_tap_db, 0.0)
        imb = rng.normal(0.0, noise.arm_imbalance_db_sigma)
        top_db = clamp(arm_db + imb / 2.0, 0.0, 60.0)
        bot_db = clamp(arm_db - imb / 2.0, 0.0, 60.0)

        g_top = db_to_amplitude(rng.normal(0.0, noise.monitor_gain_db_sigma)) ** 2
        g_bot = db_to_amplitude(rng.normal(0.0, noise.monitor_gain_db_sigma)) ** 2

        new.params[node] = replace(
            p,
            eta_in=eta_in,
            eta_out=eta_out,
            arm_loss_top=db_to_amplitude(top_db),
            arm_loss_bot=db_to_amplitude(bot_db),
            tap_loss=db_to_amplitude(node_tap_db),
            monitor_gains=(p.monitor_gains[0] * g_top, p.monitor_gains[1] * g_bot),
        )

    for col in range(topo.n_columns):
        for port in range(topo.n_modes):
            if topo.node_at(col, port) is not None:
                continue
            if noise.loss_db_mean is None:
                base_db = amplitude_to_db(state.passthrough_loss.get((col, port), 1.0))
            else:
                base_db = noise.loss_db_mean
            cell_db = clamp(base_db + rng.normal(0.0, cell_sigma), 0.0, 60.0)
            new.passthrough_loss[(col, port)] = db_to_amplitude(cell_db)

    gains = state.output_gains * db_to_amplitude(
        rng.normal(0.0, noise.output_gain_db_sigma, size=topo.n_modes)
    ) ** 2
    new.output_gains = gains

    if n_clamped:
        logger.info("perturb: clamped %d sampled values to physical range", n_clamped)
    return new


# ---------------------------------------------------------------------------
# JSON serialisation (schema "mesh-v1")
# ---------------------------------------------------------------------------


def mesh_to_dict(state: MeshState) -> dict:
    return {
        "schema": MESH_SCHEMA,
        "n_modes": state.topology.n_modes,
        "nodes": {node_label(n): asdict(p) for n, p in sorted(state.params.items())},
        "passthrough_loss": {
            f"{c}_{p}": amp for (c, p), amp in sorted(state.passthrough_loss.items())
        },
        "output_gains": state.output_gains.tolist(),
    }


def mesh_from_dict(data: dict) -> MeshState:
    artifact.checked(data, MESH_SCHEMA)
    passthrough = {
        _parse_pair(key, "", "passthrough_loss key"):
            float(artifact.number(amp, f"passthrough_loss {key}"))
        for key, amp in data["passthrough_loss"].items()
    }
    return MeshState(
        topology=MeshTopology(data["n_modes"]),
        params={parse_node_label(label): artifact.entry(MziParams, d)
                for label, d in data["nodes"].items()},
        output_gains=np.array(artifact.number(data["output_gains"], "output_gains"), dtype=float),
        passthrough_loss=passthrough,
    )


def noise_to_dict(noise: NoiseSpec) -> dict:
    return asdict(noise)


def noise_from_dict(data: dict) -> NoiseSpec:
    try:
        d = dict(data)
        if "eta_bounds" in d:
            d["eta_bounds"] = tuple(d["eta_bounds"])
        return NoiseSpec(**d)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad noise spec: {exc}") from None


def save_mesh(state: MeshState, path) -> None:
    artifact.write(path, mesh_to_dict(state))


def load_mesh(path) -> MeshState:
    return artifact.read(path, mesh_from_dict, "mesh")


def uniform_loss_mesh(n_modes: int, loss_db_per_depth: float, tap_db: float) -> MeshState:
    """Ideal-coupler mesh whose every (col, port) cell loses the same power."""
    state = ideal_mesh(n_modes)
    arm_db = loss_db_per_depth - tap_db
    if arm_db < 0:
        raise ValueError("per-depth loss smaller than the tap sampling")
    arm_amp = db_to_amplitude(arm_db)
    tap_amp = db_to_amplitude(tap_db)
    for node in state.topology.nodes():
        state.params[node] = replace(
            state.params[node],
            arm_loss_top=arm_amp,
            arm_loss_bot=arm_amp,
            tap_loss=tap_amp,
        )
    cell_amp = db_to_amplitude(loss_db_per_depth)
    for col in range(state.topology.n_columns):
        for port in range(n_modes):
            if state.topology.node_at(col, port) is None:
                state.passthrough_loss[(col, port)] = cell_amp
    return state
