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


@dataclass(frozen=True)
class CouplerParams:
    """Directional coupler: bar-path power fraction and amplitude transmission."""

    eta: float = 0.5
    amp_loss: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 < self.amp_loss <= 1.0:
            raise ValueError(f"amp_loss must lie in (0, 1], got {self.amp_loss}")

    def matrix(self) -> np.ndarray:
        s = math.sqrt(self.eta)
        t = math.sqrt(1.0 - self.eta)
        return self.amp_loss * np.array([[s, 1j * t], [1j * t, s]], dtype=complex)


@dataclass
class MziParams:
    """Per-node physical parameters: four phases, two couplers, losses, tap."""

    theta1: float = 0.0
    theta2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    c_in: CouplerParams = field(default_factory=CouplerParams)
    c_out: CouplerParams = field(default_factory=CouplerParams)
    arm_loss_top: float = 1.0
    arm_loss_bot: float = 1.0
    tap_loss: float = 1.0

    def __post_init__(self):
        for name in ("arm_loss_top", "arm_loss_bot", "tap_loss"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        for name in ("theta1", "theta2", "phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def tap_fraction(self) -> float:
        """Power fraction removed by the pick-off tap (feeds the monitors)."""
        return 1.0 - self.tap_loss**2


Node = tuple[int, int]  # (col, row)


def node_label(node: Node) -> str:
    return f"U_{node[0]}_{node[1]}"


def parse_node_label(label: str) -> Node:
    parts = label.split("_")
    return (int(parts[1]), int(parts[2]))


@dataclass(frozen=True)
class MeshTopology:
    """Node layout of a rectangular mesh with inputs at the highest column."""

    n_modes: int = 8

    def __post_init__(self):
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError("n_modes must be an even integer >= 2")

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
    per-depth loss as routes through MZIs.  ``monitor_gains`` are the two
    grating-monitor efficiencies per node; ``output_gains`` the per-channel
    collection efficiencies at the chip outputs.
    """

    topology: MeshTopology
    params: dict[Node, MziParams]
    monitor_gains: dict[Node, tuple[float, float]] = field(default_factory=dict)
    output_gains: np.ndarray | None = None
    passthrough_loss: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        nodes = self.topology.nodes()
        if set(self.params) != set(nodes):
            raise ValueError("params must cover every topology node exactly once")
        for n in nodes:
            self.monitor_gains.setdefault(n, (1.0, 1.0))
        for n, (g1, g2) in self.monitor_gains.items():
            if g1 <= 0 or g2 <= 0:
                raise ValueError(f"monitor gains must be positive at {node_label(n)}")
        if self.output_gains is None:
            self.output_gains = np.ones(self.topology.n_modes)
        else:
            self.output_gains = np.asarray(self.output_gains, dtype=float)
            if self.output_gains.shape != (self.topology.n_modes,):
                raise ValueError("output_gains must have one entry per mode")
            if np.any(self.output_gains <= 0):
                raise ValueError("output_gains must be positive")

    def copy(self) -> "MeshState":
        return MeshState(
            topology=self.topology,
            params={n: replace(p) for n, p in self.params.items()},
            monitor_gains=dict(self.monitor_gains),
            output_gains=self.output_gains.copy(),
            passthrough_loss=dict(self.passthrough_loss),
        )


def ideal_mesh(n_modes: int = 8) -> MeshState:
    """Lossless mesh with perfect 50:50 couplers and all phases zero."""
    topo = MeshTopology(n_modes)
    return MeshState(topology=topo, params={n: MziParams() for n in topo.nodes()})


def nominal_mesh(n_modes: int = 8, tap_db: float = DEFAULT_TAP_DB) -> MeshState:
    """Zero-imperfection chip: perfect couplers, no excess loss, but the
    designed pick-off taps (so the power monitors see light)."""
    return uniform_loss_mesh(n_modes, loss_db_per_depth=tap_db, tap_db=tap_db)


class CompiledMesh:
    """Vectorised propagation engine for a fixed topology and loss set.

    Phases are supplied per call, so one compiled mesh serves arbitrarily
    many voltage frames; all per-sample work is numpy array arithmetic and
    supports a leading batch axis.

    In the rectangular layout each column is one block-diagonal N x N
    matrix: the 2x2 pre-tap blocks of its MZIs, plus the pass-through losses
    of its uncoupled ports on the diagonal.  :meth:`columns` builds every
    block in one vectorised pass and scatters the blocks straight into one
    C-contiguous (n_columns, phase batch, N, N) array, whose per-column
    matrices are the kernel's only input.  :meth:`propagate` multiplies the
    columns in order, input column first, applying the tap amplitudes after
    each, and gathers the monitor taps at the end from the stacked pre-tap
    column outputs; :meth:`transfer` multiplies the identity through the
    same loop as one N x N matrix per column and keeps no stack.

    A column with a phase batch of 1 is shared by every input row, and a
    rebuild of a few nodes gives per-row matrices only to their columns.
    Every column matrix is C-contiguous, so numpy multiplies a shared column
    and a row's own copy of it through the same routine: a batched row
    equals the same row alone bit for bit at every N.
    """

    def __init__(self, state: MeshState):
        topo = state.topology
        self.topology = topo
        self.n = n = topo.n_modes
        self.nodes = topo.nodes()
        self.node_index = {nd: i for i, nd in enumerate(self.nodes)}
        self.output_gains = state.output_gains.copy()
        self.mon_gain = np.array([state.monitor_gains[nd] for nd in self.nodes], dtype=float)

        def per_node(*attrs) -> np.ndarray:
            """(len(attrs), n_nodes) array of per-node parameter values."""
            rows = [[attr(state.params[nd]) for nd in self.nodes] for attr in attrs]
            return np.array(rows, dtype=float)

        eta_in, self.a_in, eta_out, self.a_out, tap_amp = per_node(
            lambda p: p.c_in.eta, lambda p: p.c_in.amp_loss,
            lambda p: p.c_out.eta, lambda p: p.c_out.amp_loss, lambda p: p.tap_loss,
        )
        self.arm = per_node(lambda p: p.arm_loss_top, lambda p: p.arm_loss_bot)
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
        self._coef = np.stack((via_top * self.arm[0], via_bot * self.arm[1]))[..., None]

        # column k = n_columns - 1 - col, so that k = 0 is the input column
        n_cols = topo.n_columns
        self._node_k = np.array([n_cols - 1 - c for c, _ in self.nodes], dtype=int)[:, None]
        self._node_ports = np.array([topo.node_ports(nd) for nd in self.nodes])
        self._tap_amp = np.ones((n_cols, n, 1))
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

        self._stored_phases = per_node(
            lambda p: p.theta1, lambda p: p.theta2, lambda p: p.phi1, lambda p: p.phi2
        )

    def columns(
        self,
        theta1: np.ndarray | None = None,
        theta2: np.ndarray | None = None,
        phi1: np.ndarray | None = None,
        phi2: np.ndarray | None = None,
        *,
        nodes=slice(None),
        base: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Column matrices for the given phases, input column first: views
        of one C-contiguous (n_columns, phase batch, n, n) array; phases
        without a batch axis give a phase batch of 1.

        To rebuild some nodes only, pass their index (an index array or a
        slice) as ``nodes``, their phases, and a full build ``base`` (phase
        batch 1) holding every other entry: each column holding one of
        ``nodes`` gets a per-row copy of ``base``'s with their blocks
        rebuilt, and every other column stays ``base``'s, shared.
        """
        th1, th2, ph1, ph2 = self._phase_rows((theta1, theta2, phi1, phi2), nodes)
        blocks = self._blocks(th1, th2, ph1, ph2, self._coef[:, :, :, nodes])
        n, batch = self.n, blocks.shape[-1]
        ks = self._node_k[nodes, 0]
        if base is None:
            cols = np.zeros((self.topology.n_columns, batch, n * n), dtype=complex)
            cols[self._pt_k, :, self._pt_cell] = self._pt_amp[:, None]
            cols[ks, :, self._block_cell[:, :, nodes]] = blocks
            return list(cols.reshape(-1, batch, n, n))
        ks, tops, cols = ks.tolist(), self._node_ports[nodes, 0].tolist(), list(base)
        for k in set(ks):
            cols[k] = base[k].repeat(batch, axis=0)
        # a node's block is the 2x2 square on the diagonal at its top port
        for block, k, a in zip(blocks.transpose(2, 3, 0, 1), ks, tops):
            cols[k][:, a:a + 2, a:a + 2] = block
        return cols

    def _phase_rows(self, phases, nodes):
        """The four ``phases`` (theta1, theta2, phi1, phi2) of ``nodes``
        shaped (node, phase batch); None stands for the stored phases."""
        n_nodes = self._stored_phases[0, nodes].size

        def rows(x, base):
            x = np.asarray(base[nodes] if x is None else x, dtype=float)
            if x.ndim < 2:
                x = x.reshape(1, -1)
            if x.shape[1] != n_nodes:
                raise ValueError(f"phase array length {x.shape[1]} != n_nodes {n_nodes}")
            return x.T

        return tuple(rows(x, base) for x, base in zip(phases, self._stored_phases))

    def propagate(self, inputs: np.ndarray, columns: list[np.ndarray], want_taps: bool = False):
        """Propagate field amplitudes through the mesh, input column first.

        ``inputs`` has shape (n,) or (batch, n); ``columns`` come from
        :meth:`columns`, and a column with a phase batch of 1 is shared by
        every input row.  Returns ``(fields, taps)`` where ``taps`` holds the
        monitor-side tapped powers (gain *not* applied) of shape
        (batch, n_nodes, 2), or None without ``want_taps``.
        """
        v_in = self._input_rows(inputs)
        pre = np.empty((len(columns),) + v_in.shape, dtype=complex) if want_taps else None
        v = self._column_outputs(v_in, columns, pre)
        taps = None
        if want_taps:
            tapped = np.abs(pre[self._node_k, :, self._node_ports, 0]) ** 2  # (node, 2, batch)
            taps = (tapped * self.tap_frac[:, None, None]).transpose(2, 0, 1)
        return v[..., 0], taps

    def _input_rows(self, inputs: np.ndarray) -> np.ndarray:
        """``inputs`` as complex column vectors shaped (batch, n, 1)."""
        v_in = np.atleast_2d(np.asarray(inputs, dtype=complex))[..., None]
        if v_in.shape[1] != self.n:
            raise ValueError(f"input vector length {v_in.shape[1]} != n_modes {self.n}")
        return v_in

    def _column_outputs(self, v: np.ndarray, columns: list[np.ndarray],
                        pre: np.ndarray | None) -> np.ndarray:
        """``v`` multiplied by the columns in order, each product followed
        by its taps.  Each column's output before its taps goes into the
        matching entry of ``pre``, a stack shaped (k,) + output shape, or is
        not kept when ``pre`` is None."""
        for col, out, tap_amp in zip(columns, repeat(None) if pre is None else pre, self._tap_amp):
            v = np.matmul(col, v, out=out) * tap_amp
        return v

    def _blocks(self, th1, th2, ph1, ph2, coef) -> np.ndarray:
        """Pre-tap 2x2 blocks of the nodes whose coefficients ``coef`` are
        given, shaped (2, 2, nodes, batch)."""
        batch = max(th1.shape[1], th2.shape[1], ph1.shape[1], ph2.shape[1])
        # theta_k + phi_j = (theta2 + phi1) + [theta1 - theta2 if k = 1] + [phi2 - phi1 if j = 2]
        rot = np.empty((3, th1.shape[0], batch), dtype=complex)
        np.add(th2, ph1, out=rot[0])
        np.subtract(th1, th2, out=rot[1])
        np.subtract(ph2, ph1, out=rot[2])
        rot *= 1j
        np.exp(rot, out=rot)
        blocks = coef[0] * rot[1]
        blocks += coef[1]
        blocks *= rot[0]
        blocks[:, 1] *= rot[2]
        return blocks

    def _dissipated(self, inputs: np.ndarray, phases) -> np.ndarray:
        """Per-row power absorbed by the couplers, arms and dummy blocks at
        the four node ``phases`` (as for :meth:`columns`; None stands for
        the stored phases), computed from their loss factors and the fields
        entering each column."""
        v_in = self._input_rows(inputs)
        pre = np.empty((self.topology.n_columns,) + v_in.shape, dtype=complex)
        self._column_outputs(v_in, self.columns(*phases), pre)
        entering = np.concatenate((v_in[None], pre[:-1] * self._tap_amp[:-1, None]))[..., 0]
        _, _, ph1, ph2 = self._phase_rows(phases, slice(None))
        # fields entering each node after its external phases: (node, 2, batch)
        w = entering[self._node_k, :, self._node_ports] * np.exp(1j * np.stack((ph1, ph2), axis=1))
        s, t = self.s_in[:, None], self.t_in[:, None]
        x = np.stack((s * w[:, 0] + 1j * t * w[:, 1], 1j * t * w[:, 0] + s * w[:, 1]), axis=1)
        p_x = np.abs(x) ** 2  # after the input coupler, before the arms
        arm2 = self.arm.T[..., None] ** 2
        lost = (
            (1.0 - self.a_in[:, None] ** 2) * np.sum(np.abs(w) ** 2, axis=1)
            + np.sum((1.0 - arm2) * p_x, axis=1)
            + (1.0 - self.a_out[:, None] ** 2) * np.sum(arm2 * p_x, axis=1)
        )
        pt_in = np.abs(entering[self._pt_k, :, self._pt_port]) ** 2
        return np.sum(lost, axis=0) + (1.0 - self._pt_amp**2) @ pt_in

    def transfer(self, *phases) -> np.ndarray:
        """N x N transfer matrix for the node ``phases`` (the stored ones
        when none are given), input column applied first."""
        eye = np.eye(self.n, dtype=complex)[None]
        return self._column_outputs(eye, self.columns(*phases), None)[0]


def mzi_transfer(p: MziParams) -> np.ndarray:
    """2x2 transfer matrix of one MZI (external phases applied first): the
    propagation kernel's block, tap included, on a one-node 2-mode mesh."""
    return CompiledMesh(MeshState(topology=MeshTopology(2), params={(0, 0): p})).transfer()


def output_powers(compiled: CompiledMesh, inputs: np.ndarray) -> np.ndarray:
    """Physical output powers |U a|^2 at the stored phases (collection gains
    not applied)."""
    inputs = np.asarray(inputs, dtype=complex)
    if inputs.shape != (compiled.n,):
        raise ValueError(f"expected input vector of length {compiled.n}, got {inputs.shape}")
    fields, _ = compiled.propagate(inputs, compiled.columns())
    return np.abs(fields[0]) ** 2


def monitor_readings(compiled: CompiledMesh, inputs: np.ndarray) -> dict[Node, tuple[float, float]]:
    """Per-node monitored tap powers at the stored phases, scaled by tap
    fraction and monitor gain."""
    _, taps = compiled.propagate(inputs, compiled.columns(), want_taps=True)
    readings = taps[0] * compiled.mon_gain
    return {n: (float(readings[i, 0]), float(readings[i, 1])) for i, n in enumerate(compiled.nodes)}


def energy_audit(compiled: CompiledMesh, inputs: np.ndarray) -> dict[str, float]:
    """Power bookkeeping at the stored phases: input = output + tapped + dissipated."""
    inputs = np.asarray(inputs, dtype=complex)
    fields, taps = compiled.propagate(inputs, compiled.columns(), want_taps=True)
    return {
        "input": float(np.sum(np.abs(inputs) ** 2)),
        "output": float(np.sum(np.abs(fields[0]) ** 2)),
        "tapped": float(np.sum(taps[0])),
        "dissipated": float(compiled._dissipated(inputs, (None,) * 4)[0]),
    }


@dataclass
class NoiseSpec:
    """Fabrication/readout spread used by :func:`perturb`.

    ``loss_db_sigma`` is the standard deviation of the *total* loss along a
    full-depth route; individual (col, port) cells are sampled i.i.d. with
    sigma ``loss_db_sigma / sqrt(n_columns)`` so that straight-through path
    totals carry the quoted spread.  ``None`` means "keep the base value".
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
        eta_base_in = p.c_in.eta if noise.eta_mean is None else noise.eta_mean
        eta_base_out = p.c_out.eta if noise.eta_mean is None else noise.eta_mean
        eta_in = clamp(eta_base_in + rng.normal(0.0, noise.eta_sigma), *noise.eta_bounds)
        eta_out = clamp(eta_base_out + rng.normal(0.0, noise.eta_sigma), *noise.eta_bounds)

        if noise.loss_db_mean is None:
            cell_db = amplitude_to_db(
                p.c_in.amp_loss
                * p.c_out.amp_loss
                * math.sqrt(p.arm_loss_top * p.arm_loss_bot)
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
        base_g = state.monitor_gains[node]

        new.params[node] = replace(
            p,
            c_in=CouplerParams(eta=eta_in, amp_loss=p.c_in.amp_loss),
            c_out=CouplerParams(eta=eta_out, amp_loss=p.c_out.amp_loss),
            arm_loss_top=db_to_amplitude(top_db),
            arm_loss_bot=db_to_amplitude(bot_db),
            tap_loss=db_to_amplitude(node_tap_db),
        )
        new.monitor_gains[node] = (base_g[0] * g_top, base_g[1] * g_bot)

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
        "nodes": {
            node_label(n): {
                "theta1": p.theta1,
                "theta2": p.theta2,
                "phi1": p.phi1,
                "phi2": p.phi2,
                "eta_in": p.c_in.eta,
                "amp_loss_in": p.c_in.amp_loss,
                "eta_out": p.c_out.eta,
                "amp_loss_out": p.c_out.amp_loss,
                "arm_loss_top": p.arm_loss_top,
                "arm_loss_bot": p.arm_loss_bot,
                "tap_loss": p.tap_loss,
                "monitor_gains": list(state.monitor_gains[n]),
            }
            for n, p in sorted(state.params.items())
        },
        "passthrough_loss": {
            f"{c}_{p}": amp for (c, p), amp in sorted(state.passthrough_loss.items())
        },
        "output_gains": state.output_gains.tolist(),
    }


def mesh_from_dict(data: dict) -> MeshState:
    artifact.checked(data, MESH_SCHEMA)
    topo = MeshTopology(int(data["n_modes"]))
    params = {}
    gains = {}
    for label, d in data["nodes"].items():
        node = parse_node_label(label)
        params[node] = MziParams(
            theta1=d["theta1"],
            theta2=d["theta2"],
            phi1=d["phi1"],
            phi2=d["phi2"],
            c_in=CouplerParams(d["eta_in"], d["amp_loss_in"]),
            c_out=CouplerParams(d["eta_out"], d["amp_loss_out"]),
            arm_loss_top=d["arm_loss_top"],
            arm_loss_bot=d["arm_loss_bot"],
            tap_loss=d["tap_loss"],
        )
        gains[node] = tuple(d["monitor_gains"])
    passthrough = {}
    for key, amp in data["passthrough_loss"].items():
        c, p = key.split("_")
        passthrough[(int(c), int(p))] = float(amp)
    return MeshState(
        topology=topo,
        params=params,
        monitor_gains=gains,
        output_gains=np.array(data["output_gains"], dtype=float),
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


def uniform_loss_mesh(n_modes: int = 8, loss_db_per_depth: float = 2.33,
                      tap_db: float = DEFAULT_TAP_DB) -> MeshState:
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
