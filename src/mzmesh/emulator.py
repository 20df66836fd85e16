"""Voltage-level emulation of the chip's electro-optic interface.

The emulated chip exposes what the lab bench exposes: 56 differential
voltage channels (one ``theta`` and one ``phi`` channel per MZI, each
driving its pair of shifters in push-pull), noisy photodiode readings of
the 8 output channels, and noisy readings of the 28 pairs of pick-off
monitors.  Every MZI additionally carries latent fabrication phase
offsets, sampled once per chip and hidden from calibration clients;
nothing in the public API reports them except optical readings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifact
from .mesh import (
    CompiledMesh,
    MeshState,
    MeshTopology,
    Node,
    load_mesh,
    node_label,
)

EMU_SCHEMA = "emu-v1"

#: Hardware drive range: each channel provides +/- 25 V.
V_MAX = 25.0

#: Channel kinds: each node's theta channel, then its phi channel.
THETA, PHI = 0, 1


def channel(topology: MeshTopology, node: Node, kind: int) -> int:
    """Index of a node's ``THETA`` or ``PHI`` channel in a drive vector:
    ``2 * k + kind``, with ``k`` the node's index in ``topology.nodes()``."""
    if kind not in (THETA, PHI):
        raise ValueError(f"channel kind must be THETA or PHI, got {kind!r}")
    if not topology.has_node(node):
        raise KeyError(f"no channel for {node_label(node)} in a {topology.n_modes}-mode mesh")
    col, row = node
    # columns alternate n/2 and n/2 - 1 nodes, starting with n/2
    return 2 * (col * (topology.n_modes // 2) - col // 2 + row) + kind


@dataclass(frozen=True)
class ActuatorModel:
    """Voltage-to-phase map of one differential channel.

    ``f(v) = pi * v / v_pi + nonlinearity * v * |v|`` (odd in v); the
    mechanical response is a second-order resonance with quality factor
    ``damping_q``.  The map stays monotone on [-V_MAX, V_MAX] for
    ``|nonlinearity| < pi / (2 * v_pi * V_MAX)``.
    """

    v_pi: float = 25.0
    nonlinearity: float = 0.0
    resonance_hz: float = 1.0e7
    damping_q: float = 5.0

    def __post_init__(self):
        if self.v_pi <= 0:
            raise ValueError("v_pi must be positive")
        if self.resonance_hz <= 0:
            raise ValueError("resonance_hz must be positive")

    def phase(self, volts):
        v = np.asarray(volts, dtype=float)
        return np.pi * v / self.v_pi + self.nonlinearity * v * np.abs(v)

    @property
    def monotone_nl_bound(self) -> float:
        return math.pi / (2.0 * self.v_pi * V_MAX)


@dataclass(frozen=True)
class DetectorModel:
    """Photodiode readout: multiplicative noise plus an additive dark floor.

    ``reading = max(true * (1 + relative_noise_sigma * z1)
                    + additive_floor * (1 + z2), 0)``
    so a -90 dB signal reads approximately ``additive_floor``.
    """

    relative_noise_sigma: float = 0.0
    additive_floor: float = 0.0
    sample_rate_hz: float = 480.0

    def __post_init__(self):
        if self.relative_noise_sigma < 0 or self.additive_floor < 0 or self.sample_rate_hz < 0:
            raise ValueError("detector parameters must be non-negative")

    def acquire(self, rng: np.random.Generator, reads: int, *true: np.ndarray) -> list[np.ndarray]:
        """``reads`` noisy readings of each true-power array, stacked on a
        leading read axis, from one draw of the noise stream.

        Draws are ordered read by read and, within a read, array by array,
        with the multiplicative terms before the additive ones; the stream
        is therefore the same as ``reads`` single-read calls in a row.
        """
        true = [np.asarray(t, dtype=float) for t in true]
        n_terms = (self.relative_noise_sigma > 0) + (self.additive_floor > 0)
        if n_terms == 0:
            return [np.repeat(np.maximum(t, 0.0)[None], reads, axis=0) for t in true]
        z = rng.standard_normal((reads, n_terms * sum(t.size for t in true)))
        out, start = [], 0
        for t in true:
            zt = z[:, start:start + n_terms * t.size].reshape((reads, n_terms) + t.shape)
            start += n_terms * t.size
            noisy = t
            if self.relative_noise_sigma > 0:
                noisy = noisy * (1.0 + self.relative_noise_sigma * zt[:, 0])
            if self.additive_floor > 0:
                noisy = noisy + self.additive_floor * (1.0 + zt[:, -1])
            out.append(np.maximum(noisy, 0.0))
        return out


def _mean_of_reads(stack: np.ndarray) -> np.ndarray:
    """Mean over the leading read axis, summed read by read in order."""
    acc = np.zeros_like(stack[0])
    for read in stack:
        acc += read
    return acc / len(stack)


def paper_detector_model() -> DetectorModel:
    """Detector spread tuned with the default noise spec (see NoiseSpec docs)."""
    return DetectorModel(relative_noise_sigma=0.01, additive_floor=1e-4, sample_rate_hz=480.0)


@dataclass
class StaticOffsets:
    """Latent per-node fabrication phases, hidden from calibration clients."""

    theta_common: dict[Node, float]
    theta_diff: dict[Node, float]
    phi_common: dict[Node, float]
    phi_diff: dict[Node, float]

    def __repr__(self):  # the values stay out of logs and error messages
        return f"<StaticOffsets for {len(self.theta_common)} nodes (hidden)>"

    @classmethod
    def sample(cls, nodes, scale: float, rng: np.random.Generator) -> "StaticOffsets":
        def draw():
            return {n: float(rng.uniform(-math.pi, math.pi) * scale) for n in nodes}

        return cls(theta_common=draw(), theta_diff=draw(), phi_common=draw(), phi_diff=draw())


@dataclass(frozen=True, eq=False)
class VoltageFrame:
    """Differential drive of every channel, in ``chip.channels`` order: a
    read-only copy of ``values``, checked finite and within +/- V_MAX."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        bad = ~(np.abs(values) <= V_MAX + 1e-12)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"channel {k} = {values[k]} V is outside the +/- {V_MAX} V range")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __neg__(self) -> "VoltageFrame":
        return VoltageFrame(-self.values)

    @staticmethod
    def from_csv(path, chip: "EmulatedChip") -> list["VoltageFrame"]:
        """Load frames from CSV columns (channel_id, volts), optionally
        prefixed by a frame index column for sequences; unlisted channels
        are zero.  Channel ids are names in ``chip.channels``."""
        frames: dict[int, np.ndarray] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if "channel_id" not in fields or "volts" not in fields:
                raise ValueError("frame CSV needs columns channel_id, volts")
            for row in reader:
                idx = int(row["frame"]) if "frame" in fields else 0
                cid = row["channel_id"]
                if cid not in chip.channel_index:
                    raise KeyError(f"unknown channel {cid!r}")
                values = frames.setdefault(idx, np.zeros(len(chip.channels)))
                values[chip.channel_index[cid]] = float(row["volts"])
        return [VoltageFrame(frames[k]) for k in sorted(frames)]


@dataclass(frozen=True)
class EmuConfig:
    """Electro-optic parameters of one emulated chip."""

    actuator: ActuatorModel = field(default_factory=ActuatorModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    offset_scale: float = 1.0
    seed: int = 0


@dataclass
class SweepRaw:
    """Raw samples of a sawtooth phase sweep: per-period stacks for averaging."""

    channels: tuple[tuple[int, int], ...]  # (channel, polarity)
    volts: np.ndarray  # (n_points,)
    outputs: np.ndarray  # (periods, n_points, n_modes)
    vpp: float
    freq_hz: float


class EmulatedChip:
    """A mesh behind its electrical interface.

    Public surface: the mesh layout and node order of the monitor readings,
    channel bookkeeping, frame application, noisy/exact optical readings
    and sweeps.  Static offsets and the true mesh state are reachable only
    through underscore attributes used by test oracles.

    The chip keeps the mesh's column matrices for its current drive, built
    on the first reading after ``set_frame``, ``apply_frame`` or ``reset``
    changes it; every reading of that drive reuses them.  A sweep shares
    them too, and gives per-point matrices only to the columns that hold a
    swept node.  Readings equal those of a full build bit for bit.
    """

    PUBLIC_API = (
        "PUBLIC_API",
        "n_modes",
        "topology",
        "node_index",
        "channels",
        "channel_index",
        "config",
        "current_voltages",
        "apply_frame",
        "set_frame",
        "reset",
        "read_detectors",
        "read_exact",
        "sweep_channel",
        "sawtooth_sweep",
        "chip_id",
    )

    def __init__(self, mesh_state: MeshState, config: EmuConfig | None = None):
        self.config = config or EmuConfig()
        self._compiled = CompiledMesh(mesh_state)
        self.topology = mesh_state.topology
        self.n_modes = self.topology.n_modes
        self._nodes = self._compiled.nodes
        self.node_index = self._compiled.node_index  # node -> row of monitor readings
        self.channels = [f"{node_label(node)}:{kind}"
                         for node in self._nodes for kind in ("theta", "phi")]
        self.channel_index = {cid: k for k, cid in enumerate(self.channels)}

        rng = np.random.default_rng(self.config.seed)
        self._offsets = StaticOffsets.sample(self._nodes, self.config.offset_scale, rng)
        off = self._offsets
        # (node, channel kind) tables, in the channel order theta, phi
        self._off_common = np.array([(off.theta_common[n], off.phi_common[n]) for n in self._nodes])
        self._off_diff = np.array([(off.theta_diff[n], off.phi_diff[n]) for n in self._nodes])
        self._noise_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        self._volts = np.zeros(len(self.channels))
        self._cols = None  # column matrices of the current drive, built on first use
        self.chip_id = f"chip-{self.config.seed}"

    # -- voltage interface ---------------------------------------------------

    def current_voltages(self) -> VoltageFrame:
        return VoltageFrame(self._volts)

    def _check_size(self, frame: VoltageFrame) -> None:
        if frame.values.shape != self._volts.shape:
            raise ValueError(
                f"frame has {frame.values.size} channels, the chip has {self._volts.size}")

    def apply_frame(self, frame: VoltageFrame) -> None:
        """Add a differential frame to the accumulated channel drive.

        Applying a frame and then its negation returns every phase to the
        chip's static offsets.  Frames pushing any accumulated channel
        outside +/- V_MAX are rejected and the state left unchanged.
        """
        self._check_size(frame)
        new = self._volts + frame.values
        if np.any(np.abs(new) > V_MAX + 1e-9):
            bad = [self.channels[int(k)] for k in np.nonzero(np.abs(new) > V_MAX + 1e-9)[0]]
            raise ValueError(f"frame drives channels out of range: {bad}")
        self._volts = new
        self._cols = None

    def set_frame(self, frame: VoltageFrame) -> None:
        """Set accumulated voltages to exactly the frame's values."""
        self._check_size(frame)
        self._volts = frame.values
        self._cols = None

    def reset(self) -> None:
        self._volts = np.zeros_like(self._volts)
        self._cols = None

    # -- phase computation ---------------------------------------------------

    def _phase_arrays(self, volts: np.ndarray, nodes=slice(None)):
        """Node phase arrays for voltages ``volts`` shaped (..., 56), or for
        the channels of ``nodes`` (an index of nodes) only."""
        phase = self.config.actuator.phase(volts).reshape(volts.shape[:-1] + (-1, 2))
        half = (self._off_diff[nodes] + phase) / 2.0
        common = self._off_common[nodes]
        plus, minus = common + half, common - half
        return plus[..., 0], minus[..., 0], plus[..., 1], minus[..., 1]

    def _columns(self) -> list[np.ndarray]:
        """Column matrices of the current drive, shared by every read of it."""
        if self._cols is None:
            self._cols = self._compiled.columns(*self._phase_arrays(self._volts))
        return self._cols

    def _swept_columns(self, swept: dict[int, np.ndarray], n_rows: int) -> list[np.ndarray]:
        """Column matrices of ``n_rows`` drive rows in which each channel in
        ``swept`` (index -> voltages) steps and every other channel holds its
        current drive: the current columns, shared by every row, except that
        each column holding a swept node gets a per-row copy with that
        node's block rebuilt.
        """
        nodes = sorted({k // 2 for k in swept})
        index = slice(nodes[0], nodes[0] + 1) if len(nodes) == 1 else nodes  # a view for one node
        volts = self._volts.reshape(-1, 2)[None, index].repeat(n_rows, axis=0)
        for k, v in swept.items():
            volts[:, nodes.index(k // 2), k % 2] = v
        phases = self._phase_arrays(volts.reshape(n_rows, -1), index)
        return self._compiled.columns(*phases, nodes=index, base=self._columns())

    def _powers(self, inputs: np.ndarray, columns: list[np.ndarray], want_taps: bool = True):
        """Output powers (with collection gains) and monitor powers (None
        without taps), one row per input row, from one propagate call."""
        fields, taps = self._compiled.propagate(inputs, columns, want_taps)
        outputs = np.abs(fields) ** 2 * self._compiled.output_gains
        return outputs, None if taps is None else taps * self._compiled.mon_gain

    def _true_powers(self, inputs: np.ndarray, volts: np.ndarray | None = None):
        """Test oracle: :meth:`_powers` for the drive rows ``volts`` (the
        current drive by default) on a full column build, not the cached
        columns."""
        volts = self._volts if volts is None else volts
        inputs = np.asarray(inputs, dtype=complex)
        if volts.ndim == 2:
            inputs = np.broadcast_to(inputs, (volts.shape[0], self.n_modes))
        return self._powers(inputs, self._compiled.columns(*self._phase_arrays(volts)))

    def _true_transfer(self) -> np.ndarray:
        """Test oracle: the current complex transfer matrix (no gains)."""
        return self._compiled.transfer(*self._phase_arrays(self._volts))

    # -- optical readings ------------------------------------------------------

    def read_exact(self, inputs: np.ndarray):
        """Noiseless detector and monitor powers for the current frame."""
        outputs, monitors = self._powers(np.asarray(inputs, dtype=complex), self._columns())
        return outputs[0], monitors[0]

    def read_detectors(self, inputs: np.ndarray, seed: int | None = None, reads: int = 1):
        """Noisy output powers and monitor readings; deterministic per seed
        (or per the chip's own reproducible noise stream when seed is None).
        ``reads > 1`` averages that many acquisitions of the same state."""
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        outputs, monitors = self._powers(np.asarray(inputs, dtype=complex), self._columns())
        outs, mons = self.config.detector.acquire(rng, reads, outputs[0], monitors[0])
        if reads == 1:
            return outs[0], mons[0]
        return _mean_of_reads(outs), _mean_of_reads(mons)

    def _check_channel(self, ch: int) -> None:
        if not 0 <= ch < self._volts.size:
            raise KeyError(f"unknown channel {ch!r}")

    def sweep_channel(self, ch: int, volts: np.ndarray, inputs, seed: int | None = None):
        """Noisy detector + monitor readings while channel ``ch`` steps through
        ``volts`` with every other channel held at its current drive."""
        self._check_channel(ch)
        volts = np.asarray(volts, dtype=float)
        if np.any(np.abs(volts) > V_MAX + 1e-9):
            raise ValueError("sweep exceeds the +/- 25 V range")
        cols = self._swept_columns({ch: volts}, volts.size)
        inputs = np.broadcast_to(np.asarray(inputs, dtype=complex), (volts.size, self.n_modes))
        outputs, monitors = self._powers(inputs, cols)
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        outs, mons = self.config.detector.acquire(rng, 1, outputs, monitors)
        return outs[0], mons[0]

    def sawtooth_sweep(
        self,
        channels,
        inputs,
        vpp: float = 50.0,
        freq_hz: float = 35.0,
        n_points: int = 125,
        periods: int = 5,
        seed: int | None = None,
    ) -> SweepRaw:
        """Sweep the given channels with a sawtooth and record the outputs.

        ``channels`` maps channel index to polarity (+1/-1); paired input
        shifters are swept in opposite polarities so the differential
        phase between the two driven inputs spans ``2*pi*(vpp/50)``.
        The system is treated as quasi-static: ``n_points`` samples per
        period over ``periods`` periods, returned unaveraged.
        """
        if isinstance(channels, dict):
            chan = tuple(sorted(channels.items()))
        else:
            chan = tuple(channels)
        if vpp < 0 or vpp / 2.0 > V_MAX + 1e-12:
            raise ValueError("vpp must lie in [0, 50] V")
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        for ch, pol in chan:
            self._check_channel(ch)
            if pol not in (-1, 1):
                raise ValueError("polarity must be +1 or -1")

        # Both ramp endpoints are sampled; with the default 50 Vpp the
        # 125-point grid then contains every quarter-turn fringe phase, so
        # an ideally-phased chip has its fringe extrema exactly on-grid.
        ramp = np.linspace(-vpp / 2.0, vpp / 2.0, n_points)
        cols = self._swept_columns({ch: pol * ramp for ch, pol in chan}, n_points)
        inputs = np.broadcast_to(np.asarray(inputs, dtype=complex), (n_points, self.n_modes))
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        true_outputs, _ = self._powers(inputs, cols, want_taps=False)
        outputs = self.config.detector.acquire(rng, periods, true_outputs)[0]
        return SweepRaw(channels=chan, volts=ramp.copy(), outputs=outputs, vpp=vpp, freq_hz=freq_hz)


def step_response(model: ActuatorModel, dt: float, duration: float, step_rad: float = 1.0):
    """Underdamped second-order step response of one actuator.

    Returns ``(times, phase_trace, settle_time)`` where ``settle_time`` is
    the earliest time after which the trace stays within 5% of the final
    value.  Requires ``dt <= 1 / (10 * resonance_hz)`` and ``damping_q > 0.5``
    (underdamped, stable).
    """
    if model.damping_q <= 0.5:
        raise ValueError("step response requires an underdamped actuator (Q > 0.5)")
    if dt <= 0 or duration <= 0:
        raise ValueError("dt and duration must be positive")
    if dt > 1.0 / (10.0 * model.resonance_hz):
        raise ValueError("dt must resolve the resonance (dt <= 1/(10 f0))")

    w0 = 2.0 * math.pi * model.resonance_hz
    zeta = 1.0 / (2.0 * model.damping_q)
    wd = w0 * math.sqrt(1.0 - zeta**2)
    t = np.arange(0.0, duration, dt)
    envelope = np.exp(-zeta * w0 * t)
    x = 1.0 - envelope * (np.cos(wd * t) + (zeta / math.sqrt(1.0 - zeta**2)) * np.sin(wd * t))
    trace = step_rad * x

    if step_rad == 0.0:
        return t, trace, 0.0
    err = np.abs(trace - step_rad) / abs(step_rad)
    outside = np.nonzero(err > 0.05)[0]
    settle = 0.0 if outside.size == 0 else float(t[outside[-1] + 1]) if outside[-1] + 1 < t.size else float("inf")
    return t, trace, settle


# ---------------------------------------------------------------------------
# emu-v1 JSON and chip assembly
# ---------------------------------------------------------------------------


def emu_to_dict(config: EmuConfig) -> dict:
    return {"schema": EMU_SCHEMA, **asdict(config)}


def emu_from_dict(data: dict) -> EmuConfig:
    artifact.checked(data, EMU_SCHEMA)
    return EmuConfig(
        actuator=ActuatorModel(**data["actuator"]),
        detector=DetectorModel(**data["detector"]),
        offset_scale=float(data["offset_scale"]),
        seed=int(data["seed"]),
    )


def save_emu(config: EmuConfig, path) -> None:
    artifact.write(path, emu_to_dict(config))


def load_emu(path) -> EmuConfig:
    return artifact.read(path, emu_from_dict, "emu")


def load_chip(mesh_path, emu_path) -> EmulatedChip:
    """Instantiate an emulated chip from its mesh JSON plus emu JSON."""
    return EmulatedChip(load_mesh(mesh_path), load_emu(emu_path))
