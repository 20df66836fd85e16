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
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    CompiledMesh,
    MeshState,
    Node,
    load_mesh,
    node_label,
    parse_node_label,
)

EMU_SCHEMA = "emu-v1"

#: Hardware drive range: each channel provides +/- 25 V.
V_MAX = 25.0

THETA = "theta"
PHI = "phi"

ChannelId = str  # "U_<col>_<row>:theta" | "U_<col>_<row>:phi"


def channel_id(node: Node, kind: str) -> ChannelId:
    if kind not in (THETA, PHI):
        raise ValueError(f"channel kind must be 'theta' or 'phi', got {kind!r}")
    return f"{node_label(node)}:{kind}"


@functools.lru_cache(maxsize=4096)
def parse_channel_id(cid: ChannelId) -> tuple[Node, str]:
    label, kind = cid.split(":")
    if kind not in (THETA, PHI):
        raise ValueError(f"bad channel id {cid!r}")
    return parse_node_label(label), kind


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

    def apply(self, true: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One noisy reading of ``true``."""
        return self.acquire(rng, 1, true)[0][0]

    def acquire(self, rng: np.random.Generator, reads: int, *true: np.ndarray) -> list[np.ndarray]:
        """``reads`` noisy readings of each true-power array, stacked on a
        leading read axis, from one draw of the noise stream.

        Draws are ordered read by read and, within a read, array by array,
        with the multiplicative terms before the additive ones; the stream
        is therefore the same as ``reads`` rounds of :meth:`apply` calls.
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


@dataclass
class VoltageFrame:
    """Differential channel voltages; unlisted channels are zero."""

    values: dict[ChannelId, float] = field(default_factory=dict)

    def __post_init__(self):
        for cid, v in self.values.items():
            parse_channel_id(cid)
            if abs(v) > V_MAX + 1e-12:
                raise ValueError(f"|{cid}| = {v} V exceeds the +/- {V_MAX} V range")

    def __neg__(self) -> "VoltageFrame":
        return VoltageFrame({cid: -v for cid, v in self.values.items()})

    @staticmethod
    def from_csv(path) -> list["VoltageFrame"]:
        """Load frames from CSV columns (channel_id, volts), optionally
        prefixed by a frame index column for sequences."""
        frames: dict[int, dict[ChannelId, float]] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if "channel_id" not in fields or "volts" not in fields:
                raise ValueError("frame CSV needs columns channel_id, volts")
            for row in reader:
                idx = int(row["frame"]) if "frame" in fields else 0
                frames.setdefault(idx, {})[row["channel_id"]] = float(row["volts"])
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

    channels: tuple[tuple[ChannelId, int], ...]
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
    changes it; every reading of that drive reuses them, and a sweep copies
    them with only the swept nodes' blocks rebuilt.  Readings equal those of
    a full build bit for bit.
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
        "read_monitors",
        "read_exact",
        "sweep_channel",
        "sawtooth_sweep",
        "chip_id",
    )

    def __init__(self, mesh_state: MeshState, config: EmuConfig | None = None):
        self.config = config or EmuConfig()
        self._mesh = mesh_state.copy()
        self._compiled = CompiledMesh(self._mesh)
        self.topology = self._mesh.topology
        self.n_modes = self.topology.n_modes
        self._nodes = self._compiled.nodes
        self.node_index = self._compiled.node_index  # node -> row of monitor readings
        self.channels: list[ChannelId] = []
        for node in self._nodes:
            self.channels.append(channel_id(node, THETA))
            self.channels.append(channel_id(node, PHI))
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
        return VoltageFrame(
            {cid: float(self._volts[k]) for cid, k in self.channel_index.items() if self._volts[k]}
        )

    def _frame_delta(self, frame: VoltageFrame) -> np.ndarray:
        delta = np.zeros_like(self._volts)
        for cid, v in frame.values.items():
            if cid not in self.channel_index:
                raise KeyError(f"unknown channel {cid!r}")
            delta[self.channel_index[cid]] = v
        return delta

    def apply_frame(self, frame: VoltageFrame) -> None:
        """Add a differential frame to the accumulated channel drive.

        Applying a frame and then its negation returns every phase to the
        chip's static offsets.  Frames pushing any accumulated channel
        outside +/- V_MAX are rejected and the state left unchanged.
        """
        new = self._volts + self._frame_delta(frame)
        if np.any(np.abs(new) > V_MAX + 1e-9):
            bad = [self.channels[int(k)] for k in np.nonzero(np.abs(new) > V_MAX + 1e-9)[0]]
            raise ValueError(f"frame drives channels out of range: {bad}")
        self._volts = new
        self._cols = None

    def set_frame(self, frame: VoltageFrame) -> None:
        """Set accumulated voltages to exactly the frame's values."""
        target = self._frame_delta(frame)
        if np.any(np.abs(target) > V_MAX + 1e-9):
            raise ValueError("frame exceeds the +/- 25 V range")
        self._volts = target
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

    def _columns(self) -> np.ndarray:
        """Column matrices of the current drive, shared by every read of it."""
        if self._cols is None:
            self._cols = self._compiled.columns(*self._phase_arrays(self._volts))
        return self._cols

    def _swept_columns(self, swept: dict[int, np.ndarray], n_rows: int) -> np.ndarray:
        """Column matrices of ``n_rows`` drive rows in which each channel in
        ``swept`` (index -> voltages) steps and every other channel holds its
        current drive: the current columns with only the swept nodes rebuilt.

        Every row gets its own copy of every column: numpy multiplies a
        shared matrix through BLAS and per-row ones through its own loop, and
        the two differ in the last bit at some N.
        """
        nodes = sorted({k // 2 for k in swept})
        index = slice(nodes[0], nodes[0] + 1) if len(nodes) == 1 else nodes  # a view for one node
        volts = np.repeat(self._volts.reshape(-1, 2)[None, index], n_rows, axis=0)
        for k, v in swept.items():
            volts[:, nodes.index(k // 2), k % 2] = v
        phases = self._phase_arrays(volts.reshape(n_rows, -1), index)
        return self._compiled.columns(*phases, nodes=index, base=self._columns())

    def _powers(self, inputs: np.ndarray, *phases, want_taps: bool = True, columns=None):
        """Output powers (with collection gains) and monitor powers (None
        without taps), one row per input row, from one propagate call on
        either node phases or prebuilt columns."""
        fields, taps, _ = self._compiled.propagate(
            inputs, *phases, want_taps=want_taps, columns=columns)
        outputs = np.abs(fields) ** 2 * self._compiled.output_gains
        return outputs, None if taps is None else taps * self._compiled.mon_gain

    def _true_powers(self, inputs: np.ndarray, volts: np.ndarray | None = None):
        """Test oracle: :meth:`_powers` for the drive rows ``volts`` (the
        current drive by default) through the full kernel, without the cached
        columns."""
        volts = self._volts if volts is None else volts
        inputs = np.asarray(inputs, dtype=complex)
        if volts.ndim == 2:
            inputs = np.broadcast_to(inputs, (volts.shape[0], self.n_modes))
        return self._powers(inputs, *self._phase_arrays(volts))

    def _true_transfer(self) -> np.ndarray:
        """Test oracle: the current complex transfer matrix (no gains)."""
        th1, th2, ph1, ph2 = self._phase_arrays(self._volts)
        return self._compiled.transfer(th1, th2, ph1, ph2)

    # -- optical readings ------------------------------------------------------

    def read_exact(self, inputs: np.ndarray):
        """Noiseless detector and monitor powers for the current frame."""
        outputs, monitors = self._powers(np.asarray(inputs, dtype=complex), columns=self._columns())
        return outputs[0], monitors[0]

    def read_detectors(self, inputs: np.ndarray, seed: int | None = None, reads: int = 1):
        """Noisy output powers and monitor readings; deterministic per seed
        (or per the chip's own reproducible noise stream when seed is None).
        ``reads > 1`` averages that many acquisitions of the same state."""
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        outputs, monitors = self._powers(np.asarray(inputs, dtype=complex), columns=self._columns())
        outs, mons = self.config.detector.acquire(rng, reads, outputs[0], monitors[0])
        if reads == 1:
            return outs[0], mons[0]
        return _mean_of_reads(outs), _mean_of_reads(mons)

    def read_monitors(self, inputs: np.ndarray, seed: int | None = None) -> np.ndarray:
        return self.read_detectors(inputs, seed)[1]

    def sweep_channel(self, cid: ChannelId, volts: np.ndarray, inputs, seed: int | None = None):
        """Noisy detector + monitor readings while one channel steps through
        ``volts`` with every other channel held at its current drive."""
        if cid not in self.channel_index:
            raise KeyError(f"unknown channel {cid!r}")
        volts = np.asarray(volts, dtype=float)
        if np.any(np.abs(volts) > V_MAX + 1e-9):
            raise ValueError("sweep exceeds the +/- 25 V range")
        cols = self._swept_columns({self.channel_index[cid]: volts}, volts.size)
        inputs = np.broadcast_to(np.asarray(inputs, dtype=complex), (volts.size, self.n_modes))
        outputs, monitors = self._powers(inputs, columns=cols)
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

        ``channels`` maps channel id to polarity (+1/-1); paired input
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
        for cid, pol in chan:
            if cid not in self.channel_index:
                raise KeyError(f"unknown channel {cid!r}")
            if pol not in (-1, 1):
                raise ValueError("polarity must be +1 or -1")

        # Both ramp endpoints are sampled; with the default 50 Vpp the
        # 125-point grid then contains every quarter-turn fringe phase, so
        # an ideally-phased chip has its fringe extrema exactly on-grid.
        ramp = np.linspace(-vpp / 2.0, vpp / 2.0, n_points)
        cols = self._swept_columns({self.channel_index[cid]: pol * ramp for cid, pol in chan},
                                   n_points)
        inputs = np.broadcast_to(np.asarray(inputs, dtype=complex), (n_points, self.n_modes))
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        true_outputs, _ = self._powers(inputs, want_taps=False, columns=cols)
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
    return {
        "schema": EMU_SCHEMA,
        "actuator": {
            "v_pi": config.actuator.v_pi,
            "nonlinearity": config.actuator.nonlinearity,
            "resonance_hz": config.actuator.resonance_hz,
            "damping_q": config.actuator.damping_q,
        },
        "detector": {
            "relative_noise_sigma": config.detector.relative_noise_sigma,
            "additive_floor": config.detector.additive_floor,
            "sample_rate_hz": config.detector.sample_rate_hz,
        },
        "offset_scale": config.offset_scale,
        "seed": config.seed,
    }


def emu_from_dict(data: dict) -> EmuConfig:
    if data.get("schema") != EMU_SCHEMA:
        raise ValueError(f"expected schema {EMU_SCHEMA!r}, got {data.get('schema')!r}")
    return EmuConfig(
        actuator=ActuatorModel(**data["actuator"]),
        detector=DetectorModel(**data["detector"]),
        offset_scale=float(data["offset_scale"]),
        seed=int(data["seed"]),
    )


def save_emu(config: EmuConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(emu_to_dict(config), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_emu(path) -> EmuConfig:
    with open(path) as fh:
        return emu_from_dict(json.load(fh))


def load_chip(mesh_path, emu_path) -> EmulatedChip:
    """Instantiate an emulated chip from its mesh JSON plus emu JSON."""
    return EmulatedChip(load_mesh(mesh_path), load_emu(emu_path))
