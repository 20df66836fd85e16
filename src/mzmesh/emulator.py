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

import functools
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

#: The bench's one sawtooth: peak-to-peak drive, samples per period and
#: periods per sweep.
SAWTOOTH_VPP = 50.0
SAWTOOTH_POINTS = 125
SAWTOOTH_PERIODS = 5


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

    ``f(v) = pi * v / v_pi + nonlinearity * v * |v|`` (odd in v).  The map
    stays monotone on [-V_MAX, V_MAX] for
    ``|nonlinearity| < pi / (2 * v_pi * V_MAX)``.  ``resonance_hz`` and
    ``damping_q`` describe the mechanical resonance in emu-v1 files; the
    emulator itself settles every frame at once.
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
        """Phase of ``volts``: a float for a float, an array otherwise."""
        v = volts if isinstance(volts, float) else np.asarray(volts, dtype=float)
        return np.pi * v / self.v_pi + self.nonlinearity * v * abs(v)

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
        return _split(self._acquire_flat(rng, reads, true), true)

    def _acquire_flat(self, rng: np.random.Generator, reads: int, true: list[np.ndarray]):
        """:meth:`acquire` of the arrays ``true`` concatenated, in one pass:
        shaped (reads, total size)."""
        noisy = np.concatenate([t.ravel() for t in true]) if len(true) > 1 else true[0].ravel()
        n_terms = (self.relative_noise_sigma > 0) + (self.additive_floor > 0)
        if n_terms == 0:
            return np.repeat(np.maximum(noisy, 0.0)[None], reads, axis=0)
        mult, add = _noise_index(tuple(t.size for t in true), n_terms)
        z = rng.standard_normal((reads, n_terms * noisy.size))
        if self.relative_noise_sigma > 0:
            noisy = noisy * (1.0 + self.relative_noise_sigma * z.take(mult, axis=1))
        if self.additive_floor > 0:
            noisy = noisy + self.additive_floor * (1.0 + z.take(add, axis=1))
        return np.maximum(noisy, 0.0)


@functools.lru_cache(maxsize=64)
def _noise_index(sizes: tuple[int, ...], n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of one read's draws that hold the multiplicative and the
    additive term of each element of arrays of ``sizes``, concatenated:
    each array takes its ``n_terms`` blocks of draws in turn.  Read-only,
    as every caller shares them."""
    skip = n_terms - 1  # blocks of draws beside each array's multiplicative block
    mult = np.arange(sum(sizes)) + np.repeat(skip * np.cumsum((0,) + sizes[:-1]), sizes)
    add = mult + np.repeat(skip * np.array(sizes), sizes)
    mult.flags.writeable = add.flags.writeable = False
    return mult, add


def _split(flat: np.ndarray, true: list[np.ndarray]) -> list[np.ndarray]:
    """Views of ``flat``, shaped (..., total size), as each of the arrays
    ``true`` in turn."""
    out, end = [], 0
    for t in true:
        out.append(flat[..., end:end + t.size].reshape(flat.shape[:-1] + t.shape))
        end += t.size
    return out


def _mean_of_reads(stack: np.ndarray) -> np.ndarray:
    """Mean over the leading read axis, summed read by read in order."""
    acc = stack[0] + 0.0  # as 0.0 + stack[0]: a -0.0 reading sums to 0.0
    for read in stack[1:]:
        acc += read
    return acc / len(stack)


def paper_detector_model() -> DetectorModel:
    """Detector spread tuned with the default noise spec (see NoiseSpec docs)."""
    return DetectorModel(relative_noise_sigma=0.01, additive_floor=1e-4, sample_rate_hz=480.0)


def _check_range(values: np.ndarray, what: str) -> None:
    """Raise unless every drive in ``values`` is finite and within +/- V_MAX;
    ``what`` names an entry in the message."""
    bad = ~(np.abs(values) <= V_MAX + 1e-12)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{what} {k} = {values[k]} V is outside the +/- {V_MAX} V range")


@dataclass(frozen=True, eq=False)
class VoltageFrame:
    """Differential drive of every channel, indexed as :func:`channel` gives:
    a read-only copy of ``values``, checked finite and within +/- V_MAX."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        _check_range(values, "channel")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


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

    volts: np.ndarray  # (SAWTOOTH_POINTS,)
    outputs: np.ndarray  # (SAWTOOTH_PERIODS, SAWTOOTH_POINTS, n_modes)


class EmulatedChip:
    """A mesh behind its electrical interface.

    Public surface: the mesh layout and node order of the monitor readings,
    :meth:`set_frame` (the one way to drive the chip), noisy optical
    readings and sweeps.  Static offsets and the true mesh state are
    reachable only through underscore attributes used by test oracles.

    The chip builds the mesh's column matrices for the zero drive once, then
    changes them only through :meth:`CompiledMesh.set_node`: the first
    reading after a drive change rebuilds each node whose theta or phi
    channel changed, and a sweep of any length rebuilds each swept node with
    its per-point drive, so only their columns get per-point matrices.  A
    point read takes :meth:`CompiledMesh.propagate`'s batch-1 loop.
    Readings equal those of a full build bit for bit.
    """

    PUBLIC_API = (
        "PUBLIC_API",
        "n_modes",
        "topology",
        "node_index",
        "config",
        "set_frame",
        "reset",
        "read_detectors",
        "sweep_channel",
        "sawtooth_sweep",
        "chip_id",
    )

    def __init__(self, mesh_state: MeshState, config: EmuConfig):
        self.config = config
        self._compiled = CompiledMesh(mesh_state)
        self.topology = mesh_state.topology
        self.n_modes = self.topology.n_modes
        self.node_index = self._compiled.node_index  # node -> row of monitor readings

        rng = np.random.default_rng(self.config.seed)
        # hidden fabrication phases, one row per node: theta common, theta
        # diff, phi common, phi diff
        n_nodes = len(self.node_index)
        self._offsets = rng.uniform(-math.pi, math.pi, (4, n_nodes)).T * self.config.offset_scale
        self._noise_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        self._volts = np.zeros(2 * n_nodes)
        self._cols = self._compiled.columns(*self._phase_arrays(self._volts))
        self._built = self._volts  # the drive _cols hold
        self.chip_id = f"chip-{self.config.seed}"

    # -- voltage interface ---------------------------------------------------

    def set_frame(self, frame: VoltageFrame) -> None:
        """Drive every channel at exactly the frame's values."""
        if frame.values.shape != self._volts.shape:
            raise ValueError(
                f"frame has {frame.values.size} channels, the chip has {self._volts.size}")
        self._volts = frame.values

    def reset(self) -> None:
        self._volts = np.zeros_like(self._volts)

    # -- phase computation ---------------------------------------------------

    def _phase_arrays(self, volts: np.ndarray):
        """Node phase arrays for voltages ``volts`` shaped (..., 56)."""
        phase = self.config.actuator.phase(volts).reshape(volts.shape[:-1] + (-1, 2))
        common, diff = self._offsets[:, 0::2], self._offsets[:, 1::2]  # (node, kind)
        half = (diff + phase) / 2.0
        plus, minus = common + half, common - half
        return plus[..., 0], minus[..., 0], plus[..., 1], minus[..., 1]

    def _set_node(self, columns: list[np.ndarray], i: int, theta_v, phi_v) -> None:
        """Rebuild node ``i``'s block in ``columns`` for the drive ``theta_v``,
        ``phi_v`` (floats or arrays of one phase batch) as :meth:`_phase_arrays` does."""
        common_t, diff_t, common_p, diff_p = self._offsets[i].tolist()
        half_t = (diff_t + self.config.actuator.phase(theta_v)) / 2.0
        half_p = (diff_p + self.config.actuator.phase(phi_v)) / 2.0
        self._compiled.set_node(columns, i, common_t + half_t, common_t - half_t,
                                common_p + half_p, common_p - half_p)

    def _columns(self) -> list[np.ndarray]:
        """Column matrices of the current drive, shared by every read of it."""
        if self._built is not self._volts:
            # bit patterns, so that a sign change of zero counts as a change
            changed = self._volts.view(np.int64) != self._built.view(np.int64)
            for i in {k // 2 for k in changed.nonzero()[0].tolist()}:
                self._set_node(self._cols, i, *self._volts[2 * i:2 * i + 2].tolist())
            self._built = self._volts
        return self._cols

    def _swept_columns(self, swept: dict[int, np.ndarray], n_rows: int) -> list[np.ndarray]:
        """Column matrices of ``n_rows`` drive rows in which each channel in
        ``swept`` (index -> voltages) steps and every other channel holds its
        current drive: the current columns, shared by every row, except that
        each column holding a swept node gets a per-row copy with that
        node's block rebuilt.
        """
        drive = self._volts[None].repeat(n_rows, axis=0)  # (row, channel)
        for k, v in swept.items():
            drive[:, k] = v
        drive = drive[0].tolist() if n_rows == 1 else drive.T  # floats for one row
        cols = list(self._columns())
        for i in {k // 2 for k in swept}:
            self._set_node(cols, i, drive[2 * i], drive[2 * i + 1])
        return cols

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

    def read_detectors(self, inputs: np.ndarray, *, reads: int = 1):
        """Noisy output powers and monitor readings from the chip's own
        reproducible noise stream.  ``reads > 1`` averages that many
        acquisitions of the same state."""
        outputs, monitors = self._powers(np.asarray(inputs, dtype=complex), self._columns())
        true = [outputs[0], monitors[0]]
        noisy = self.config.detector._acquire_flat(self._noise_rng, reads, true)
        return tuple(_split(noisy[0] if reads == 1 else _mean_of_reads(noisy), true))

    def _check_channel(self, ch: int) -> None:
        if not 0 <= ch < self._volts.size:
            raise KeyError(f"unknown channel {ch!r}")

    def sweep_channel(self, ch: int, volts: np.ndarray, inputs):
        """Noisy detector + monitor readings while channel ``ch`` steps through
        ``volts`` with every other channel held at its current drive."""
        self._check_channel(ch)
        volts = np.asarray(volts, dtype=float)
        _check_range(volts, "sweep point")
        cols = self._swept_columns({ch: volts}, volts.size)
        inputs = np.asarray(inputs, dtype=complex)
        if volts.size > 1:
            inputs = np.broadcast_to(inputs, (volts.size, self.n_modes))
        outputs, monitors = self._powers(inputs, cols)
        outs, mons = self.config.detector.acquire(self._noise_rng, 1, outputs, monitors)
        return outs[0], mons[0]

    def sawtooth_sweep(self, channels: dict[int, int], inputs, seed: int | None = None) -> SweepRaw:
        """Sweep the given channels with the bench's sawtooth and record the outputs.

        ``channels`` maps channel index to polarity (+1/-1); paired input
        shifters are swept in opposite polarities so the differential
        phase between the two driven inputs spans a full turn.  The system
        is treated as quasi-static: ``SAWTOOTH_POINTS`` samples per period
        over ``SAWTOOTH_PERIODS`` periods, returned unaveraged, drawn from
        ``seed``'s stream or, when None, the chip's own.
        """
        for ch, pol in channels.items():
            self._check_channel(ch)
            if pol not in (-1, 1):
                raise ValueError("polarity must be +1 or -1")

        # Both ramp endpoints are sampled; with 50 Vpp the 125-point grid
        # then contains every quarter-turn fringe phase, so an
        # ideally-phased chip has its fringe extrema exactly on-grid.
        ramp = np.linspace(-SAWTOOTH_VPP / 2.0, SAWTOOTH_VPP / 2.0, SAWTOOTH_POINTS)
        cols = self._swept_columns({ch: pol * ramp for ch, pol in channels.items()},
                                   SAWTOOTH_POINTS)
        inputs = np.broadcast_to(np.asarray(inputs, dtype=complex),
                                 (SAWTOOTH_POINTS, self.n_modes))
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        true_outputs, _ = self._powers(inputs, cols, want_taps=False)
        outputs = self.config.detector.acquire(rng, SAWTOOTH_PERIODS, true_outputs)[0]
        return SweepRaw(volts=ramp, outputs=outputs)


# ---------------------------------------------------------------------------
# emu-v1 JSON and chip assembly
# ---------------------------------------------------------------------------


def emu_to_dict(config: EmuConfig) -> dict:
    return {"schema": EMU_SCHEMA, **asdict(config)}


def emu_from_dict(data: dict) -> EmuConfig:
    artifact.checked(data, EMU_SCHEMA)
    return EmuConfig(
        actuator=artifact.entry(ActuatorModel, data["actuator"]),
        detector=artifact.entry(DetectorModel, data["detector"]),
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
