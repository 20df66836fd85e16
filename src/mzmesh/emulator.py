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

import math
import numbers
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


def _require_finite(model) -> None:
    """Raise unless every field of ``model``, a dataclass of numbers, is finite."""
    for name, value in vars(model).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
        _require_finite(self)
        if self.v_pi <= 0:
            raise ValueError("v_pi must be positive")
        if not all(math.isfinite(self.phase(v)) for v in (-V_MAX, V_MAX)):
            raise ValueError(f"the phase at +/- {V_MAX} V must be finite, got {self.phase(V_MAX)}")
        if self.resonance_hz <= 0:
            raise ValueError("resonance_hz must be positive")

    def phase(self, volts):
        """Phase of ``volts``: a float for a float, an array otherwise."""
        v = volts if isinstance(volts, float) else np.asarray(volts, dtype=float)
        return np.pi * v / self.v_pi + self.nonlinearity * v * abs(v)

    def volts(self, phase: float) -> float:
        """The drive of ``phase``: the inverse of :meth:`phase` where it is monotone."""
        slope = math.pi / self.v_pi
        square = slope * slope
        if math.isinf(square):  # v_pi below ~1.8e-154: factor the slope out first
            root = slope * math.sqrt(1.0 + 4.0 * self.nonlinearity / slope * (abs(phase) / slope))
        else:
            root = math.sqrt(square + 4.0 * self.nonlinearity * abs(phase))
        return math.copysign(2.0 * abs(phase) / (slope + root), phase)


@dataclass(frozen=True)
class DetectorModel:
    """Photodiode readout: multiplicative noise plus an additive dark floor.

    ``reading = max(true * (1 + relative_noise_sigma * z1)
                    + additive_floor * (1 + z2), 0)``
    so a -90 dB signal reads approximately ``additive_floor``.  The two
    terms are independent Gaussians, so before the clip a reading is one
    Gaussian, N(true + floor, (sigma * true)**2 + floor**2), and
    :meth:`acquire` draws it from one standard normal deviate.
    """

    relative_noise_sigma: float = 0.0
    additive_floor: float = 0.0
    sample_rate_hz: float = 480.0

    def __post_init__(self):
        _require_finite(self)
        if self.relative_noise_sigma < 0 or self.additive_floor < 0 or self.sample_rate_hz < 0:
            raise ValueError("detector parameters must be non-negative")

    def acquire(self, rng: np.random.Generator, reads: int, true: np.ndarray) -> np.ndarray:
        """``reads`` noisy readings of the true powers ``true``, shaped
        (..., cells) (a flat row, or a stack of rows), returned shaped
        (..., reads, cells); ``true`` is not written.

        Each reading is ``max(true + floor + hypot(sigma * true, floor) * z,
        0)``, which has exactly the distribution of the two-term form in the
        class docstring, from one deviate ``z`` drawn in the readings' flat
        order: row by row, read by read, cell by cell, so the stream is the
        same as one single-read call per row and read in a row.  A
        noiseless detector draws nothing.
        """
        sigma, floor = self.relative_noise_sigma, self.additive_floor
        true = true[..., None, :]
        if sigma == 0 and floor == 0:
            return np.repeat(np.maximum(true, 0.0), reads, axis=-2)
        noisy = rng.standard_normal(true.shape[:-2] + (reads, true.shape[-1]))
        noisy *= np.hypot(sigma * true, floor)
        noisy += true + floor
        return np.maximum(noisy, 0.0, out=noisy)


def paper_detector_model() -> DetectorModel:
    """Detector spread tuned with the default noise spec (see NoiseSpec docs)."""
    return DetectorModel(relative_noise_sigma=0.01, additive_floor=1e-4, sample_rate_hz=480.0)


def _check_range(values: np.ndarray, what: str) -> None:
    """Raise unless every drive in ``values`` is finite and within +/- V_MAX;
    ``what`` names an entry in the message."""
    ok = np.abs(values) <= V_MAX + 1e-12
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"{what} {k} = {values[k]} V is outside the +/- {V_MAX} V range")


def _check_finite(inputs: np.ndarray) -> None:
    """Raise unless the input amplitudes, and so their total power, are
    finite."""
    if not math.isfinite(np.vdot(inputs, inputs).real):
        raise ValueError(f"inputs must be finite amplitudes of finite total power, got {inputs}")


def _check_reads(reads) -> None:
    if isinstance(reads, bool) or not isinstance(reads, numbers.Integral) or reads < 1:
        raise ValueError(f"reads must be a positive integer, got {reads!r}")


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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

    def __post_init__(self):
        if not math.isfinite(self.offset_scale):
            raise ValueError(f"offset_scale must be finite, got {self.offset_scale!r}")
        _check_seed(self.seed)


@dataclass
class SweepRaw:
    """Raw samples of a sawtooth phase sweep: per-period stacks for averaging."""

    volts: np.ndarray  # (SAWTOOTH_POINTS,)
    outputs: np.ndarray  # (SAWTOOTH_PERIODS, SAWTOOTH_POINTS, n_modes)


class EmulatedChip:
    """A mesh behind its electrical interface.

    Public surface: the mesh layout and node order of the monitor readings
    (``n_modes``, ``topology``, ``node_index``), ``config`` and
    ``chip_id``, :meth:`set_frame` (the one way to drive the chip) and
    :meth:`reset`, and the four noisy reads: :meth:`read_detectors`,
    :meth:`read_monitors`, :meth:`sweep_channel` and
    :meth:`sawtooth_sweep`.  Static offsets and the true mesh state are
    reachable only through underscore attributes used by test oracles.

    One memo, keyed by drive bytes, is the chip's only read state: it holds
    the column matrices of each of the last ``n_modes`` drives read, the
    oldest evicted first.  Every read looks the current drive up there.
    It keeps several drives, not one, because a measurement loop over the
    7 all-to-all circuits revisits their frames, which differ from one
    another in 10 to 18 of the 28 nodes: a one-drive memo rebuilds those
    nodes at every circuit, and was measured slower.
    The columns of a new drive copy the newest entry's, with every node
    whose theta or phi channel differs rebuilt through
    :meth:`CompiledMesh.set_node`; with the memo empty, as on a new chip,
    they are built whole.  A sawtooth copies the current drive's columns
    and rebuilds each swept node with its per-point drive, so only their
    columns get per-point matrices.

    A step sweep (:meth:`sweep_channel`), of one point or of many, and a
    monitor read (:meth:`read_monitors`) return only the readings of one
    MZI's own two monitors, read through :meth:`CompiledMesh.node_taps`:
    the input rows go once through the columns before the MZI's column,
    then meet only the MZI's two rows of that column, per sweep point
    with the MZI's block rebuilt for that point's drive.  A point read
    (:meth:`read_detectors`) takes one :meth:`CompiledMesh.propagate` call.
    Readings equal those of a full build bit for bit.

    Every read takes ``inputs`` as one row of ``n_modes`` finite complex
    amplitudes.  A point read and a step sweep also take a stack of k >= 1
    such rows, shaped (k, n_modes), and return a leading axis of k: the
    readings of each row in turn, through one propagate call, with the
    same bits, and the same noise stream after, as k one-row calls.

    A point read and a step sweep take one acquisition of each reading, a
    monitor read the mean of ``reads`` acquisitions, and a sawtooth every
    period's acquisition, unaveraged.  Every read draws the noise of
    exactly the readings it returns, one deviate per reading in their flat
    order (see :meth:`DetectorModel.acquire`), input row by input row: a
    point read's outputs then monitors, a monitor read's two monitors, a
    step sweep's two monitors point by point, a sawtooth's outputs point by
    point, each read by read.
    """

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
        # drive bytes -> (drive, column matrices)
        self._memo = {}
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

    def _node_phases(self, nodes, drive) -> list[tuple]:
        """(theta1, theta2, phi1, phi2) of each node in ``nodes`` (indices)
        for ``drive`` indexed by channel: floats, or arrays of one phase
        batch."""
        phase = self.config.actuator.phase
        phases = []
        for i in nodes:  # float arithmetic per node: numpy's per-call cost is larger
            common_t, diff_t, common_p, diff_p = self._offsets[i].tolist()
            half_t = (diff_t + phase(drive[2 * i])) / 2.0
            half_p = (diff_p + phase(drive[2 * i + 1])) / 2.0
            phases.append((common_t + half_t, common_t - half_t,
                           common_p + half_p, common_p - half_p))
        return phases

    def _phase_arrays(self, volts: np.ndarray):
        """The four node phase arrays, each shaped (..., node), of the drive
        rows ``volts`` shaped (..., channels): :meth:`_node_phases` of every
        node."""
        phases = self._node_phases(range(len(self.node_index)), volts.T.tolist())
        return tuple(np.array(p).T for p in zip(*phases))

    def _columns(self) -> list[np.ndarray]:
        """Column matrices of the current drive, its memo entry made the
        newest: the kept ones if the drive is, bit for bit, one of the last
        ``n_modes`` drives, else new ones (see the class docstring).  A kept
        column list is never written."""
        drive = self._volts
        key = drive.tobytes()
        entry = self._memo.pop(key, None)
        if entry is None:
            if self._memo:
                base, cols = next(reversed(self._memo.values()))
                # bit patterns, so that a sign change of zero counts as a change
                changed = drive.view(np.int64) != base.view(np.int64)
                nodes = sorted({k // 2 for k in changed.nonzero()[0].tolist()})
                cols = list(cols)
                if nodes:
                    self._compiled.set_node(cols, nodes, self._node_phases(nodes, drive.tolist()))
            else:
                cols = self._compiled.columns(*self._phase_arrays(drive))
            entry = (drive, cols)
        self._memo[key] = entry
        if len(self._memo) > self.n_modes:
            del self._memo[next(iter(self._memo))]
        return entry[1]

    def _swept_phases(self, swept: dict[int, np.ndarray], n_rows: int) -> tuple[list, list]:
        """The nodes (indices) with a channel in ``swept``, and their phases
        for ``n_rows`` drive rows, each other channel held at its drive."""
        nodes = sorted({k // 2 for k in swept})
        drive = {k: swept[k] if k in swept else np.full(n_rows, self._volts[k])
                 for i in nodes for k in (2 * i, 2 * i + 1)}
        return nodes, self._node_phases(nodes, drive)

    def _powers(self, inputs: np.ndarray, columns: list[np.ndarray], want_taps: bool):
        """Output powers (with collection gains) and monitor powers (None
        without taps), one row per input row, from one propagate call."""
        fields, taps = self._compiled.propagate(inputs, columns, want_taps)
        outputs = np.abs(fields) ** 2 * self._compiled.output_gains
        return outputs, None if taps is None else taps * self._compiled.mon_gain

    def _inputs(self, inputs, stack: bool) -> np.ndarray:
        """``inputs`` as a complex array, checked to be one row of
        ``n_modes`` finite amplitudes or, where ``stack``, also a stack of
        k >= 1 such rows shaped (k, n_modes)."""
        rows = np.asarray(inputs, dtype=complex)
        n = self.n_modes
        if rows.shape != (n,) and not (stack and rows.ndim == 2 and rows.shape[1] == n
                                       and len(rows)):
            either = f" or a stack of k >= 1 such rows shaped (k, {n})" if stack else ""
            raise ValueError(
                f"inputs must be one row of {n} amplitudes{either}, got shape {rows.shape}")
        for row in rows if rows.ndim == 2 else (rows,):
            _check_finite(row)
        return rows

    def _true_powers(self, inputs: np.ndarray, volts: np.ndarray | None = None):
        """Test oracle: :meth:`_powers` for the drive rows ``volts`` (the
        current drive by default) on a full column build, not the cached
        columns."""
        volts = self._volts if volts is None else volts
        inputs = np.asarray(inputs, dtype=complex)
        if volts.ndim == 2:
            inputs = np.broadcast_to(inputs, (volts.shape[0], self.n_modes))
        return self._powers(inputs, self._compiled.columns(*self._phase_arrays(volts)), True)

    def _true_transfer(self) -> np.ndarray:
        """Test oracle: the current complex transfer matrix (no gains)."""
        return self._compiled.transfer(*self._phase_arrays(self._volts))

    # -- optical readings ------------------------------------------------------

    def read_detectors(self, inputs: np.ndarray):
        """Noisy output powers and monitor readings from the chip's own
        reproducible noise stream, one acquisition of one input row, or of
        each row of a stack in turn with a leading axis of rows (see the
        class docstring)."""
        inputs = self._inputs(inputs, True)
        rows = inputs.reshape(-1, self.n_modes)
        outputs, monitors = self._powers(rows, self._columns(), True)
        # per row, the flat true powers: outputs, then monitors
        noisy = self.config.detector.acquire(self._noise_rng, 1, np.concatenate(
            (outputs, monitors.reshape(len(rows), -1)), axis=1))[:, 0]
        n = self.n_modes
        outputs, monitors = noisy[:, :n], noisy[:, n:].reshape(len(rows), -1, 2)
        return (outputs, monitors) if inputs.ndim == 2 else (outputs[0], monitors[0])

    def read_monitors(self, node: Node, inputs, *, reads: int) -> np.ndarray:
        """Noisy readings of MZI ``node``'s two monitors, shaped (2,), at
        the current drive, averaged over ``reads`` acquisitions: the
        monitor cells of :meth:`read_detectors`, read through the MZI's two
        rows (see the class docstring), with the noise of those two
        readings alone."""
        i = self.node_index.get(node) if isinstance(node, tuple) else None
        if i is None:
            raise ValueError(f"node must be one of the mesh's (column, row) MZIs, got {node!r}")
        _check_reads(reads)
        inputs = self._inputs(inputs, False)
        taps = self._compiled.node_taps(inputs[None], self._columns(), i, None)
        noisy = self.config.detector.acquire(self._noise_rng, reads,
                                             taps[0, 0] * self._compiled.mon_gain[i])
        # summed read by read in order from 0.0, so that a -0.0 reading sums to 0.0
        return np.add.reduce(noisy, axis=0, initial=0.0) / reads

    def _check_channel(self, ch: int) -> None:
        if isinstance(ch, bool) or not isinstance(ch, (int, np.integer)):
            raise ValueError(f"channel must be an integer index, got {ch!r}")
        if not 0 <= ch < self._volts.size:
            raise KeyError(f"unknown channel {ch!r}")

    def sweep_channel(self, ch: int, volts: np.ndarray, inputs) -> np.ndarray:
        """Noisy readings of the two monitors of channel ``ch``'s MZI,
        shaped (points, 2), while ``ch`` steps through ``volts`` (a 1-D
        array) with every other channel held at its current drive, read
        through the MZI's two rows at every length (see the class
        docstring), with the noise of its (points, 2) readings only; for a
        stack of input rows, each row's sweep in turn, shaped (rows,
        points, 2)."""
        self._check_channel(ch)
        volts = np.asarray(volts, dtype=float)
        if volts.ndim != 1 or volts.size == 0:
            raise ValueError(f"volts must be a 1-D array of sweep points, got shape {volts.shape}")
        _check_range(volts, "sweep point")
        inputs = self._inputs(inputs, True)
        rows = inputs.reshape(-1, self.n_modes)
        [i], [phases] = self._swept_phases({ch: volts}, volts.size)
        true = self._compiled.node_taps(rows, self._columns(), i, phases)
        true *= self._compiled.mon_gain[i]
        noisy = self.config.detector.acquire(self._noise_rng, 1, true.reshape(len(rows), -1))
        noisy = noisy.reshape(true.shape)
        return noisy if inputs.ndim == 2 else noisy[0]

    def sawtooth_sweep(self, channels: dict[int, int], inputs, seed: int | None) -> SweepRaw:
        """Sweep the given channels with the bench's sawtooth and record the outputs.

        ``channels`` maps channel index to polarity (+1/-1); paired input
        shifters are swept in opposite polarities so the differential
        phase between the two driven inputs spans a full turn.  The system
        is treated as quasi-static: ``SAWTOOTH_POINTS`` samples per period
        over ``SAWTOOTH_PERIODS`` periods, returned unaveraged, drawn from
        the stream of ``seed``, a non-negative integer, or, when None, the
        chip's own.
        """
        if not channels:
            raise ValueError("sawtooth_sweep needs at least one channel, got an empty channel map")
        for ch, pol in channels.items():
            self._check_channel(ch)
            if pol not in (-1, 1):
                raise ValueError("polarity must be +1 or -1")
        if seed is not None:
            _check_seed(seed)
        inputs = self._inputs(inputs, False)

        # Both ramp endpoints are sampled; with 50 Vpp the 125-point grid
        # then contains every quarter-turn fringe phase, so an
        # ideally-phased chip has its fringe extrema exactly on-grid.
        ramp = np.linspace(-SAWTOOTH_VPP / 2.0, SAWTOOTH_VPP / 2.0, SAWTOOTH_POINTS)
        cols = list(self._columns())
        self._compiled.set_node(cols, *self._swept_phases(
            {ch: pol * ramp for ch, pol in channels.items()}, SAWTOOTH_POINTS))
        inputs = np.broadcast_to(inputs, (SAWTOOTH_POINTS, self.n_modes))
        rng = self._noise_rng if seed is None else np.random.default_rng(seed)
        true_outputs, _ = self._powers(inputs, cols, False)
        outputs = self.config.detector.acquire(rng, SAWTOOTH_PERIODS, true_outputs.ravel())
        return SweepRaw(volts=ramp, outputs=outputs.reshape((SAWTOOTH_PERIODS,)
                                                            + true_outputs.shape))


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
        offset_scale=float(artifact.number(data["offset_scale"], "offset_scale")),
        seed=data["seed"],
    )


def save_emu(config: EmuConfig, path) -> None:
    artifact.write(path, emu_to_dict(config))


def load_emu(path) -> EmuConfig:
    return artifact.read(path, emu_from_dict, "emu")


def load_chip(mesh_path, emu_path) -> EmulatedChip:
    """Instantiate an emulated chip from its mesh JSON plus emu JSON."""
    return EmulatedChip(load_mesh(mesh_path), load_emu(emu_path))
