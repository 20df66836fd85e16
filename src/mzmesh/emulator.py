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
        if self.resonance_hz <= 0:
            raise ValueError("resonance_hz must be positive")

    def phase(self, volts):
        """Phase of ``volts``: a float for a float, an array otherwise."""
        v = volts if isinstance(volts, float) else np.asarray(volts, dtype=float)
        return np.pi * v / self.v_pi + self.nonlinearity * v * abs(v)

    def volts(self, phase: float) -> float:
        """The drive of ``phase``: the inverse of :meth:`phase` where it is monotone."""
        slope = math.pi / self.v_pi
        root = math.sqrt(slope * slope + 4.0 * self.nonlinearity * abs(phase))
        return math.copysign(2.0 * abs(phase) / (slope + root), phase)


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
        _require_finite(self)
        if self.relative_noise_sigma < 0 or self.additive_floor < 0 or self.sample_rate_hz < 0:
            raise ValueError("detector parameters must be non-negative")

    def acquire(self, rng: np.random.Generator, reads: int, true: np.ndarray) -> np.ndarray:
        """``reads`` noisy readings of the flat true powers ``true``, shaped
        (reads, true.size); ``true`` is not written.

        Each read draws the multiplicative term of every element, then the
        additive ones, so the stream is the same as ``reads`` single-read
        calls in a row.
        """
        n_terms = (self.relative_noise_sigma > 0) + (self.additive_floor > 0)
        if n_terms == 0:
            return np.repeat(np.maximum(true, 0.0)[None], reads, axis=0)
        z = rng.standard_normal((reads, n_terms, true.size))
        # true * (1 + sigma * z) + floor * (1 + z'), one operation at a time:
        # each term's first gathers its strided draws into a contiguous array,
        # on which the rest work in place
        noisy = true
        if self.relative_noise_sigma > 0:
            noisy = np.multiply(z[:, 0], self.relative_noise_sigma)
            noisy += 1.0
            noisy *= true
        if self.additive_floor > 0:
            floor = np.add(z[:, -1], 1.0)
            floor *= self.additive_floor
            floor += noisy
            noisy = floor
        return np.maximum(noisy, 0.0, out=noisy)


def _keep(memo: dict, key, value, size: int) -> None:
    """Store ``value`` as the newest entry of ``memo``, evicting the oldest
    beyond ``size`` entries."""
    memo[key] = value
    if len(memo) > size:
        del memo[next(iter(memo))]


def _mean_of_reads(stack: np.ndarray) -> np.ndarray:
    """Mean over the leading read axis, summed read by read in order from
    0.0 (so that a -0.0 reading sums to 0.0)."""
    return np.add.reduce(stack, axis=0, initial=0.0) / len(stack)


def paper_detector_model() -> DetectorModel:
    """Detector spread tuned with the default noise spec (see NoiseSpec docs)."""
    return DetectorModel(relative_noise_sigma=0.01, additive_floor=1e-4, sample_rate_hz=480.0)


def _check_range(values: np.ndarray, what: str) -> None:
    """Raise unless every drive in ``values`` is finite and within +/- V_MAX;
    ``what`` names an entry in the message."""
    ok = np.abs(values) <= V_MAX + 1e-12
    if not ok.all():
        k = int(np.argmin(ok))
        raise _out_of_range(what, k, values[k])


def _out_of_range(what: str, k: int, value: float) -> ValueError:
    return ValueError(f"{what} {k} = {value} V is outside the +/- {V_MAX} V range")


def _check_finite(inputs: np.ndarray) -> None:
    """Raise unless the input amplitudes, and so their total power, are
    finite."""
    if not math.isfinite(np.vdot(inputs, inputs).real):
        raise ValueError(f"inputs must be finite amplitudes of finite total power, got {inputs}")


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

    Public surface: the mesh layout and node order of the monitor readings,
    :meth:`set_frame` (the one way to drive the chip), noisy optical
    readings and sweeps.  Static offsets and the true mesh state are
    reachable only through underscore attributes used by test oracles.

    One memo, keyed by drive bytes, is the chip's only read state: it holds
    for each of the last ``n_modes`` drives read that drive, its column
    matrices and the flat true powers (outputs, then monitors) of each of
    the last ``n_modes`` inputs (keyed by their bytes) read through it, the
    oldest of each evicted first.  Every read looks its drive up there.  The
    columns of a new drive copy the newest entry's, with every node whose
    theta or phi channel differs rebuilt through
    :meth:`CompiledMesh.set_node`; with the memo empty, as on a new chip,
    they are built whole.  A sweep of several points copies the current
    drive's columns and rebuilds each swept node with its per-point drive,
    so only their columns get per-point matrices.

    A step sweep (:meth:`sweep_channel`) returns only the readings of the
    swept MZI's own two monitors.  One of several points is computed
    through the MZI's light cone: the input row goes once through the
    columns before the MZI's column, then per point through that column,
    and no further.

    A point read (:meth:`read_detectors`, or a one-point
    :meth:`sweep_channel`) of a kept input at a kept drive only draws noise;
    any other takes :meth:`CompiledMesh.propagate`'s batch-1 loop.
    Readings equal those of a full build bit for bit.

    Every read draws the noise of exactly the readings it returns, in
    their flat order (see :meth:`DetectorModel.acquire`): a point read's
    outputs then monitors, a step sweep's two monitors point by point, a
    sawtooth's outputs point by point.

    Every read takes ``inputs`` as one row of ``n_modes`` finite complex
    amplitudes; a point read of a kept input skips the finiteness check,
    as its bytes passed it before.
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
        # drive bytes -> (drive, column matrices, {input bytes: flat true powers})
        self._memo = {}
        # gains of a point read's flat true powers: outputs, then monitors
        self._flat_gains = np.concatenate((self._compiled.output_gains,
                                           self._compiled.mon_gain.ravel()))
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

    def _set_nodes(self, columns: list[np.ndarray], nodes: list[int], drive) -> None:
        """Rebuild the blocks of ``nodes`` (indices) in ``columns``, in one
        :meth:`CompiledMesh.set_node` call, for ``drive`` indexed by channel:
        floats, or arrays of one phase batch, mapped as :meth:`_phase_arrays`
        maps them."""
        phase = self.config.actuator.phase
        phases = []
        for i in nodes:  # float arithmetic per node: numpy's per-call cost is larger
            common_t, diff_t, common_p, diff_p = self._offsets[i].tolist()
            half_t = (diff_t + phase(drive[2 * i])) / 2.0
            half_p = (diff_p + phase(drive[2 * i + 1])) / 2.0
            phases.append((common_t + half_t, common_t - half_t,
                           common_p + half_p, common_p - half_p))
        self._compiled.set_node(columns, nodes, phases)

    def _entry(self, drive: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], dict]:
        """Memo entry of the drive vector ``drive``, made the newest: the
        kept one if it is, bit for bit, one of the last ``n_modes`` drives,
        else a new one (see the class docstring).  A kept column list is
        never written."""
        key = drive.tobytes()
        entry = self._memo.pop(key, None)
        if entry is None:
            if self._memo:
                base, cols, _ = next(reversed(self._memo.values()))
                # bit patterns, so that a sign change of zero counts as a change
                changed = drive.view(np.int64) != base.view(np.int64)
                nodes = sorted({k // 2 for k in changed.nonzero()[0].tolist()})
                cols = list(cols)
                if nodes:
                    self._set_nodes(cols, nodes, drive.tolist())  # floats
            else:
                cols = self._compiled.columns(*self._phase_arrays(drive))
            entry = (drive, cols, {})
        _keep(self._memo, key, entry, self.n_modes)
        return entry

    def _swept_columns(self, swept: dict[int, np.ndarray], n_rows: int) -> list[np.ndarray]:
        """Column matrices of ``n_rows`` drive rows in which each channel in
        ``swept`` (index -> voltages) steps and every other channel holds its
        current drive: the current columns, shared by every row, except that
        each column holding a swept node gets a per-row copy with that
        node's block rebuilt.
        """
        nodes = sorted({k // 2 for k in swept})
        # the per-row drive of each swept node's two channels, by channel
        drive = {k: swept[k] if k in swept else np.full(n_rows, self._volts[k])
                 for i in nodes for k in (2 * i, 2 * i + 1)}
        cols = list(self._entry(self._volts)[1])
        self._set_nodes(cols, nodes, drive)
        return cols

    def _powers(self, inputs: np.ndarray, columns: list[np.ndarray], want_taps: bool):
        """Output powers (with collection gains) and monitor powers (None
        without taps), one row per input row, from one propagate call."""
        fields, taps = self._compiled.propagate(inputs, columns, want_taps)
        outputs = np.abs(fields) ** 2 * self._compiled.output_gains
        return outputs, None if taps is None else taps * self._compiled.mon_gain

    def _point_powers(self, inputs: np.ndarray, entry: tuple) -> np.ndarray:
        """Flat true powers, outputs then monitors, of one input row (checked
        by :meth:`_input_row`) through the memo ``entry`` of a drive: those
        kept for the input, or those of one propagate call (see the class
        docstring).  Read-only."""
        _, columns, kept = entry
        key = inputs.tobytes()
        true = kept.pop(key, None)
        if true is None:
            _check_finite(inputs)
            fields, taps = self._compiled.propagate(inputs, columns, True)
            # output powers, then monitor powers, as _powers gives them
            true = np.concatenate((np.abs(fields[0]) ** 2, taps.ravel())) * self._flat_gains
            true.flags.writeable = False
        _keep(kept, key, true, self.n_modes)
        return true

    def _input_row(self, inputs) -> np.ndarray:
        """``inputs`` as a complex array, checked to be one row of
        ``n_modes`` amplitudes."""
        row = np.asarray(inputs, dtype=complex)
        if row.shape != (self.n_modes,):
            raise ValueError(
                f"inputs must be one row of {self.n_modes} amplitudes, got shape {row.shape}")
        return row

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

    def read_detectors(self, inputs: np.ndarray, *, reads: int = 1):
        """Noisy output powers and monitor readings from the chip's own
        reproducible noise stream.  ``reads > 1`` averages that many
        acquisitions of the same state."""
        if isinstance(reads, bool) or not isinstance(reads, numbers.Integral) or reads < 1:
            raise ValueError(f"reads must be a positive integer, got {reads!r}")
        true = self._point_powers(self._input_row(inputs), self._entry(self._volts))
        noisy = self.config.detector.acquire(self._noise_rng, reads, true)
        noisy = noisy[0] if reads == 1 else _mean_of_reads(noisy)
        n = self.n_modes
        return noisy[:n], noisy[n:].reshape(-1, 2)

    def _check_channel(self, ch: int) -> None:
        if isinstance(ch, bool) or not isinstance(ch, (int, np.integer)):
            raise ValueError(f"channel must be an integer index, got {ch!r}")
        if not 0 <= ch < self._volts.size:
            raise KeyError(f"unknown channel {ch!r}")

    def sweep_channel(self, ch: int, volts: np.ndarray, inputs) -> np.ndarray:
        """Noisy readings of the two monitors of channel ``ch``'s MZI,
        shaped (points, 2), while ``ch`` steps through ``volts`` (a 1-D
        array) with every other channel held at its current drive.  A
        sweep of several points is computed through the MZI's light cone
        (see the class docstring); a one-point sweep takes the true powers
        of a point read of its one drive.  Either draws the noise of its
        (points, 2) readings only."""
        self._check_channel(ch)
        volts = np.asarray(volts, dtype=float)
        if volts.ndim != 1 or volts.size == 0:
            raise ValueError(f"volts must be a 1-D array of sweep points, got shape {volts.shape}")
        inputs = self._input_row(inputs)
        node = ch // 2
        if volts.size == 1:  # a point read, shaped as a sweep of one point
            v = volts.item()
            if not abs(v) <= V_MAX + 1e-12:  # as _check_range, on one float
                raise _out_of_range("sweep point", 0, v)
            drive = self._volts.copy()
            drive[ch] = v
            m = self.n_modes + 2 * node  # the MZI's first monitor among the flat powers
            true = self._point_powers(inputs, self._entry(drive))[m:m + 2]
        else:
            _check_range(volts, "sweep point")
            _check_finite(inputs)
            col, row = self._compiled.nodes[node]
            k = self.topology.n_columns - 1 - col  # the MZI's column, counted from the input
            cols = self._swept_columns({ch: volts}, volts.size)[:k + 1]
            _, taps = self._compiled.propagate(inputs, cols, True)
            # the taps of the MZI's own column come first, in row order
            true = (taps[:, row] * self._compiled.mon_gain[node]).ravel()
        return self.config.detector.acquire(self._noise_rng, 1, true).reshape(volts.size, 2)

    def sawtooth_sweep(self, channels: dict[int, int], inputs, seed: int | None = None) -> SweepRaw:
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
        inputs = self._input_row(inputs)
        _check_finite(inputs)

        # Both ramp endpoints are sampled; with 50 Vpp the 125-point grid
        # then contains every quarter-turn fringe phase, so an
        # ideally-phased chip has its fringe extrema exactly on-grid.
        ramp = np.linspace(-SAWTOOTH_VPP / 2.0, SAWTOOTH_VPP / 2.0, SAWTOOTH_POINTS)
        cols = self._swept_columns({ch: pol * ramp for ch, pol in channels.items()},
                                   SAWTOOTH_POINTS)
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
        offset_scale=float(data["offset_scale"]),
        seed=data["seed"],
    )


def save_emu(config: EmuConfig, path) -> None:
    artifact.write(path, emu_to_dict(config))


def load_emu(path) -> EmuConfig:
    return artifact.read(path, emu_from_dict, "emu")


def load_chip(mesh_path, emu_path) -> EmulatedChip:
    """Instantiate an emulated chip from its mesh JSON plus emu JSON."""
    return EmulatedChip(load_mesh(mesh_path), load_emu(emu_path))
