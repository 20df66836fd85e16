"""Property tests of the propagation kernel and of the chip's caches.

``CompiledMesh.propagate`` matches the dense-matrix oracle at random even N,
a batched call equals each row's own call bit for bit, and every reading of an
emulated chip, after any sequence of drive changes (node-by-node rebuilds
among them), equals bit for bit the full kernel run from scratch on that
drive.  A chip's noisy reads, through its memo of drives' columns, equal
bit for bit those of a same-seed chip whose memo, its only read state, is
emptied before every read, so that it builds every column afresh.  Every
noisy read, a point read, a read of one MZI's monitors or a step sweep of
the swept MZI's monitors, returns its cells of a full kernel run with the
noise of those cells alone drawn one deviate per reading, and the chip's
noise stream then stands where that draw leaves it.  A stack of input rows,
read or swept in one call, equals the same rows read one by one, noise
stream included.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mzmesh import mesh, runner
from mzmesh.emulator import (
    SAWTOOTH_PERIODS,
    SAWTOOTH_POINTS,
    V_MAX,
    ActuatorModel,
    DetectorModel,
    EmuConfig,
    EmulatedChip,
    VoltageFrame,
    paper_detector_model,
)

from oracles import dense_mesh_transfer, sequential_reads, stored_phases

# Fixed examples and no example database: the suite runs the same cases on
# every machine and leaves no state behind.  A failing example is reported
# as found: shrinking an operation sequence takes minutes.
PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                    phases=[Phase.generate])

even_n = st.integers(1, 6).map(lambda k: 2 * k)
phase = st.floats(-math.pi, math.pi)
volt = st.floats(-V_MAX, V_MAX)


def unit(lo):
    return st.floats(lo, 1.0)


@st.composite
def lossy_meshes(draw, n_modes=even_n):
    """Meshes with drawn phases, unequal lossy couplers, arm, tap and
    pass-through losses, and monitor and output gains."""
    state = mesh.ideal_mesh(draw(n_modes))
    topo = state.topology
    for node in topo.nodes():
        state.params[node] = mesh.MziParams(
            theta1=draw(phase), theta2=draw(phase), phi1=draw(phase), phi2=draw(phase),
            eta_in=draw(st.floats(0.3, 0.7)), amp_loss_in=draw(unit(0.5)),
            eta_out=draw(st.floats(0.3, 0.7)), amp_loss_out=draw(unit(0.5)),
            arm_loss_top=draw(unit(0.5)), arm_loss_bot=draw(unit(0.5)),
            tap_loss=draw(unit(0.8)),
        )
        state.params[node].monitor_gains = (draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    for col in range(topo.n_columns):
        for port in range(topo.n_modes):
            if topo.node_at(col, port) is None:
                state.passthrough_loss[(col, port)] = draw(unit(0.5))
    state.output_gains = np.array([draw(st.floats(0.1, 10.0)) for _ in range(topo.n_modes)])
    return state


def input_vectors(draw, n_modes):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n_modes, max_size=2 * n_modes))
    return np.array(parts[:n_modes]) + 1j * np.array(parts[n_modes:])


@PROPERTY
@given(st.data())
def test_propagate_matches_dense_oracle(data):
    state = data.draw(lossy_meshes())
    inputs = input_vectors(data.draw, state.topology.n_modes)
    u = dense_mesh_transfer(state)
    cm = mesh.CompiledMesh(state)
    phases = stored_phases(state)
    fields, _ = cm.propagate(inputs, cm.columns(*phases))
    assert np.max(np.abs(fields[0] - u @ inputs)) < 1e-12
    assert np.max(np.abs(cm.transfer(*phases) - u)) < 1e-12


@PROPERTY
@given(st.data())
def test_batch_rows_equal_single_calls(data):
    state = data.draw(lossy_meshes(st.integers(1, 8).map(lambda k: 2 * k)))
    cm = mesh.CompiledMesh(state)
    batch = data.draw(st.integers(2, 5))
    inputs = np.array([input_vectors(data.draw, cm.n) for _ in range(batch)])
    phases = np.array(data.draw(st.lists(phase, min_size=4 * batch * len(cm.nodes),
                                         max_size=4 * batch * len(cm.nodes))))
    phases = phases.reshape(4, batch, len(cm.nodes))
    fields, taps = cm.propagate(inputs, cm.columns(*phases), want_taps=True)
    for b in range(batch):
        f1, t1 = cm.propagate(inputs[b], cm.columns(*phases[:, b]), want_taps=True)
        assert np.array_equal(fields[b], f1[0]) and np.array_equal(taps[b], t1[0])


@PROPERTY
@given(st.data())
def test_leading_columns_share_one_row(data):
    # one input row through the leading columns, one node rebuilt per phase
    # row, gives the fields of that row repeated to every phase row bit for
    # bit, and through every column the taps of every node too; taps are
    # gathered only from a run through every column
    state = data.draw(lossy_meshes(st.integers(1, 8).map(lambda k: 2 * k)))
    cm = mesh.CompiledMesh(state)
    batch = data.draw(st.integers(2, 4))
    cols = cm.columns(*stored_phases(state))
    node = data.draw(st.integers(0, len(cm.nodes) - 1))
    phases = np.array(data.draw(st.lists(phase, min_size=4 * batch, max_size=4 * batch)))
    cm.set_node(cols, [node], [tuple(phases.reshape(4, batch))])
    inputs = input_vectors(data.draw, cm.n)
    rows = np.broadcast_to(inputs, (batch, cm.n))
    for m in range(1, len(cols) + 1):
        fields, _ = cm.propagate(inputs, cols[:m])
        want_fields, _ = cm.propagate(rows, cols[:m])
        assert np.array_equal(np.broadcast_to(fields, want_fields.shape), want_fields)
    _, taps = cm.propagate(inputs, cols, want_taps=True)
    _, want_taps = cm.propagate(rows, cols, want_taps=True)
    assert want_taps.shape == (batch, len(cm.nodes), 2)
    assert np.array_equal(np.broadcast_to(taps, want_taps.shape), want_taps)
    with pytest.raises(ValueError, match=f"taps need all {len(cols)} columns, got {len(cols) - 1}"):
        cm.propagate(inputs, cols[:-1], want_taps=True)


def full_kernel(chip, inputs, volts):
    """Output and monitor powers of the drive ``volts`` (one row, or one row
    per sweep point) from ``CompiledMesh.propagate`` on a full column build
    of the node phases, without the chip's cached columns."""
    if volts.ndim == 2:
        inputs = np.broadcast_to(inputs, (len(volts), chip.n_modes))
    columns = chip._compiled.columns(*chip._phase_arrays(volts))
    fields, taps = chip._compiled.propagate(inputs, columns, want_taps=True)
    return np.abs(fields) ** 2 * chip._compiled.output_gains, taps * chip._compiled.mon_gain


def frame(draw, chip, volts=volt):
    channels = range(2 * len(chip.node_index))
    ks = draw(st.lists(st.sampled_from(channels), max_size=len(channels), unique=True))
    values = np.zeros(len(channels))
    for k in ks:
        values[k] = draw(volts)
    return values


def node_moves(draw, chip, drive):
    """``drive`` with the theta, phi or both channels of one or two of its
    nodes set to drawn voltages: the drive changes the chip rebuilds node
    by node."""
    n_nodes = len(chip.node_index)
    nodes = draw(st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=2, unique=True))
    values = drive.copy()
    for i in nodes:
        for kind in draw(st.sampled_from(((0,), (1,), (0, 1)))):
            values[2 * i + kind] = draw(volt)
    return values


OPS = ("set_frame", "reset", "sweep_channel", "sawtooth_sweep", "read_detectors", "read_monitors",
       "move_nodes")


@PROPERTY
@given(st.data())
def test_cached_readings_equal_full_kernel(data):
    # a noiseless detector returns the clipped true powers, so every reading
    # is a deterministic function of the kernel's output
    state = data.draw(lossy_meshes())
    actuator = ActuatorModel(nonlinearity=data.draw(st.floats(-1e-3, 1e-3)))
    chip = EmulatedChip(state, EmuConfig(actuator=actuator, offset_scale=1.0,
                                         seed=data.draw(st.integers(0, 2**32))))
    drive = np.zeros(2 * len(chip.node_index))
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=6, max_size=16)):
        inputs = input_vectors(data.draw, chip.n_modes)
        if op == "set_frame":
            values = frame(data.draw, chip)
            chip.set_frame(VoltageFrame(values))
            drive = values
        elif op == "reset":
            chip.reset()
            drive = np.zeros_like(drive)
        elif op == "move_nodes":
            # a node rebuild, then reads and one-point sweeps of the new drive
            drive = node_moves(data.draw, chip, drive)
            chip.set_frame(VoltageFrame(drive))
            want_out, want_mon = full_kernel(chip, inputs, drive)
            for _ in range(data.draw(st.integers(1, 2))):
                outs, mons = chip.read_detectors(inputs)
                assert np.array_equal(outs, np.maximum(want_out[0], 0.0))
                assert np.array_equal(mons, np.maximum(want_mon[0], 0.0))
            for _ in range(data.draw(st.integers(1, 2))):
                k = data.draw(st.sampled_from(range(2 * len(chip.node_index))))
                v = data.draw(volt)
                row = drive.copy()
                row[k] = v
                _, point_mon = full_kernel(chip, inputs, row[None])
                mons = chip.sweep_channel(k, np.array([v]), inputs)
                assert np.array_equal(mons, np.maximum(point_mon[:, k // 2], 0.0))
        elif op == "sweep_channel":
            k = data.draw(st.sampled_from(range(2 * len(chip.node_index))))
            volts = np.array(data.draw(st.lists(volt, min_size=1, max_size=6)))
            rows = np.tile(drive, (volts.size, 1))
            rows[:, k] = volts
            _, want_mon = full_kernel(chip, inputs, rows)
            mons = chip.sweep_channel(k, volts, inputs)
            assert np.array_equal(mons, np.maximum(want_mon[:, k // 2], 0.0))
        elif op == "sawtooth_sweep":
            ks = data.draw(st.lists(st.sampled_from(range(2 * len(chip.node_index))), min_size=1,
                                    max_size=2, unique=True))
            channels = {k: data.draw(st.sampled_from((-1, 1))) for k in ks}
            raw = chip.sawtooth_sweep(channels, inputs, None)
            rows = np.tile(drive, (SAWTOOTH_POINTS, 1))
            for k, pol in channels.items():
                rows[:, k] = pol * raw.volts
            want_out, _ = full_kernel(chip, inputs, rows)
            assert np.array_equal(raw.outputs, np.repeat(np.maximum(want_out, 0.0)[None],
                                                         SAWTOOTH_PERIODS, axis=0))
        elif op == "read_monitors":
            _, want_mon = full_kernel(chip, inputs, drive)
            node = data.draw(st.sampled_from(chip.topology.nodes()))
            mons = chip.read_monitors(node, inputs, reads=1)
            assert np.array_equal(mons, np.maximum(want_mon[0, chip.node_index[node]], 0.0))
        else:
            want_out, want_mon = full_kernel(chip, inputs, drive)
            outs, mons = chip.read_detectors(inputs)
            assert np.array_equal(outs, np.maximum(want_out[0], 0.0))
            assert np.array_equal(mons, np.maximum(want_mon[0], 0.0))
    assert np.array_equal(chip._volts, drive)


def point_inputs(n_modes):
    """Every unit input and every pair of neighbouring ports: more inputs
    than the memo keeps per drive."""
    eye = np.eye(n_modes, dtype=complex)
    return list(eye) + [(eye[k] + eye[k + 1]) / math.sqrt(2.0) for k in range(n_modes - 1)]


READ_OPS = ("set_frame", "revisit", "read_detectors", "read_monitors", "point_sweep",
            "repeat_point", "sweep")


@PROPERTY
@given(st.data())
def test_kept_light_equals_uncached_reads(data):
    # one operation sequence on two same-seed paper-noise chips; before
    # every read b empties its memo, so it builds every column from the
    # drive's phases and propagates every reading from the input column
    seed = data.draw(st.integers(0, 2**16))
    state = runner.build_mesh(mesh.paper_noise_spec(), seed)
    a, b = (EmulatedChip(state, runner.paper_emu_config(seed)) for _ in range(2))
    inputs = point_inputs(a.n_modes)
    channels = range(2 * len(a.node_index))
    drive = np.zeros(len(channels))
    frames, point = [drive], None
    for op in data.draw(st.lists(st.sampled_from(READ_OPS), min_size=8, max_size=24)):
        if op in ("set_frame", "revisit"):
            if op == "set_frame":
                drive = drive.copy()
                for k in data.draw(st.lists(st.sampled_from(channels), min_size=1, max_size=4)):
                    drive[k] = data.draw(volt)
                frames.append(drive)
            else:  # a drive built before, in a new frame
                drive = data.draw(st.sampled_from(frames))
            for chip in (a, b):
                chip.set_frame(VoltageFrame(drive))
            continue
        inp = data.draw(st.sampled_from(inputs))
        # the oracle: the read's cells in the full kernel, their noise drawn
        # one deviate per reading
        oracle = copy.deepcopy(a._noise_rng)
        if op == "read_detectors":
            call = lambda chip: chip.read_detectors(inp)  # noqa: E731
            outputs, monitors = full_kernel(a, inp, drive)
            [flat] = sequential_reads(a.config.detector, oracle, 1,
                                      np.concatenate((outputs[0], monitors[0].ravel())))
            kept = (flat[:a.n_modes], flat[a.n_modes:].reshape(-1, 2))
        elif op == "read_monitors":
            reads = data.draw(st.sampled_from((1, 3)))
            node = data.draw(st.sampled_from(a.topology.nodes()))
            call = lambda chip: (chip.read_monitors(node, inp, reads=reads),)  # noqa: E731
            stack = sequential_reads(a.config.detector, oracle, reads,
                                     full_kernel(a, inp, drive)[1][0, a.node_index[node]])
            kept = (sum(stack, np.zeros(2)) / reads,)
        else:
            if op == "sweep":
                sweep = (data.draw(st.sampled_from(channels)), np.linspace(-V_MAX, V_MAX, 201))
            else:
                if op == "point_sweep" or point is None:
                    k = data.draw(st.sampled_from(channels))
                    point = (k, np.array([data.draw(st.sampled_from((drive[k], data.draw(volt))))]))
                sweep = point
            call = lambda chip: (chip.sweep_channel(*sweep, inp),)  # noqa: E731
            k, volts = sweep
            rows = np.tile(drive, (volts.size, 1))
            rows[:, k] = volts
            kept = tuple(sequential_reads(a.config.detector, oracle, 1,
                                          full_kernel(a, inp, rows)[1][:, k // 2]))
        b._memo.clear()
        got, want = call(a), call(b)
        for x, y, z in zip(got, want, kept, strict=True):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert x.shape == z.shape and x.tobytes() == z.tobytes()
        assert a._noise_rng.bit_generator.state == oracle.bit_generator.state
        # the memo keeps at most n_modes drives, each with its columns only
        assert len(a._memo) <= a.n_modes
        assert all(len(entry) == 2 for entry in a._memo.values())
    assert a._noise_rng.bit_generator.state == b._noise_rng.bit_generator.state


@PROPERTY
@given(st.data())
def test_stack_equals_rows_read_in_turn(data):
    # a stack of input rows through one point read and one step sweep, on
    # one chip, against each row read alone, in turn, on a same-seed chip
    # at the same drive: the same bits, and the same noise stream after
    state = data.draw(lossy_meshes(st.integers(1, 8).map(lambda k: 2 * k)))
    detector = data.draw(st.sampled_from((paper_detector_model(), DetectorModel())))
    config = EmuConfig(detector=detector, offset_scale=1.0, seed=data.draw(st.integers(0, 2**32)))
    a, b = (EmulatedChip(state, config) for _ in range(2))
    values = frame(data.draw, a)
    for chip in (a, b):
        chip.set_frame(VoltageFrame(values))
    rows = np.array([input_vectors(data.draw, a.n_modes)
                     for _ in range(data.draw(st.integers(1, 4)))])
    k = data.draw(st.sampled_from(range(2 * len(a.node_index))))
    points = data.draw(st.sampled_from((1, 2, 25)))
    volts = np.array(data.draw(st.lists(volt, min_size=points, max_size=points)))
    outputs, monitors = a.read_detectors(rows)
    sweeps = a.sweep_channel(k, volts, rows)
    assert outputs.shape == (len(rows), a.n_modes)
    assert monitors.shape == (len(rows), len(a.node_index), 2)
    assert sweeps.shape == (len(rows), volts.size, 2)
    for j, row in enumerate(rows):
        want_outputs, want_monitors = b.read_detectors(row)
        assert outputs[j].tobytes() == want_outputs.tobytes()
        assert monitors[j].tobytes() == want_monitors.tobytes()
    for j, row in enumerate(rows):
        assert sweeps[j].tobytes() == b.sweep_channel(k, volts, row).tobytes()
    assert a._noise_rng.bit_generator.state == b._noise_rng.bit_generator.state
