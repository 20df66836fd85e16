import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import mzmesh
from mzmesh import mesh, runner
from mzmesh.emulator import (
    PHI,
    THETA,
    V_MAX,
    ActuatorModel,
    DetectorModel,
    EmuConfig,
    EmulatedChip,
    VoltageFrame,
    channel,
    emu_from_dict,
    emu_to_dict,
    paper_detector_model,
)

from oracles import drive, read_exact, sequential_reads


def make_chip(offset_scale=0.0, seed=0, detector=None, actuator=None):
    cfg = EmuConfig(
        actuator=actuator or ActuatorModel(),
        detector=detector or DetectorModel(),
        offset_scale=offset_scale,
        seed=seed,
    )
    return EmulatedChip(mesh.nominal_mesh(8), cfg)


def input_vec(port):
    v = np.zeros(8, dtype=complex)
    v[port - 1] = 1.0
    return v


class TestChannels:
    def test_56_channels(self):
        chip = make_chip()
        chip.set_frame(VoltageFrame(np.zeros(56)))
        assert channel(chip.topology, (0, 0), THETA) == 0

    @pytest.mark.parametrize("n_modes", [2, 4, 6, 8, 10])
    def test_channel_helper_matches_layout(self, n_modes):
        chip = EmulatedChip(mesh.nominal_mesh(n_modes), EmuConfig())
        topo = chip.topology
        chip.set_frame(VoltageFrame(np.zeros(2 * len(topo.nodes()))))
        for node in topo.nodes():
            for kind in (THETA, PHI):
                assert channel(topo, node, kind) == 2 * chip.node_index[node] + kind

    def test_bad_channel_ids(self):
        chip = make_chip()
        with pytest.raises(ValueError):
            channel(chip.topology, (0, 0), 2)
        with pytest.raises(ValueError):
            drive(chip, {((0, 0), THETA): 26.0})
        with pytest.raises(ValueError):
            drive(chip, {((0, 0), THETA): np.nan})


class TestApplyFrame:
    """Frames driven through ``set_frame``, the one way to drive the chip."""

    def test_v_pi_gives_pi_shift(self):
        # 25 V on a theta channel moves the differential phase by pi:
        # cross (0 V) flips to bar through the first MZI on the path
        chip = make_chip()
        out0, _ = read_exact(chip, input_vec(1))
        chip.set_frame(drive(chip, {((6, 0), THETA): 25.0}))
        _, mons = read_exact(chip, input_vec(1))
        idx = chip._compiled.node_index[(6, 0)]
        assert mons[idx, 0] > 1e6 * mons[idx, 1]  # bar: all power stays on top

    def test_zero_frame_leaves_static_offsets(self):
        chip = make_chip(offset_scale=1.0, seed=4)
        th1, th2, ph1, ph2 = chip._phase_arrays(chip._volts)
        for k, (_, theta_diff, _, phi_diff) in enumerate(chip._offsets):
            assert th1[k] - th2[k] == pytest.approx(theta_diff, abs=1e-12)
            assert ph1[k] - ph2[k] == pytest.approx(phi_diff, abs=1e-12)

    def test_full_span_is_2pi(self):
        act = ActuatorModel()
        assert act.phase(25.0) - act.phase(-25.0) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_monotone_voltage_phase_map(self):
        act = ActuatorModel(nonlinearity=0.9 * math.pi / (2.0 * ActuatorModel().v_pi * V_MAX))
        v = np.linspace(-V_MAX, V_MAX, 1001)
        assert np.all(np.diff(act.phase(v)) > 0)

    @pytest.mark.parametrize("nonlinearity", [0.0, 2e-3, -2e-3])
    def test_volts_inverts_phase(self, nonlinearity):
        act = ActuatorModel(v_pi=24.0, nonlinearity=nonlinearity)
        for v in np.linspace(-V_MAX, V_MAX, 11):
            assert act.volts(act.phase(float(v))) == pytest.approx(v, abs=1e-12)

    def test_unknown_channel(self):
        chip = make_chip()
        with pytest.raises(KeyError):
            chip.set_frame(drive(chip, {((9, 9), THETA): 1.0}))
        with pytest.raises(ValueError):
            chip.set_frame(VoltageFrame(np.zeros(2 * len(chip.node_index) - 1)))

    @pytest.mark.parametrize("volts", [np.nan, V_MAX + 5e-10], ids=["nan", "just-over"])
    def test_sweep_range_is_the_frame_range(self, volts):
        chip = make_chip()
        k = channel(chip.topology, (6, 0), THETA)
        with pytest.raises(ValueError):
            drive(chip, {((6, 0), THETA): volts})
        with pytest.raises(ValueError):
            chip.sweep_channel(k, np.array([0.0, volts]), input_vec(1))


class TestDetectors:
    def test_zero_noise_matches_exact(self):
        chip = make_chip()
        outs, mons = chip.read_detectors(input_vec(1))
        exact_outs, exact_mons = read_exact(chip, input_vec(1))
        assert np.array_equal(outs, exact_outs)
        assert np.array_equal(mons, exact_mons)

    def test_statistical_mean(self):
        # sigma = 0.01, 1e4 reads: sample mean within 3 sigma/sqrt(N)
        chip = make_chip(detector=DetectorModel(relative_noise_sigma=0.01))
        true, _ = read_exact(chip, input_vec(1))
        port = int(np.argmax(true))
        n = 10_000
        acc = chip.read_detectors(input_vec(1), reads=n)[0][port]
        tol = 3 * 0.01 * true[port] / math.sqrt(n)
        assert abs(acc - true[port]) < tol

    def test_floor_dominates_dark_channels(self):
        floor = 1e-4
        chip = make_chip(detector=DetectorModel(additive_floor=floor))
        outs = chip.read_detectors(input_vec(1) * 1e-5, reads=4000)[0]
        dark = outs[np.argsort(outs)[:4]]
        assert np.all(np.abs(dark - floor) < 0.2 * floor)

    @pytest.mark.parametrize("reads", [0, -2, 1.5, True, "3"])
    def test_reads_must_be_a_positive_integer(self, reads):
        chip = make_chip()
        with pytest.raises(ValueError, match="reads must be a positive integer"):
            chip.read_detectors(input_vec(1), reads=reads)

    def test_determinism_bit_for_bit(self):
        a = make_chip(detector=paper_detector_model(), seed=5, offset_scale=1.0)
        b = make_chip(detector=paper_detector_model(), seed=5, offset_scale=1.0)
        frame = drive(a, {((4, 1), THETA): 3.0})
        a.set_frame(frame)
        b.set_frame(frame)
        for _ in range(5):
            ra = a.read_detectors(input_vec(2))
            rb = b.read_detectors(input_vec(2))
            assert np.array_equal(ra[0], rb[0]) and np.array_equal(ra[1], rb[1])



class TestReadPath:
    """Every read draws the noise of exactly the readings it returns, one
    term at a time in their flat order, and batched draws reproduce that
    per-read stream bit for bit."""

    @staticmethod
    def paper_chip(seed=7):
        state = runner.build_mesh(mesh.paper_noise_spec(), seed)
        chip = EmulatedChip(state, runner.paper_emu_config(seed))
        chip.set_frame(drive(chip, {((4, 1), THETA): 3.0, ((5, 0), PHI): -7.5}))
        return chip

    @staticmethod
    def flat_powers(chip, inputs):
        """A point read's true powers as it draws their noise: the outputs,
        then the monitors."""
        outputs, monitors = chip._true_powers(inputs)
        return np.concatenate((outputs[0], monitors[0].ravel()))

    @pytest.mark.parametrize("reads", [1, 3, 10])
    def test_read_detectors(self, reads):
        chip = self.paper_chip()
        stack = sequential_reads(chip.config.detector, copy.deepcopy(chip._noise_rng), reads,
                                 self.flat_powers(chip, input_vec(2)))
        acc = np.zeros(8 + 56)
        for read in stack:
            acc += read
        got = chip.read_detectors(input_vec(2), reads=reads)
        assert np.array_equal(got[0], acc[:8] / reads)
        assert np.array_equal(got[1], (acc[8:] / reads).reshape(28, 2))

    @pytest.mark.parametrize("reads", [1, 3, 10])
    @pytest.mark.parametrize("detector", [
        DetectorModel(relative_noise_sigma=0.02),
        DetectorModel(additive_floor=1e-3),
        DetectorModel(relative_noise_sigma=0.02, additive_floor=1e-3),
    ], ids=["multiplicative", "additive", "both"])
    def test_acquire_every_detector_kind(self, detector, reads):
        # a sweep's readings, outputs then monitors at 5 points, as a point
        # read keeps every cell of each point, and one node's monitor cells,
        # as a step sweep keeps them: each array's own noise, nothing else
        rng = np.random.default_rng(reads)
        layout = rng.uniform(0.0, 1e-3, (5, 8 + 56))
        for true in (layout.ravel(), layout[:, 8 + 6:8 + 8].ravel()):
            true.flags.writeable = False  # acquire does not write it
            after = np.random.default_rng(17)
            want = sequential_reads(detector, after, reads, true)
            stream = np.random.default_rng(17)
            got = detector.acquire(stream, reads, true)
            assert np.array_equal(got, want)
            assert stream.bit_generator.state == after.bit_generator.state

    def test_chip_stream(self):
        a, b = self.paper_chip(), self.paper_chip()
        true = self.flat_powers(b, input_vec(1))
        for reads in (1, 3, 10):
            got = a.read_detectors(input_vec(1), reads=reads)
            stack = sequential_reads(b.config.detector, b._noise_rng, reads, true)
            assert np.array_equal(got[0], sum(read[:8] for read in stack) / reads)

    def test_sweep_channel(self):
        chip = self.paper_chip()
        k = channel(chip.topology, (3, 2), THETA)
        volts = np.linspace(-20.0, 20.0, 17)
        mat = np.tile(chip._volts, (volts.size, 1))
        mat[:, k] = volts
        _, monitors = chip._true_powers(input_vec(3), mat)
        [want] = sequential_reads(chip.config.detector, copy.deepcopy(chip._noise_rng), 1,
                                  monitors[:, chip.node_index[(3, 2)]])
        got = chip.sweep_channel(k, volts, input_vec(3))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("detector", ["paper", "noiseless"])
    @pytest.mark.parametrize("inputs", [
        input_vec(3),
        (input_vec(3) + input_vec(4)) / math.sqrt(2.0),
        np.exp(1j * np.arange(8)) * np.linspace(0.2, 1.0, 8),
    ], ids=["unit", "pair", "complex"])
    @pytest.mark.parametrize("points", [1, 2, 201])
    @pytest.mark.parametrize("node, kind", [
        ((7, 1), THETA), ((7, 2), PHI), ((0, 1), THETA), ((0, 3), PHI),
    ], ids=["input-theta", "input-phi", "last-theta", "last-phi"])
    def test_node_sweep_draws_the_full_sweep_noise(self, node, kind, points, inputs, detector):
        # the swept MZI's slice of the full kernel at every point, with the
        # noise of the whole sweep, every point's two monitor readings,
        # drawn one term at a time; the next read then equals that of a
        # same-seed chip that drew the same noise
        chip, twin = self.paper_chip(), self.paper_chip()
        if detector == "noiseless":
            for c in (chip, twin):
                c.config = dataclasses.replace(c.config, detector=DetectorModel())
        k = channel(chip.topology, node, kind)
        volts = np.linspace(-20.0, 20.0, points)
        mat = np.tile(chip._volts, (volts.size, 1))
        mat[:, k] = volts
        _, monitors = chip._true_powers(inputs, mat)
        [want] = sequential_reads(twin.config.detector, twin._noise_rng, 1,
                                  monitors[:, chip.node_index[node]])
        got = chip.sweep_channel(k, volts, inputs)
        assert got.shape == (points, 2)
        assert np.array_equal(got, want)
        after, twin_after = chip.read_detectors(input_vec(5)), twin.read_detectors(input_vec(5))
        assert np.array_equal(after[0], twin_after[0]) and np.array_equal(after[1], twin_after[1])

    @pytest.mark.parametrize("detector", [
        DetectorModel(relative_noise_sigma=0.02),
        DetectorModel(additive_floor=1e-3),
        paper_detector_model(),
        DetectorModel(),
    ], ids=["multiplicative", "additive", "paper", "noiseless"])
    def test_each_read_draws_the_noise_of_its_cells(self, detector):
        # n_terms deviates per returned cell and read: the chip's stream then
        # stands where a twin generator's does after drawing that many
        chip = self.paper_chip()
        chip.config = dataclasses.replace(chip.config, detector=detector)
        n_terms = (detector.relative_noise_sigma > 0) + (detector.additive_floor > 0)
        point_cells = chip.n_modes + 2 * len(chip.node_index)
        k = channel(chip.topology, (3, 2), THETA)
        sawtooth = input_vec(1) + input_vec(2)
        reads = [
            (lambda: chip.read_detectors(input_vec(2)), point_cells),
            (lambda: chip.read_detectors(input_vec(2), reads=3), point_cells * 3),
            (lambda: chip.sweep_channel(k, np.array([7.5]), input_vec(3)), 1 * 2),
            (lambda: chip.sweep_channel(k, np.linspace(-20.0, 20.0, 201), input_vec(3)), 201 * 2),
            (lambda: chip.sawtooth_sweep({k: 1}, sawtooth), 5 * 125 * chip.n_modes),
            (lambda: chip.sawtooth_sweep({k: 1}, sawtooth, seed=9), 0),  # seed's own stream
        ]
        twin = copy.deepcopy(chip._noise_rng)
        for read, cells in reads:
            read()
            twin.standard_normal(n_terms * cells)
            assert chip._noise_rng.bit_generator.state == twin.bit_generator.state

    def test_sawtooth_sweep(self):
        chip = self.paper_chip()
        k = channel(chip.topology, (7, 0), PHI)
        raw = chip.sawtooth_sweep({k: 1}, input_vec(1) + input_vec(2), seed=9)
        volts = np.tile(chip._volts, (125, 1))
        volts[:, k] = raw.volts
        outputs, _ = chip._true_powers(input_vec(1) + input_vec(2), volts)
        stack = sequential_reads(chip.config.detector, np.random.default_rng(9), 5, outputs)
        assert np.array_equal(raw.outputs, stack)


class TestKeptLight:
    """Point reads are served from the one memo of drives and the inputs
    read through each."""

    def test_noiseless_point_reads_equal_full_build(self):
        chip = make_chip(offset_scale=1.0, seed=3)
        inputs = [input_vec(1), input_vec(4), (input_vec(2) + input_vec(3)) / math.sqrt(2.0)]
        frames = [drive(chip, {((4, 1), THETA): 3.0}),
                  drive(chip, {((4, 1), THETA): 3.0, ((1, 2), PHI): -9.0}),
                  drive(chip, {((4, 1), THETA): 3.0})]
        k = channel(chip.topology, (2, 1), THETA)
        for frame in frames:
            chip.set_frame(frame)
            for inp in inputs + inputs:
                outs, mons = chip.read_detectors(inp)
                want_outs, want_mons = chip._true_powers(inp)
                assert np.array_equal(outs, want_outs[0]) and np.array_equal(mons, want_mons[0])
                for v in (7.5, 7.5, chip._volts[k]):
                    row = chip._volts.copy()
                    row[k] = v
                    mons = chip.sweep_channel(k, np.array([v]), inp)
                    _, want_mons = chip._true_powers(inp, row[None])
                    assert np.array_equal(mons, want_mons[:, chip.node_index[(2, 1)]])

    def test_cache_keeps_at_most_n_modes_inputs(self):
        chip = make_chip(offset_scale=1.0, seed=3)
        for volts in np.linspace(-20.0, 20.0, 12):
            chip.set_frame(drive(chip, {((4, 1), THETA): volts}))
            for port in range(1, 9):
                for other in range(1, 9):
                    chip.read_detectors(input_vec(port) + 0.5 * input_vec(other))
                    assert len(chip._memo) <= chip.n_modes
                    assert all(len(kept) <= chip.n_modes for _, _, kept in chip._memo.values())
        # the most recent drive and inputs are the ones kept
        key, (volts, _, kept) = next(reversed(chip._memo.items()))
        assert key == chip._volts.tobytes() and volts is chip._volts
        assert next(reversed(kept)) == (input_vec(8) + 0.5 * input_vec(8)).tobytes()

    @pytest.mark.parametrize("detector", [None, paper_detector_model()])
    def test_memo_is_the_only_read_state(self, detector):
        # a new chip holds no columns until its first read; a chip whose
        # memo is emptied mid-sequence reads, and leaves its noise stream,
        # as a same-seed chip that kept it
        a, b = (make_chip(offset_scale=1.0, seed=3, detector=detector) for _ in range(2))
        k = channel(a.topology, (2, 1), THETA)
        frames = [drive(a, {((4, 1), THETA): 3.0}),
                  drive(a, {((4, 1), THETA): 3.0, ((1, 2), PHI): -9.0})]
        a.set_frame(frames[0])
        assert a._memo == {} and b._memo == {}
        reads = [lambda chip: chip.read_detectors(input_vec(2)),
                 lambda chip: (chip.sweep_channel(k, np.array([7.5]), input_vec(2)),),
                 lambda chip: (chip.sweep_channel(k, np.linspace(-V_MAX, V_MAX, 5),
                                                  input_vec(3)),),
                 lambda chip: (chip.sawtooth_sweep({k: 1}, input_vec(1) + input_vec(2)).outputs,)]
        for frame in frames + frames[:1]:
            for chip in (a, b):
                chip.set_frame(frame)
            for read in reads + reads:
                b._memo.clear()
                for got, want in zip(read(b), read(a)):
                    assert got.tobytes() == want.tobytes()
                assert b._noise_rng.bit_generator.state == a._noise_rng.bit_generator.state

    def test_return_to_a_drive_is_served_whole(self, monkeypatch):
        # one input read at drives A, B, A propagates twice: the second read
        # at A finds its true powers kept under A
        chip = make_chip(offset_scale=1.0, seed=3, detector=paper_detector_model())
        calls = []
        propagate = chip._compiled.propagate
        monkeypatch.setattr(chip._compiled, "propagate",
                            lambda *args: calls.append(1) or propagate(*args))
        a = drive(chip, {((4, 1), THETA): 3.0})
        b = drive(chip, {((4, 1), THETA): 3.0, ((1, 2), PHI): -9.0})
        for frame in (a, b, a):
            chip.set_frame(frame)
            chip.read_detectors(input_vec(2))
        assert len(calls) == 2


class TestArguments:
    """Malformed arguments to the chip's reads raise a message naming the
    argument."""

    def test_volts_must_be_one_row(self):
        chip = make_chip()
        k = channel(chip.topology, (6, 0), THETA)
        for volts in (np.zeros((2, 2)), np.zeros((1, 1)), np.zeros(0), 0.0):
            with pytest.raises(ValueError, match="volts must be a 1-D array"):
                chip.sweep_channel(k, volts, input_vec(1))

    @pytest.mark.parametrize("ch", [3.0, True, np.float64(3.0), "3"])
    def test_channel_must_be_an_integer(self, ch):
        chip = make_chip()
        with pytest.raises(ValueError, match="channel must be an integer index"):
            chip.sweep_channel(ch, np.array([0.0, 1.0]), input_vec(1))
        with pytest.raises(ValueError, match="channel must be an integer index"):
            chip.sweep_channel(ch, np.array([0.0]), input_vec(1))
        with pytest.raises(ValueError, match="channel must be an integer index"):
            chip.sawtooth_sweep({ch: 1}, input_vec(1))

    def test_numpy_integer_channel(self):
        chip = make_chip()
        k = channel(chip.topology, (6, 0), THETA)
        assert np.array_equal(chip.sweep_channel(np.int64(k), np.array([0.0, 1.0]), input_vec(1)),
                              chip.sweep_channel(k, np.array([0.0, 1.0]), input_vec(1)))

    @pytest.mark.parametrize("inputs", [np.zeros((2, 8)), np.zeros((1, 8)), np.zeros(7)],
                             ids=["two-rows", "one-2d-row", "short"])
    def test_inputs_must_be_one_row(self, inputs):
        chip = make_chip()
        k = channel(chip.topology, (6, 0), THETA)
        reads = [lambda: chip.read_detectors(inputs),
                 lambda: chip.sweep_channel(k, np.array([0.0]), inputs),
                 lambda: chip.sweep_channel(k, np.array([0.0, 1.0]), inputs),
                 lambda: chip.sawtooth_sweep({k: 1}, inputs)]
        for read in reads:
            with pytest.raises(ValueError, match="inputs must be one row of 8 amplitudes"):
                read()

    @pytest.mark.parametrize("seed", [True, 2.5, -1, np.float64(3.0), "3"])
    def test_sawtooth_seed_must_be_a_non_negative_integer(self, seed):
        # as EmuConfig's seed; the chip's own noise stream is untouched
        chip = make_chip(detector=paper_detector_model())
        k = channel(chip.topology, (6, 0), THETA)
        state = chip._noise_rng.bit_generator.state
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            chip.sawtooth_sweep({k: 1}, input_vec(1), seed=seed)
        assert chip._noise_rng.bit_generator.state == state
        # a numpy integer is an integer seed
        raw = chip.sawtooth_sweep({k: 1}, input_vec(1), seed=np.int64(3))
        assert np.array_equal(raw.outputs, chip.sawtooth_sweep({k: 1}, input_vec(1), seed=3).outputs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), 1e200])
    def test_inputs_must_be_finite(self, bad):
        chip = make_chip(detector=paper_detector_model())
        k = channel(chip.topology, (6, 0), THETA)
        inputs = input_vec(1)
        inputs[3] = bad
        reads = [lambda: chip.read_detectors(inputs),
                 lambda: chip.sweep_channel(k, np.array([0.0]), inputs),
                 lambda: chip.sweep_channel(k, np.array([0.0, 1.0]), inputs),
                 lambda: chip.sawtooth_sweep({k: 1}, inputs)]
        for read in reads:
            with pytest.raises(ValueError, match="inputs must be finite amplitudes"):
                read()
        # a rejected input is not kept: the next read of it is checked again
        with pytest.raises(ValueError, match="inputs must be finite"):
            chip.read_detectors(inputs)


class TestSawtoothSweep:
    def test_default_shape(self):
        chip = make_chip()
        raw = chip.sawtooth_sweep({channel(chip.topology, (6, 0), PHI): 1}, input_vec(1))
        assert raw.outputs.shape == (5, 125, 8)
        assert raw.volts.shape == (125,)
        assert raw.volts[0] == -25.0 and raw.volts[-1] == 25.0

    def test_fringe_matches_closed_form(self):
        # lone Hadamard under sweep follows the two-input fringe law
        from oracles import fringe_curve

        chip = make_chip(offset_scale=0.0, seed=2)
        frame = {(n, THETA): 25.0 for n in mesh.MeshTopology(8).nodes()}
        frame[((0, 0), THETA)] = 12.5
        chip.set_frame(drive(chip, frame))
        inputs = input_vec(1) + input_vec(2)
        raw = chip.sawtooth_sweep({channel(chip.topology, (6, 0), PHI): 1}, inputs)
        u = chip._true_transfer()
        alpha = chip.config.actuator.phase(raw.volts)
        for port in (1, 2):
            avg = raw.outputs.mean(axis=0)[:, port - 1]
            # the sweep advances port 1 by +f/2 and port 2 by -f/2
            expect = fringe_curve(u, (1, 2), port, alpha)
            assert np.max(np.abs(avg - expect)) < 1e-10

    def test_restores_state(self):
        chip = make_chip()
        k = channel(chip.topology, (6, 0), PHI)
        chip.set_frame(drive(chip, {((6, 0), PHI): 3.0}))
        chip.sawtooth_sweep({k: 1}, input_vec(1))
        assert chip._volts[k] == 3.0

    def test_invalid_channel_and_polarity(self):
        chip = make_chip()
        with pytest.raises(ValueError, match="empty channel map"):
            chip.sawtooth_sweep({}, input_vec(1))
        with pytest.raises(KeyError):
            chip.sawtooth_sweep({2 * len(chip.node_index): 1}, input_vec(1))
        with pytest.raises(ValueError):
            chip.sawtooth_sweep({channel(chip.topology, (6, 0), PHI): 2}, input_vec(1))


class TestHiddenState:
    def test_public_surface_is_frozen(self):
        chip = make_chip(offset_scale=1.0, seed=9)
        public = {name for name in dir(chip) if not name.startswith("_")}
        assert public == set(EmulatedChip.PUBLIC_API)

    def test_public_layout_matches_readings(self):
        chip = make_chip(offset_scale=1.0, seed=9)
        assert chip.topology == mesh.MeshTopology(8)
        assert sorted(chip.node_index.values()) == list(range(28))
        assert set(chip.node_index) == set(chip.topology.nodes())
        _, mons = read_exact(chip, np.eye(8, dtype=complex)[0])
        assert mons.shape[0] == len(chip.node_index)

    def test_only_the_emulator_reads_chip_internals(self):
        package = Path(mzmesh.__file__).parent
        offenders = [
            f"{path.name}:{k}"
            for path in sorted(package.rglob("*.py"))
            if path.name != "emulator.py"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if "chip._" in line
        ]
        assert offenders == []

    def test_offsets_not_in_repr(self):
        chip = make_chip(offset_scale=1.0, seed=9)
        assert not any(f"{v}" in repr(chip) for v in chip._offsets.ravel().tolist())

    def test_readings_do_not_expose_offsets_directly(self):
        # two chips with different offsets but identical optics elsewhere
        # differ only through their optical readings
        a = make_chip(offset_scale=1.0, seed=1)
        b = make_chip(offset_scale=1.0, seed=2)
        assert a.node_index == b.node_index
        assert not np.array_equal(
            read_exact(a, input_vec(1))[0], read_exact(b, input_vec(1))[0]
        )


class TestEmuSerialization:
    def test_chip_from_files(self, tmp_path):
        from mzmesh.emulator import load_chip, save_emu
        from mzmesh.mesh import save_mesh

        save_mesh(mesh.nominal_mesh(8), tmp_path / "mesh.json")
        save_emu(EmuConfig(offset_scale=0.0, seed=12), tmp_path / "emu.json")
        chip = load_chip(tmp_path / "mesh.json", tmp_path / "emu.json")
        assert chip.n_modes == 8
        assert chip.config.seed == 12

    def test_round_trip(self):
        cfg = EmuConfig(
            actuator=ActuatorModel(v_pi=24.0, nonlinearity=1e-4),
            detector=paper_detector_model(),
            offset_scale=0.7,
            seed=13,
        )
        assert emu_from_dict(emu_to_dict(cfg)) == cfg

    def test_schema_tag(self):
        d = emu_to_dict(EmuConfig())
        assert d["schema"] == "emu-v1"
        d["schema"] = "zzz"
        with pytest.raises(ValueError):
            emu_from_dict(d)
