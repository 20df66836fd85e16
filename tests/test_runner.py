import dataclasses
import math

import numpy as np
import pytest

from mzmesh import calibration as cal
from mzmesh import mesh, runner
from mzmesh.emulator import EmuConfig, EmulatedChip, paper_detector_model


class TestRunCircuit:
    def test_uncalibrated_nodes_rejected(self, default_circuits):
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=0.0, seed=0))
        empty = cal.CalibrationRecord()
        with pytest.raises(cal.CalibrationError, match="uncalibrated"):
            runner.run_circuit(chip, empty, default_circuits["1"])

    @pytest.mark.parametrize("n_modes", [6, 10])
    def test_circuit_of_other_mode_count_rejected(self, n_modes, default_circuits):
        # a calibrated chip of another mode count: the circuit is refused
        # before it touches the chip, not for nodes or channels it lacks
        chip = EmulatedChip(mesh.nominal_mesh(n_modes),
                            EmuConfig(detector=paper_detector_model(), seed=5))
        record = cal.calibrate_full_mesh(chip)
        volts, stream = chip._volts, chip._noise_rng.bit_generator.state
        with pytest.raises(ValueError, match=f"circuit '1' has 8 modes but the chip has {n_modes}"):
            runner.run_circuit(chip, record, default_circuits["1"])
        assert chip._volts is volts and chip._noise_rng.bit_generator.state == stream

    def test_result_carries_32_values_over_four_circuits(self, default_circuits):
        summary, record, results = runner.run_chip(
            mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=31), default_circuits
        )
        assert len(summary.link_f) == 32
        assert set(summary.unitary_f) == {"1", "2", "3", "4"}
        for result in results:
            assert len(result.links) == 4
            assert result.estimate.magnitudes.shape == (8, 8)
            cols = np.sum(result.estimate.magnitudes**2, axis=0)
            assert np.allclose(cols, 1.0, atol=1e-9)


class TestCircuitFailures:
    def test_failed_hadamard_keeps_the_other_circuits(self, unbalance, default_circuits):
        chip_args = (mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=31), default_circuits)
        want, _, want_results = runner.run_chip(*chip_args)
        unbalance("2")
        summary, record, results = runner.run_chip(*chip_args)
        assert list(summary.circuit_failures) == ["2"]
        assert "(forced)" in summary.circuit_failures["2"]
        assert summary.failures == len(record.failures) == 0
        assert [r.name for r in results] == ["1", "3", "4"]
        assert summary.unitary_f == {name: want.unitary_f[name] for name in ("1", "3", "4")}
        assert summary.link_f == [f for r in want_results if r.name != "2"
                                  for link in r.links for f in (link.f_plus, link.f_minus)]

    def test_monte_carlo_carries_the_failure(self, unbalance):
        unbalance("2")
        mc = runner.monte_carlo(trials=1, seed=9, noise=mesh.NoiseSpec())
        (chip,) = mc["chips"]
        assert list(chip["circuit_failures"]) == ["2"]
        assert set(chip["unitary_f"]) == {"1", "3", "4"}
        assert math.isnan(mc["unitary_f"]["2"][0])
        assert mc["unitary_f_min"] == min(chip["unitary_f"].values())
        assert len(chip["link_f"]) == 24

    def test_monte_carlo_with_no_circuit_left(self, unbalance):
        unbalance(*runner.DEFAULT_CIRCUITS)
        mc = runner.monte_carlo(trials=1, seed=9, noise=mesh.NoiseSpec())
        assert list(mc["chips"][0]["circuit_failures"]) == list(runner.DEFAULT_CIRCUITS)
        assert math.isnan(mc["link_f_min"]) and math.isnan(mc["unitary_f_max"])


    @pytest.mark.parametrize("seed, node", [(0, "U_0_1"), (13, "U_0_3")])
    def test_uncalibrated_node_fails_only_its_circuits(self, seed, node, default_circuits):
        # at 5.5 dB per depth calibration gives up on one output-pair node of
        # these paper chips; every default circuit drives it, so each is
        # recorded as failed and run_chip returns
        noise = dataclasses.replace(mesh.paper_noise_spec(), loss_db_mean=5.5)
        summary, record, results = runner.run_chip(
            runner.build_mesh(noise, seed), runner.paper_emu_config(seed), default_circuits)
        assert summary.failures == len(record.failures) == 1
        assert summary.circuit_failures == dict.fromkeys(
            runner.DEFAULT_CIRCUITS, f"uncalibrated nodes: {node}")
        assert results == [] and summary.link_f == [] and summary.unitary_f == {}


class TestMonteCarlo:
    def test_deterministic_summary(self):
        a = runner.monte_carlo(trials=2, seed=55, noise=None)
        b = runner.monte_carlo(trials=2, seed=55, noise=None)
        assert a == b

    def test_noise_override(self):
        quiet = mesh.NoiseSpec()  # no spread at all
        mc = runner.monte_carlo(trials=1, seed=9, noise=quiet)
        assert mc["link_f_min"] > 0.999
