import math

import numpy as np
import pytest

from mzmesh import calibration as cal
from mzmesh import mesh, runner
from mzmesh.emulator import EmuConfig, EmulatedChip


class TestRunCircuit:
    def test_uncalibrated_nodes_rejected(self, default_circuits):
        chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=0.0, seed=0))
        empty = cal.CalibrationRecord()
        with pytest.raises(cal.CalibrationError, match="uncalibrated"):
            runner.run_circuit(chip, empty, default_circuits["1"])

    def test_result_carries_32_values_over_four_circuits(self):
        summary, record, results = runner.run_chip(
            mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=31)
        )
        assert len(summary.link_f) == 32
        assert set(summary.unitary_f) == {"1", "2", "3", "4"}
        for result in results:
            assert len(result.links) == 4
            assert result.estimate.magnitudes.shape == (8, 8)
            cols = np.sum(result.estimate.magnitudes**2, axis=0)
            assert np.allclose(cols, 1.0, atol=1e-9)


class TestCircuitFailures:
    def test_failed_hadamard_keeps_the_other_circuits(self, unbalance):
        chip_args = (mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=31))
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


class TestMonteCarlo:
    def test_deterministic_summary(self):
        a = runner.monte_carlo(trials=2, seed=55)
        b = runner.monte_carlo(trials=2, seed=55)
        assert a == b

    def test_noise_override(self):
        quiet = mesh.NoiseSpec()  # no spread at all
        mc = runner.monte_carlo(trials=1, seed=9, noise=quiet)
        assert mc["link_f_min"] > 0.999
