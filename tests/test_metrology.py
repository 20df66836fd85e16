import math

import numpy as np
import pytest

from mzmesh import calibration as cal
from mzmesh import compiler, mesh, metrology
from mzmesh.emulator import EmuConfig, EmulatedChip
from mzmesh.metrology import (
    LinkReport,
    link_fidelity,
    reconstruct_unitary,
    run_phase_sweep,
    unitary_fidelity,
)

from oracles import exact_circuit_frame, fringe_curve, haar_unitary


@pytest.fixture(scope="module")
def swept_ideal(ideal_calibrated, default_circuits):
    chip, record = ideal_calibrated
    spec = default_circuits["1"]
    cal.calibrate_circuit(chip, record, spec)
    cal.program_circuit(chip, record, spec)
    traces = {p: run_phase_sweep(chip, record, spec, p) for p in spec.matching}
    return chip, record, spec, traces


class TestPhaseSweep:
    def test_ideal_hadamard_contrast_zero(self, swept_ideal):
        _, _, _, traces = swept_ideal
        for trace in traces.values():
            assert trace.c_plus == pytest.approx(0.0, abs=1e-9)
            assert trace.c_minus == pytest.approx(0.0, abs=1e-9)
            assert abs(trace.phi_mj) == pytest.approx(np.pi, abs=1e-6)
            assert trace.reliable

    def test_contrast_from_imbalanced_magnitudes(self):
        # |u_ni|^2 = 0.6, |u_nj|^2 = 0.4 gives C+ ~ 0.01020 (direct formula)
        a, b = math.sqrt(0.6), math.sqrt(0.4)
        alpha = np.linspace(-np.pi, np.pi, 125)
        curve = a**2 + b**2 + 2 * a * b * np.cos(alpha)
        c_plus = metrology._contrast(curve)
        expect = (a - b) ** 2 / (a + b) ** 2
        assert c_plus == pytest.approx(expect, abs=2e-4)
        assert expect == pytest.approx(0.010205, abs=1e-6)

    def test_noiseless_sweep_matches_closed_form_exact_programming(
        self, ideal_calibrated, default_circuits
    ):
        # exactly programmed circuit: the emulated fringe follows the
        # two-input law to machine precision
        chip, record = ideal_calibrated
        spec = default_circuits["1"]
        frame = exact_circuit_frame(spec)
        from mzmesh.emulator import VoltageFrame

        chip.set_frame(VoltageFrame(frame))
        for pair in spec.matching:
            trace = run_phase_sweep(chip, record, spec, pair)
            chip.set_frame(VoltageFrame(frame))
            u = chip._true_transfer()
            n_out, _ = trace.outputs
            expect = fringe_curve(u, pair, n_out, trace.alpha_nominal)
            assert np.max(np.abs(trace.averaged[:, n_out - 1] - expect)) < 1e-10
        chip.reset()

    def test_sweep_through_calibrated_routing(self, swept_ideal):
        # through 1 mV-calibrated routing the law holds to the residual
        # bar-leak level
        chip, record, spec, traces = swept_ideal
        cal.program_circuit(chip, record, spec)
        u = chip._true_transfer()
        for pair, trace in traces.items():
            n_out, m_out = trace.outputs
            avg_n = trace.averaged[:, n_out - 1]
            expect = fringe_curve(u, pair, n_out, trace.alpha_nominal)
            assert np.max(np.abs(avg_n - expect)) < 1e-8
        chip.reset()

    def test_fitted_phase_recovers_offsets(self, swept_ideal):
        # fit recovers the programmed fringe offsets to < 1e-6 rad
        chip, record, spec, traces = swept_ideal
        cal.program_circuit(chip, record, spec)
        u = chip._true_transfer()
        for pair, trace in traces.items():
            i, j = pair
            n_out, m_out = trace.outputs
            psi_n = np.angle(u[n_out - 1, i - 1]) - np.angle(u[n_out - 1, j - 1])
            psi_m = np.angle(u[m_out - 1, i - 1]) - np.angle(u[m_out - 1, j - 1])
            expect = metrology._wrap(psi_m - psi_n)
            assert abs(abs(trace.phi_mj) - abs(expect)) < 1e-6
        chip.reset()

    def test_unrouted_pair_rejected(self, swept_ideal):
        chip, record, spec, _ = swept_ideal
        with pytest.raises(ValueError):
            run_phase_sweep(chip, record, spec, (1, 3))

    def test_trace_csv(self, tmp_path, swept_ideal):
        _, _, _, traces = swept_ideal
        trace = next(iter(traces.values()))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha_index,period,output_port,power"
        assert len(lines) == 1 + 125 * 5 * 8


class TestLinkFidelity:
    def test_perfect_interference(self):
        assert link_fidelity(0.0) == 1.0

    def test_total_distinguishability(self):
        assert link_fidelity(1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_formula_consistency(self):
        assert link_fidelity(0.010205) == pytest.approx(0.99494, abs=1e-5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            link_fidelity(-0.1)
        with pytest.raises(ValueError):
            link_fidelity(1.5)

    def test_monotone_decreasing(self):
        c = np.linspace(0, 1, 101)
        f = [link_fidelity(x) for x in c]
        assert np.all(np.diff(f) < 0)

    def test_contrast_overlap_equivalence(self, rng):
        # fidelity from contrast equals the amplitude-overlap form
        for _ in range(10_000):
            r = rng.uniform(0.05, 1.0)
            frac = rng.uniform(0.01, 0.99)
            a = math.sqrt(r * frac)
            b = math.sqrt(r * (1 - frac))
            c = (a - b) ** 2 / (a + b) ** 2
            overlap = math.sqrt((a + b) ** 2 / (2 * (a**2 + b**2)))
            assert abs(link_fidelity(c) - overlap) < 1e-12

    def test_uncorrected_minus_form(self):
        # Fig-4-style secondary output keeps the cos(phi_mj) dependence
        report = LinkReport(
            pair=(1, 2), outputs=(1, 2), c_plus=0.0, c_minus=0.0, phi_mj=np.pi,
            f_plus=1.0, f_minus=1.0,
            f_minus_uncorrected=math.sqrt((1 - math.cos(np.pi)) / 2),
            gamma_nm=1.0,
        )
        assert report.f_minus_uncorrected == pytest.approx(1.0, abs=1e-12)


class TestReconstruction:
    def test_uniform_gains_recover_true_magnitudes(self, swept_ideal):
        chip, record, spec, traces = swept_ideal
        cal.program_circuit(chip, record, spec)
        est = reconstruct_unitary(chip, record, spec, traces)
        u = chip._true_transfer()
        # lossless apart from uniform taps: column-normalised |u| matches
        assert np.max(np.abs(est.magnitudes - np.abs(u) / np.linalg.norm(u[:, 0]))) < 1e-9
        chip.reset()

    def test_gamma_definition(self, swept_ideal):
        _, _, _, traces = swept_ideal
        t = next(iter(traces.values()))
        t2 = metrology.PhaseSweepTrace(
            pair=t.pair, outputs=t.outputs, volts=t.volts, alpha_nominal=t.alpha_nominal,
            raw=t.raw, averaged=t.averaged, c_plus=t.c_plus, c_minus=t.c_minus,
            phi_mj=t.phi_mj, max_in=2.0, max_im=1.0, reliable=True,
        )
        assert LinkReport.from_trace(t2).gamma_nm == 2.0

    def test_gain_correction_recovers_magnitudes(self, default_circuits):
        # collection gains (1.0, 0.7, ...) leave the corrected estimate
        # within 1e-6 of the true |U| (noiseless, exactly programmed)
        from mzmesh.emulator import VoltageFrame

        state = mesh.nominal_mesh(8)
        gains = np.array([1.0, 0.7, 1.0, 0.9, 1.3, 1.0, 0.8, 1.1])
        state.output_gains = gains
        chip = EmulatedChip(state, EmuConfig(offset_scale=0.0, seed=17))
        record = cal.calibrate_full_mesh(chip)
        spec = default_circuits["1"]
        frame = VoltageFrame(exact_circuit_frame(spec))
        chip.set_frame(frame)
        traces = {}
        for p in spec.matching:
            traces[p] = run_phase_sweep(chip, record, spec, p)
            chip.set_frame(frame)
        est = reconstruct_unitary(chip, record, spec, traces)
        u = np.abs(chip._true_transfer())
        u_norm = u / np.sqrt(np.sum(u**2, axis=0, keepdims=True))
        assert np.max(np.abs(est.magnitudes - u_norm)) < 1e-6
        chip.reset()

    def test_gain_invariance_of_reports(self, default_circuits):
        # scaling one output channel's gain changes no reported C, F or |u|
        results = []
        for extra in (1.0, 3.0):
            state = mesh.nominal_mesh(8)
            state.output_gains = np.ones(8)
            state.output_gains[1] = extra
            chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=23))
            record = cal.calibrate_full_mesh(chip)
            spec = default_circuits["1"]
            cal.calibrate_circuit(chip, record, spec)
            cal.program_circuit(chip, record, spec)
            traces = {p: run_phase_sweep(chip, record, spec, p) for p in spec.matching}
            cal.program_circuit(chip, record, spec)
            est = reconstruct_unitary(chip, record, spec, traces)
            reports = [LinkReport.from_trace(traces[p]) for p in spec.matching]
            results.append((est.magnitudes, reports))
            chip.reset()
        (m1, r1), (m2, r2) = results
        assert np.max(np.abs(m1 - m2)) < 1e-9
        for a, b in zip(r1, r2):
            assert a.c_plus == pytest.approx(b.c_plus, abs=1e-9)
            assert a.f_minus == pytest.approx(b.f_minus, abs=1e-9)

    def test_missing_sweep_rejected(self, swept_ideal):
        chip, record, spec, traces = swept_ideal
        partial = dict(traces)
        partial.pop(spec.matching[0])
        with pytest.raises(ValueError):
            reconstruct_unitary(chip, record, spec, partial)


class TestUnitaryFidelity:
    def test_identical_matrices(self, rng):
        u = haar_unitary(8, rng)
        assert unitary_fidelity(u, np.abs(u)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_magnitude_degenerate_case(self):
        # two-entry 1/sqrt2 ideal columns against uniform 1/sqrt8 gives 0.5:
        # per column 2 * (1/sqrt2) * (1/sqrt8) = 0.5
        ideal = compiler.ideal_circuit_magnitudes(
            compiler.route_matching([(1, 2), (3, 4), (5, 6), (7, 8)])
        )
        uniform = np.full((8, 8), 1 / math.sqrt(8))
        assert unitary_fidelity(ideal, uniform) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            unitary_fidelity(np.eye(8), np.eye(4))


class TestMetJson:
    def test_links_round_trip_schema(self, tmp_path, swept_ideal):
        _, _, spec, traces = swept_ideal
        reports = [LinkReport.from_trace(traces[p]) for p in spec.matching]
        path = tmp_path / "links.json"
        metrology.save_links(reports, path)
        import json

        data = json.loads(path.read_text())
        assert data["schema"] == "met-v1"
        assert len(data["links"]) == 4
