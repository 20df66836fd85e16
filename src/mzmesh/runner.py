"""End-to-end experiment orchestration shared by the CLI and the test rig."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import calibration as cal
from . import compiler, metrology
from .compiler import CircuitSpec, Pair
from .emulator import EmuConfig, EmulatedChip, paper_detector_model
from .mesh import (
    DEFAULT_TAP_DB,
    MeshState,
    NoiseSpec,
    node_label,
    nominal_mesh,
    paper_noise_spec,
    perturb,
    uniform_loss_mesh,
)

#: The paper's four entanglement circuits, run on every chip by default.
DEFAULT_CIRCUITS = ("1", "2", "3", "4")


def build_mesh(noise: NoiseSpec | None, seed: int, n_modes: int = 8) -> MeshState:
    """Sample a chip's optical state: the nominal chip when noise is None,
    otherwise the perturbed uniform-loss chip."""
    if noise is None:
        return nominal_mesh(n_modes)
    base_db = noise.loss_db_mean if noise.loss_db_mean is not None else DEFAULT_TAP_DB
    tap_db = noise.tap_db if noise.tap_db is not None else DEFAULT_TAP_DB
    base = uniform_loss_mesh(n_modes, loss_db_per_depth=max(base_db, tap_db), tap_db=tap_db)
    return perturb(base, noise, seed)


def paper_emu_config(seed: int) -> EmuConfig:
    return EmuConfig(detector=paper_detector_model(), offset_scale=1.0, seed=seed)


@dataclass
class CircuitResult:
    name: str
    links: list[metrology.LinkReport]
    estimate: metrology.UnitaryEstimate
    traces: dict[Pair, metrology.PhaseSweepTrace]  # the sweeps behind ``links``


def prepare_circuit(chip: EmulatedChip, record: cal.CalibrationRecord, spec: CircuitSpec) -> None:
    """Calibrate a circuit's groups and Hadamards and program it, once its
    mode count is the chip's (else ``ValueError``) and the record holds
    every node it drives."""
    if spec.n_modes != chip.n_modes:
        raise ValueError(f"circuit {spec.name!r} has {spec.n_modes} modes but "
                         f"the chip has {chip.n_modes}")
    missing = [n for n in spec.gates if n not in record.nodes]
    if missing:
        raise cal.CalibrationError(
            f"uncalibrated nodes: {', '.join(node_label(n) for n in sorted(missing))}"
        )
    cal.calibrate_circuit(chip, record, spec)
    cal.program_circuit(chip, record, spec)


def run_circuit(chip: EmulatedChip, record: cal.CalibrationRecord,
                spec: CircuitSpec) -> CircuitResult:
    """Prepare a circuit (:func:`prepare_circuit`), sweep every pair and
    reconstruct the unitary magnitudes."""
    prepare_circuit(chip, record, spec)
    traces: dict[Pair, metrology.PhaseSweepTrace] = {}
    for pair in spec.matching:
        traces[pair] = metrology.run_phase_sweep(chip, record, spec, pair)
    reports = [metrology.LinkReport.from_trace(traces[p]) for p in spec.matching]
    estimate = metrology.reconstruct_unitary(chip, record, spec, traces)
    estimate.fidelity = metrology.unitary_fidelity(
        compiler.ideal_circuit_magnitudes(spec), estimate.magnitudes
    )
    return CircuitResult(name=spec.name, links=reports, estimate=estimate, traces=traces)


@dataclass
class ChipSummary:
    """One chip's results: ``failures`` counts the nodes that calibration
    gave up on, and ``circuit_failures`` maps each circuit that could not
    be prepared to the reason (a node it drives that calibration gave up
    on, or Hadamards that could not be balanced); such a circuit has no
    results."""

    seed: int
    link_f: list[float] = field(default_factory=list)
    unitary_f: dict[str, float] = field(default_factory=dict)
    group_extinctions_db: list[float] = field(default_factory=list)
    failures: int = 0
    circuit_failures: dict[str, str] = field(default_factory=dict)


def run_chip(
    mesh_state: MeshState,
    emu: EmuConfig,
    circuits: dict[str, CircuitSpec],
) -> tuple[ChipSummary, cal.CalibrationRecord, list[CircuitResult]]:
    """Full bring-up and measurement of one chip across the default circuits
    of ``circuits``; a circuit that cannot be prepared (a
    :class:`~mzmesh.calibration.CalibrationError`) is recorded in the
    summary and the next circuit runs."""
    chip = EmulatedChip(mesh_state, emu)
    record = cal.calibrate_full_mesh(chip)
    summary = ChipSummary(seed=emu.seed, failures=len(record.failures))
    results = []
    for name in DEFAULT_CIRCUITS:
        try:
            result = run_circuit(chip, record, circuits[name])
        except cal.CalibrationError as exc:
            summary.circuit_failures[name] = str(exc)
            continue
        results.append(result)
        summary.link_f.extend(f for r in result.links for f in (r.f_plus, r.f_minus))
        summary.unitary_f[name] = result.estimate.fidelity
    summary.group_extinctions_db = [g.extinction_db for g in record.groups.values()]
    return summary, record, results


def stat_or_nan(reduce, values: list[float]) -> float:
    """``reduce`` of ``values``, or NaN when every circuit failed."""
    return float(reduce(values)) if values else math.nan


def monte_carlo(trials: int, seed: int, noise: NoiseSpec | None) -> dict:
    """Seeded ensemble of chips through calibration and the default
    circuits, with paper noise when ``noise`` is None."""
    noise = noise if noise is not None else paper_noise_spec()
    circuits = compiler.ohqe_circuits()
    chips = []
    for t in range(trials):
        chip_seed = seed + t
        mesh_state = build_mesh(noise, seed=chip_seed)
        emu = paper_emu_config(seed=chip_seed)
        summary, _, _ = run_chip(mesh_state, emu, circuits=circuits)
        chips.append(summary)
    link_all = [f for c in chips for f in c.link_f]
    unitary_all = [f for c in chips for f in c.unitary_f.values()]
    ext_all = [e for c in chips for e in c.group_extinctions_db]
    return {
        "trials": trials,
        "seed": seed,
        "link_f_mean": stat_or_nan(np.mean, link_all),
        "link_f_std": stat_or_nan(np.std, link_all),
        "link_f_min": stat_or_nan(np.min, link_all),
        "per_chip_min_f": [stat_or_nan(np.min, c.link_f) for c in chips],
        "unitary_f_min": stat_or_nan(np.min, unitary_all),
        "unitary_f_max": stat_or_nan(np.max, unitary_all),
        "unitary_f": {
            name: [c.unitary_f.get(name, math.nan) for c in chips] for name in DEFAULT_CIRCUITS
        },
        "group_extinction_db": ext_all,
        "chips": [
            {
                "seed": c.seed,
                "link_f": c.link_f,
                "unitary_f": c.unitary_f,
                "failures": c.failures,
                "circuit_failures": c.circuit_failures,
            }
            for c in chips
        ],
    }
