"""Phase sweeps, interference contrasts, link fidelities and |U| reconstruction.

The two-input phase sweep drives the external shifters of the input-column
MZIs with opposite polarities, so the differential phase between the two
lit inputs ramps through a full turn per sawtooth period.  The resulting
fringes at the pair's Hadamard outputs

    I_n/I0 = |u_ni|^2 + |u_nj|^2 + 2 |u_ni||u_nj| cos(alpha)
    I_m/I0 = |u_mi|^2 + |u_mj|^2 + 2 |u_mi||u_mj| cos(alpha + phi_mj)

yield the contrasts ``C = min(I)/max(I)`` and, through

    F = sqrt(1 / (1 + C)),

the optical link fidelity of the heralded Bell pair; ``phi_mj`` is the
residual fringe offset of the minus output, measured by least-squares
cosine fit and used both for Bell-state phase correction and for the
collection-efficiency ratio ``gamma_nm = max(I_n)/max(I_m)`` entering the
unitary-magnitude reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import artifact
from .calibration import CalibrationRecord, fringe_fit
from .compiler import CircuitSpec, Pair, sweep_shifter_nodes
from .emulator import PHI, EmulatedChip, channel

MET_SCHEMA = "met-v1"


@dataclass
class PhaseSweepTrace:
    """Averaged two-input fringe data and the quantities extracted from it."""

    pair: Pair
    outputs: Pair  # (n, m), 1-based
    volts: np.ndarray  # (n_points,)
    alpha_nominal: np.ndarray  # (n_points,) actuator phase of the ramp
    raw: np.ndarray  # (periods, n_points, n_modes)
    averaged: np.ndarray  # (n_points, n_modes)
    c_plus: float
    c_minus: float
    phi_mj: float
    max_in: float
    max_im: float
    reliable: bool

    def to_csv(self, path) -> None:
        artifact.write_csv(path, ["alpha_index", "period", "output_port", "power"],
                           [[k, p, ch + 1, power] for (k, p, ch), power
                            in np.ndenumerate(self.raw.transpose(1, 0, 2))])


def _cosine_fit(alpha: np.ndarray, power: np.ndarray) -> tuple[float, float]:
    """Amplitude B and phase psi of the fringe ``power ~ a0 + B cos(alpha + psi)``."""
    _, ac, as_ = fringe_fit(alpha, power)
    return float(math.hypot(ac, as_)), float(math.atan2(-as_, ac))


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


def _contrast(curve: np.ndarray) -> float:
    top = float(curve.max())
    if top <= 0.0:
        return 0.0
    return float(min(max(curve.min() / top, 0.0), 1.0))


def run_phase_sweep(
    chip: EmulatedChip,
    record: CalibrationRecord,
    circuit: CircuitSpec,
    pair: Pair,
    seed: int | None = None,
) -> PhaseSweepTrace:
    """Sweep a pair's differential input phase and extract fringe contrasts.

    The circuit is assumed programmed from the record (the swept external
    channels idle at 0 V in circuit frames).  The sweep is the chip's one
    sawtooth: ``SAWTOOTH_VPP`` (50 V peak to peak), ``SAWTOOTH_POINTS``
    (125) points per period over ``SAWTOOTH_PERIODS`` (5) periods.
    Contrasts use the direct min/max of the period-averaged curve with no
    interpolation, so a fringe whose extrema fall between samples carries
    an O((pi / 124)^2) contrast bias; the minus-output fringe
    offset ``phi_mj`` comes from cosine fits of both outputs against the
    nominal actuator phase ramp.
    """
    if pair not in circuit.outputs:
        raise ValueError(f"pair {pair} is not routed by this circuit")
    topo = chip.topology
    chans = {channel(topo, node, PHI): pol
             for node, pol in sweep_shifter_nodes(pair, circuit).items()}
    inputs = np.zeros(topo.n_modes, dtype=complex)
    inputs[pair[0] - 1] = 1.0
    inputs[pair[1] - 1] = 1.0

    raw = chip.sawtooth_sweep(chans, inputs, seed=seed)
    averaged = raw.outputs.mean(axis=0)
    n_out, m_out = circuit.outputs[pair]
    curve_n = averaged[:, n_out - 1]
    curve_m = averaged[:, m_out - 1]
    alpha = chip.config.actuator.phase(raw.volts)

    amp_n, psi_n = _cosine_fit(alpha, curve_n)
    amp_m, psi_m = _cosine_fit(alpha, curve_m)
    floor = chip.config.detector.additive_floor
    reliable = min(amp_n, amp_m) > max(4.0 * floor, 1e-14)

    return PhaseSweepTrace(
        pair=pair,
        outputs=(n_out, m_out),
        volts=raw.volts,
        alpha_nominal=alpha,
        raw=raw.outputs,
        averaged=averaged,
        c_plus=_contrast(curve_n),
        c_minus=_contrast(curve_m),
        phi_mj=_wrap(psi_m - psi_n),
        max_in=float(curve_n.max()),
        max_im=float(curve_m.max()),
        reliable=reliable,
    )


def link_fidelity(contrast: float) -> float:
    """Optical link fidelity of a heralded Bell state from fringe contrast."""
    if not 0.0 <= contrast <= 1.0:
        raise ValueError(f"contrast must lie in [0, 1], got {contrast}")
    return math.sqrt(1.0 / (1.0 + contrast))


@dataclass
class LinkReport:
    """Per-pair link fidelities for the two heralding detectors."""

    pair: Pair
    outputs: Pair
    c_plus: float
    c_minus: float
    phi_mj: float
    f_plus: float
    f_minus: float
    f_minus_uncorrected: float
    gamma_nm: float
    reliable: bool = True

    @classmethod
    def from_trace(cls, trace: PhaseSweepTrace) -> "LinkReport":
        # Without the measured-phase target correction the minus-state
        # fidelity retains an explicit cos(phi_mj) dependence.
        ratio = (1.0 - trace.c_minus) / (1.0 + trace.c_minus)
        uncorr = math.sqrt(max(1.0 - math.cos(trace.phi_mj) * ratio, 0.0) / 2.0)
        return cls(
            pair=trace.pair,
            outputs=trace.outputs,
            c_plus=trace.c_plus,
            c_minus=trace.c_minus,
            phi_mj=trace.phi_mj,
            f_plus=link_fidelity(trace.c_plus),
            f_minus=link_fidelity(trace.c_minus),
            f_minus_uncorrected=uncorr,
            gamma_nm=trace.max_in / trace.max_im if trace.max_im > 0 else math.inf,
            reliable=trace.reliable,
        )


@dataclass
class UnitaryEstimate:
    """Column-normalised |u| magnitudes reconstructed from intensity data."""

    magnitudes: np.ndarray  # (n, n), |u_out,in|
    column_totals: np.ndarray  # detected power per input before normalisation
    fidelity: float | None = None


def reconstruct_unitary(
    chip: EmulatedChip,
    record: CalibrationRecord,
    circuit: CircuitSpec,
    traces: dict[Pair, PhaseSweepTrace],
) -> UnitaryEstimate:
    """Estimate |U| by single-input intensity vectors with pair corrections.

    Each output pair's minus channel is scaled by ``gamma_nm`` from that
    pair's phase sweep to cancel collection-efficiency imbalance, then each
    input's vector is normalised by its total detected power.  Each input
    takes one detector read.
    """
    topo = chip.topology
    n = topo.n_modes
    gamma: dict[int, float] = {}
    for pair, (n_out, m_out) in circuit.outputs.items():
        if pair not in traces:
            raise ValueError(f"missing phase sweep for pair {pair}")
        t = traces[pair]
        if t.max_im <= 0:
            raise ValueError(f"pair {pair}: minus-output fringe carries no power")
        gamma[m_out - 1] = t.max_in / t.max_im

    mags = np.zeros((n, n))
    totals = np.zeros(n)
    for j in range(n):
        inputs = np.zeros(n, dtype=complex)
        inputs[j] = 1.0
        vec = chip.read_detectors(inputs)[0] + 0.0  # a copy, with -0.0 read as 0.0
        for m_idx, g in gamma.items():
            vec[m_idx] *= g
        total = float(vec.sum())
        totals[j] = total
        if total > 0:
            mags[:, j] = np.sqrt(vec / total)
    return UnitaryEstimate(magnitudes=mags, column_totals=totals)


def unitary_fidelity(u_ideal: np.ndarray, u_exp_magnitudes: np.ndarray) -> float:
    """Magnitude fidelity (1/N) Tr(|U_ideal^dag| |U_exp|)."""
    a = np.abs(np.asarray(u_ideal))
    b = np.abs(np.asarray(u_exp_magnitudes))
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b) / a.shape[0])


# ---------------------------------------------------------------------------
# met-v1 JSON
# ---------------------------------------------------------------------------


def links_to_dict(reports: list[LinkReport]) -> dict:
    return {
        "schema": MET_SCHEMA,
        "links": [asdict(r) for r in reports],
    }


def estimate_to_dict(est: UnitaryEstimate) -> dict:
    return {
        "schema": MET_SCHEMA,
        "magnitudes": est.magnitudes.tolist(),
        "column_totals": est.column_totals.tolist(),
        "fidelity": est.fidelity,
    }


def save_links(reports: list[LinkReport], path) -> None:
    artifact.write(path, links_to_dict(reports))


def save_estimate(est: UnitaryEstimate, path) -> None:
    artifact.write(path, estimate_to_dict(est))
