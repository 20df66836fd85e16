"""Calibration of an emulated chip using only its electrical/optical interface.

The stack mirrors chip bring-up: establish a single-channel light path to
each MZI (diagonal or all-bar isolation), find its bar and cross voltages
from the pick-off monitors, tune double-MZI corrected crossings with a
phase sweep plus simplex refinement, and balance output Hadamards against
unequal collection efficiencies.  Everything discovered is persisted in a
:class:`CalibrationRecord` that can be reloaded to program circuits later.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifact
from .compiler import CircuitSpec, CorrectedCrossGroup, Gate
from .emulator import PHI, THETA, V_MAX, EmulatedChip, VoltageFrame, channel
from .mesh import MeshTopology, Node, node_label, parse_node_label

logger = logging.getLogger(__name__)

CAL_SCHEMA = "cal-v1"

COARSE_POINTS = 201
HADAMARD_XTOL_V = 1e-6
MIN_CONTRAST_DB = 3.0
MIN_MONITOR_POWER = 1e-9  # absolute darkness threshold (dead grating)
NM_MAX_EVALS = 500
NM_SIMPLEX_EDGE_V = 0.5
# The simplex stops at a 10 mV (1.3 mrad) window, about what the paper
# detector's floor resolves; a quiet objective then gets the polish restart,
# which reaches the theoretical extinction floor of a noiseless crossing.
NM_XATOL_V = 1e-2
NM_POLISH_XATOL_V = 1e-7
NM_POLISH_EDGE_V = 2e-3
# Objective readings that agree to within this power are quiet: the floor of
# the simplex spread stop, and the test that a polish restart can progress.
NM_QUIET_POWER = 1e-12
# Reads averaged per simplex evaluation.
NM_READS = 3
# Points of each of a Hadamard's two monitor sweeps over [cross_v, bar_v].
HADAMARD_POINTS = 25


class CalibrationError(RuntimeError):
    pass


class IsolationError(CalibrationError):
    pass


@dataclass(frozen=True)
class IsolationPath:
    """Programmed states that steer light from one input to a target node."""

    input_port: int  # 1-based
    target: Node
    nodes: tuple[Node, ...]  # upstream of target, ordered input -> output
    states: tuple[str, ...]  # "BAR" | "CROSS" per node
    arrival_arm: int  # 0 = target's top arm, 1 = bottom arm
    kind: str  # "diagonal" | "all-bar" | "mixed"


def _walk(topo: MeshTopology, input_port: int, choose_cross) -> list[tuple[Node, str, int]]:
    """Walk from the input column to column 0, recording (node, state, arm)."""
    port = input_port - 1
    visited = []
    for col in reversed(range(topo.n_columns)):
        node = topo.node_at(col, port)
        if node is None:
            continue
        top, _ = topo.node_ports(node)
        arm = 0 if port == top else 1
        if choose_cross(node):
            visited.append((node, "CROSS", arm))
            port = top + 1 if arm == 0 else top
        else:
            visited.append((node, "BAR", arm))
    return visited


# The straight walks: whether each kind crosses at every MZI it meets.
WALKS = {"diagonal": lambda node: True, "all-bar": lambda node: False}


def _walk_path(input_port: int, walk: list[tuple[Node, str, int]], k: int,
               kind: str) -> IsolationPath:
    """The isolation path to the ``k``-th node of a walk: the walk up to it."""
    target, _, arm = walk[k]
    return IsolationPath(
        input_port=input_port,
        target=target,
        nodes=tuple(n for n, _, _ in walk[:k]),
        states=tuple(s for _, s, _ in walk[:k]),
        arrival_arm=arm,
        kind=kind,
    )


def isolation_sequence(input_port: int, target_node: Node, topology: MeshTopology) -> IsolationPath:
    """Find a programming sequence isolating light onto one arm of a target:
    the all-bar walk (the input port held straight), then the diagonal walk
    (a cross at every MZI met), then a minimal-crossing mixed path."""
    topo = topology
    if not topo.has_node(target_node):
        raise ValueError(f"unknown node {node_label(target_node)}")
    if not 1 <= input_port <= topo.n_modes:
        raise ValueError(f"input port {input_port} outside 1..{topo.n_modes}")
    for kind in ("all-bar", "diagonal"):
        walk = _walk(topo, input_port, WALKS[kind])
        for k, (node, _, _) in enumerate(walk):
            if node == target_node:
                return _walk_path(input_port, walk, k, kind)
    return _bfs_isolation(topo, input_port, target_node)


def _bfs_isolation(topo: MeshTopology, input_port: int, target: Node) -> IsolationPath:
    """Minimal-crossing mixed path (BFS over (column, port) states)."""
    tcol = target[0]
    t_top, t_bot = topo.node_ports(target)
    start = (topo.n_columns - 1, input_port - 1)
    best: dict[tuple[int, int], tuple[int, list]] = {start: (0, [])}
    frontier = [start]
    while frontier:
        nxt = []
        for col, port in frontier:
            cost, seq = best[(col, port)]
            if col == tcol:
                continue
            node = topo.node_at(col, port)
            if node is None:
                moves = [(port, None)]
            else:
                top, _ = topo.node_ports(node)
                other = top + 1 if port == top else top
                moves = [(port, (node, "BAR")), (other, (node, "CROSS"))]
            for new_port, step in moves:
                extra = 1 if step and step[1] == "CROSS" else 0
                key = (col - 1, new_port)
                cand = (cost + extra, seq + ([step] if step else []))
                if key not in best or cand[0] < best[key][0]:
                    best[key] = cand
                    nxt.append(key)
        frontier = nxt
    for arm, port in ((0, t_top), (1, t_bot)):
        key = (tcol, port)
        if key in best:
            _, seq = best[key]
            return IsolationPath(
                input_port=input_port,
                target=target,
                nodes=tuple(n for n, _ in seq),
                states=tuple(s for _, s in seq),
                arrival_arm=arm,
                kind="mixed",
            )
    raise IsolationError(f"input {input_port} cannot reach {node_label(target)}")


# ---------------------------------------------------------------------------
# Calibration record
# ---------------------------------------------------------------------------


def _require_numbers(entry, *names) -> None:
    for name in names:
        value = getattr(entry, name)
        if not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a number, got {value!r}")


def _require_finite(entry, *names) -> None:
    for name in names:
        value = getattr(entry, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_int(entry, name, lo) -> None:
    value = getattr(entry, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ValueError(f"{name} must be an integer of at least {lo}, got {value!r}")


def _require_volts(entry, *names) -> None:
    for name in names:
        value = getattr(entry, name)
        if not abs(value) <= V_MAX:
            raise ValueError(f"{name} = {value} V is outside the +/- {V_MAX} V range")


@dataclass
class NodeCalibration:
    bar_v: float
    cross_v: float
    split_v: float | None = None
    bar_extinction_db: float = 0.0
    cross_extinction_db: float = 0.0
    input_port: int = 1
    arm: int = 0

    def __post_init__(self):
        # every field is a number; split_v alone may be None
        names = [k for k, v in vars(self).items() if v is not None or k != "split_v"]
        _require_numbers(self, *names)
        _require_volts(self, *(k for k in names if k.endswith("_v")))
        _require_finite(self, "bar_extinction_db", "cross_extinction_db")
        _require_int(self, "input_port", 1)
        _require_int(self, "arm", 0)
        if self.arm > 1:
            raise ValueError(f"arm must be 0 or 1, got {self.arm!r}")


@dataclass
class GroupCalibration:
    left: Node
    right: Node
    theta_l_v: float
    theta_r_v: float
    phi_r_v: float
    extinction_db: float
    n_evals: int = 0
    flagged: bool = False

    def __post_init__(self):
        _require_numbers(self, "theta_l_v", "theta_r_v", "phi_r_v", "extinction_db", "n_evals")
        _require_volts(self, "theta_l_v", "theta_r_v", "phi_r_v")
        _require_finite(self, "extinction_db")
        _require_int(self, "n_evals", 0)
        if not isinstance(self.flagged, bool):
            raise ValueError(f"flagged must be a bool, got {self.flagged!r}")


@dataclass
class CalibrationRecord:
    chip_id: str = ""
    timestamp: str = "1970-01-01T00:00:00Z"
    nodes: dict[Node, NodeCalibration] = field(default_factory=dict)
    groups: dict[tuple[Node, Node], GroupCalibration] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def require(self, node: Node) -> NodeCalibration:
        if node not in self.nodes:
            raise CalibrationError(f"{node_label(node)} is not calibrated")
        return self.nodes[node]

    def split_voltage(self, node: Node) -> float:
        cal = self.require(node)
        if cal.split_v is not None:
            return cal.split_v
        return (cal.bar_v + cal.cross_v) / 2.0


def record_to_dict(record: CalibrationRecord) -> dict:
    return {
        "schema": CAL_SCHEMA,
        "chip_id": record.chip_id,
        "timestamp": record.timestamp,
        "nodes": {node_label(n): asdict(c) for n, c in sorted(record.nodes.items())},
        "groups": [
            {**asdict(g), "left": node_label(g.left), "right": node_label(g.right)}
            for _, g in sorted(record.groups.items())
        ],
        "failures": [list(f) for f in record.failures],
    }


def record_from_dict(data: dict) -> CalibrationRecord:
    artifact.checked(data, CAL_SCHEMA)
    record = CalibrationRecord(chip_id=data["chip_id"], timestamp=data["timestamp"])
    for label, d in data["nodes"].items():
        record.nodes[parse_node_label(label)] = artifact.entry(NodeCalibration, d)
    for d in data["groups"]:
        g = artifact.entry(GroupCalibration, d, left=parse_node_label(d["left"]),
                   right=parse_node_label(d["right"]))
        record.groups[(g.left, g.right)] = g
    if not all(isinstance(f, list) and len(f) == 2 and all(isinstance(s, str) for s in f)
               for f in data["failures"]):
        raise ValueError(f"failures must be [node, reason] string pairs, got {data['failures']!r}")
    record.failures = [tuple(f) for f in data["failures"]]
    return record


def save_record(record: CalibrationRecord, path) -> None:
    artifact.write(path, record_to_dict(record))


def load_record(path) -> CalibrationRecord:
    return artifact.read(path, record_from_dict, "calibration")


# ---------------------------------------------------------------------------
# Per-MZI bar/cross calibration
# ---------------------------------------------------------------------------


def fringe_fit(phase: np.ndarray, curves: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``curves ~ c0 + c1 cos(phase) + c2 sin(phase)``:
    shaped (3,) for one curve, (3, k) for ``k`` curves in columns."""
    basis = np.column_stack([np.ones_like(phase), np.cos(phase), np.sin(phase)])
    return np.linalg.lstsq(basis, curves, rcond=None)[0]


def _ratio_peak(num: np.ndarray, den: np.ndarray) -> float:
    """Phase of the peak of the ratio of two fitted fringes, each (c0, c1, c2):
    a root of P sin + Q cos = -K, with P = a0 b1 - a1 b0, Q = a2 b0 - a0 b2
    and K = a2 b1 - a1 b2, or the denominator's own null where it reaches
    zero (b0 <= |(b1, b2)|)."""
    a0, a1, a2 = num
    b0, b1, b2 = den
    if b0 <= math.hypot(b1, b2):
        return math.atan2(b2, b1) + math.pi
    p, q, k = a0 * b1 - a1 * b0, a2 * b0 - a0 * b2, a2 * b1 - a1 * b2
    centre = math.atan2(p, q)
    half = math.acos(min(max(-k / max(math.hypot(p, q), 1e-300), -1.0), 1.0))

    def angle(phi):  # rises with the ratio while the denominator is positive
        c, s = math.cos(phi), math.sin(phi)
        return math.atan2(a0 + a1 * c + a2 * s, b0 + b1 * c + b2 * s)

    return max(centre - half, centre + half, key=angle)


def _path_frame(chip: EmulatedChip, record: CalibrationRecord, path: IsolationPath) -> np.ndarray:
    """The path's nodes at their calibrated states over a background that
    confines stray light: every other calibrated node at bar, the rest
    undriven."""
    values = np.zeros(2 * len(chip.node_index))
    for node in chip.topology.nodes():
        cal = record.nodes.get(node)
        if cal is not None:
            values[channel(chip.topology, node, THETA)] = cal.bar_v
    for node, state in zip(path.nodes, path.states):
        cal = record.require(node)
        v = cal.bar_v if state == "BAR" else cal.cross_v
        values[channel(chip.topology, node, THETA)] = v
    return values


def calibrate_mzi(chip: EmulatedChip, record: CalibrationRecord,
                  path: IsolationPath) -> NodeCalibration:
    """Find the bar and cross voltages of the path's target, lit at the
    path's input, from the target's own pick-off monitors.

    Coarse 201-point sweep of the node's theta channel over the drive range,
    then one least-squares fit of both arms' monitor curves on
    [1, cos phi, sin phi] (:func:`fringe_fit`), phi the actuator phase of
    the drive.  Each arm's drive is the closed-form peak of its fitted
    monitor over the other arm's fitted leak (:func:`_ratio_peak`), taken at
    the in-range drive nearest that arm's coarse peak whose phase matches
    modulo 2 pi.  The sweep returns only the node's own two monitor
    readings; the chip computes it through the node's light cone, the
    columns up to the node's own.  One single-point read at each drive
    gives its extinction.  A leak reading the detector clipped to zero is
    reported against that arm's lowest positive reading in the coarse
    sweep.  No leak is reported below the rounding of the lit arm's field,
    num * eps**2, so no extinction exceeds 10 log10(eps**-2) = 313 dB.  A node
    whose bar or cross extinction is not above 0 dB raises
    ``IsolationError`` and is not recorded: the arm the state should light
    is no brighter than the leak.
    """
    topo = chip.topology
    node, input_port = path.target, path.input_port
    theta = channel(topo, node, THETA)
    frame = _path_frame(chip, record, path)
    frame[theta] = 0.0
    chip.set_frame(VoltageFrame(frame))

    inputs = np.zeros(topo.n_modes, dtype=complex)
    inputs[input_port - 1] = 1.0
    bar_arm = path.arrival_arm
    cross_arm = 1 - bar_arm

    grid = np.linspace(-V_MAX, V_MAX, COARSE_POINTS)
    monitors = chip.sweep_channel(theta, grid, inputs)  # the node's own, (point, arm)
    bar_curve = monitors[:, bar_arm]
    cross_curve = monitors[:, cross_arm]

    if (bar_curve + cross_curve).max() < MIN_MONITOR_POWER:
        raise IsolationError(
            f"{node_label(node)}: monitors are dark, isolation or monitor broken"
        )
    swing_db = 10.0 * math.log10(
        max(bar_curve.max(), 1e-300) / max(bar_curve.min(), 1e-300)
    )
    if swing_db < MIN_CONTRAST_DB:
        raise IsolationError(
            f"{node_label(node)}: monitor swing {swing_db:.2f} dB < {MIN_CONTRAST_DB} dB, "
            "isolation or monitor broken"
        )

    # Both arms' readings are first-harmonic in the node's phase, so one
    # fit of the coarse curves gives each arm's ratio over the other's leak.
    phase = chip.config.actuator.phase(grid)
    fit = fringe_fit(phase, monitors)  # (coefficient, arm)
    # column a: arm a's monitor over the other arm's, along the coarse sweep
    ratio_curves = monitors / np.maximum(monitors[:, ::-1], 1e-300)
    coarse_peaks = grid[np.argmax(ratio_curves, axis=0)]

    def drive(arm, name):
        # the in-range drive nearest the coarse peak whose phase is the fitted
        # peak's modulo 2 pi; the range may span more or less than a period
        peak = _ratio_peak(fit[:, arm], fit[:, 1 - arm])
        turn = 2.0 * math.pi
        turns = range(math.ceil((phase[0] - peak) / turn),
                      math.floor((phase[-1] - peak) / turn) + 1)
        if not turns:
            raise IsolationError(f"{node_label(node)}: the drive range misses the {name} phase")
        volts = (chip.config.actuator.volts(peak + n * turn) for n in turns)
        v = min(volts, key=lambda v: abs(v - coarse_peaks[arm]))
        return min(max(v, -V_MAX), V_MAX)  # a rounding step past the range end

    bar_v = drive(bar_arm, "bar")
    cross_v = drive(cross_arm, "cross")

    def extinction(v, num_arm, den_arm):
        mons = chip.sweep_channel(theta, np.array([v]), inputs)
        num = float(mons[0, num_arm])
        den = float(mons[0, den_arm])
        swept = monitors[:, den_arm]
        if den <= 0.0 and chip.config.detector.additive_floor > 0.0 and np.any(swept > 0.0):
            # the detector clipped the leak to zero: report it against the
            # lowest level the coarse sweep resolved on that arm
            den = float(swept[swept > 0.0].min())
        # no leak resolves below the rounding of the lit arm's field
        den = max(den, num * np.finfo(float).eps ** 2)
        return 10.0 * math.log10(max(num, 1e-300) / max(den, 1e-300))

    bar_db = extinction(bar_v, bar_arm, cross_arm)
    cross_db = extinction(cross_v, cross_arm, bar_arm)
    for name, db in (("bar", bar_db), ("cross", cross_db)):
        if not db > 0.0:
            # the arm this state should light is no brighter than the leak
            raise IsolationError(
                f"{node_label(node)}: {name} extinction {db:.2f} dB is not above 0 dB, "
                "the monitors do not resolve the node"
            )
    cal = NodeCalibration(
        bar_v=bar_v,
        cross_v=cross_v,
        bar_extinction_db=bar_db,
        cross_extinction_db=cross_db,
        input_port=input_port,
        arm=bar_arm,
    )
    record.nodes[node] = cal
    chip.reset()
    return cal


def calibrate_full_mesh(chip: EmulatedChip) -> CalibrationRecord:
    """Calibrate bar/cross voltages of every MZI, input ports ascending.

    Each input's diagonal walk is processed input-to-output so that every
    target's upstream path is already calibrated; the all-bar walk and a
    minimal-crossing fallback cover the remaining nodes.  Per-node failures
    are collected, not fatal.
    """
    topo = chip.topology
    record = CalibrationRecord(chip_id=chip.chip_id)
    last_error: dict[Node, str] = {}

    def attempt(path):
        if path.target in record.nodes:
            return
        try:
            calibrate_mzi(chip, record, path)
        except CalibrationError as exc:
            last_error[path.target] = str(exc)
            chip.reset()

    for input_port in range(1, topo.n_modes + 1):
        for kind, chooser in WALKS.items():
            walk = _walk(topo, input_port, chooser)
            for k, (node, _, _) in enumerate(walk):
                if any(n not in record.nodes for n, _, _ in walk[:k]):
                    break
                attempt(_walk_path(input_port, walk, k, kind))

    # Mop up anything the straight walks missed, using calibrated paths only.
    for _ in range(2):
        for node in sorted(
            (n for n in topo.nodes() if n not in record.nodes), key=lambda nd: (-nd[0], nd[1])
        ):
            for input_port in range(1, topo.n_modes + 1):
                try:
                    path = isolation_sequence(input_port, node, topo)
                except IsolationError:
                    continue
                if all(n in record.nodes for n in path.nodes):
                    attempt(path)
                    if node in record.nodes:
                        break

    for node in topo.nodes():
        if node not in record.nodes:
            record.failures.append(
                (node_label(node), last_error.get(node, "no calibrated isolation path"))
            )
    return record


# ---------------------------------------------------------------------------
# Double-MZI corrected crossings
# ---------------------------------------------------------------------------


class _BudgetSpent(Exception):
    pass


def _nelder_mead(f, simplex, xatol, fatol, maxfev):
    """Minimise ``f`` with the Nelder-Mead simplex (Nelder & Mead 1965) from
    the vertices ``simplex`` (n + 1, n); returns the best vertex and the
    lowest value.

    Reflection, expansion, contractions and shrink use the standard
    coefficients 1, 2, 1/2 and 1/2.  It stops once every vertex lies within
    ``xatol`` of the best and every value within ``fatol`` of the lowest, or
    before the evaluation that would exceed ``maxfev``, even within the
    initial simplex or a shrink.  ``f`` gets a copy of each point.  The
    arithmetic and sort order are those of the reference implementation
    that ``tests/test_calibration.py`` checks this one against point for
    point, so calibration records do not depend on an optimisation library.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def func(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(np.copy(x))

    def resort():
        nonlocal sim, fsim
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _BudgetSpent:
        pass
    resort()
    resort()  # the sort is not stable, so sorting again may reorder ties
    while calls < maxfev:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        try:
            xr = 2 * xbar - sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = func(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = func(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
        except _BudgetSpent:
            pass
        resort()
    return sim[0], np.min(fsim)


def calibrate_corrected_cross(
    chip: EmulatedChip,
    group: CorrectedCrossGroup,
    record: CalibrationRecord,
) -> GroupCalibration:
    """Tune a double-MZI crossing: 50:50 members, phase sweep, then simplex.

    Stage 1 sets both members to their calibrated 50:50 points, stage 2
    sweeps the right member's external phase for minimum bar-port power,
    stage 3 refines all three voltages with Nelder-Mead (simplex edge
    0.5 V, budget 500 evaluations).  The simplex stops once its vertices lie
    within 10 mV (1.3 mrad) of each other and their readings within the
    read-to-read spread at the stage-2 point: the peak-to-peak of the
    sweep's reading there and three re-reads of the objective, floored at
    ``NM_QUIET_POWER``.  When three re-reads of the optimum agree to
    within that floor, the objective is quiet and a tight polish restart
    (2 mV edge, 0.1 uV window) spends the rest of the budget.  The result
    never reports worse than the stage-2 point.  Light
    enters at the group's upper port.  Tuning always starts afresh at the
    members' split voltages, so callers skip groups the record holds.
    """
    topo = chip.topology
    left, right = group.left, group.right
    input_port = group.ports[0] + 1
    path = isolation_sequence(input_port, left, topo)

    frame = _path_frame(chip, record, path)
    th_l, th_r = record.split_voltage(left), record.split_voltage(right)
    for mid in group.intermediates:
        frame[channel(topo, mid, THETA)] = record.require(mid).bar_v
    # the three tuned channels, in the order of the simplex coordinates
    knobs = [channel(topo, left, THETA), channel(topo, right, THETA), channel(topo, right, PHI)]
    frame[knobs] = th_l, th_r, 0.0
    chip.set_frame(VoltageFrame(frame))

    inputs = np.zeros(topo.n_modes, dtype=complex)
    inputs[input_port - 1] = 1.0
    right_idx = chip.node_index[right]
    in_arm = path.arrival_arm  # the arm light enters the left member on
    bar_arm = in_arm  # a failed crossing leaves power on the same side
    cross_arm = 1 - in_arm

    evals = 0

    def objective(x):
        # Averaging repeated reads keeps the simplex from chasing detector
        # noise dips near the null.
        nonlocal evals
        if np.any(np.abs(x) > V_MAX):
            return 1e6
        evals += 1
        vals = frame.copy()
        vals[knobs] = x
        chip.set_frame(VoltageFrame(vals))
        _, mons = chip.read_detectors(inputs, reads=NM_READS)
        return float(mons[right_idx, bar_arm])

    def finalize(x, n_evals, flagged):
        vals = frame.copy()
        vals[knobs] = x
        chip.set_frame(VoltageFrame(vals))
        _, mons = chip.read_detectors(inputs, reads=10)
        num = float(mons[right_idx, cross_arm])
        den = float(mons[right_idx, bar_arm])
        cal = GroupCalibration(
            left=left,
            right=right,
            theta_l_v=float(x[0]),
            theta_r_v=float(x[1]),
            phi_r_v=float(x[2]),
            extinction_db=10.0 * math.log10(max(num, 1e-299) / max(den, 1e-300)),
            n_evals=n_evals,
            flagged=flagged,
        )
        record.groups[(left, right)] = cal
        chip.reset()
        return cal

    # Stage 2: external phase sweep of the right member.
    grid = np.linspace(-V_MAX, V_MAX, COARSE_POINTS)
    bar_curve = chip.sweep_channel(knobs[2], grid, inputs)[:, bar_arm]  # the right member's
    phi_r = float(grid[int(np.argmin(bar_curve))])
    stage2 = np.array([th_l, th_r, phi_r])
    # Readings closer than the read-to-read spread cannot be told apart.  The
    # simplex compares its running best, a low outlier of many readings, with
    # fresh ones; the spread likewise spans the sweep's lowest reading, taken
    # at the stage-2 point, and three fresh objective readings there.
    stage2_reads = [bar_curve.min()] + [objective(stage2) for _ in range(3)]
    fatol = max(float(np.ptp(stage2_reads)), NM_QUIET_POWER)

    # Stage 3: simplex refinement from the stage-2 point.
    def run_nm(x0, edge, xatol, budget):
        simplex = np.vstack([x0] + [x0 + edge * e for e in np.eye(3)])
        simplex = np.clip(simplex, -V_MAX, V_MAX)
        return _nelder_mead(objective, simplex, xatol, fatol, budget)

    best_x, best_f = run_nm(stage2, NM_SIMPLEX_EDGE_V, NM_XATOL_V, NM_MAX_EVALS)
    # The tight polish only makes progress on a quiet objective; re-reading
    # the optimum separates detector noise from residual mistuning.
    probe = [objective(best_x) for _ in range(3)]
    quiet = (max(probe) - min(probe)) <= NM_QUIET_POWER
    best_f = min(best_f, *probe)
    if quiet and evals < NM_MAX_EVALS:
        x2, f2 = run_nm(best_x, NM_POLISH_EDGE_V, NM_POLISH_XATOL_V, NM_MAX_EVALS - evals)
        if f2 <= best_f:
            best_x, best_f = x2, f2

    # Never return worse than the stage-2 sweep point.
    stage2_f = objective(stage2)
    flagged = False
    if stage2_f < best_f:
        best_x, best_f = stage2, stage2_f
        flagged = True

    return finalize(best_x, evals, flagged)


# ---------------------------------------------------------------------------
# Hadamard balancing
# ---------------------------------------------------------------------------


class HadamardBalanceError(CalibrationError):
    pass


def calibrate_hadamard(
    chip: EmulatedChip,
    node: Node,
    pair: tuple[int, int],
    record: CalibrationRecord,
    circuit: CircuitSpec,
) -> float:
    """Balance an output Hadamard against unequal collection efficiencies.

    A Hadamard sits in the output column, so each of its two monitors reads
    that arm's output power times a fixed, unknown gain.  With only input i
    (then only j) lit, one ``HADAMARD_POINTS``-point step sweep of the
    node's theta channel over [cross_v, bar_v] reads both monitors, and one
    :func:`fringe_fit` gives each as c0 + c1 cos phi + c2 sin phi.  Where
    T_i B_j = T_j B_i both inputs see the same splitting ratio, so the gains
    cancel and the underlying 2x2 block is at 50:50.  Bisection of
    T_i B_j - T_j B_i of the fitted fringes on the sweep's interval finds
    that drive to ``HADAMARD_XTOL_V`` (1 uV) with no further reads.  Every
    other channel holds the drive of ``circuit`` programmed from the record.
    """
    topo = chip.topology
    cal = record.require(node)
    theta = channel(topo, node, THETA)
    chip.set_frame(VoltageFrame(circuit_frame(record, circuit)))

    lo, hi = sorted((cal.cross_v, cal.bar_v))
    grid = np.linspace(lo, hi, HADAMARD_POINTS)
    phase = chip.config.actuator.phase
    fits = []  # per input: (coefficient, arm) of its two monitor fringes
    for port in pair:
        inputs = np.zeros(topo.n_modes, dtype=complex)
        inputs[port - 1] = 1.0
        monitors = chip.sweep_channel(theta, grid, inputs)
        if monitors.sum(axis=1).max() < MIN_MONITOR_POWER:
            raise HadamardBalanceError(
                f"{node_label(node)}: no light at the Hadamard monitors for {pair}"
            )
        fits.append(fringe_fit(phase(grid), monitors))

    def imbalance(v):
        p = phase(v)
        basis = np.array([1.0, math.cos(p), math.sin(p)])
        (t_i, b_i), (t_j, b_j) = basis @ fits[0], basis @ fits[1]
        return t_i * b_j - t_j * b_i

    f_lo = imbalance(lo)
    if f_lo * imbalance(hi) > 0:
        raise HadamardBalanceError(
            f"{node_label(node)}: no splitting-ratio sign change on [{lo:.2f}, {hi:.2f}] V"
        )
    while hi - lo > HADAMARD_XTOL_V:
        mid = (lo + hi) / 2.0
        if f_lo * imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid

    cal.split_v = (lo + hi) / 2.0
    chip.reset()
    return cal.split_v


# ---------------------------------------------------------------------------
# Programming circuits from a record
# ---------------------------------------------------------------------------


def circuit_frame(record: CalibrationRecord, spec: CircuitSpec) -> np.ndarray:
    """Drive vector programming a circuit from calibrated settings, each
    double-MZI group from its own tuned record; channels the circuit leaves
    unset are zero."""
    topo = spec.topology
    values = np.zeros(2 * len(topo.nodes()))
    for node, gate in spec.gates.items():
        theta = channel(topo, node, THETA)
        if gate in (Gate.BAR, Gate.UNUSED, Gate.CORR_INTERMEDIATE):
            values[theta] = record.require(node).bar_v
        elif gate is Gate.CROSS_SINGLE:
            values[theta] = record.require(node).cross_v
        elif gate is Gate.HADAMARD:
            values[theta] = record.split_voltage(node)
    for group in spec.groups:
        g = record.groups.get((group.left, group.right))
        if g is None:
            raise CalibrationError(
                f"group {node_label(group.left)}+{node_label(group.right)} is not tuned")
        values[channel(topo, g.left, THETA)] = g.theta_l_v
        values[channel(topo, g.right, THETA)] = g.theta_r_v
        values[channel(topo, g.right, PHI)] = g.phi_r_v
    return values


def program_circuit(chip: EmulatedChip, record: CalibrationRecord, spec: CircuitSpec) -> VoltageFrame:
    """Set the chip to a circuit's calibrated voltages and return the frame."""
    frame = VoltageFrame(circuit_frame(record, spec))
    chip.set_frame(frame)
    return frame


def calibrate_circuit(
    chip: EmulatedChip, record: CalibrationRecord, spec: CircuitSpec
) -> CalibrationRecord:
    """Group + Hadamard calibration pass for one circuit."""
    for group in spec.groups:
        if (group.left, group.right) not in record.groups:
            calibrate_corrected_cross(chip, group, record)
    for pair, (n_out, _) in spec.outputs.items():
        node = (0, (n_out - 1) // 2)
        calibrate_hadamard(chip, node, pair, record, circuit=spec)
    return record
