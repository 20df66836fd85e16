"""Call probes installed on mzmesh's public functions from outside the package.

A :class:`Probe` replaces module attributes and class methods with wrappers
and restores them on :meth:`Probe.uninstall`.  With ``spans=True`` every
wrapped call records one span (name, start, end, parent span, operation
index, size, result note) in flat in-memory lists; the spans are written out
once, when the run ends.  With ``spans=False`` only the three emulator
acquisition paths are wrapped, and only to accumulate simulated bench time,
so the untraced run pays a counter update per acquisition call and nothing
else.

Simulated bench time is what the same acquisitions would take on the bench:
every detector acquisition (a ``read_detectors`` read or one point of a
``sweep_channel`` step sweep) costs ``1 / sample_rate_hz`` and every
sawtooth period costs ``1 / freq_hz``.  It is derived from call arguments
only, so it is identical with tracing on or off.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from pathlib import Path

SETUP_OP = -1


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _rows(args, kwargs):
    inputs = _arg(args, kwargs, 1, "inputs", None)
    shape = getattr(inputs, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _propagate_name(args, kwargs):
    return "mesh.propagate.b1" if _rows(args, kwargs) == 1 else "mesh.propagate.batched"


def _decompose_name(args, kwargs):
    return f"compiler.decompose.N{len(_arg(args, kwargs, 0, 'u', ()))}"


def _read_sim_s(args, kwargs):
    chip = args[0]
    return _arg(args, kwargs, 3, "reads", 1) / chip.config.detector.sample_rate_hz


def _sweep_points(args, kwargs):
    return len(_arg(args, kwargs, 2, "volts", ()))


def _sweep_sim_s(args, kwargs):
    return _sweep_points(args, kwargs) / args[0].config.detector.sample_rate_hz


def _sawtooth_periods(args, kwargs):
    return _arg(args, kwargs, 7, "periods", 5)


def _sawtooth_sim_s(args, kwargs):
    return _sawtooth_periods(args, kwargs) / _arg(args, kwargs, 5, "freq_hz", 35.0)


def _group_note(group):
    return (group.n_evals, group.flagged, group.extinction_db)


def _mzi_note(node_cal):
    return min(node_cal.bar_extinction_db, node_cal.cross_extinction_db)


def targets():
    """(module, owner attribute path, span name, size fn, note fn, sim-time fn).

    ``span name`` is a string or a function of the call arguments; ``size``
    is an integer attribute of the call (rows, channels, reads, points,
    periods); ``note`` extracts what the per-layer metrics need from the
    result.  Entries with a sim-time function are also installed untraced.
    """
    n = None
    return [
        ("mesh", "CompiledMesh.__init__", "mesh.compiled_build", n, n, n),
        ("mesh", "CompiledMesh.propagate", _propagate_name, _rows, n, n),
        ("mesh", "perturb", "mesh.perturb", n, n, n),
        ("emulator", "EmulatedChip.set_frame", "emulator.set_frame",
         lambda a, k: len(_arg(a, k, 1, "frame", None).values), n, n),
        ("emulator", "EmulatedChip.read_detectors", "emulator.read",
         lambda a, k: _arg(a, k, 3, "reads", 1), n, _read_sim_s),
        ("emulator", "EmulatedChip.sweep_channel", "emulator.sweep_channel",
         _sweep_points, n, _sweep_sim_s),
        ("emulator", "EmulatedChip.sawtooth_sweep", "emulator.sawtooth",
         _sawtooth_periods, n, _sawtooth_sim_s),
        ("calibration", "calibrate_full_mesh", "calibration.full_mesh", n,
         lambda rec: len(rec.failures), n),
        ("calibration", "calibrate_mzi", "calibration.mzi", n, _mzi_note, n),
        ("calibration", "calibrate_corrected_cross", "calibration.corrected_cross", n,
         _group_note, n),
        ("calibration", "calibrate_hadamard", "calibration.hadamard", n, n, n),
        ("metrology", "run_phase_sweep", "metrology.phase_sweep", n,
         lambda trace: trace.reliable, n),
        ("metrology", "reconstruct_unitary", "metrology.reconstruct", n, n, n),
        ("compiler", "clements_decompose", _decompose_name, n, n, n),
        ("compiler", "reconstruct", "compiler.reconstruct", n, n, n),
        ("compiler", "route_matching", "compiler.route", n, n, n),
        ("compiler", "upgrade_to_corrected", "compiler.upgrade", n, n, n),
        ("compiler", "ohqe_circuits", "compiler.ohqe_circuits", n, n, n),
        ("runner", "build_mesh", "runner.build_mesh", n, n, n),
        ("runner", "run_chip", "runner.run_chip", n, n, n),
        ("runner", "run_circuit", "runner.run_circuit", n, n, n),
    ]


class Probe:
    def __init__(self, spans: bool):
        self.spans = spans
        self.op = SETUP_OP
        self.sim_s: dict[int, float] = {}
        self.name: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.ops: list[int] = []
        self.size: list[int] = []
        self.note: dict[int, object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for mod_name, path, span_name, size, note, sim in targets():
            if not self.spans and sim is None:
                continue
            module = importlib.import_module(f"mzmesh.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, span_name, size, note, sim)
            self._set(owner, attr, original, wrapped)
            if owner_name:
                continue
            # module functions are also bound by name in sibling modules
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other is module or not other_name.startswith("mzmesh"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, original, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span_name, size, note, sim):
        clock = time.perf_counter
        if not self.spans:
            sim_s = self.sim_s

            def counted(*args, **kwargs):
                sim_s[self.op] = sim_s.get(self.op, 0.0) + sim(args, kwargs)
                return fn(*args, **kwargs)

            return counted

        names, t0, t1, parents, ops, sizes = (
            self.name, self.t0, self.t1, self.parent, self.ops, self.size)
        stack, notes, sim_s = self._stack, self.note, self.sim_s

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_name if isinstance(span_name, str) else span_name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            sizes.append(size(args, kwargs) if size else 0)
            if sim:
                sim_s[self.op] = sim_s.get(self.op, 0.0) + sim(args, kwargs)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            if note:
                notes[idx] = note(result)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def span_cost_s(self, calls: int = 20000) -> float:
        """Wall time one traced call adds, from a wrapped no-op."""
        def noop():
            return None

        saved = self.op
        wrapped = self._wrap(noop, "probe.noop", None, None, None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        # drop the calibration spans again
        del self.name[-calls:], self.t0[-calls:], self.t1[-calls:]
        del self.parent[-calls:], self.ops[-calls:], self.size[-calls:]
        self.op = saved
        return max(traced - bare, 0.0) / calls

    def write_spans(self, path: Path, op_labels: list[str]) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,op,start_s,end_s,size\n")
            for i, name in enumerate(self.name):
                op = self.ops[i]
                label = "setup" if op == SETUP_OP else op_labels[op]
                fh.write(f"{i},{self.parent[i]},{name},{label},"
                         f"{self.t0[i]:.9f},{self.t1[i]:.9f},{self.size[i]}\n")


def layer_metrics(probe: Probe, busy, op_walls: list[float], round_len: int,
                  setup_walls: list[float], import_s: float,
                  nm_budget: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    ``busy(t0, t1)`` is the wall time of an interval less the reference
    samples taken inside it (``pace.Pacer.busy``); span durations use it.
    Counts are per round, over the first round of operations, which every
    run completes, so they repeat exactly for one seed.  ``*_pct`` metrics
    are shares of the timed loop's operation wall time, except
    ``setup.*_pct``, which are shares of set-up wall time.
    """
    n = len(probe.name)
    loop_s = sum(op_walls)
    setup_s = sum(setup_walls)
    dur = [busy(probe.t0[i], probe.t1[i]) for i in range(n)]
    in_loop = [probe.ops[i] >= 0 for i in range(n)]
    first = [0 <= probe.ops[i] < round_len for i in range(n)]
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(probe.name):
        by_name.setdefault(name, []).append(i)

    def named(name, scope):
        return [i for i in by_name.get(name, ()) if scope[i]]

    def calls(name):
        return float(len(named(name, first)))

    def pct(prefix, scope=in_loop, base=loop_s):
        # spans nested in a span of the same prefix are counted once
        busy = 0.0
        for name, spans in by_name.items():
            if not name.startswith(prefix):
                continue
            for i in spans:
                a = probe.parent[i]
                while a >= 0 and not probe.name[a].startswith(prefix):
                    a = probe.parent[a]
                if a < 0 and scope[i]:
                    busy += dur[i]
        return 100.0 * busy / base if base > 0 else 0.0

    def size_sum(name, scope=first):
        return float(sum(probe.size[i] for i in named(name, scope)))

    def children(parents, name):
        parents = set(parents)
        return [i for i in by_name.get(name, ()) if probe.parent[i] in parents]

    def self_pct(prefix):
        child = [0.0] * n
        for i in range(n):
            if probe.parent[i] >= 0:
                child[probe.parent[i]] += dur[i]
        busy = sum(dur[i] - child[i] for name, spans in by_name.items()
                   if name.startswith(prefix) for i in spans if in_loop[i])
        return 100.0 * busy / loop_s if loop_s > 0 else 0.0

    batched = named("mesh.propagate.batched", in_loop)
    batched_rows = sum(probe.size[i] for i in batched)
    groups = [probe.note[i] for i in named("calibration.corrected_cross", first)]
    mzis = [probe.note[i] for i in named("calibration.mzi", first)]
    hadamards = named("calibration.hadamard", first)
    routes = [dur[i] for i in by_name.get("compiler.route", ())]
    ohqe = [dur[i] for i in by_name.get("compiler.ohqe_circuits", ())]
    spans_first = sum(first)
    setup_scope = [not x for x in in_loop]

    c, p, frac, db = "count", "%", "frac", "dB"
    m = {
        "mesh.propagate.b1.calls": (calls("mesh.propagate.b1"), c),
        "mesh.propagate.b1.busy_pct": (pct("mesh.propagate.b1"), p),
        "mesh.propagate.batched.calls": (calls("mesh.propagate.batched"), c),
        "mesh.propagate.batched.rows": (size_sum("mesh.propagate.batched"), c),
        "mesh.propagate.batched.us_per_row": (
            1e6 * sum(dur[i] for i in batched) / max(batched_rows, 1), "us"),
        "mesh.propagate.busy_pct": (pct("mesh.propagate."), p),
        "mesh.compiled_builds": (calls("mesh.compiled_build"), c),
        "mesh.perturb.busy_pct": (pct("mesh.perturb"), p),
        "emulator.frames_set": (calls("emulator.set_frame"), c),
        "emulator.frame_channels": (size_sum("emulator.set_frame"), c),
        "emulator.set_frame.busy_pct": (pct("emulator.set_frame"), p),
        "emulator.reads": (calls("emulator.read"), c),
        "emulator.acquisitions": (
            size_sum("emulator.read") + size_sum("emulator.sweep_channel"), c),
        "emulator.sweep_channel.calls": (calls("emulator.sweep_channel"), c),
        "emulator.sweep_channel.busy_pct": (pct("emulator.sweep_channel"), p),
        "emulator.sawtooth.calls": (calls("emulator.sawtooth"), c),
        "emulator.sawtooth.busy_pct": (pct("emulator.sawtooth"), p),
        "emulator.sawtooth.periods": (size_sum("emulator.sawtooth"), c),
        "emulator.self_pct": (self_pct("emulator."), p),
        "calibration.full_mesh.calls": (calls("calibration.full_mesh"), c),
        "calibration.full_mesh.busy_pct": (pct("calibration.full_mesh"), p),
        "calibration.mzi.calls": (calls("calibration.mzi"), c),
        "calibration.mzi.busy_pct": (pct("calibration.mzi"), p),
        "calibration.mzi.point_sweeps": (float(sum(
            1 for i in children(named("calibration.mzi", first), "emulator.sweep_channel")
            if probe.size[i] == 1)), c),
        "calibration.corrected_cross.calls": (calls("calibration.corrected_cross"), c),
        "calibration.corrected_cross.busy_pct": (pct("calibration.corrected_cross"), p),
        "calibration.nm_evals": (float(sum(g[0] for g in groups)), c),
        "calibration.nm_budget_hit_frac": (
            sum(g[0] >= nm_budget for g in groups) / len(groups) if groups else 0.0, frac),
        "calibration.flagged_frac": (
            sum(bool(g[1]) for g in groups) / len(groups) if groups else 0.0, frac),
        "calibration.hadamard.calls": (float(len(hadamards)), c),
        "calibration.hadamard.busy_pct": (pct("calibration.hadamard"), p),
        "calibration.hadamard.evals": (
            float(len(children(hadamards, "emulator.set_frame"))), c),
        "calibration.node_failures": (float(sum(
            probe.note[i] for i in named("calibration.full_mesh", first))), c),
        "calibration.extinction_db.min": (min(mzis) if mzis else 0.0, db),
        "calibration.group_extinction_db.min": (
            min(g[2] for g in groups) if groups else 0.0, db),
        "metrology.phase_sweep.calls": (calls("metrology.phase_sweep"), c),
        "metrology.phase_sweep.busy_pct": (pct("metrology.phase_sweep"), p),
        "metrology.reconstruct.calls": (calls("metrology.reconstruct"), c),
        "metrology.reconstruct.busy_pct": (pct("metrology.reconstruct"), p),
        "metrology.unreliable_links": (float(sum(
            not probe.note[i] for i in named("metrology.phase_sweep", first))), c),
    }
    for size in (8, 16, 32, 64):
        m[f"compiler.decompose.N{size}.busy_pct"] = (pct(f"compiler.decompose.N{size}"), p)
    m.update({
        "compiler.reconstruct.calls": (calls("compiler.reconstruct"), c),
        "compiler.reconstruct.busy_pct": (pct("compiler.reconstruct"), p),
        "compiler.route.calls": (calls("compiler.route"), c),
        "compiler.route.busy_pct": (pct("compiler.route"), p),
        "compiler.route.ms": (1e3 * statistics.median(routes) if routes else 0.0, "ms"),
        "compiler.upgrade.busy_pct": (pct("compiler.upgrade"), p),
        "runner.run_circuit.busy_pct": (pct("runner.run_circuit"), p),
        "runner.build_mesh.busy_pct": (pct("runner.build_mesh"), p),
        "setup.import_s": (import_s, "s"),
        "setup.ohqe_circuits.ms": (1e3 * statistics.median(ohqe) if ohqe else 0.0, "ms"),
        "setup.calibration.busy_pct": (
            pct("calibration.", setup_scope, setup_s) if setup_s > 0 else 0.0, p),
        "trace.spans_per_round": (float(spans_first), c),
    })
    return m


def check_nesting(probe: Probe) -> list[str]:
    """Every span lies inside its parent's interval and on the parent's operation."""
    bad = []
    for i, parent in enumerate(probe.parent):
        if parent < 0:
            continue
        if not (probe.t0[parent] <= probe.t0[i] <= probe.t1[i] <= probe.t1[parent]):
            bad.append(f"span {i} ({probe.name[i]}) escapes its parent {parent}")
        if probe.ops[i] != probe.ops[parent]:
            bad.append(f"span {i} ({probe.name[i]}) changes operation inside its parent")
        if len(bad) >= 5:
            break
    return bad


def finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)
