"""Bit-for-bit fingerprint of mzmesh's outputs, one SHA-256 per named group.

    PYTHONPATH=src python tests/fingerprint.py

prints ``<group> <sha256>`` for every group in :data:`GROUPS`.  Run it
against two checkouts (``PYTHONPATH=<checkout>/src``) to see which groups
a change moves; a change that keeps every output bit for bit leaves every
digest equal.  It uses the public API only, so it runs unchanged on older
commits.  Digests depend on numpy and its BLAS, so compare them on one
machine only.

The ``batched`` group takes a step sweep's readings of the swept MZI's own
monitors from either return form of ``EmulatedChip.sweep_channel``: the
(outputs, monitors) pair of every reading that older commits return, or the
(points, 2) readings of that MZI alone.  Its digest therefore changed once,
with the script that reads both forms; that script prints one ``batched``
digest on the commits before and after the change of return form.
"""

import dataclasses
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

import mzmesh
from mzmesh import calibration as cal
from mzmesh import compiler, mesh, runner
from mzmesh.emulator import THETA, EmuConfig, EmulatedChip, channel


def canonical(obj):
    """A form of ``obj`` whose ``repr`` changes exactly when a value does:
    dataclasses and mappings become (key, value) lists, arrays their dtype,
    shape and bytes, numpy scalars Python numbers (floats repr exactly)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,
                [(f.name, canonical(getattr(obj, f.name))) for f in dataclasses.fields(obj)])
    if isinstance(obj, Mapping):
        return [(canonical(k), canonical(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return ("array", a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(canonical(item)).encode())
    return h.hexdigest()


def paper_chips():
    """``run_chip`` on paper-noise chips 21-30: summary, record and results."""
    circuits = compiler.ohqe_circuits()
    for seed in range(21, 31):
        state = runner.build_mesh(mesh.paper_noise_spec(), seed)
        yield runner.run_chip(state, runner.paper_emu_config(seed), circuits=circuits)


def noiseless():
    """``calibrate_full_mesh`` on noiseless chips (nominal and paper-perturbed
    meshes, N = 6, 8, 10, seeds 0, 1, 11, 14), then ``calibrate_circuit`` for
    circuits 1-4 at N = 8, where every corrected-cross simplex runs its
    polish restart."""
    circuits = compiler.ohqe_circuits()
    for n, seed in itertools.product((6, 8, 10), (0, 1, 11, 14)):
        for state in (mesh.nominal_mesh(n), runner.build_mesh(mesh.paper_noise_spec(), seed, n)):
            chip = EmulatedChip(state, EmuConfig(offset_scale=1.0, seed=seed))
            record = cal.calibrate_full_mesh(chip)
            yield n, seed, record
            if n != 8:
                continue
            for name in runner.DEFAULT_CIRCUITS:
                try:
                    cal.calibrate_circuit(chip, record, circuits[name])
                except cal.CalibrationError as exc:
                    yield name, type(exc).__name__, str(exc)
                yield name, record


def batched_rows():
    """Kernel rows batched against one at a time on lossy random meshes, and
    a noiseless chip's swept reads against one-point sweeps."""
    for n in (2, 6, 8, 10):
        rng = np.random.default_rng(n)
        base = mesh.uniform_loss_mesh(n, 2.33, mesh.DEFAULT_TAP_DB)
        state = mesh.perturb(base, mesh.paper_noise_spec(), seed=n)
        cm = mesh.CompiledMesh(state)
        batch = 7
        inputs = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        phases = rng.uniform(-np.pi, np.pi, (4, batch, len(cm.nodes)))
        fields, taps = cm.propagate(inputs, cm.columns(*phases), want_taps=True)
        # the state's own phases, as every commit's transfer() takes them
        own = [np.array([getattr(state.params[nd], name) for nd in cm.nodes])
               for name in ("theta1", "theta2", "phi1", "phi2")]
        yield fields, taps, cm.transfer(*own)
        for b in range(batch):
            one = cm.propagate(inputs[b], cm.columns(*phases[:, b]), want_taps=True)
            yield one, np.array_equal(one[0][0], fields[b]), np.array_equal(one[1][0], taps[b])
    chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=3))
    inputs = np.zeros(8, dtype=complex)
    inputs[0] = 1.0
    node = (6, 0)
    ch = channel(chip.topology, node, THETA)

    def own_monitors(reading):
        """The swept MZI's monitor readings, shaped (points, 2), from either
        return form of ``sweep_channel``."""
        if isinstance(reading, tuple):  # (outputs, monitors of every node)
            return reading[1][:, chip.node_index[node]]
        return reading

    volts = np.linspace(-20.0, 20.0, 9)
    swept = own_monitors(chip.sweep_channel(ch, volts, inputs))
    yield swept
    for k in range(volts.size):
        one = own_monitors(chip.sweep_channel(ch, volts[k:k + 1], inputs))
        yield one, np.array_equal(one[0], swept[k])


def reconstructions():
    """Clements plans of Haar-random unitaries at N = 8...64, both variants,
    and ``reconstruct`` of each plan."""
    for n in (8, 16, 32, 64):
        rng = np.random.default_rng(n)
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        for reversed_variant in (True, False):
            plan = compiler.clements_decompose(u, reversed_variant=reversed_variant)
            yield plan, compiler.reconstruct(plan)


def perfect_matchings(ports):
    if not ports:
        yield ()
        return
    first, rest = ports[0], ports[1:]
    for i, other in enumerate(rest):
        for tail in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield ((first, other),) + tail


def routes():
    """Routed specs of all 105 N = 8 perfect matchings, their corrected-cross
    upgrades, and the default circuits."""
    for matching in perfect_matchings(list(range(1, 9))):
        spec = compiler.route_matching(matching)
        yield spec, compiler.upgrade_to_corrected(spec)
    yield compiler.ohqe_circuits()


def cli_outputs():
    """Every file the CLI commands write for paper chip 21, named by its path
    relative to a scratch directory the commands run in with relative paths."""
    selection = Path(mzmesh.__file__).parent / "data" / "raussendorf_selection.json"
    commands = [
        ["new-chip", "--seed", "21", "--out", "chip"],
        ["calibrate", "--mesh", "chip/mesh.json", "--emu", "chip/emu.json", "--out", "cal"],
        *[["run-circuit", "--mesh", "chip/mesh.json", "--emu", "chip/emu.json",
           "--cal", "cal/cal.json", "--circuit", c, "--out", f"circuit{c}"] for c in "1234"],
        ["sweep", "--mesh", "chip/mesh.json", "--emu", "chip/emu.json", "--cal", "cal/cal.json",
         "--circuit", "2", "--pairs", "1,4", "--out", "sweep"],
        ["reconstruct", "--mesh", "chip/mesh.json", "--emu", "chip/emu.json",
         "--cal", "cal/cal.json", "--circuit", "3", "--out", "reconstruct"],
        ["montecarlo", "--trials", "2", "--seed", "21", "--out", "montecarlo"],
        ["lattice", "--out", "lattice"],
        ["lattice", "--assembly", "--measure", "selection.json", "--out", "assembly"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mzmesh.__file__).parents[1]))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(selection, Path(tmp) / "selection.json")
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "mzmesh", *argv, "--timestamp", "2000-01-01T00:00:00"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
            yield argv, done.returncode, done.stdout, done.stderr
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                yield path.relative_to(tmp).as_posix(), path.read_bytes()


GROUPS = {
    "chips": paper_chips,
    "noiseless": noiseless,
    "batched": batched_rows,
    "reconstruct": reconstructions,
    "routes": routes,
    "cli": cli_outputs,
}
#: groups quick enough to recompute in a unit test
CHEAP = ("chips", "batched", "reconstruct", "routes")


def fingerprint(names) -> dict[str, str]:
    return {name: digest(GROUPS[name]()) for name in names}


if __name__ == "__main__":
    for name, value in fingerprint(GROUPS).items():
        print(f"{name} {value}")
