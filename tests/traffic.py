"""Lines of mzmesh that its own traffic never runs, module by module.

    PYTHONPATH=src python tests/traffic.py

line-traces, with :func:`sys.settrace`, the traffic the package serves: one
paper-noise chip through ``runner.run_chip``, one measure pass (the seven
all-to-all circuits calibrated, phase-swept and reconstructed on one
calibrated chip), a smoke compile round (Clements plans at N = 8 and 16,
four routed matchings) and every CLI command, run in-process in a scratch
directory.  It then prints, per module of ``src/mzmesh``, the executable
lines that none of it ran, leaving out the lines of ``raise`` statements.
A line listed here is code no caller takes: a candidate for deletion, or a
path only the tests reach.  It uses the public API only, so it runs
unchanged on older commits; run it against two checkouts
(``PYTHONPATH=<checkout>/src``) to compare them.
"""

import ast
import contextlib
import copy
import importlib.util
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

# found without importing it, so that its import runs under the trace
SRC = Path(importlib.util.find_spec("mzmesh").origin).resolve().parent


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode, less those of its ``raise``
    statements."""
    source = path.read_text()
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 for a module's start
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted ``lines`` as comma-separated runs, e.g. ``3, 7-9``."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def traffic() -> None:
    """One bringup chip, one measure pass, a smoke compile round and every
    CLI command; mzmesh is first imported here, under the trace."""
    import numpy as np

    from mzmesh import calibration as cal
    from mzmesh import cli, compiler, mesh, metrology, runner
    from mzmesh.emulator import EmulatedChip

    circuits = compiler.ohqe_circuits()
    runner.run_chip(runner.build_mesh(mesh.paper_noise_spec(), 21),
                    runner.paper_emu_config(21), circuits)

    chip = EmulatedChip(runner.build_mesh(mesh.paper_noise_spec(), 22),
                        runner.paper_emu_config(22))
    record = cal.calibrate_full_mesh(chip)
    for c, name in enumerate(compiler.ALL_TO_ALL_CIRCUITS):
        spec = circuits[name]
        circuit_record = cal.calibrate_circuit(chip, copy.deepcopy(record), spec)
        cal.program_circuit(chip, circuit_record, spec)
        traces = {pair: metrology.run_phase_sweep(chip, circuit_record, spec, pair, seed=c)
                  for pair in spec.matching}
        estimate = metrology.reconstruct_unitary(chip, circuit_record, spec, traces)
        metrology.unitary_fidelity(compiler.ideal_circuit_magnitudes(spec), estimate.magnitudes)
        [metrology.LinkReport.from_trace(t) for t in traces.values()]

    rng = np.random.default_rng(0)
    for n in (8, 16):
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        for reversed_variant in (True, False):
            compiler.reconstruct(compiler.clements_decompose(u, reversed_variant=reversed_variant))
    for matching in (((1, 2), (3, 4), (5, 6), (7, 8)), ((1, 8), (2, 7), (3, 6), (4, 5)),
                     ((1, 5), (2, 6), (3, 7), (4, 8)), ((1, 3), (2, 8), (4, 6), (5, 7))):
        spec = compiler.route_matching(matching)
        upgraded, _ = compiler.upgrade_to_corrected(spec)
        compiler.ideal_circuit_magnitudes(upgraded)

    chip_files = ["--mesh", "chip/mesh.json", "--emu", "chip/emu.json"]
    commands = [
        ["new-chip", "--seed", "21", "--out", "chip"],
        ["calibrate", *chip_files, "--out", "cal"],
        ["run-circuit", *chip_files, "--cal", "cal/cal.json", "--circuit", "1", "--out", "c1"],
        ["sweep", *chip_files, "--cal", "cal/cal.json", "--circuit", "2", "--pairs", "1,4",
         "--out", "sweep"],
        ["reconstruct", *chip_files, "--cal", "cal/cal.json", "--circuit", "3", "--out", "rec"],
        ["montecarlo", "--trials", "1", "--seed", "21", "--out", "montecarlo"],
        ["lattice", "--out", "lattice"],
        ["lattice", "--assembly", "--measure", "selection.json", "--out", "assembly"],
    ]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(SRC / "data" / "raussendorf_selection.json", Path(tmp) / "selection.json")
        os.chdir(tmp)
        try:
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main([*argv, "--timestamp", "2000-01-01T00:00:00"])
        finally:
            os.chdir(cwd)


def main() -> None:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    known = {}  # a code object's file name -> its lines run, or None outside mzmesh

    def local(frame, event, arg):
        if event == "line":
            known[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = ran.get(str(Path(name).resolve()))
        return local if known[name] is not None else None

    sys.settrace(calls)
    try:
        traffic()
    finally:
        sys.settrace(None)
    for name, path in files.items():
        unrun = sorted(executable_lines(path) - ran[name])
        print(f"{path.name}: {len(unrun)} lines never run{': ' if unrun else ''}{spans(unrun)}")


if __name__ == "__main__":
    main()
