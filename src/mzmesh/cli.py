"""Command-line front end: chip synthesis, calibration, circuit runs, lattices.

Each stage reads the previous stage's JSON artifacts and writes its own,
together with a run manifest; re-running a command from its manifest (same
inputs, seed and timestamp) reproduces every output byte for byte.

Exit codes: 0 success, 1 domain failure (calibration/measurement), 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from . import calibration as cal
from . import compiler, lattice, metrology, runner
from .emulator import (
    ActuatorModel,
    DetectorModel,
    EmuConfig,
    EmulatedChip,
    emu_to_dict,
    load_emu,
    paper_detector_model,
)
from .mesh import (
    NoiseSpec,
    load_mesh,
    node_label,
    noise_from_dict,
    noise_to_dict,
    paper_noise_spec,
    save_mesh,
)

MANIFEST_SCHEMA = "manifest-v1"
DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"

SCHEMA_VERSIONS = {
    "mesh": "mesh-v1",
    "emu": "emu-v1",
    "cal": "cal-v1",
    "circuit": "circuit-v1",
    "met": "met-v1",
    "graph": "graph-v1",
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_atomic(path: Path, data: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, command: str, args: dict, inputs: list[str],
                    outputs: list[str], seed, timestamp: str) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "args": {k: v for k, v in sorted(args.items())},
        "seed": seed,
        "timestamp": timestamp,
        "inputs": {p: _sha256(Path(p)) for p in sorted(inputs)},
        "outputs": sorted(outputs),
        "schema_versions": SCHEMA_VERSIONS,
    }
    _write_json(outdir / "manifest.json", manifest)


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CliError(f"missing file: {path}", 2)
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"bad JSON in {path}: {exc}", 2)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_chip(args) -> EmulatedChip:
    try:
        mesh_state = load_mesh(args.mesh)
    except FileNotFoundError:
        raise CliError(f"missing chip file: {args.mesh}", 2)
    except (ValueError, KeyError) as exc:
        raise CliError(f"bad mesh file {args.mesh}: {exc}", 2)
    try:
        emu = load_emu(args.emu)
    except FileNotFoundError:
        raise CliError(f"missing emu file: {args.emu}", 2)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad emu file {args.emu}: {exc}", 2)
    return EmulatedChip(mesh_state, emu)


def _load_record(path: str) -> cal.CalibrationRecord:
    try:
        return cal.load_record(path)
    except FileNotFoundError:
        raise CliError(f"missing calibration file: {path}", 2)
    except KeyError as exc:
        raise CliError(f"bad calibration file {path}: missing field {exc}", 2)
    except (ValueError, TypeError, IndexError) as exc:
        raise CliError(f"bad calibration file {path}: {exc}", 2)


def _noise_spec(data) -> NoiseSpec:
    try:
        return noise_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad noise spec: {exc}", 2)


def _circuit_by_name(name: str, chip: EmulatedChip) -> compiler.CircuitSpec:
    circuits = compiler.ohqe_circuits()
    if name not in circuits:
        raise CliError(
            f"unknown circuit {name!r}; choose from {', '.join(sorted(circuits))}", 2
        )
    spec = circuits[name]
    if spec.n_modes != chip.n_modes:
        raise CliError(
            f"circuit {name!r} has {spec.n_modes} modes but the chip has {chip.n_modes}", 2
        )
    return spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_new_chip(args) -> int:
    out = _outdir(args)
    inputs = []
    if args.config:
        data = _load_json(args.config)
        inputs.append(args.config)
        noise_cfg = data.get("noise", "paper")
        emu_cfg = data.get("emu", {})
    else:
        noise_cfg, emu_cfg = "paper", {}

    if noise_cfg == "paper":
        noise = paper_noise_spec()
    elif noise_cfg in (None, "ideal"):
        noise = None
    else:
        noise = _noise_spec(noise_cfg)

    try:
        actuator = ActuatorModel(**emu_cfg.get("actuator", {}))
        detector = (
            DetectorModel(**emu_cfg["detector"])
            if "detector" in emu_cfg
            else (paper_detector_model() if noise is not None else DetectorModel())
        )
        offset_scale = float(emu_cfg.get("offset_scale", 1.0 if noise is not None else 0.0))
    except TypeError as exc:
        raise CliError(f"bad emu config: {exc}", 2)

    mesh_state = runner.build_mesh(noise, seed=args.seed)
    emu = EmuConfig(actuator=actuator, detector=detector, offset_scale=offset_scale, seed=args.seed)

    save_mesh(mesh_state, out / "mesh.json")
    _write_json(out / "emu.json", emu_to_dict(emu))
    _write_manifest(
        out,
        "new-chip",
        {"config": args.config, "noise": noise_to_dict(noise) if noise else None},
        inputs,
        ["mesh.json", "emu.json"],
        args.seed,
        args.timestamp,
    )
    print(f"wrote {out/'mesh.json'} and {out/'emu.json'}")
    return 0


def cmd_calibrate(args) -> int:
    out = _outdir(args)
    chip = _load_chip(args)
    record = cal.calibrate_full_mesh(chip)
    # Pre-tune the double-MZI groups of the default circuits so the stored
    # configuration programs them without re-optimisation; those circuits
    # exist only on a chip with their mode count.
    circuits = compiler.ohqe_circuits()
    if not record.failures and chip.n_modes == circuits["1"].n_modes:
        for name in ("1", "2", "3", "4"):
            for group in circuits[name].groups:
                if (group.left, group.right) not in record.groups:
                    cal.calibrate_corrected_cross(chip, group, record)
    record.timestamp = args.timestamp
    cal.save_record(record, out / "cal.json")

    with open(out / "extinctions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "bar_v", "cross_v", "bar_extinction_db", "cross_extinction_db"])
        for node, c in sorted(record.nodes.items()):
            writer.writerow(
                [
                    node_label(node),
                    repr(c.bar_v),
                    repr(c.cross_v),
                    repr(c.bar_extinction_db),
                    repr(c.cross_extinction_db),
                ]
            )
        for (left, right), g in sorted(record.groups.items()):
            writer.writerow(
                [
                    f"{node_label(left)}+{node_label(right)}",
                    "",
                    repr(g.phi_r_v),
                    "",
                    repr(g.extinction_db),
                ]
            )
    _write_manifest(
        out,
        "calibrate",
        {"mesh": args.mesh, "emu": args.emu},
        [args.mesh, args.emu],
        ["cal.json", "extinctions.csv"],
        chip.config.seed,
        args.timestamp,
    )
    print(f"calibrated {len(record.nodes)} nodes, {len(record.failures)} failures")
    return 0 if not record.failures else 1


def _run_circuit_impl(args, want_links: bool, want_unitary: bool) -> int:
    out = _outdir(args)
    chip = _load_chip(args)
    record = _load_record(args.cal)
    spec = _circuit_by_name(args.circuit, chip)

    try:
        result = runner.run_circuit(chip, record, spec)
    except cal.CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outputs = []
    if want_links:
        metrology.save_links(result.links, out / "links.json")
        outputs.append("links.json")
        for report in result.links:
            print(
                f"pair {report.pair} -> outputs {report.outputs}: "
                f"F+ {report.f_plus:.4f}  F- {report.f_minus:.4f}"
            )
        for pair, trace in result.traces.items():
            name = f"fringes_{pair[0]}_{pair[1]}.csv"
            trace.to_csv(out / name)
            outputs.append(name)
    if want_unitary:
        metrology.save_estimate(result.estimate, out / "unitary.json")
        outputs.append("unitary.json")
        print(f"unitary magnitude fidelity F = {result.fidelity:.4f}")

    cal.save_record(record, out / "cal-updated.json")
    outputs.append("cal-updated.json")

    _write_manifest(
        out,
        "run-circuit" if want_links else "reconstruct",
        {"mesh": args.mesh, "emu": args.emu, "cal": args.cal, "circuit": args.circuit},
        [args.mesh, args.emu, args.cal],
        outputs,
        chip.config.seed,
        args.timestamp,
    )
    return 0


def cmd_run_circuit(args) -> int:
    return _run_circuit_impl(args, want_links=True, want_unitary=True)


def cmd_reconstruct(args) -> int:
    return _run_circuit_impl(args, want_links=False, want_unitary=True)


def cmd_sweep(args) -> int:
    out = _outdir(args)
    chip = _load_chip(args)
    record = _load_record(args.cal)
    spec = _circuit_by_name(args.circuit, chip)
    try:
        pair = tuple(int(x) for x in args.pairs.split(","))
    except ValueError:
        raise CliError(f"bad --pairs value {args.pairs!r}; expected like '1,3'", 2)
    if len(pair) != 2:
        raise CliError("--pairs takes exactly two ports", 2)
    pair = (min(pair), max(pair))
    if pair not in spec.outputs:
        print(f"error: circuit {args.circuit} does not route pair {pair}", file=sys.stderr)
        return 1

    cal.calibrate_circuit(chip, record, spec)
    cal.program_circuit(chip, record, spec)
    trace = metrology.run_phase_sweep(chip, record, spec, pair)
    name = f"fringes_{pair[0]}_{pair[1]}.csv"
    trace.to_csv(out / name)
    report = metrology.LinkReport.from_trace(trace)
    print(
        f"pair {pair}: C+ {report.c_plus:.5f} C- {report.c_minus:.5f} "
        f"F+ {report.f_plus:.4f} F- {report.f_minus:.4f} phi_mj {report.phi_mj:.4f}"
    )
    _write_manifest(
        out,
        "sweep",
        {
            "mesh": args.mesh,
            "emu": args.emu,
            "cal": args.cal,
            "circuit": args.circuit,
            "pairs": args.pairs,
        },
        [args.mesh, args.emu, args.cal],
        [name],
        chip.config.seed,
        args.timestamp,
    )
    return 0


def cmd_lattice(args) -> int:
    out = _outdir(args)
    inputs = []
    if args.assembly:
        graph, _ = lattice.assembly_2x2x2(include_optional=args.optional)
    else:
        graph = lattice.unit_cell(0, include_optional=args.optional)
        for m in range(1, args.cells):
            graph = lattice.interconnect([graph, lattice.unit_cell(m, args.optional)], [])
    if args.links:
        data = _load_json(args.links)
        inputs.append(args.links)
        links = [(tuple(a), tuple(b)) for a, b in data["links"]]
        graph = lattice.interconnect([graph], links)
    if args.measure:
        inputs.append(args.measure)
        selection = lattice.load_selection(args.measure)
        graph = lattice.z_measure(graph, selection)

    lattice.save_graph(graph, out / "graph.json")
    lattice.graph_to_edge_csv(graph, out / "edges.csv")
    _write_manifest(
        out,
        "lattice",
        {
            "assembly": args.assembly,
            "cells": args.cells,
            "optional": args.optional,
            "links": args.links,
            "measure": args.measure,
        },
        inputs,
        ["graph.json", "edges.csv"],
        None,
        args.timestamp,
    )
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
    return 0


def cmd_montecarlo(args) -> int:
    out = _outdir(args)
    inputs = []
    noise = paper_noise_spec()
    if args.config:
        data = _load_json(args.config)
        inputs.append(args.config)
        if data.get("noise") not in (None, "paper"):
            noise = _noise_spec(data["noise"])
    summary = runner.monte_carlo(trials=args.trials, seed=args.seed, noise=noise)
    _write_json(out / "montecarlo.json", summary)
    with open(out / "montecarlo.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chip_seed", "mean_link_f", "min_link_f"] + [
            f"unitary_f_{c}" for c in ("1", "2", "3", "4")
        ])
        for chip in summary["chips"]:
            fs = chip["link_f"]
            writer.writerow(
                [chip["seed"], repr(float(np.mean(fs))), repr(float(np.min(fs)))]
                + [repr(chip["unitary_f"][c]) for c in ("1", "2", "3", "4")]
            )
    _write_manifest(
        out,
        "montecarlo",
        {"config": args.config, "trials": args.trials},
        inputs,
        ["montecarlo.json", "montecarlo.csv"],
        args.seed,
        args.timestamp,
    )
    print(
        f"{args.trials} chips: mean link F {summary['link_f_mean']:.4f}, "
        f"min {summary['link_f_min']:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzmesh",
        description="Programmable Mach-Zehnder mesh: emulation, calibration, metrology.",
    )
    parser.add_argument("--version", action="version", version=f"mzmesh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--timestamp", default=DEFAULT_TIMESTAMP,
                       help="timestamp recorded in outputs (fixed for reproducibility)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("new-chip", help="sample an emulated chip to mesh/emu JSON")
    p.add_argument("--config", help="JSON with optional 'noise' and 'emu' sections")
    common(p)
    p.set_defaults(func=cmd_new_chip)

    p = sub.add_parser("calibrate", help="full-mesh bar/cross calibration")
    p.add_argument("--mesh", required=True)
    p.add_argument("--emu", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run-circuit", help="program a circuit, sweep pairs, report fidelities")
    p.add_argument("--mesh", required=True)
    p.add_argument("--emu", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--circuit", required=True, help="1..4 or alt3..alt7")
    common(p, seed=False)
    p.set_defaults(func=cmd_run_circuit)

    p = sub.add_parser("sweep", help="single-pair phase sweep")
    p.add_argument("--mesh", required=True)
    p.add_argument("--emu", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--pairs", required=True, help="input pair, e.g. 1,3")
    common(p, seed=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reconstruct", help="unitary magnitude reconstruction")
    p.add_argument("--mesh", required=True)
    p.add_argument("--emu", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--circuit", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("lattice", help="cluster-graph assembly and z-measurement")
    p.add_argument("--cells", type=int, default=1)
    p.add_argument("--assembly", action="store_true", help="2x2x2 assembly with face links")
    p.add_argument("--optional", action="store_true", help="include the optional bonds")
    p.add_argument("--links", help="JSON file with inter-module links")
    p.add_argument("--measure", help="JSON node-selection pattern for z-measurement")
    common(p, seed=False)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("montecarlo", help="seeded ensemble of calibrated chips")
    p.add_argument("--config", help="JSON with optional 'noise' section")
    p.add_argument("--trials", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except cal.CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
