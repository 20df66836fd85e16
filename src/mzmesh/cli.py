"""Command-line front end: chip synthesis, calibration, circuit runs, lattices.

Each stage reads the previous stage's JSON artifacts and writes its own,
together with a run manifest; re-running a command from its manifest (same
inputs, seed and timestamp) reproduces every output byte for byte.

Exit codes: 0 success, 1 domain failure (calibration/measurement), 2
usage error or malformed input file.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, artifact
from . import calibration as cal
from . import compiler, lattice, metrology, runner
from .emulator import (
    EMU_SCHEMA,
    ActuatorModel,
    DetectorModel,
    EmuConfig,
    EmulatedChip,
    load_chip,
    paper_detector_model,
    save_emu,
)
from .mesh import (
    MESH_SCHEMA,
    NoiseSpec,
    node_label,
    noise_from_dict,
    noise_to_dict,
    paper_noise_spec,
    save_mesh,
)

MANIFEST_SCHEMA = "manifest-v1"
DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"

SCHEMA_VERSIONS = {
    tag.split("-")[0]: tag
    for tag in (MESH_SCHEMA, EMU_SCHEMA, cal.CAL_SCHEMA, metrology.MET_SCHEMA, lattice.GRAPH_SCHEMA)
}


class CliError(Exception):
    """A usage error; exits with code 2."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, args, recorded: dict, inputs: list[str],
                    outputs: list[str], seed) -> None:
    """The run manifest of command ``args``, recording the options ``recorded``."""
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": args.command,
        "args": {k: v for k, v in sorted(recorded.items())},
        "seed": seed,
        "timestamp": args.timestamp,
        "inputs": {p: _sha256(Path(p)) for p in sorted(inputs)},
        "outputs": sorted(outputs),
        "schema_versions": SCHEMA_VERSIONS,
    }
    artifact.write(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _known_keys(section, allowed: tuple[str, ...], where: str) -> dict:
    """``section``, once it is a JSON object whose keys are all ``allowed``."""
    unknown = sorted(set(artifact.checked(section)) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}; expected {', '.join(allowed)}")
    return section


def _config_noise(data: dict, keys: tuple[str, ...], ideal: bool) -> NoiseSpec | None:
    """The ``noise`` section of a config whose top-level keys are ``keys``:
    "paper" (the default), a noise-spec object, or, where ``ideal`` allows
    a chip without spread, "ideal" or null (None)."""
    noise = _known_keys(data, keys, "config").get("noise", "paper")
    if noise == "paper":
        return paper_noise_spec()
    if isinstance(noise, dict):
        return noise_from_dict(noise)
    if ideal and noise in (None, "ideal"):
        return None
    names = '"paper", "ideal", null' if ideal else '"paper"'
    raise ValueError(f"bad noise spec: expected {names} or a noise-spec object, got {noise!r}")


def _chip_config(data: dict, seed: int) -> tuple[NoiseSpec | None, EmuConfig]:
    """The noise spec and emu config of a new-chip config (``{}`` for none)."""
    noise = _config_noise(data, ("noise", "emu"), ideal=True)
    emu_cfg = _known_keys(data.get("emu", {}), ("actuator", "detector", "offset_scale"), "emu")
    for key, value in emu_cfg.items():  # numbers, or objects of numbers
        for name, v in value.items() if isinstance(value, dict) else [(key, value)]:
            artifact.number(v, name)
    if "detector" in emu_cfg:
        detector = DetectorModel(**emu_cfg["detector"])
    else:
        detector = paper_detector_model() if noise is not None else DetectorModel()
    emu = EmuConfig(
        actuator=ActuatorModel(**emu_cfg.get("actuator", {})),
        detector=detector,
        offset_scale=float(emu_cfg.get("offset_scale", 1.0 if noise is not None else 0.0)),
        seed=seed,
    )
    return noise, emu


def _integer(least: int, kind: str):
    """argparse type of an integer of at least ``least``, named a ``kind``
    integer in the error message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


def _circuit_by_name(name: str) -> compiler.CircuitSpec:
    circuits = compiler.ohqe_circuits()
    if name not in circuits:
        raise CliError(f"unknown circuit {name!r}; choose from {', '.join(sorted(circuits))}")
    return circuits[name]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_new_chip(args) -> int:
    out = _outdir(args)
    inputs = []
    if args.config:
        inputs.append(args.config)
        noise, emu = artifact.read(args.config, lambda d: _chip_config(d, args.seed), "config")
    else:
        noise, emu = _chip_config({}, args.seed)
    mesh_state = runner.build_mesh(noise, seed=args.seed)

    save_mesh(mesh_state, out / "mesh.json")
    save_emu(emu, out / "emu.json")
    _write_manifest(
        out,
        args,
        {"config": args.config, "noise": noise_to_dict(noise) if noise else None},
        inputs,
        ["mesh.json", "emu.json"],
        args.seed,
    )
    print(f"wrote {out/'mesh.json'} and {out/'emu.json'}")
    return 0


def cmd_calibrate(args) -> int:
    out = _outdir(args)
    chip = load_chip(args.mesh, args.emu)
    record = cal.calibrate_full_mesh(chip)
    # Pre-tune the double-MZI groups of the default circuits so the stored
    # configuration programs them without re-optimisation; those circuits
    # exist only on a chip with their mode count.
    circuits = compiler.ohqe_circuits()
    if not record.failures and chip.n_modes == circuits["1"].n_modes:
        for name in runner.DEFAULT_CIRCUITS:
            for group in circuits[name].groups:
                if (group.left, group.right) not in record.groups:
                    cal.calibrate_corrected_cross(chip, group, record)
    record.timestamp = args.timestamp
    cal.save_record(record, out / "cal.json")

    artifact.write_csv(
        out / "extinctions.csv",
        ["element", "bar_v", "cross_v", "bar_extinction_db", "cross_extinction_db"],
        [[node_label(node), c.bar_v, c.cross_v, c.bar_extinction_db, c.cross_extinction_db]
         for node, c in sorted(record.nodes.items())]
        + [[f"{node_label(left)}+{node_label(right)}", None, g.phi_r_v, None, g.extinction_db]
           for (left, right), g in sorted(record.groups.items())],
    )
    _write_manifest(
        out,
        args,
        {"mesh": args.mesh, "emu": args.emu},
        [args.mesh, args.emu],
        ["cal.json", "extinctions.csv"],
        chip.config.seed,
    )
    print(f"calibrated {len(record.nodes)} nodes, {len(record.failures)} failures")
    return 0 if not record.failures else 1


def _circuit_inputs(args):
    """The output directory, chip, calibration record and circuit of a circuit command."""
    out = _outdir(args)
    chip = load_chip(args.mesh, args.emu)
    record = cal.load_record(args.cal)
    for node, entry in record.nodes.items():
        if not chip.topology.has_node(node):
            raise CliError(f"{args.cal}: node {node_label(node)} is not on the "
                           f"{chip.n_modes}-mode mesh")
        if entry.input_port > chip.n_modes:
            raise CliError(f"{args.cal}: node {node_label(node)} has input_port "
                           f"{entry.input_port} outside 1..{chip.n_modes}")
    return out, chip, record, _circuit_by_name(args.circuit)


def _write_circuit_manifest(out: Path, args, chip: EmulatedChip, outputs: list[str],
                            **extra) -> None:
    _write_manifest(
        out,
        args,
        {"mesh": args.mesh, "emu": args.emu, "cal": args.cal, "circuit": args.circuit, **extra},
        [args.mesh, args.emu, args.cal],
        outputs,
        chip.config.seed,
    )


def cmd_run_circuit(args) -> int:
    """``run-circuit``, and ``reconstruct``, which writes no links or fringes."""
    out, chip, record, spec = _circuit_inputs(args)
    result = runner.run_circuit(chip, record, spec)

    outputs = ["unitary.json", "cal-updated.json"]
    if args.command == "run-circuit":
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
    metrology.save_estimate(result.estimate, out / "unitary.json")
    print(f"unitary magnitude fidelity F = {result.estimate.fidelity:.4f}")
    cal.save_record(record, out / "cal-updated.json")
    _write_circuit_manifest(out, args, chip, outputs)
    return 0


def cmd_sweep(args) -> int:
    out, chip, record, spec = _circuit_inputs(args)
    try:
        pair = tuple(int(x) for x in args.pairs.split(","))
    except ValueError:
        raise CliError(f"bad --pairs value {args.pairs!r}; expected like '1,3'")
    if len(pair) != 2:
        raise CliError("--pairs takes exactly two ports")
    for port in pair:
        if not 1 <= port <= chip.n_modes:
            raise CliError(f"--pairs {args.pairs!r}: port {port} is outside 1..{chip.n_modes}")
    if pair[0] == pair[1]:
        raise CliError(f"--pairs {args.pairs!r} names port {pair[0]} twice")
    pair = (min(pair), max(pair))
    if pair not in spec.outputs:
        print(f"error: circuit {args.circuit} does not route pair {pair}", file=sys.stderr)
        return 1

    runner.prepare_circuit(chip, record, spec)
    trace = metrology.run_phase_sweep(chip, record, spec, pair)
    name = f"fringes_{pair[0]}_{pair[1]}.csv"
    trace.to_csv(out / name)
    report = metrology.LinkReport.from_trace(trace)
    print(
        f"pair {pair}: C+ {report.c_plus:.5f} C- {report.c_minus:.5f} "
        f"F+ {report.f_plus:.4f} F- {report.f_minus:.4f} phi_mj {report.phi_mj:.4f}"
    )
    _write_circuit_manifest(out, args, chip, [name], pairs=args.pairs)
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
    # a file's unknown or ill-formed nodes are faults of that file
    if args.links:
        inputs.append(args.links)
        graph = artifact.read(args.links, lambda d: lattice.interconnect([graph], d["links"]),
                              "links")
    if args.measure:
        inputs.append(args.measure)
        graph = artifact.read(args.measure, lambda d: lattice.z_measure(graph, d["measure"]),
                              "selection")

    lattice.save_graph(graph, out / "graph.json")
    lattice.graph_to_edge_csv(graph, out / "edges.csv")
    _write_manifest(
        out,
        args,
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
    )
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
    return 0


def cmd_montecarlo(args) -> int:
    out = _outdir(args)
    inputs = []
    noise = None
    if args.config:
        inputs.append(args.config)
        noise = artifact.read(args.config, lambda d: _config_noise(d, ("noise",), ideal=False),
                              "config")
    summary = runner.monte_carlo(trials=args.trials, seed=args.seed, noise=noise)
    artifact.write(out / "montecarlo.json", summary)
    artifact.write_csv(
        out / "montecarlo.csv",
        ["chip_seed", "mean_link_f", "min_link_f"]
        + [f"unitary_f_{c}" for c in runner.DEFAULT_CIRCUITS],
        [[chip["seed"], runner.stat_or_nan(np.mean, chip["link_f"]),
          runner.stat_or_nan(np.min, chip["link_f"])]
         + [chip["unitary_f"].get(c, math.nan) for c in runner.DEFAULT_CIRCUITS]
         for chip in summary["chips"]],
    )
    _write_manifest(
        out,
        args,
        {"config": args.config, "trials": args.trials},
        inputs,
        ["montecarlo.json", "montecarlo.csv"],
        args.seed,
    )
    print(
        f"{args.trials} chips: mean link F {summary['link_f_mean']:.4f}, "
        f"min {summary['link_f_min']:.4f}"
    )
    failed = 0
    for chip in summary["chips"]:
        for name, reason in sorted(chip["circuit_failures"].items()):
            print(f"chip {chip['seed']}: circuit {name} failed: {reason}")
            failed += 1
    if failed:
        print(f"{failed} circuits failed")
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
            p.add_argument("--seed", type=_integer(0, "non-negative"), default=0)

    p = sub.add_parser("new-chip", help="sample an emulated chip to mesh/emu JSON")
    p.add_argument("--config", help="JSON with optional 'noise' and 'emu' sections")
    common(p)
    p.set_defaults(func=cmd_new_chip)

    p = sub.add_parser("calibrate", help="full-mesh bar/cross calibration")
    p.add_argument("--mesh", required=True)
    p.add_argument("--emu", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_calibrate)

    circuit = argparse.ArgumentParser(add_help=False)  # the circuit commands' inputs
    for option in ("--mesh", "--emu", "--cal"):
        circuit.add_argument(option, required=True)
    circuit.add_argument("--circuit", required=True, help="1..4 or alt3..alt7")

    p = sub.add_parser("run-circuit", parents=[circuit],
                       help="program a circuit, sweep pairs, report fidelities")
    common(p, seed=False)
    p.set_defaults(func=cmd_run_circuit)

    p = sub.add_parser("sweep", parents=[circuit], help="single-pair phase sweep")
    p.add_argument("--pairs", required=True, help="input pair, e.g. 1,3")
    common(p, seed=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reconstruct", parents=[circuit], help="unitary magnitude reconstruction")
    common(p, seed=False)
    p.set_defaults(func=cmd_run_circuit)

    p = sub.add_parser("lattice", help="cluster-graph assembly and z-measurement")
    p.add_argument("--cells", type=_integer(1, "positive"), default=1)
    p.add_argument("--assembly", action="store_true", help="2x2x2 assembly with face links")
    p.add_argument("--optional", action="store_true", help="include the optional bonds")
    p.add_argument("--links", help="JSON file with inter-module links")
    p.add_argument("--measure", help="JSON node-selection pattern for z-measurement")
    common(p, seed=False)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("montecarlo", help="seeded ensemble of calibrated chips")
    p.add_argument("--config", help="JSON with optional 'noise' section")
    p.add_argument("--trials", type=_integer(1, "positive"), default=10)
    common(p)
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:  # artifact.ArtifactError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cal.CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
