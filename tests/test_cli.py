import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mzmesh import __version__
from mzmesh.cli import main
from mzmesh.compiler import Gate
from mzmesh.mesh import node_label, noise_to_dict, nominal_mesh, paper_noise_spec, save_mesh
from mzmesh.runner import DEFAULT_CIRCUITS

DATA = Path(__file__).parent.parent / "src" / "mzmesh" / "data"


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def ideal_chip_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("chip")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"noise": "ideal"}))
    assert run("new-chip", "--config", str(cfg), "--seed", "3", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def calibrated_dir(ideal_chip_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cal")
    code = run(
        "calibrate",
        "--mesh", str(ideal_chip_dir / "mesh.json"),
        "--emu", str(ideal_chip_dir / "emu.json"),
        "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def six_mode_dir(ideal_chip_dir, tmp_path_factory):
    """A calibrated 6-mode chip: its mesh, the ideal chip's emu.json and cal.json."""
    out = tmp_path_factory.mktemp("six")
    save_mesh(nominal_mesh(6), out / "mesh.json")
    code = run(
        "calibrate",
        "--mesh", str(out / "mesh.json"),
        "--emu", str(ideal_chip_dir / "emu.json"),
        "--out", str(out),
    )
    return out, code


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_mzmesh_version():
    done = subprocess.run([sys.executable, "-m", "mzmesh", "--version"],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"mzmesh {__version__}"


@pytest.mark.parametrize("code", [
    "import mzmesh",
    "import runpy, sys\nsys.argv = ['mzmesh', '--version']\n"
    "try:\n    runpy.run_module('mzmesh', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n    pass",
], ids=["import", "version"])
def test_runtime_loads_no_scipy(code):
    # numpy is the one runtime dependency; scipy serves only as a test oracle
    check = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code + check],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestNewChip:
    def test_ideal_chip_has_no_imperfections(self, ideal_chip_dir):
        data = json.loads((ideal_chip_dir / "mesh.json").read_text())
        etas = {d["eta_in"] for d in data["nodes"].values()}
        assert etas == {0.5}

    def test_same_seed_identical_files(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("new-chip", "--seed", "9", "--out", str(out)) == 0
            outs.append(out)
        for fname in ("mesh.json", "emu.json", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_paper_chip_loss_band(self, tmp_path):
        import numpy as np

        from mzmesh.mesh import CompiledMesh, load_mesh

        out = tmp_path / "paper"
        assert run("new-chip", "--seed", "4", "--out", str(out)) == 0
        bar = np.full(28, np.pi / 2)
        u = CompiledMesh(load_mesh(out / "mesh.json")).transfer(bar, -bar, np.zeros(28), np.zeros(28))
        totals = 10 * np.log10(np.sum(np.abs(u) ** 2, axis=0))
        assert np.all(totals < -14.0) and np.all(totals > -24.0)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run("new-chip", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


class TestCalibrate:
    def test_outputs(self, calibrated_dir):
        assert (calibrated_dir / "cal.json").exists()
        csv_lines = (calibrated_dir / "extinctions.csv").read_text().splitlines()
        # header + 28 nodes + the default circuits' double-MZI groups
        assert len(csv_lines) >= 29
        assert sum(1 for ln in csv_lines if "+" in ln) >= 1

    def test_missing_chip_exits_2(self, tmp_path):
        assert (
            run(
                "calibrate",
                "--mesh", str(tmp_path / "nope.json"),
                "--emu", str(tmp_path / "nope2.json"),
                "--out", str(tmp_path / "o"),
            )
            == 2
        )


    def test_tiny_v_pi_ends(self, ideal_chip_dir, tmp_path):
        # a drive range of some 1e301 turns: the calibration ends, each node
        # recorded or failed
        emu = json.loads((ideal_chip_dir / "emu.json").read_text())
        emu["actuator"]["v_pi"] = 1e-300
        (tmp_path / "emu.json").write_text(json.dumps(emu))
        code = run("calibrate", "--mesh", str(ideal_chip_dir / "mesh.json"),
                   "--emu", str(tmp_path / "emu.json"), "--out", str(tmp_path / "o"))
        assert code in (0, 1)

    def test_six_mode_chip(self, six_mode_dir):
        # the default circuits are 8-mode: a 6-mode chip calibrates its own
        # 15 nodes and pretunes no corrected crossings
        out, code = six_mode_dir
        assert code == 0
        assert len(json.loads((out / "cal.json").read_text())["nodes"]) == 15


class TestRunCircuit:
    def test_ideal_circuit_full_fidelity(self, ideal_chip_dir, calibrated_dir, tmp_path):
        out = tmp_path / "run"
        code = run(
            "run-circuit",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(calibrated_dir / "cal.json"),
            "--circuit", "1",
            "--out", str(out),
        )
        assert code == 0
        links = json.loads((out / "links.json").read_text())
        for link in links["links"]:
            assert abs(link["f_plus"] - 1.0) < 1e-9
            assert abs(link["f_minus"] - 1.0) < 1e-9
        unitary = json.loads((out / "unitary.json").read_text())
        assert abs(unitary["fidelity"] - 1.0) < 1e-9
        assert (out / "fringes_1_2.csv").exists()

    def test_unbalanced_circuit_exits_1(self, ideal_chip_dir, calibrated_dir, tmp_path,
                                         capsys, unbalance, default_circuits):
        unbalance("1")
        out = tmp_path / "run"
        code = run(
            "run-circuit",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(calibrated_dir / "cal.json"),
            "--circuit", "1",
            "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        hadamards = [n for n, g in default_circuits["1"].gates.items() if g is Gate.HADAMARD]
        assert any(node_label(n) in err for n in hadamards)
        assert not (out / "manifest.json").exists()

    def test_fringe_csv_is_the_sweep_behind_links(self, tmp_path):
        # a noisy chip: a second sweep would give different contrasts
        chip, cal_dir, out = tmp_path / "chip", tmp_path / "cal", tmp_path / "run"
        assert run("new-chip", "--seed", "5", "--out", str(chip)) == 0
        files = ("--mesh", str(chip / "mesh.json"), "--emu", str(chip / "emu.json"))
        assert run("calibrate", *files, "--out", str(cal_dir)) == 0
        code = run("run-circuit", *files, "--cal", str(cal_dir / "cal.json"),
                   "--circuit", "1", "--out", str(out))
        assert code == 0
        links = json.loads((out / "links.json").read_text())["links"]
        assert len(links) == 4
        for link in links:
            with open(out / "fringes_{}_{}.csv".format(*link["pair"]), newline="") as fh:
                rows = list(csv.DictReader(fh))
            raw = np.zeros((5, 125, 8))
            for row in rows:
                k, p, ch = int(row["alpha_index"]), int(row["period"]), int(row["output_port"])
                raw[p, k, ch - 1] = float(row["power"])
            averaged = raw.mean(axis=0)
            for key, port in zip(("c_plus", "c_minus"), link["outputs"]):
                curve = averaged[:, port - 1]
                assert curve.min() / curve.max() == pytest.approx(link[key], rel=1e-12)

    def test_cal_with_missing_fields_exits_2(self, ideal_chip_dir, calibrated_dir,
                                             tmp_path, capsys):
        data = json.loads((calibrated_dir / "cal.json").read_text())
        del data["chip_id"]
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps(data))
        code = run(
            "run-circuit",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(bad),
            "--circuit", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "missing field 'chip_id'" in capsys.readouterr().err

    def test_cal_node_with_missing_fields_exits_2(self, ideal_chip_dir, calibrated_dir,
                                                  tmp_path, capsys):
        data = json.loads((calibrated_dir / "cal.json").read_text())
        del data["nodes"]["U_0_0"]["bar_v"]
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps(data))
        code = run(
            "sweep",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(bad),
            "--circuit", "1",
            "--pairs", "1,2",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "bad calibration file" in capsys.readouterr().err

    def test_unknown_circuit_exits_2(self, ideal_chip_dir, calibrated_dir, tmp_path):
        assert (
            run(
                "run-circuit",
                "--mesh", str(ideal_chip_dir / "mesh.json"),
                "--emu", str(ideal_chip_dir / "emu.json"),
                "--cal", str(calibrated_dir / "cal.json"),
                "--circuit", "99",
                "--out", str(tmp_path / "x"),
            )
            == 2
        )


    @pytest.mark.parametrize("command", ["run-circuit", "sweep", "reconstruct"])
    def test_circuit_mode_mismatch_exits_2(self, six_mode_dir, ideal_chip_dir,
                                           tmp_path, capsys, command):
        out, _ = six_mode_dir
        extra = ("--pairs", "1,2") if command == "sweep" else ()
        code = run(
            command,
            "--mesh", str(out / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(out / "cal.json"),
            "--circuit", "1",
            *extra,
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "8 modes" in err and "chip has 6" in err


class TestSweep:
    def test_single_pair(self, ideal_chip_dir, calibrated_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            "sweep",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(calibrated_dir / "cal.json"),
            "--circuit", "1",
            "--pairs", "1,2",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "fringes_1_2.csv").exists()

    def test_unrouted_pair_exits_1(self, ideal_chip_dir, calibrated_dir, tmp_path):
        assert (
            run(
                "sweep",
                "--mesh", str(ideal_chip_dir / "mesh.json"),
                "--emu", str(ideal_chip_dir / "emu.json"),
                "--cal", str(calibrated_dir / "cal.json"),
                "--circuit", "1",
                "--pairs", "1,3",
                "--out", str(tmp_path / "x"),
            )
            == 1
        )


    @pytest.mark.parametrize("pairs, message", [
        ("1,9", "port 9 is outside 1..8"),
        ("0,3", "port 0 is outside 1..8"),
        ("1,1", "names port 1 twice"),
    ])
    def test_malformed_pair_exits_2(self, ideal_chip_dir, calibrated_dir, tmp_path, capsys,
                                    pairs, message):
        code = run(
            "sweep",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(calibrated_dir / "cal.json"),
            "--circuit", "1",
            "--pairs", pairs,
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--pairs" in err and message in err


class TestReconstruct:
    def test_unitary_only(self, ideal_chip_dir, calibrated_dir, tmp_path):
        out = tmp_path / "rec"
        code = run(
            "reconstruct",
            "--mesh", str(ideal_chip_dir / "mesh.json"),
            "--emu", str(ideal_chip_dir / "emu.json"),
            "--cal", str(calibrated_dir / "cal.json"),
            "--circuit", "2",
            "--out", str(out),
        )
        assert code == 0
        unitary = json.loads((out / "unitary.json").read_text())
        assert abs(unitary["fidelity"] - 1.0) < 1e-6
        assert not (out / "links.json").exists()


class TestLattice:
    def test_unit_cell_counts(self, tmp_path):
        out = tmp_path / "cell"
        assert run("lattice", "--out", str(out)) == 0
        graph = json.loads((out / "graph.json").read_text())
        assert len(graph["nodes"]) == 8
        assert len(graph["edges"]) == 12

    def test_assembly_with_measurement(self, tmp_path):
        out = tmp_path / "asm"
        code = run(
            "lattice",
            "--assembly",
            "--measure", str(DATA / "raussendorf_selection.json"),
            "--out", str(out),
        )
        assert code == 0
        graph = json.loads((out / "graph.json").read_text())
        assert len(graph["nodes"]) == 48

    def test_empty_pattern_pass_through(self, tmp_path):
        out = tmp_path / "asm2"
        assert run("lattice", "--assembly", "--out", str(out)) == 0
        graph = json.loads((out / "graph.json").read_text())
        assert len(graph["nodes"]) == 64
        assert len(graph["edges"]) == 144

    def test_links_from_file(self, tmp_path):
        links = tmp_path / "links.json"
        links.write_text(json.dumps({"links": [[[0, 1], [1, 1]], [[0, 2], [1, 2]]]}))
        out = tmp_path / "linked"
        assert run("lattice", "--cells", "2", "--links", str(links), "--out", str(out)) == 0
        graph = json.loads((out / "graph.json").read_text())
        assert len(graph["nodes"]) == 16
        assert len(graph["edges"]) == 26
        tags = {tuple(map(tuple, e[:2])): e[2] for e in graph["edges"]}
        assert tags[((0, 1), (1, 1))] == "inter"


class TestReproducibility:
    def test_rerun_is_byte_identical(self, ideal_chip_dir, tmp_path):
        # same command, same inputs, same seed and timestamp: every output
        # file byte-identical (manifest records no output-dir state)
        dirs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run(
                "calibrate",
                "--mesh", str(ideal_chip_dir / "mesh.json"),
                "--emu", str(ideal_chip_dir / "emu.json"),
                "--out", str(out),
            )
            assert code == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for fname in files:
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), fname

    def test_montecarlo_unknown_noise_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"noise": {"eta_sigma": 0.01, "eta_sgima": 0.02}}))
        code = run("montecarlo", "--config", str(cfg), "--trials", "1",
                   "--out", str(tmp_path / "o"))
        assert code == 2
        assert "bad noise spec" in capsys.readouterr().err

    def test_montecarlo_names_a_failed_circuit(self, tmp_path, capsys, unbalance):
        unbalance("2")
        out = tmp_path / "m"
        code = run("montecarlo", "--trials", "1", "--seed", "7", "--out", str(out))
        assert code == 0
        assert "chip 7: circuit 2 failed: " in capsys.readouterr().out
        summary = json.loads((out / "montecarlo.json").read_text())
        assert list(summary["chips"][0]["circuit_failures"]) == ["2"]
        with open(out / "montecarlo.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["unitary_f_2"] == "nan"
        assert float(row["unitary_f_3"]) > 0.8

    @pytest.mark.parametrize("seed, node", [(0, "U_0_1"), (13, "U_0_3")])
    def test_montecarlo_records_an_uncalibrated_node(self, tmp_path, capsys, seed, node):
        # chips 0 and 13 at 5.5 dB per depth each lose an output-pair node
        # that every circuit drives: the ensemble still writes its files
        cfg = tmp_path / "config.json"
        noise = dataclasses.replace(paper_noise_spec(), loss_db_mean=5.5)
        cfg.write_text(json.dumps({"noise": noise_to_dict(noise)}))
        out = tmp_path / "m"
        code = run("montecarlo", "--config", str(cfg), "--trials", "1", "--seed", str(seed),
                   "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert f"chip {seed}: circuit 1 failed: uncalibrated nodes: {node}\n" in printed
        assert printed.endswith("4 circuits failed\n")
        summary = json.loads((out / "montecarlo.json").read_text())
        assert summary["chips"][0]["circuit_failures"] == dict.fromkeys(
            DEFAULT_CIRCUITS, f"uncalibrated nodes: {node}")
        with open(out / "montecarlo.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["mean_link_f"] == "nan" and row["unitary_f_4"] == "nan"

    def test_montecarlo_chip_without_links(self, tmp_path, unbalance):
        unbalance(*DEFAULT_CIRCUITS)
        out = tmp_path / "m"
        assert run("montecarlo", "--trials", "1", "--out", str(out)) == 0
        with open(out / "montecarlo.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["mean_link_f"] == row["min_link_f"] == row["unitary_f_1"] == "nan"

    def test_montecarlo_reproducible(self, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            code = run("montecarlo", "--trials", "1", "--seed", "7", "--out", str(out))
            assert code == 0
            outs.append(out)
        for fname in ("montecarlo.json", "montecarlo.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_every_output_is_listed_and_every_csv_reads_back_as_numbers(
        ideal_chip_dir, calibrated_dir, tmp_path):
    chip = ("--mesh", str(ideal_chip_dir / "mesh.json"), "--emu", str(ideal_chip_dir / "emu.json"))
    circuit = (*chip, "--cal", str(calibrated_dir / "cal.json"), "--circuit", "1")
    commands = {
        "new-chip": ("new-chip", "--seed", "2"),
        "run-circuit": ("run-circuit", *circuit),
        "sweep": ("sweep", *circuit, "--pairs", "1,2"),
        "reconstruct": ("reconstruct", *circuit),
        "lattice": ("lattice", "--assembly", "--measure", str(DATA / "raussendorf_selection.json")),
        "montecarlo": ("montecarlo", "--trials", "1"),
    }
    dirs = {"calibrate": calibrated_dir}
    for name, argv in commands.items():
        dirs[name] = tmp_path / name
        assert run(*argv, "--out", str(dirs[name])) == 0, name
    for name, out in dirs.items():
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    # numeric columns of each CSV (None: every column); the group rows of
    # extinctions.csv leave the bar columns empty
    numeric = {
        dirs["calibrate"] / "extinctions.csv":
            ("bar_v", "cross_v", "bar_extinction_db", "cross_extinction_db"),
        dirs["montecarlo"] / "montecarlo.csv": None,
        dirs["run-circuit"] / "fringes_1_2.csv": None,
        dirs["lattice"] / "edges.csv": ("module_a", "qubit_a", "module_b", "qubit_b"),
    }
    for path, columns in numeric.items():
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, path
        for row in rows:
            group = "+" in row.get("element", "")
            for column in columns or row:
                if group and column in ("bar_v", "bar_extinction_db"):
                    assert row[column] == ""
                else:
                    float(row[column])


# ---------------------------------------------------------------------------
# Malformed input files: every file-taking option exits 2 naming the file
# ---------------------------------------------------------------------------

DROP = object()


def edited(path, value):
    """A case: the good document with the entry at ``path`` set to ``value``
    (or removed, for DROP)."""
    def make(doc):
        *parents, last = path
        entry = doc
        for key in parents:
            entry = entry[key]
        if value is DROP:
            del entry[last]
        else:
            entry[last] = value
        return doc
    return make


def relabelled(doc, label="U_1", old="U_0_0"):
    doc["nodes"][label] = doc["nodes"].pop(old)
    return doc


def doubled(section, key, twin):
    """A case: the good document with ``section``'s entry ``key`` also under
    ``twin``, another spelling of the same node or cell."""
    def make(doc):
        doc[section][twin] = doc[section][key]
        return doc
    return make


def repeated(path, key, first):
    """A case: the good document as text whose object at ``path`` names
    ``key`` twice, first with ``first(value)`` and then with its own value."""
    def make(doc):
        obj = doc
        for k in path:
            obj = obj[k]
        text = f"{{{json.dumps(key)}: {json.dumps(first(obj[key]))}, {json.dumps(obj)[1:]}"
        if not path:
            return text
        return json.dumps(edited(path, "<repeated>")(doc)).replace('"<repeated>"', text)
    return make


def group_listed_twice(doc):
    doc["groups"].append({**doc["groups"][0], "theta_l_v": 3.0})
    return doc


# Each case maps the option's good document to the bad one; None means no
# file at all and a str is written verbatim.  The configs and the lattice
# files carry no schema tag, and the configs have no required field, so
# those options take their own ill-formed sections in place of such cases.
COMMON = {
    "missing file": None,
    "bad JSON": lambda doc: "{not json",
    "top-level list": lambda doc: [doc],
}
TAGGED = {**COMMON, "wrong schema": edited(("schema",), "graph-v1")}
# noise specs that parse but hold no finite number where one is needed
BAD_NOISE = {
    "text eta_mean": edited(("noise",), {"eta_mean": "x"}),
    "eta_bounds triple": edited(("noise",), {"eta_bounds": [0.4, 0.5, 0.6]}),
    "text tap_db": edited(("noise",), {"tap_db": "x"}),
    "NaN eta_sigma": edited(("noise",), {"eta_sigma": math.nan}),
    "infinite loss_db_mean": edited(("noise",), {"loss_db_mean": math.inf}),
}
FILE_CASES = {
    "--mesh": {
        **TAGGED,
        "missing field": edited(("n_modes",), DROP),
        "wrong type": edited(("nodes", "U_0_0", "eta_in"), "x"),
        "null n_modes": edited(("n_modes",), None),
        "fractional n_modes": edited(("n_modes",), 8.9),
        "boolean n_modes": edited(("n_modes",), True),
        "nodes list": edited(("nodes",), []),
        "bad node label": relabelled,
        "scalar monitor_gains": edited(("nodes", "U_0_0", "monitor_gains"), 1.0),
        "missing passthrough_loss": edited(("passthrough_loss",), DROP),
        "unknown node key": edited(("nodes", "U_0_0", "eta_inn"), 0.5),
        "missing node key": edited(("nodes", "U_0_0", "tap_loss"), DROP),
        "NaN monitor gain": edited(("nodes", "U_0_0", "monitor_gains"), [math.nan, 1.0]),
        "pass-through gain": edited(("passthrough_loss", "1_0"), 5.0),
        "negative pass-through": edited(("passthrough_loss", "1_0"), -1.0),
        "NaN pass-through": edited(("passthrough_loss", "1_0"), math.nan),
        "pass-through on a coupled cell": edited(("passthrough_loss", "0_0"), 0.9),
        "NaN output gain": edited(("output_gains", 0), math.nan),
        "boolean tap_loss": edited(("nodes", "U_0_0", "tap_loss"), True),
        "boolean theta1": edited(("nodes", "U_0_0", "theta1"), False),
        "boolean monitor gain": edited(("nodes", "U_0_0", "monitor_gains", 0), True),
        "boolean output gain": edited(("output_gains", 0), True),
        "boolean pass-through": edited(("passthrough_loss", "1_0"), True),
        "node label with a tail": lambda doc: relabelled(doc, "Q_0_0_extra"),
        "node named twice": doubled("nodes", "U_0_0", "U_00_0"),
        "pass-through named twice": doubled("passthrough_loss", "1_0", "01_0"),
        "node key repeated": repeated(("nodes",), "U_0_0", lambda node: {**node, "theta1": 1.0}),
    },
    "--emu": {
        **TAGGED,
        "missing field": edited(("actuator",), DROP),
        "wrong type": edited(("offset_scale",), "x"),
        "empty detector": edited(("detector",), {}),
        "missing detector field": edited(("detector", "additive_floor"), DROP),
        "NaN offset_scale": edited(("offset_scale",), math.nan),
        "NaN v_pi": edited(("actuator", "v_pi"), math.nan),
        "NaN nonlinearity": edited(("actuator", "nonlinearity"), math.nan),
        "phase overflows at the range end": edited(("actuator", "v_pi"), 1e-310),
        "NaN relative_noise_sigma": edited(("detector", "relative_noise_sigma"), math.nan),
        "infinite additive_floor": edited(("detector", "additive_floor"), math.inf),
        "negative seed": edited(("seed",), -1),
        "fractional seed": edited(("seed",), 1.5),
        "boolean v_pi": edited(("actuator", "v_pi"), True),
        "boolean additive_floor": edited(("detector", "additive_floor"), True),
        "boolean offset_scale": edited(("offset_scale",), True),
        "field repeated": repeated(("actuator",), "v_pi", lambda v_pi: 2 * v_pi),
    },
    "--cal": {
        **TAGGED,
        "missing field": edited(("nodes",), DROP),
        "wrong type": edited(("nodes", "U_0_0", "bar_v"), "x"),
        "nodes list": edited(("nodes",), []),
        "unknown group key": edited(("groups", 0, "flaged"), True),
        "missing node field": edited(("nodes", "U_0_0", "arm"), DROP),
        "missing groups": edited(("groups",), DROP),
        "failure not a pair": edited(("failures",), ["xy"]),
        "NaN bar_v": edited(("nodes", "U_0_0", "bar_v"), math.nan),
        "bar_v beyond the drive": edited(("nodes", "U_0_0", "bar_v"), 30.0),
        "split_v beyond the drive": edited(("nodes", "U_0_0", "split_v"), -30.0),
        "NaN cross_v of a bar node": edited(("nodes", "U_6_0", "cross_v"), math.nan),
        "NaN group voltage": edited(("groups", 0, "theta_l_v"), math.nan),
        "arm not 0 or 1": edited(("nodes", "U_0_0", "arm"), 5),
        "negative input_port": edited(("nodes", "U_0_0", "input_port"), -3),
        "input_port beyond the mesh": edited(("nodes", "U_0_0", "input_port"), 99),
        "node off the mesh": lambda doc: relabelled(doc, "U_9_0"),
        "NaN bar_extinction_db": edited(("nodes", "U_0_0", "bar_extinction_db"), math.nan),
        "string flagged": edited(("groups", 0, "flagged"), "maybe"),
        "integer flagged": edited(("groups", 0, "flagged"), 7),
        "negative n_evals": edited(("groups", 0, "n_evals"), -3),
        "fractional n_evals": edited(("groups", 0, "n_evals"), 1.5),
        "boolean n_evals": edited(("groups", 0, "n_evals"), True),
        "NaN group extinction_db": edited(("groups", 0, "extinction_db"), math.nan),
        "infinite group extinction_db": edited(("groups", 0, "extinction_db"), math.inf),
        "boolean bar_v": edited(("nodes", "U_0_0", "bar_v"), True),
        "boolean cross_v": edited(("nodes", "U_0_0", "cross_v"), False),
        "boolean bar_extinction_db": edited(("nodes", "U_0_0", "bar_extinction_db"), True),
        "boolean group phi_r_v": edited(("groups", 0, "phi_r_v"), True),
        "node label with a tail": lambda doc: relabelled(doc, "U_1_0_junk", "U_1_0"),
        "node key repeated": repeated(("nodes",), "U_0_0", lambda node: {**node, "bar_v": 3.0}),
        "group listed twice": group_listed_twice,
    },
    "new-chip --config": {
        **COMMON,
        "unknown noise field": edited(("noise",), {"eta_sgima": 0.1}),
        "wrong type": edited(("emu", "offset_scale"), "x"),
        "emu list": edited(("emu",), []),
        "scalar noise": edited(("noise",), 5),
        "unknown key": edited(("nosie",), "ideal"),
        "unknown emu key": edited(("emu", "ofset_scale"), 0.0),
        "boolean v_pi": edited(("emu",), {"actuator": {"v_pi": True}}),
        "boolean additive_floor": edited(("emu",), {"detector": {"additive_floor": True}}),
        "boolean offset_scale": edited(("emu", "offset_scale"), True),
        **BAD_NOISE,
    },
    "montecarlo --config": {
        **COMMON,
        "unknown noise field": edited(("noise",), {"eta_sgima": 0.1}),
        "wrong type": edited(("noise",), {"eta_sigma": "x"}),
        "scalar noise": edited(("noise",), 5),
        "ideal noise": edited(("noise",), "ideal"),
        "unknown key": edited(("nosie",), "paper"),
        **BAD_NOISE,
    },
    "--links": {
        **COMMON,
        "missing field": edited(("links",), DROP),
        "wrong type": edited(("links",), 5),
        "short entry": edited(("links",), [[[0, 1]]]),
        "long entry": edited(("links",), [[[0, 1], [1, 1], [1, 2]]]),
        "unknown nodes": edited(("links",), [[[0, 1], [7, 1]]]),
        # each would equal an integer node and be written back as it is
        "float qubit": edited(("links",), [[[0, 8.0], [1, 1]]]),
        "boolean qubit": edited(("links",), [[[0, 8], [1, True]]]),
    },
    "--measure": {
        **COMMON,
        "missing field": edited(("measure",), DROP),
        "wrong type": edited(("measure",), [1, 2]),
        "unknown nodes": edited(("measure",), [[9, 1]]),
        "boolean qubit": edited(("measure",), [[0, True]]),
        "float module": edited(("measure",), [[0.0, 1]]),
    },
}


def good_document(option, chip_dir, cal_dir):
    files = {"--mesh": chip_dir / "mesh.json", "--emu": chip_dir / "emu.json",
             "--cal": cal_dir / "cal.json"}
    if option in files:
        return json.loads(files[option].read_text())
    return {
        "new-chip --config": {"noise": "ideal", "emu": {"offset_scale": 0.0}},
        "montecarlo --config": {"noise": "paper"},
        "--links": {"links": [[[0, 1], [1, 1]]]},
        "--measure": {"measure": [[0, 1]]},
    }[option]


def command(option, bad, chip_dir, cal_dir, out):
    chip = {"--mesh": str(chip_dir / "mesh.json"), "--emu": str(chip_dir / "emu.json"),
            "--cal": str(cal_dir / "cal.json")}
    if option in chip:
        chip[option] = bad
        name = "calibrate" if option != "--cal" else "reconstruct"
        extra = ("--cal", chip["--cal"], "--circuit", "1") if name == "reconstruct" else ()
        return (name, "--mesh", chip["--mesh"], "--emu", chip["--emu"], *extra, "--out", out)
    return {
        "new-chip --config": ("new-chip", "--config", bad),
        "montecarlo --config": ("montecarlo", "--config", bad, "--trials", "1"),
        "--links": ("lattice", "--cells", "2", "--links", bad),
        "--measure": ("lattice", "--assembly", "--measure", bad),
    }[option] + ("--out", out)


@pytest.mark.parametrize(
    "option,case",
    [(option, case) for option, cases in FILE_CASES.items() for case in cases],
)
def test_malformed_file_exits_2(option, case, ideal_chip_dir, calibrated_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    make = FILE_CASES[option][case]
    if make is not None:
        doc = make(good_document(option, ideal_chip_dir, calibrated_dir))
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out"
    assert run(*command(option, str(bad), ideal_chip_dir, calibrated_dir, str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("option,case,named", [
    ("new-chip --config", "unknown key", "'nosie'"),
    ("new-chip --config", "unknown emu key", "'ofset_scale'"),
    ("montecarlo --config", "unknown key", "'nosie'"),
    ("montecarlo --config", "ideal noise", 'expected "paper" or a noise-spec object'),
    ("--cal", "input_port beyond the mesh", "node U_0_0 has input_port 99 outside 1..8"),
    ("--emu", "phase overflows at the range end", "the phase at +/- 25.0 V must be finite"),
    ("--cal", "node off the mesh", "node U_9_0 is not on the 8-mode mesh"),
    # a JSON boolean is never read as a number, and each node label and
    # pass-through key has one spelling, the one written back
    ("--mesh", "boolean tap_loss", "tap_loss must be a number, got True"),
    ("--mesh", "boolean theta1", "theta1 must be a number, got False"),
    ("--mesh", "boolean monitor gain", "monitor_gains must be a number, got [True, "),
    ("--mesh", "boolean output gain", "output_gains must be a number, got [True, "),
    ("--mesh", "boolean pass-through", "passthrough_loss 1_0 must be a number, got True"),
    ("--mesh", "node label with a tail", "bad node label 'Q_0_0_extra'"),
    ("--mesh", "node named twice", "bad node label 'U_00_0'"),
    ("--mesh", "pass-through named twice", "bad passthrough_loss key '01_0'"),
    ("--emu", "boolean v_pi", "v_pi must be a number, got True"),
    ("--emu", "boolean additive_floor", "additive_floor must be a number, got True"),
    ("--emu", "boolean offset_scale", "offset_scale must be a number, got True"),
    ("--cal", "boolean bar_v", "bar_v must be a number, got True"),
    ("--cal", "boolean cross_v", "cross_v must be a number, got False"),
    ("--cal", "boolean bar_extinction_db", "bar_extinction_db must be a number, got True"),
    ("--cal", "boolean group phi_r_v", "phi_r_v must be a number, got True"),
    ("--cal", "node label with a tail", "bad node label 'U_1_0_junk'"),
    # json would let the later of two entries win
    ("--mesh", "node key repeated", "key 'U_0_0' is named twice in one object"),
    ("--emu", "field repeated", "key 'v_pi' is named twice in one object"),
    ("--cal", "node key repeated", "key 'U_0_0' is named twice in one object"),
    ("--cal", "group listed twice", "group U_5_0+U_3_0 is listed twice"),
    ("--links", "float qubit", "node [0, 8.0] holds 8.0, not an integer"),
    ("--links", "boolean qubit", "node [1, True] holds True, not an integer"),
    ("--measure", "boolean qubit", "node [0, True] holds True, not an integer"),
    ("--measure", "float module", "node [0.0, 1] holds 0.0, not an integer"),
    ("new-chip --config", "boolean v_pi", "v_pi must be a number, got True"),
    ("new-chip --config", "boolean additive_floor", "additive_floor must be a number, got True"),
    ("new-chip --config", "boolean offset_scale", "offset_scale must be a number, got True"),
])
def test_config_error_names_the_fault(option, case, named, ideal_chip_dir, calibrated_dir,
                                      tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = FILE_CASES[option][case](good_document(option, ideal_chip_dir, calibrated_dir))
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = command(option, str(bad), ideal_chip_dir, calibrated_dir, str(tmp_path / "out"))
    assert run(*argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("montecarlo", "--trials", "0"),
    ("montecarlo", "--trials", "x"),
    ("lattice", "--cells", "0"),
    ("lattice", "--cells", "-2"),
])
def test_non_positive_count_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("new-chip", "--seed", "-1"),
    ("montecarlo", "--trials", "1", "--seed", "-1"),
])
def test_negative_seed_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
