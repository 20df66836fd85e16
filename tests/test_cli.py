import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mzmesh import __version__
from mzmesh.cli import main
from mzmesh.mesh import node_label, nominal_mesh, save_mesh
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


def test_python_m_mzmesh_version():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "mzmesh", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"mzmesh {__version__}"


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
        state = load_mesh(out / "mesh.json")
        for node in state.topology.nodes():
            state.params[node].theta1 = np.pi / 2
            state.params[node].theta2 = -np.pi / 2
        u = CompiledMesh(state).transfer()
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
        assert any(node_label(n) in err for n in default_circuits["1"].hadamard_nodes())
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


def relabelled(doc):
    doc["nodes"]["U_1"] = doc["nodes"].pop("U_0_0")
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
FILE_CASES = {
    "--mesh": {
        **TAGGED,
        "missing field": edited(("n_modes",), DROP),
        "wrong type": edited(("nodes", "U_0_0", "eta_in"), "x"),
        "null n_modes": edited(("n_modes",), None),
        "nodes list": edited(("nodes",), []),
        "bad node label": relabelled,
        "scalar monitor_gains": edited(("nodes", "U_0_0", "monitor_gains"), 1.0),
        "missing passthrough_loss": edited(("passthrough_loss",), DROP),
    },
    "--emu": {
        **TAGGED,
        "missing field": edited(("actuator",), DROP),
        "wrong type": edited(("offset_scale",), "x"),
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
    },
    "new-chip --config": {
        **COMMON,
        "unknown noise field": edited(("noise",), {"eta_sgima": 0.1}),
        "wrong type": edited(("emu", "offset_scale"), "x"),
        "emu list": edited(("emu",), []),
        "scalar noise": edited(("noise",), 5),
        "unknown key": edited(("nosie",), "ideal"),
        "unknown emu key": edited(("emu", "ofset_scale"), 0.0),
    },
    "montecarlo --config": {
        **COMMON,
        "unknown noise field": edited(("noise",), {"eta_sgima": 0.1}),
        "wrong type": edited(("noise",), {"eta_sigma": "x"}),
        "scalar noise": edited(("noise",), 5),
        "ideal noise": edited(("noise",), "ideal"),
        "unknown key": edited(("nosie",), "paper"),
    },
    "--links": {
        **COMMON,
        "missing field": edited(("links",), DROP),
        "wrong type": edited(("links",), 5),
        "short entry": edited(("links",), [[[0, 1]]]),
        "long entry": edited(("links",), [[[0, 1], [1, 1], [1, 2]]]),
        "unknown nodes": edited(("links",), [[[0, 1], [7, 1]]]),
    },
    "--measure": {
        **COMMON,
        "missing field": edited(("measure",), DROP),
        "wrong type": edited(("measure",), [1, 2]),
        "unknown nodes": edited(("measure",), [[9, 1]]),
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
])
def test_config_error_names_the_fault(option, case, named, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(FILE_CASES[option][case](good_document(option, tmp_path, tmp_path))))
    assert run(*command(option, str(bad), tmp_path, tmp_path, str(tmp_path / "out"))) == 2
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
