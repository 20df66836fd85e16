import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mzmesh import calibration as cal
from mzmesh import compiler, mesh
from mzmesh.emulator import EmuConfig, EmulatedChip
from mzmesh.mesh import node_label


@pytest.fixture(scope="session")
def default_circuits():
    return compiler.ohqe_circuits()


@pytest.fixture(scope="session")
def ideal_calibrated():
    """Zero-imperfection chip with a completed full-mesh calibration."""
    chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=0.0, seed=0))
    record = cal.calibrate_full_mesh(chip)
    return chip, record


@pytest.fixture(scope="session")
def offset_calibrated():
    """Noiseless chip with random hidden offsets, fully calibrated."""
    chip = EmulatedChip(mesh.nominal_mesh(8), EmuConfig(offset_scale=1.0, seed=11))
    record = cal.calibrate_full_mesh(chip)
    return chip, record


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def unbalance(monkeypatch):
    """Call with circuit names to make every Hadamard balance of those
    circuits fail; other circuits balance as usual."""
    balance = cal.calibrate_hadamard

    def fail_in(*names):
        def balance_or_fail(chip, node, pair, record, circuit):
            if circuit.name in names:
                raise cal.HadamardBalanceError(
                    f"{node_label(node)}: no splitting-ratio sign change (forced)")
            return balance(chip, node, pair, record, circuit)

        monkeypatch.setattr(cal, "calibrate_hadamard", balance_or_fail)

    return fail_in
