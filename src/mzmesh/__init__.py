"""mzmesh: programmable Mach-Zehnder mesh simulation, compilation and calibration."""

__version__ = "0.1.0"

from .mesh import (  # noqa: F401
    CompiledMesh,
    MeshState,
    MeshTopology,
    MziParams,
    NoiseSpec,
    ideal_mesh,
    mzi_transfer,
    nominal_mesh,
    paper_noise_spec,
    perturb,
)
from .compiler import (  # noqa: F401
    CircuitSpec,
    DecompositionPlan,
    clements_decompose,
    ohqe_circuits,
    route_matching,
    upgrade_to_corrected,
)
from .emulator import (  # noqa: F401
    ActuatorModel,
    DetectorModel,
    EmuConfig,
    EmulatedChip,
    VoltageFrame,
)
from .calibration import (  # noqa: F401
    CalibrationRecord,
    calibrate_corrected_cross,
    calibrate_full_mesh,
    calibrate_hadamard,
    calibrate_mzi,
    isolation_sequence,
    program_circuit,
)
from .metrology import (  # noqa: F401
    LinkReport,
    PhaseSweepTrace,
    UnitaryEstimate,
    link_fidelity,
    reconstruct_unitary,
    run_phase_sweep,
    unitary_fidelity,
)
from .herald import (  # noqa: F401
    BellTarget,
    TwoSpinPhotonState,
    bell_fidelity,
    emit_and_propagate,
    herald,
)
from .lattice import (  # noqa: F401
    ClusterGraph,
    interconnect,
    link_schedule,
    unit_cell,
    z_measure,
)
