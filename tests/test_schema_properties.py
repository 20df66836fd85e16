"""Property tests: every cal-v1, circuit-v1, emu-v1 and graph-v1 document
survives a trip through its JSON text unchanged."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mzmesh.calibration import (
    CalibrationRecord,
    GroupCalibration,
    NodeCalibration,
    record_from_dict,
    record_to_dict,
)
from mzmesh.compiler import (
    CircuitSpec,
    CorrectedCrossGroup,
    Gate,
    circuit_from_dict,
    circuit_to_dict,
)
from mzmesh.emulator import ActuatorModel, DetectorModel, EmuConfig, emu_from_dict, emu_to_dict
from mzmesh.lattice import ClusterGraph, graph_from_dict, graph_to_dict

# Fixed examples and no example database: the suite runs the same cases on
# every machine and leaves no state behind.
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

small = st.integers(min_value=0, max_value=64)
reals = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False)
non_negative = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
nodes = st.tuples(small, small)
pairs = st.tuples(st.integers(1, 64), st.integers(1, 64))


def json_trip(data: dict) -> dict:
    """The text a save_* call writes, read back."""
    return json.loads(json.dumps(data, indent=1, sort_keys=True))


node_calibrations = st.builds(
    NodeCalibration,
    bar_v=reals,
    cross_v=reals,
    split_v=st.none() | reals,
    bar_extinction_db=reals,
    cross_extinction_db=reals,
    input_port=small,
    arm=st.integers(0, 1),
)


@st.composite
def records(draw):
    record = CalibrationRecord(chip_id=draw(st.text()), timestamp=draw(st.text()))
    record.nodes = draw(st.dictionaries(nodes, node_calibrations, max_size=8))
    for left, right in draw(st.lists(st.tuples(nodes, nodes), max_size=4, unique=True)):
        record.groups[(left, right)] = GroupCalibration(
            left=left,
            right=right,
            theta_l_v=draw(reals),
            theta_r_v=draw(reals),
            phi_r_v=draw(reals),
            extinction_db=draw(reals),
            n_evals=draw(small),
            flagged=draw(st.booleans()),
        )
    record.failures = draw(st.lists(st.tuples(st.text(), st.text()), max_size=3))
    return record


circuits = st.builds(
    CircuitSpec,
    n_modes=st.integers(1, 32).map(lambda k: 2 * k),
    matching=st.lists(pairs, max_size=4).map(tuple),
    gates=st.dictionaries(nodes, st.sampled_from(Gate), max_size=12),
    outputs=st.dictionaries(pairs, pairs, max_size=4),
    groups=st.lists(
        st.builds(
            CorrectedCrossGroup,
            left=nodes,
            right=nodes,
            intermediates=st.lists(nodes, max_size=3).map(tuple),
            ports=st.tuples(small, small),
        ),
        max_size=3,
    ).map(tuple),
    pair_crossings=st.dictionaries(pairs, st.lists(nodes, max_size=3).map(tuple), max_size=4),
    name=st.text(),
)

emu_configs = st.builds(
    EmuConfig,
    actuator=st.builds(
        ActuatorModel, v_pi=positive, nonlinearity=reals, resonance_hz=positive,
        damping_q=reals,
    ),
    detector=st.builds(
        DetectorModel, relative_noise_sigma=non_negative, additive_floor=non_negative,
        sample_rate_hz=non_negative,
    ),
    offset_scale=reals,
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)


@st.composite
def graphs(draw):
    qubits = draw(st.lists(st.tuples(small, st.integers(1, 8)), min_size=2, max_size=12,
                           unique=True))
    graph = ClusterGraph(nodes=set(qubits))
    bonds = draw(st.lists(st.tuples(st.sampled_from(qubits), st.sampled_from(qubits)),
                          max_size=16))
    for a, b in bonds:
        if a != b and frozenset((a, b)) not in graph.edges:
            graph.add_edge(a, b, draw(st.sampled_from(("intra", "inter"))))
    return graph


@PROPERTY
@given(records())
def test_cal_v1_round_trip(record):
    data = record_to_dict(record)
    loaded = record_from_dict(json_trip(data))
    assert loaded == record
    assert record_to_dict(loaded) == data


@PROPERTY
@given(circuits)
def test_circuit_v1_round_trip(spec):
    data = circuit_to_dict(spec)
    loaded = circuit_from_dict(json_trip(data))
    assert loaded == spec
    assert circuit_to_dict(loaded) == data


@PROPERTY
@given(emu_configs)
def test_emu_v1_round_trip(config):
    data = emu_to_dict(config)
    loaded = emu_from_dict(json_trip(data))
    assert loaded == config
    assert emu_to_dict(loaded) == data


@PROPERTY
@given(graphs())
def test_graph_v1_round_trip(graph):
    data = graph_to_dict(graph)
    loaded = graph_from_dict(json_trip(data))
    assert loaded == graph
    assert graph_to_dict(loaded) == data
