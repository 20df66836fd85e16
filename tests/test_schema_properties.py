"""Property tests: every cal-v1, emu-v1 and mesh-v1 document survives a trip
through its JSON text unchanged."""

import json

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from mzmesh.calibration import (
    CalibrationRecord,
    GroupCalibration,
    NodeCalibration,
    record_from_dict,
    record_to_dict,
)
from mzmesh.emulator import (
    V_MAX, ActuatorModel, DetectorModel, EmuConfig, emu_from_dict, emu_to_dict,
)
from mzmesh.mesh import MziParams, ideal_mesh, mesh_from_dict, mesh_to_dict

# Fixed examples and no example database: the suite runs the same cases on
# every machine and leaves no state behind.
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

small = st.integers(min_value=0, max_value=64)
reals = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False)
non_negative = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
nodes = st.tuples(small, small)
volts = st.floats(min_value=-V_MAX, max_value=V_MAX)


def json_trip(data: dict) -> dict:
    """The text a save_* call writes, read back."""
    return json.loads(json.dumps(data, indent=1, sort_keys=True))


node_calibrations = st.builds(
    NodeCalibration,
    bar_v=volts,
    cross_v=volts,
    split_v=st.none() | volts,
    bar_extinction_db=reals,
    cross_extinction_db=reals,
    input_port=st.integers(min_value=1, max_value=64),
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
            theta_l_v=draw(volts),
            theta_r_v=draw(volts),
            phi_r_v=draw(volts),
            extinction_db=draw(reals),
            n_evals=draw(small),
            flagged=draw(st.booleans()),
        )
    record.failures = draw(st.lists(st.tuples(st.text(), st.text()), max_size=3))
    return record


emu_configs = st.builds(
    EmuConfig,
    actuator=st.builds(
        # |nonlinearity| <= 1e300 keeps the phase at +/- V_MAX finite
        ActuatorModel, v_pi=positive, nonlinearity=st.floats(-1e300, 1e300),
        resonance_hz=positive,
        damping_q=reals,
    ),
    detector=st.builds(
        DetectorModel, relative_noise_sigma=non_negative, additive_floor=non_negative,
        sample_rate_hz=non_negative,
    ),
    offset_scale=reals,
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)


fraction = st.floats(min_value=0.0, max_value=1.0)
amplitude = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def mesh_states(draw):
    state = ideal_mesh(draw(st.integers(1, 8).map(lambda k: 2 * k)))
    topo = state.topology
    for node in topo.nodes():
        state.params[node] = MziParams(
            theta1=draw(reals), theta2=draw(reals), phi1=draw(reals), phi2=draw(reals),
            eta_in=draw(fraction), amp_loss_in=draw(amplitude),
            eta_out=draw(fraction), amp_loss_out=draw(amplitude),
            arm_loss_top=draw(amplitude), arm_loss_bot=draw(amplitude),
            tap_loss=draw(amplitude),
        )
        state.params[node].monitor_gains = (draw(positive), draw(positive))
    for col in range(topo.n_columns):
        for port in range(topo.n_modes):
            if topo.node_at(col, port) is None and draw(st.booleans()):
                state.passthrough_loss[(col, port)] = draw(amplitude)
    state.output_gains = np.array([draw(positive) for _ in range(topo.n_modes)])
    return state


@PROPERTY
@given(records())
def test_cal_v1_round_trip(record):
    data = record_to_dict(record)
    loaded = record_from_dict(json_trip(data))
    assert loaded == record
    assert record_to_dict(loaded) == data


@PROPERTY
@given(emu_configs)
def test_emu_v1_round_trip(config):
    data = emu_to_dict(config)
    loaded = emu_from_dict(json_trip(data))
    assert loaded == config
    assert emu_to_dict(loaded) == data


@PROPERTY
@given(mesh_states())
def test_mesh_v1_round_trip(state):
    data = mesh_to_dict(state)
    loaded = mesh_from_dict(json_trip(data))
    assert loaded.topology == state.topology
    assert loaded.params == state.params
    assert loaded.passthrough_loss == state.passthrough_loss
    assert np.array_equal(loaded.output_gains, state.output_gains)
    assert mesh_to_dict(loaded) == data
