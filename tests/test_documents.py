"""Fuzzed documents: every loader rejects a wrong value as a format error.

One field of a valid scenario, config, sweep or schedule document, at any
depth, is replaced by a value of the wrong kind.  The loader may still accept
the document (a null ``channel`` is allowed), but if it refuses, it raises
:class:`ScenarioFormatError`, which the command line reports with exit code 2,
and nothing else.  Only the loaders run; an in-range huge size (a 400-digit
``num_cameras`` loads, and generating it would not end) is a size policy, not
malformed input.
"""

import copy
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from csrap.harness import SweepSpec, schedule_from_document, sweep_spec_from_document
from csrap.scenario import ScenarioFormatError, config_from_document, load_scenario

MCS_TABLE = [[-1.0, 2.0], [5.0, 4.0], [11.0, 6.0]]

SCENARIO = {
    "area": 100.0,
    "frame": {"M": 3, "T": 2, "slot_capacity": [3, 3], "rho_ms": 10.0},
    "channel": {"tx_power_dbm": 24.0, "shadowing_sigma_db": 8.0, "mcs_table": MCS_TABLE},
    "cameras": [
        {
            "id": 1,
            "x": 10.0,
            "y": 10.0,
            "geometry": {"kind": "directional", "view_distance": 30.0, "orientation": 0.0, "fov": 90.0},
            "rate_requirement": 9.0,
            "rates": [8.0, 4.0, 7.0],
            "slot_rates": {"2": [2.0, 4.0, 6.0]},
        },
        {
            # No rates: they are derived from the channel model.
            "id": 2,
            "x": 30.0,
            "y": 30.0,
            "geometry": {"kind": "omnidirectional", "view_distance": 40.0},
            "rate_requirement": 4.0,
        },
    ],
    "targets": [{"id": 1, "x": 12.0, "y": 10.0}, {"id": 2, "x": 35.0, "y": 30.0}],
    "seed": 3,
}

CONFIG = {
    "area": 120.0,
    "num_targets": 6,
    "num_cameras": 10,
    "deployment": "partial_random",
    "geometry": {"kind": "directional", "view_distance": [30, 60], "fov": 90},
    "rate_requirement": [4, 12],
    "frame": {"M": 6, "T": 2, "slot_capacity": None, "rho_ms": 10.0},
    "channel": {"noise_figure_db": 5.0, "mcs_table": MCS_TABLE},
    "seed": 5,
}

SWEEP = {
    "config": CONFIG,
    "axis": "view_distance",
    "values": [30, 40.5],
    "trials": 3,
    "algorithms": ["baseline", "mramc"],
    "base_seed": 1,
    "freeze_placement": True,
    "multiplicity": 2,
}

SCHEDULE = {
    "assignments": [
        {"camera_id": 1, "slot": 1, "start": 1, "length": 2, "robust_rate": 4.0},
        {"camera_id": 2, "slot": 2, "start": 1, "length": 1, "robust_rate": 4.0},
    ],
    "total_rbs": 3,
}

LOADERS = {
    "scenario": (SCENARIO, load_scenario),
    "config": (CONFIG, config_from_document),
    "sweep": (SWEEP, sweep_spec_from_document),
    "schedule": (SCHEDULE, lambda doc: schedule_from_document(doc, load_scenario(SCENARIO))),
}

WRONG_VALUES = ("ab", True, None, [], {}, [1, 2], 10**400)


def field_paths(node, path=()):
    """The path of ``node`` and of everything inside it, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from field_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_valid_document_loads(kind):
    doc, load = LOADERS[kind]
    load(copy.deepcopy(doc))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wrong_value_raises_only_a_format_error(kind, data):
    doc, load = LOADERS[kind]
    path = data.draw(st.sampled_from(list(field_paths(doc))), label="path")
    value = data.draw(st.sampled_from(WRONG_VALUES), label="value")
    try:
        load(replaced(doc, path, value))
    except ScenarioFormatError as exc:
        assert str(exc)


# A value of the right type that its object rejects, and the whole message.
REJECTED_VALUES = {
    "area": ("config", ("area",), -1.0, "area: area_side must be positive"),
    "num_targets": ("config", ("num_targets",), 0, "num_targets: num_targets must be >= 1"),
    "deployment": ("config", ("deployment",), "ring", "deployment: deployment must be one of"),
    "geometry_kind": ("config", ("geometry", "kind"), "fisheye", "geometry.kind: geometry kind must be"),
    "geometry_view_distance": (
        "config",
        ("geometry", "view_distance"),
        [60, 30],
        "geometry.view_distance: view_distance range must satisfy 0 < min <= max",
    ),
    "geometry_fov": ("config", ("geometry", "fov"), 400, "geometry.fov: fov_deg must lie in (0, 360]"),
    "rate_requirement": (
        "config",
        ("rate_requirement",),
        [12, 4],
        "rate_requirement: rate_requirement_range must satisfy 0 < min <= max",
    ),
    "sweep_config_fov": ("sweep", ("config", "geometry", "fov"), 0, "config.geometry.fov: fov_deg must lie in (0, 360]"),
    "seed": ("config", ("seed",), "x", "seed: rng_seed must be an integer, not 'x'"),
    "sweep_config_num_cameras": ("sweep", ("config", "num_cameras"), 2.5, "config.num_cameras: num_cameras must be an integer, not 2.5"),
    "unknown_camera": (
        "schedule",
        ("assignments", 1, "camera_id"),
        99,
        "assignments: assignment references unknown camera 99",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_VALUES))
def test_rejected_value_is_reported_at_its_key(case):
    kind, path, value, message = REJECTED_VALUES[case]
    doc, load = LOADERS[kind]
    with pytest.raises(ScenarioFormatError) as exc:
        load(replaced(doc, path, value))
    assert str(exc.value).startswith(message)


def outcome(error, build, *args, **kwargs):
    """What ``build`` returns, or the message of the ``error`` it raises."""
    try:
        return build(*args, **kwargs)
    except error as exc:
        return str(exc)


@pytest.mark.parametrize("value", WRONG_VALUES, ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("key", sorted(key for key in SWEEP if key != "config"))
def test_sweep_loader_and_spec_check_a_field_alike(key, value):
    # The loader parses ``config`` and hands every other field to SweepSpec
    # unchanged, so it rejects a value exactly when SweepSpec does, with the
    # same message, and both may accept it (a huge ``trials``).
    assert set(SWEEP) == {field.name for field in fields(SweepSpec)}
    doc = replaced(SWEEP, (key,), value)
    expected = outcome(ValueError, SweepSpec, **dict(doc, config=config_from_document(CONFIG)))
    assert outcome(ScenarioFormatError, sweep_spec_from_document, doc) == expected
