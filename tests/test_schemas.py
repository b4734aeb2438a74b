"""Tests for JSON document validation and the events CSV format."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringelab.interference import BlockedArm, Composition, ExperimentConfig
from fringelab.kinematics import FrameMap
from fringelab.schemas import (
    SchemaError,
    dump_json,
    experiment_config_from_dict,
    format_float,
    format_row,
    frame_map_from_dict,
    load_json,
    parse_events_csv,
    row_format,
)


def test_experiment_config_round_trip():
    doc = load_json("""{"schema": 1, "splitter1": 0.3, "splitter2": 0.7,
        "phase": 1.25, "blocked_arm": "lower", "detector_model": "none",
        "composition": "classical_mixture", "mixture_weights": [0.25, 0.75]}""")
    config = experiment_config_from_dict(doc)
    assert config == ExperimentConfig(splitter1=0.3, splitter2=0.7, phase=1.25,
                                      blocked_arm=BlockedArm.LOWER,
                                      composition=Composition.CLASSICAL_MIXTURE,
                                      mixture_weights=(0.25, 0.75))
    assert config.mixture_weights == (0.25, 0.75)


def test_experiment_config_defaults_round_trip():
    assert experiment_config_from_dict({"schema": 1}) == ExperimentConfig()
    doc = {"schema": 1, "splitter1": 0.5, "splitter2": 0.5, "phase": 0,
           "blocked_arm": "none", "detector_model": "none",
           "composition": "amplitude", "mixture_weights": None}
    assert experiment_config_from_dict(doc) == ExperimentConfig()


def test_unknown_fields_are_rejected():
    doc = {"schema": 1, "splittter1": 0.4}
    with pytest.raises(SchemaError) as err:
        experiment_config_from_dict(doc)
    assert "splittter1" in str(err.value)


def test_schema_version_is_required_and_pinned():
    with pytest.raises(SchemaError) as err:
        experiment_config_from_dict({"phase": 0.0})
    assert "schema" in str(err.value)
    with pytest.raises(SchemaError):
        experiment_config_from_dict({"schema": 2})


@pytest.mark.parametrize("read, fields", [
    (experiment_config_from_dict, {"phase": 0.5}),
    (frame_map_from_dict, {"branch": "subluminal", "V": 0.5}),
])
def test_schema_version_is_a_number_not_a_bool(read, fields):
    with pytest.raises(SchemaError) as err:
        read(load_json(dump_json({"schema": True, **fields})))
    assert str(err.value) == "schema: unsupported version True (expected 1)"
    # JSON 1.0 is version 1, as it is eta = 1.
    assert repr(read(load_json(dump_json({"schema": 1.0, **fields})))) == repr(
        read({"schema": 1, **fields}))


def test_a_repeated_field_is_rejected_naming_each_one_once():
    text = ('{"schema": 1, "branch": "superluminal", "V": 2.0, "eta": 1, '
            '"eta": -1, "V": 2.0, "V": 3.0}')
    with pytest.raises(SchemaError) as err:
        load_json(text)
    assert str(err.value) == "duplicate fields rejected: V, eta"
    with pytest.raises(SchemaError) as err:
        load_json('[{"a": 1}, {"b": {"c": 0, "c": 0}}]')
    assert str(err.value) == "duplicate fields rejected: c"


def test_all_problems_reported_together():
    doc = {"schema": 1, "splitter1": "half", "phase": "zero",
           "blocked_arm": "sideways", "junk": 1}
    with pytest.raises(SchemaError) as err:
        experiment_config_from_dict(doc)
    message = str(err.value)
    for needle in ("splitter1", "phase", "blocked_arm", "junk"):
        assert needle in message
    assert "'sideways'" in message


def test_integer_past_the_digit_limit_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        load_json('{"phase": 1' + "0" * 5000 + "}")
    assert "invalid JSON" in str(err.value)


def test_config_value_errors_become_schema_errors():
    with pytest.raises(SchemaError) as err:
        experiment_config_from_dict({"schema": 1, "splitter1": 1.5})
    assert "splitter1" in str(err.value)


def test_frame_map_round_trip_all_branches():
    cases = [
        ({"schema": 1, "branch": "subluminal", "V": 0.5,
          "translation": [1.0, -2.0]},
         FrameMap.boost(0.5, translation=(1.0, -2.0))),
        ({"schema": 1, "branch": "superluminal", "V": 2.0, "eta": -1},
         FrameMap.superluminal(2.0, -1)),
        ({"schema": 1, "branch": "general-linear", "c": 2.0,
          "linear_part": [[2.0, 1.0], [0.0, 2.0]]},
         FrameMap.general_linear([[2.0, 1.0], [0.0, 2.0]], c=2.0)),
    ]
    for doc, m in cases:
        again = frame_map_from_dict(doc)
        assert again.branch is m.branch
        assert np.array_equal(again.linear_part, m.linear_part)
        assert np.array_equal(again.translation, m.translation)
        assert again.c == m.c
        assert again.V == m.V and again.eta == m.eta


def test_frame_map_eta_is_required_for_superluminal():
    with pytest.raises(SchemaError) as err:
        frame_map_from_dict({"schema": 1, "branch": "superluminal", "V": 2.0})
    assert "eta" in str(err.value)


def test_frame_map_rejects_misplaced_fields():
    with pytest.raises(SchemaError):
        frame_map_from_dict({"schema": 1, "branch": "subluminal",
                             "V": 0.5, "eta": 1})
    with pytest.raises(SchemaError):
        frame_map_from_dict({"schema": 1, "branch": "general-linear",
                             "V": 0.5, "linear_part": [[1, 0], [0, 1]]})
    with pytest.raises(SchemaError) as err:
        frame_map_from_dict({"schema": 1, "branch": "general-linear"})
    assert "linear_part" in str(err.value)
    with pytest.raises(SchemaError):
        frame_map_from_dict({"schema": 1, "branch": "warp", "V": 3.0})


def test_all_map_problems_reported_together():
    doc = {"schema": 1, "branch": "superluminal", "V": "fast", "c": -1,
           "translation": [1, "a"], "junk": 1}
    with pytest.raises(SchemaError) as err:
        frame_map_from_dict(doc)
    message = str(err.value)
    for needle in ("V:", "eta:", "c:", "translation:", "junk"):
        assert needle in message


def test_frame_map_envelope_rules():
    # A missing branch is named alongside the other fields' problems.
    with pytest.raises(SchemaError) as err:
        frame_map_from_dict({"schema": 1, "V": "fast"})
    assert "branch:" in str(err.value) and "V:" in str(err.value)
    # A boost document may not carry a matrix, even the right one.
    doc = {"schema": 1, "branch": "subluminal", "V": 0.5,
           "linear_part": FrameMap.boost(0.5).linear_part.tolist()}
    with pytest.raises(SchemaError) as err:
        frame_map_from_dict(doc)
    assert str(err.value) == "linear_part: not allowed for the subluminal branch"


def test_frame_map_domain_errors_surface_as_schema_errors():
    with pytest.raises(SchemaError):
        frame_map_from_dict({"schema": 1, "branch": "subluminal", "V": 1.0})
    with pytest.raises(SchemaError):
        frame_map_from_dict({"schema": 1, "branch": "superluminal",
                             "V": 0.5, "eta": 1})
    with pytest.raises(SchemaError):
        frame_map_from_dict({"schema": 1, "branch": "superluminal",
                             "V": 2.0, "eta": 0})


@pytest.mark.parametrize("read, doc, message", [
    (experiment_config_from_dict, {"schema": 2, "phase": "zero", "junk": 1},
     "schema: unsupported version 2 (expected 1); unknown fields rejected: "
     "junk; phase: must be a number"),
    (experiment_config_from_dict, {"splitter1": 2.0},
     "schema: missing (expected 1); splitter1: transmissivity must lie in "
     "[0, 1], got 2.0"),
    (frame_map_from_dict, {"schema": 2, "branch": "subluminal", "V": "fast",
                           "junk": 1},
     "schema: unsupported version 2 (expected 1); unknown fields rejected: "
     "junk; V: must be a number"),
    (frame_map_from_dict, {"schema": 2, "branch": "subluminal", "V": 1.5,
                           "junk": 1},
     "schema: unsupported version 2 (expected 1); unknown fields rejected: "
     "junk; V: subluminal branch needs |V| < c, got V=1.5 with c=1.0"),
    (frame_map_from_dict, {"schema": "1", "V": 0.5, "extra": 0, "alpha": 1},
     "schema: unsupported version '1' (expected 1); unknown fields rejected: "
     "alpha, extra; branch: None is not one of [subluminal, superluminal, "
     "general-linear]"),
    (experiment_config_from_dict, [1], "experiment config must be a JSON object"),
    (frame_map_from_dict, "x", "map spec must be a JSON object"),
])
def test_document_errors_join_envelope_then_field_problems(read, doc, message):
    # Envelope problems come first, then the one field validator's message.
    with pytest.raises(SchemaError) as err:
        read(doc)
    assert str(err.value) == message


def test_events_csv_parse_and_emit():
    text = "# comment\nt,x\n0,0\n1.5,-2\n\n# trailing comment\n2,3\n"
    events = parse_events_csv(text)
    assert len(events) == 3
    assert events[1].t == 1.5 and events[1].x == -2.0
    rows = [f"{format_float(p.t)},{format_float(p.x)}" for p in events]
    assert rows == ["0,0", "1.5,-2", "2,3"]


def test_events_csv_error_line_numbers():
    with pytest.raises(SchemaError) as err:
        parse_events_csv("t,x\n1,2\n3\n")
    assert "line 3" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_events_csv("t,x\noops,1\n")
    assert "line 2" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_events_csv("time,pos\n1,2\n")
    assert "line 1" in str(err.value)
    with pytest.raises(SchemaError):
        parse_events_csv("")
    with pytest.raises(SchemaError) as err:
        parse_events_csv("t,x\n1e999,0\n")
    assert "finite" in str(err.value)


@pytest.mark.parametrize("row, message", [
    ("1e999,0", "line 2: event coordinates must be finite"),
    ("0,nan", "line 2: event coordinates must be finite"),
    ("oops,1", "line 2: could not convert string to float: 'oops'"),
], ids=["inf", "nan", "text"])
def test_events_csv_value_errors_come_from_the_event(row, message):
    with pytest.raises(SchemaError) as err:
        parse_events_csv(f"t,x\n{row}\n")
    assert str(err.value) == message


def test_format_float_round_trips_bits():
    rng = np.random.default_rng(13)
    values = list(rng.normal(size=200) * 10.0 ** rng.integers(-8, 9, size=200))
    values += [0.0, 1.0, -1.0, 0.1, 2.0 / 3.0, math.pi, 1e-300, 1e300]
    for v in values:
        assert float(format_float(v)) == v


def _per_value_join(values):
    # The row text before format_row: one format call per value.
    return ",".join(format(float(v), ".17g") for v in values)


_EDGE_FLOATS = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf,
                                0.0, -0.0, 5e-324, -5e-324,
                                2.2250738585072009e-308, 1e308, -1e308,
                                1.7976931348623157e308, 1e16, 0.1])


@given(st.lists(st.one_of(st.floats(), _EDGE_FLOATS), min_size=1, max_size=6))
def test_format_row_is_the_per_value_join(values):
    assert format_row(*values) == _per_value_join(values)
    assert format_float(values[0]) == _per_value_join(values[:1])
    # A row format built once, as the CLI writers build it, for every width.
    for n in range(1, 9):
        row = tuple((values * 8)[:n])
        assert row_format(n) % row == _per_value_join(row)


def test_dump_json_is_canonical():
    a = dump_json({"b": 1, "a": [True, None]})
    b = dump_json({"a": [True, None], "b": 1})
    assert a == b
    assert a.endswith("\n")
    with pytest.raises(SchemaError) as err:
        load_json("{broken")
    assert "line 1" in str(err.value)
