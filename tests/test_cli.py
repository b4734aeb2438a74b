"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amplitude_oracle as oracle
import fringelab.amplitudes as amplitudes
import fringelab.interference as interference
from fringelab.cli import build_parser, main
from fringelab.interference import BlockedArm, Composition, DetectorModel
from fringelab.kinematics import BranchKind, event_interval
from fringelab.schemas import (
    dump_json,
    format_float,
    frame_map_from_dict,
    parse_events_csv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


EVENTS = "t,x\n0,0\n1,0\n1,1\n0.5,-2\n"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    rows = []
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


def test_transform_identity(tmp_path, capsys):
    events = write(tmp_path / "events.csv", EVENTS)
    config = write(tmp_path / "map.json",
                   dump_json({"schema": 1, "branch": "subluminal", "V": 0.0}))
    code, out, err = run(capsys, "transform", "--events", events,
                         "--config", config)
    assert code == 0
    header, rows = parse_table(out)
    assert header == ["t", "x", "t_out", "x_out", "interval_in", "interval_out"]
    for row in rows:
        assert row["t"] == row["t_out"]
        assert row["x"] == row["x_out"]
        assert row["interval_in"] == row["interval_out"]


def test_transform_superluminal_negates_interval(tmp_path, capsys):
    events = write(tmp_path / "events.csv", EVENTS)
    config = write(tmp_path / "map.json", dump_json(
        {"schema": 1, "branch": "superluminal", "V": 2.0, "eta": 1}))
    code, out, _ = run(capsys, "transform", "--events", events,
                       "--config", config)
    assert code == 0
    _, rows = parse_table(out)
    for row in rows:
        before = float(row["interval_in"])
        after = float(row["interval_out"])
        scale = max(1e-30, abs(before))
        assert abs(after + before) <= 1e-12 * scale
    # Inputs that start with a UTF-8 byte order mark give the same bytes.
    for name, path in (("events", events), ("config", config)):
        marked = tmp_path / f"marked_{name}"
        with open(path, "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        argv = {"events": events, "config": config, name: str(marked)}
        assert run(capsys, "transform", "--events", argv["events"],
                   "--config", argv["config"]) == (0, out, "")
    # A truncated mark is not UTF-8 text.
    truncated = tmp_path / "truncated.csv"
    truncated.write_bytes(b"\xef\xbb")
    code, _, err = run(capsys, "transform", "--events", str(truncated),
                       "--config", config)
    assert code == 2 and "not UTF-8" in err


def test_transform_output_round_trips(tmp_path, capsys):
    events = write(tmp_path / "events.csv", "t,x\n0.1,0.30000000000000004\n")
    config = write(tmp_path / "map.json",
                   dump_json({"schema": 1, "branch": "subluminal", "V": 0.6}))
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "transform", "--events", events,
                     "--config", config, "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    first_two = "t,x\n" + "\n".join(
        ",".join(line.split(",")[:2])
        for line in text.splitlines()
        if line and not line.startswith("#") and not line.startswith("t,"))
    parsed = parse_events_csv(first_two + "\n")
    assert parsed[0].t == 0.1
    assert parsed[0].x == 0.30000000000000004


def _signed_events(seed):
    # -0.0 coordinates, events within a few ulp of the light cone, and events
    # near 1e-150 and 1e150, whose intervals lie near 1e-300 and 1e300.
    rng = np.random.default_rng(seed)
    rows = ["-0.0,0.0", "0.0,-0.0", "-0.0,-0.0", "1,1", "1,-1"]
    for scale in (1e-150, 1.0, 1e150):
        for t in (rng.uniform(-1.0, 1.0, 20) * scale).tolist():
            x = t * (1.0 + int(rng.integers(-3, 4)) * 2.0 ** -52)
            rows.append(f"{t!r},{x if rng.random() < 0.5 else -x!r}")
            rows.append(f"{t!r},{float(rng.uniform(-1.0, 1.0)) * scale!r}")
    return "t,x\n" + "\n".join(rows) + "\n"


_MAPS = {
    "subluminal": {"schema": 1, "branch": "subluminal", "V": 0.6},
    "superluminal": {"schema": 1, "branch": "superluminal", "V": -2.5,
                     "eta": -1},
    "general-linear": {"schema": 1, "branch": "general-linear",
                       "linear_part": [[2.0, 1.0], [1.0, 3.0]],
                       "translation": [0.0, -0.0]},
}


@pytest.mark.parametrize("branch", sorted(_MAPS))
def test_transform_rows_are_the_per_value_17_digit_join(tmp_path, capsys,
                                                        branch):
    text = _signed_events(sum(map(ord, branch)))
    events = write(tmp_path / "events.csv", text)
    config = write(tmp_path / "map.json", dump_json(_MAPS[branch]))
    code, out, err = run(capsys, "transform", "--events", events,
                         "--config", config)
    assert (code, err) == (0, "")
    m = frame_map_from_dict(_MAPS[branch])
    rows = []
    for p in parse_events_csv(text):
        q = m.apply(p)
        rows.append(",".join(format(float(v), ".17g") for v in (
            p.t, p.x, q.t, q.x, event_interval(p, m.c), event_interval(q, m.c))))
    assert out.splitlines()[2:] == rows
    assert "-0," in out and "e+299" in out and "e-301" in out


def test_interfere_default_grid_is_parsed_from_its_text():
    phis = build_parser().parse_args(["interfere"]).phis
    assert isinstance(phis, tuple)
    assert ([v.hex() for v in phis]
            == [float(v).hex() for v in np.linspace(0.0, 2.0 * math.pi, 65)])


@pytest.mark.parametrize("command, doc", [
    ("transform", '{"schema": 1, "branch": "superluminal", "V": 2.0, '
                  '"eta": 1, "eta": -1}'),
    ("interfere", '{"schema": 1, "phase": 0.5, "splitter1": 0.3, '
                  '"phase": 0.0, "splitter1": 0.3}'),
])
def test_a_repeated_field_exits_2_naming_it(tmp_path, capsys, command, doc):
    config = write(tmp_path / "doc.json", doc)
    argv = ["--config", config]
    if command == "transform":
        argv += ["--events", write(tmp_path / "events.csv", EVENTS)]
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    expected = "eta" if command == "transform" else "phase, splitter1"
    assert err == f"error: duplicate fields rejected: {expected}\n"


def test_transform_reports_bad_line(tmp_path, capsys):
    events = write(tmp_path / "events.csv", "t,x\n1,2\nbroken\n")
    config = write(tmp_path / "map.json",
                   dump_json({"schema": 1, "branch": "subluminal", "V": 0.0}))
    code, _, err = run(capsys, "transform", "--events", events,
                       "--config", config)
    assert code == 2
    assert "line 3" in err


def test_transform_rejects_unknown_map_field(tmp_path, capsys):
    events = write(tmp_path / "events.csv", EVENTS)
    config = write(tmp_path / "map.json", dump_json(
        {"schema": 1, "branch": "superluminal", "V": 2.0, "etaa": 1}))
    code, _, err = run(capsys, "transform", "--events", events,
                       "--config", config)
    assert code == 2
    assert "etaa" in err and "eta" in err


def test_transform_rejects_light_speed(tmp_path, capsys):
    events = write(tmp_path / "events.csv", EVENTS)
    config = write(tmp_path / "map.json",
                   dump_json({"schema": 1, "branch": "subluminal", "V": 1.0}))
    code, _, err = run(capsys, "transform", "--events", events,
                       "--config", config)
    assert code == 2
    assert "|V| < c" in err


def test_interfere_default_full_contrast(tmp_path, capsys):
    code, out, _ = run(capsys, "interfere")
    assert code == 0
    assert "# visibility = 1" in out.splitlines()[1]
    header, rows = parse_table(out)
    assert header == ["phi", "p_d0", "p_d1", "p_absorbed",
                      "p_d0_given_detected", "p_d1_given_detected"]
    assert len(rows) == 65
    assert float(rows[0]["p_d0"]) == 1.0
    mid = rows[32]
    assert float(mid["phi"]) == math.pi
    assert float(mid["p_d0"]) <= 1e-12


def test_interfere_blocked_rows_are_constant(tmp_path, capsys):
    config = write(tmp_path / "blocked.json",
                   dump_json({"schema": 1, "blocked_arm": "upper"}))
    code, out, _ = run(capsys, "interfere", "--config", config,
                       "--phis", "0:6.28:12")
    assert code == 0
    _, rows = parse_table(out)
    assert len(rows) == 12
    for row in rows:
        assert float(row["p_d0"]) == 0.25
        assert float(row["p_d1"]) == 0.25
        assert float(row["p_absorbed"]) == 0.5
        assert float(row["p_d0_given_detected"]) == 0.5


def test_interfere_classical_flat_with_summary(tmp_path, capsys):
    config = write(tmp_path / "classical.json", dump_json(
        {"schema": 1, "composition": "classical_mixture",
         "mixture_weights": [0.3, 0.7]}))
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "interfere", "--config", config,
                       "--phis", "0:3:7", "--out", str(out_path))
    assert code == 0
    assert "visibility = 0" in out
    _, rows = parse_table(out_path.read_text(encoding="utf-8"))
    assert len(rows) == 7
    assert len({row["p_d0"] for row in rows}) == 1


@given(st.floats())
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072009e-308)
@example(1e16)
def test_interfere_row_format_is_format_float(x):
    # cmd_interfere prints each row with one '%.17g,...' format.
    assert "%.17g" % x == format_float(x)


# The sweep workload's three kinds of graph-path config.
_GRAPH_PATH_KINDS = {
    "balanced": {"schema": 1, "splitter1": 0.5, "splitter2": 0.5},
    "unbalanced": {"schema": 1, "splitter1": 0.2718281828459045,
                   "splitter2": 0.8141592653589793},
    "recording": {"schema": 1, "splitter1": 0.6180339887498949,
                  "splitter2": 0.1414213562373095,
                  "detector_model": "non_demolishing_recording"},
}


@pytest.mark.parametrize("kind", sorted(_GRAPH_PATH_KINDS))
def test_interfere_bytes_equal_the_oracle_graph_path(tmp_path, capsys,
                                                     monkeypatch, kind):
    config = write(tmp_path / "config.json", dump_json(_GRAPH_PATH_KINDS[kind]))

    def interfere(name):
        out = tmp_path / name
        code, stdout, _ = run(capsys, "interfere", "--config", config,
                              "--phis=-2.0943951023931957:10.471975511965976:2001",
                              "--out", str(out))
        assert code == 0
        return out.read_bytes(), stdout

    fast = interfere("fast.csv")
    monkeypatch.setattr(amplitudes, "components", oracle.components)
    monkeypatch.setattr(interference, "_simulate_amplitude",
                        oracle.simulate_amplitude)
    assert interfere("oracle.csv") == fast
    assert fast[0].count(b"\n") == 3 + 2001


def test_interfere_rejects_bad_config_listing_fields(tmp_path, capsys):
    config = write(tmp_path / "bad.json", dump_json(
        {"schema": 1, "splitter1": 2.0, "phase": "x", "oops": True}))
    code, _, err = run(capsys, "interfere", "--config", config)
    assert code == 2
    for needle in ("splitter1", "phase", "oops"):
        assert needle in err


HUGE = 10 ** 400  # a JSON integer no float can hold


@pytest.mark.parametrize("command, doc, field", [
    ("interfere", {"splitter1": HUGE}, "splitter1"),
    ("interfere", {"phase": -HUGE}, "phase"),
    ("interfere", {"composition": "classical_mixture",
                   "mixture_weights": [HUGE, 0]}, "mixture_weights"),
    ("transform", {"branch": "subluminal", "V": HUGE}, "V"),
    ("transform", {"branch": "subluminal", "V": 0.5, "c": HUGE}, "c"),
    ("transform", {"branch": "general-linear",
                   "linear_part": [[HUGE, 0], [0, 1]]}, "linear_part"),
    ("transform", {"branch": "subluminal", "V": 0.5,
                   "translation": [HUGE, 0]}, "translation"),
])
def test_huge_integers_exit_2_naming_the_field(tmp_path, capsys,
                                               command, doc, field):
    config = write(tmp_path / "doc.json", dump_json({"schema": 1, **doc}))
    argv = [command, "--config", config]
    if command == "transform":
        argv += ["--events", write(tmp_path / "events.csv", EVENTS)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{field}:" in err


IDENTITY = [[1, 0], [0, 1]]


@pytest.mark.parametrize("events, doc, field", [
    (EVENTS, {"branch": "general-linear", "linear_part": IDENTITY, "c": 1e200}, "c"),
    ("t,x\n1,0\n", {"branch": "general-linear", "linear_part": IDENTITY,
                     "c": 1e-300}, "c"),
    (EVENTS, {"branch": "superluminal", "V": 2.0, "eta": True}, "eta"),
    (EVENTS, {"branch": "superluminal", "V": 1e200, "eta": 1}, "V"),
    ("t,x\n1e200,0\n", {"branch": "subluminal", "V": 0.5}, "interval"),
    ("t,x\n0,1e200\n", {"branch": "general-linear", "linear_part": IDENTITY},
     "interval"),
], ids=["c-huge", "c-tiny", "eta-bool", "V-huge", "t-huge", "x-huge"])
def test_out_of_range_values_exit_2_naming_the_field(tmp_path, capsys,
                                                     events, doc, field):
    config = write(tmp_path / "doc.json", dump_json({"schema": 1, **doc}))
    code, out, err = run(capsys, "transform", "--config", config,
                         "--events", write(tmp_path / "events.csv", events))
    assert code == 2
    assert f"{field}:" in err
    assert out == ""


def test_transform_rejects_a_1_plus_3_map(tmp_path, capsys):
    eye4 = [[float(i == j) for j in range(4)] for i in range(4)]
    config = write(tmp_path / "map.json", dump_json(
        {"schema": 1, "branch": "general-linear", "linear_part": eye4}))
    code, out, err = run(capsys, "transform", "--config", config,
                         "--events", write(tmp_path / "events.csv", EVENTS))
    assert code == 2
    assert "linear_part: must be a 2x2 matrix of finite numbers" in err
    assert out == ""


# Any JSON value, including the awkward ones: huge ints, nan and inf.
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.integers(-(10 ** 400), 10 ** 400), st.floats(), st.text(max_size=6))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
# Large finite floats reach the overflow class: c or V near 1e200.
_large_floats = st.floats(allow_nan=False, allow_infinity=False)
_numbers = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0), _large_floats)


def _field(plausible):
    return st.one_of(plausible, _json_values)


def _values_of(enum):
    return _field(st.sampled_from([m.value for m in enum]))


_experiment_docs = st.fixed_dictionaries({}, optional={
    "schema": _field(st.just(1)),
    "splitter1": _field(st.floats(0.0, 1.0)),
    "splitter2": _field(st.floats(0.0, 1.0)),
    "phase": _field(_numbers),
    "blocked_arm": _values_of(BlockedArm),
    "detector_model": _values_of(DetectorModel),
    "composition": _values_of(Composition),
    "mixture_weights": _field(st.lists(_numbers, min_size=2, max_size=2)),
    "junk": _json_values,
})
_map_docs = st.fixed_dictionaries({}, optional={
    "schema": _field(st.just(1)),
    "branch": _values_of(BranchKind),
    "V": _field(st.one_of(st.floats(-3.0, 3.0), _large_floats)),
    "eta": _field(st.sampled_from([1, -1])),
    "c": _field(st.one_of(st.floats(0.0, 3.0), _large_floats)),
    "translation": _field(st.lists(_numbers, min_size=2, max_size=2)),
    "linear_part": _field(st.lists(st.lists(_numbers, min_size=2, max_size=2),
                                   min_size=2, max_size=2)),
    "junk": _json_values,
})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "events.csv").write_text(EVENTS, encoding="utf-8")
    return workdir


def _exit_code(workdir, doc, *argv):
    config = workdir / "doc.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main([*argv, "--config", str(config)])


@given(doc=st.one_of(_experiment_docs, _json_values))
@example(doc={"schema": 1, "composition": "classical_mixture",
              "mixture_weights": [8.98846567431158e307, 8.98846567431158e307]})
@settings(max_examples=100, deadline=None)
def test_fuzzed_experiment_documents_never_crash(fuzz_dir, doc):
    code = _exit_code(fuzz_dir, doc, "interfere", "--phis", "0:1:2")
    assert code in (0, 1, 2)


@given(doc=st.one_of(_map_docs, _json_values))
@settings(max_examples=100, deadline=None)
def test_fuzzed_map_documents_never_crash(fuzz_dir, doc):
    code = _exit_code(fuzz_dir, doc, "transform",
                      "--events", str(fuzz_dir / "events.csv"))
    assert code in (0, 1, 2)


def test_phis_flag_validation():
    with pytest.raises(SystemExit) as exc:
        main(["interfere", "--phis", "0:1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["interfere", "--phis", "a:b:c"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["interfere", "--phis", "0:1:0"])
    assert exc.value.code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["interfere", "nogo"])
def test_overflowing_phase_grid_is_a_usage_error(command, capsys):
    # The span overflows a float inside np.linspace; that must be a usage
    # error naming the grid, not a numpy warning followed by a config error.
    with pytest.raises(SystemExit) as exc:
        main([command, "--phis=-1e308:1e308:3"])
    assert exc.value.code == 2
    assert "'-1e308:1e308:3'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-sampled", "--tol-algebra"])
def test_check_has_no_sampled_tolerance_flag(flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", flag, "1e-9"])
    assert exc.value.code == 2


def test_seed_flag_validation():
    for bad in ("-1", "18446744073709551616", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seed", bad])
        assert exc.value.code == 2


def test_nogo_report(tmp_path, capsys):
    out_path = tmp_path / "nogo.json"
    code, out, _ = run(capsys, "nogo", "--resolution", "11",
                       "--out", str(out_path))
    assert code == 0
    assert "max classical variation: 0" in out
    assert "no-go contrast: PASS" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["max_classical_variation"] == 0.0
    assert doc["amplitude_visibility"] >= 1.0 - 1e-12
    assert doc["passed"] is True
    assert doc["classical_config_count"] == 11 * 12


def test_check_subset_and_report_shape(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--suite", "O3", "--seed", "7",
                       "--out", str(out_path))
    assert code == 0
    assert "1/1 checks passed" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(doc) == {"suite", "checks"}
    assert doc["suite"] == "O3"
    (entry,) = doc["checks"]
    assert set(entry) == {"id", "paper_ref", "pass", "detail"}
    assert entry["pass"] is True


def test_check_full_suite_covers_every_postulate_label(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--seed", "11", "--trials", "60",
                       "--resolution", "11", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    labels = {entry["paper_ref"] for entry in doc["checks"]}
    joined = " ".join(labels)
    for required in ("O1", "O2", "O3", "A1", "A2", "A3", "A4"):
        assert required in joined
    assert all(entry["pass"] for entry in doc["checks"])


def test_check_json_printed_without_out_flag(capsys):
    code, out, _ = run(capsys, "check", "--suite", "carrier", "--seed", "3")
    assert code == 0
    json_start = out.index("{")
    doc = json.loads(out[json_start:])
    assert doc["suite"] == "carrier"


def test_check_reports_a_resolution_of_one_as_a_failed_check(capsys):
    code, out, _ = run(capsys, "check", "--suite", "classical-no-go",
                       "--trials", "5", "--resolution", "1")
    assert code == 1
    assert out.startswith("FAIL  classical-no-go  [O2 no-go]  raised "
                          "ConfigError: weight grid resolution must be at "
                          "least 2\n")


def test_check_unknown_selector_exits_with_usage_error(capsys):
    code, _, err = run(capsys, "check", "--suite", "zzz-nothing")
    assert code == 2
    assert "matches no checks" in err


def test_check_determinism_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["check", "--suite", "A4", "--seed", "42",
                 "--out", str(a)]) == 0
    assert main(["check", "--suite", "A4", "--seed", "42",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


SUBLUMINAL_MAP = dump_json({"schema": 1, "branch": "subluminal", "V": 0.5})


@pytest.mark.parametrize("bad", ["events", "map", "experiment"])
def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, bad):
    paths = {"events": write(tmp_path / "events.csv", EVENTS),
             "map": write(tmp_path / "map.json", SUBLUMINAL_MAP),
             "experiment": write(tmp_path / "experiment.json", "{}")}
    # A stray 0xff in the CSV, and a latin-1 "é" inside a JSON string.
    with open(paths[bad], "wb") as fh:
        fh.write(b"t,x\n\xff,1\n" if bad == "events"
                 else b'{"schema": 1, "branch": "\xe9"}')
    if bad == "experiment":
        argv = ["interfere", "--config", paths[bad], "--phis", "0:1:2"]
    else:
        argv = ["transform", "--events", paths["events"],
                "--config", paths["map"]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert paths[bad] in err and "not UTF-8" in err


_DEEP = "[" * 200_000
_TOO_DEEP = "invalid JSON: nested too deeply to parse"


@pytest.mark.parametrize("command, doc, message", [
    ("interfere", _DEEP, _TOO_DEEP),
    ("interfere", '{"schema": 1, "phase": ' + _DEEP, _TOO_DEEP),
    ("transform", _DEEP, _TOO_DEEP),
    # 40 levels: JSON parses it, but numpy walks at most 32 dimensions.
    ("transform", '{"schema": 1, "branch": "subluminal", "V": 0.5, '
     '"translation": ' + "[" * 40 + "1" + "]" * 40 + "}",
     "translation: must be a list of finite numbers"),
], ids=["interfere", "interfere-field", "transform", "transform-numpy-depth"])
def test_deeply_nested_json_exits_2_naming_the_nesting(tmp_path, capsys,
                                                       command, doc, message):
    argv = [command, "--config", write(tmp_path / "doc.json", doc)]
    if command == "transform":
        argv += ["--events", write(tmp_path / "events.csv", EVENTS)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("events, doc, event", [
    ("t,x\n0,0\n1e308,1e308\n",
     {"branch": "general-linear", "linear_part": [[2, 0], [0, 1]]},
     "SpacetimePoint(t=1e+308, x=1e+308)"),
    ("t,x\n1e308,0\n",
     {"branch": "general-linear", "linear_part": IDENTITY,
      "translation": [1e308, 0]},
     "SpacetimePoint(t=1e+308, x=0.0)"),
], ids=["matmul", "translation"])
def test_transform_names_an_image_that_overflows(tmp_path, capsys,
                                                 events, doc, event):
    config = write(tmp_path / "map.json", dump_json({"schema": 1, **doc}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "transform", "--config", config,
                             "--events", write(tmp_path / "events.csv", events))
    assert code == 2
    assert out == ""
    assert err == f"error: image of {event} under the map is not finite\n"


def _check_stdout(encoding):
    env = {**os.environ, "PYTHONIOENCODING": encoding,
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "fringelab.cli", "check", "--trials", "5",
         "--suite", "closure"], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_check_writes_utf8_on_any_locale(encoding):
    # The closure check's detail holds U+2218, which neither codec encodes.
    want, got = _check_stdout("utf-8"), _check_stdout(encoding)
    assert want.returncode == 0 and "\u2218".encode() in want.stdout
    assert got.returncode == 0, got.stderr.decode(errors="replace")
    assert got.stdout == want.stdout


def _exit_status(argv):
    """Exit code of ``main``, counting argparse's SystemExit by its code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _int_at_most(limit):
    # Keep a fuzzed count small; text that is no integer passes through.
    def ok(text):
        try:
            return int(text) <= limit
        except ValueError:
            return True
    return ok


_number_texts = st.one_of(
    st.floats().map(repr), st.integers(-(10 ** 400), 10 ** 400).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "0x10", " 1 ", "1_0", ""]),
    st.text(max_size=4))
_csv_lines = st.one_of(
    st.sampled_from([b"t,x", b" t , x ", b"# comment", b"", b"0,0", b"1.5,-2",
                     b"nan,0", b"0,-inf", b"1e999,0", b"1e200,0", b"0,1e200",
                     b"1,2,3", b"1", b",", b"oops,1", b"\xff,1", b"\xc3\x28",
                     b"t,x,y", b"\xed\xa0\x80,0", b"\r\n"]),
    st.tuples(_number_texts, _number_texts).map(",".join).map(str.encode),
    st.binary(max_size=10))
_events_files = st.tuples(
    st.sampled_from([b"t,x\n", b"\xef\xbb\xbft,x\n", b""]),
    st.lists(_csv_lines, max_size=6),
).map(lambda parts: parts[0] + b"\n".join(parts[1]))


@given(data=_events_files)
@settings(max_examples=150, deadline=None)
def test_fuzzed_events_files_never_crash(fuzz_dir, data):
    events = fuzz_dir / "fuzzed.csv"
    events.write_bytes(data)
    config = fuzz_dir / "subluminal.json"
    config.write_text(SUBLUMINAL_MAP, encoding="utf-8")
    code = _exit_status(["transform", "--events", str(events),
                         "--config", str(config)])
    assert code in (0, 1, 2)


_phis_texts = st.one_of(
    st.tuples(_number_texts, _number_texts,
              st.one_of(st.integers(-2, 1000).map(str), st.text(max_size=4))
              ).map(":".join),
    st.text(max_size=12),
).filter(lambda text: text.count(":") != 2
         or _int_at_most(1000)(text.rsplit(":", 1)[1]))


@given(phis=_phis_texts)
@settings(max_examples=100, deadline=None)
def test_fuzzed_phase_grids_never_crash(phis):
    assert _exit_status(["interfere", f"--phis={phis}"]) in (0, 1, 2)


def _small_or_fuzzed(limit):
    return st.one_of(st.integers(-1, limit).map(str),
                     st.text(max_size=6).filter(_int_at_most(limit)))


@given(seed=st.one_of(st.integers(-1, 2 ** 64).map(str), st.text(max_size=8)),
       trials=_small_or_fuzzed(5), resolution=_small_or_fuzzed(11),
       suite=st.one_of(st.sampled_from(["all", "O1", "A4", "carrier",
                                        "no-go", "seed"]),
                       st.text(max_size=6)))
@settings(max_examples=40, deadline=None)
def test_fuzzed_check_flags_never_crash(seed, trials, resolution, suite):
    code = _exit_status(["check", f"--seed={seed}", f"--trials={trials}",
                         f"--resolution={resolution}", f"--suite={suite}"])
    assert code in (0, 1, 2)
