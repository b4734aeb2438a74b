"""Trace completeness and output checks of the benchmark, at small sizes.

The traced counts must equal the work each workload asks for, tracing must
not change a single output byte, and the correctness checks must both
accept the program's real output and reject a tampered one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SIZES = workloads.SMALL


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli(BENCH.parent / "src")


def plain_and_traced(cli, invocations, tmp_path):
    """Run one untraced and one traced pass; return the trace summary."""
    plain = worker.run_pass(cli, invocations, tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer:
        traced = worker.run_pass(cli, invocations, tmp_path / "traced", tracer)
    assert plain["codes"] == [0] * len(invocations)
    assert traced["codes"] == plain["codes"]
    assert traced["digests"] == plain["digests"], "tracing changed output bytes"
    cache: dict = {}
    for i, inv in enumerate(invocations):
        assert outputs.check_invocation(inv, 0, tmp_path / "plain", cache) == []
    return tracer.summary()


def test_transform_counts(cli, tmp_path):
    invocations, props = workloads.generate("transform", SEED, tmp_path / "in", SIZES)
    s = plain_and_traced(cli, invocations, tmp_path)
    mapped = 3 * SIZES.events
    assert s["kinematics.FrameMap.apply.calls"] == mapped
    assert s["schemas.parse_events_csv.events"] == mapped
    assert s["kinematics.event_interval.calls"] == 2 * mapped
    assert s["cli.cmd_transform.calls"] == 3
    assert props["near_null_events"] > 0


def test_sweep_counts(cli, tmp_path):
    invocations, props = workloads.generate("sweep", SEED, tmp_path / "in", SIZES)
    s = plain_and_traced(cli, invocations, tmp_path)
    assert s["interference.phase_sweep.phases"] == props["phases"]
    assert s["interference.phase_sweep.phases"] == 5 * SIZES.phases_per_config
    assert s["interference.simulate.calls"] == props["phases"]
    assert s["amplitudes.evaluate.calls"] == 2 * props["graph_path_phases"]
    assert props["graph_path_phases"] == 3 * SIZES.phases_per_config


def test_nogo_configs(cli, tmp_path):
    invocations, _ = workloads.generate("verify", SEED, tmp_path / "in", SIZES)
    nogo = [inv for inv in invocations if inv["name"] == "nogo"]
    s = plain_and_traced(cli, nogo, tmp_path)
    assert s["interference.no_go_search.configs"] == 12 * SIZES.nogo_resolution


def test_polyline_calls_inside_no_branching_check(cli, tmp_path):
    trials = 10
    inv = workloads.invocation(
        "check", ["check", "--suite", "worldline-no-branching",
                  "--trials", str(trials), "--seed", str(SEED)])
    plain = worker.run_pass(cli, [inv], tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer:
        traced = worker.run_pass(cli, [inv], tmp_path / "traced", tracer)
    assert traced["digests"] == plain["digests"]
    s = tracer.summary()
    # One simplicity test per drawn worldline, one per mapped image, and one
    # for the crossing fixture.
    assert s["kinematics.polyline_is_simple.calls"] == 2 * trials + 1
    hist = worker.polyline_histogram(SEED, trials)
    assert sum(hist.values()) == trials
    drawn = sum(int(n) * k for n, k in hist.items())
    assert s["kinematics.polyline_is_simple.vertices"] == 2 * drawn + 4


def test_verify_workload_traces_every_check(cli, tmp_path):
    invocations, _ = workloads.generate("verify", SEED, tmp_path / "in", SIZES)
    s = plain_and_traced(cli, invocations, tmp_path)
    for cid in spans.CHECK_IDS:
        assert s[f"checks.{cid}.calls"] == 1
    reported = {name for name, _ in spans.metric_names()}
    assert len(reported) == len(spans.metric_names())


def test_uninstall_restores_every_binding(cli):
    import fringelab.checks as checks
    import fringelab.kinematics as kin
    before = (cli.cmd_check, checks.REGISTRY, kin.FrameMap.__call__,
              kin.SpacetimePoint.__init__, checks.check_no_branching)
    with spans.Tracer():
        assert checks.check_no_branching is not before[4]
        assert kin.FrameMap.__call__ is kin.FrameMap.apply
    after = (cli.cmd_check, checks.REGISTRY, kin.FrameMap.__call__,
             kin.SpacetimePoint.__init__, checks.check_no_branching)
    assert all(a is b for a, b in zip(before, after))


def test_checks_reject_tampered_outputs(cli, tmp_path):
    invocations, _ = workloads.generate("transform", SEED, tmp_path / "in", SIZES)
    flip = [inv for inv in invocations if inv["name"] == "transform-superluminal"]
    worker.run_pass(cli, flip, tmp_path / "out")
    out = tmp_path / "out" / flip[0]["out"]
    lines = out.read_text(encoding="utf-8").splitlines()
    # Swapping t_out and x_out turns the flip into a preservation; do it on
    # the row farthest from the light cone.
    row = max(range(2, len(lines)), key=lambda i: abs(float(lines[i].split(",")[4])))
    cells = lines[row].split(",")
    cells[2], cells[3] = cells[3], cells[2]
    lines[row] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = outputs.check_invocation(flip[0], 0, tmp_path / "out", {})
    assert any("negate the interval" in p for p in problems)

    invocations, _ = workloads.generate("sweep", SEED, tmp_path / "in2", SIZES)
    blocked = [inv for inv in invocations if inv["name"] == "interfere-blocked"]
    worker.run_pass(cli, blocked, tmp_path / "out2")
    out = tmp_path / "out2" / blocked[0]["out"]
    text = out.read_text(encoding="utf-8")
    out.write_text(text.replace(",0.25,", ",0.25000000000000006,", 1),
                   encoding="utf-8")
    problems = outputs.check_invocation(blocked[0], 0, tmp_path / "out2", {})
    assert any("exactly (0.25, 0.25, 0.5)" in p for p in problems)
