"""Correctness checks on the CLI outputs of one pass.

Each check restates the physics from the generated inputs alone (closed
forms, exact values, literal equalities), so it holds whatever code path
the program takes to produce the numbers.  ``check_invocation`` returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import CHECK_IDS

# Absolute tolerance for probabilities and relative tolerance for
# intervals; both far above rounding error, far below any real defect.
TOL = 1e-12

CHECK_COUNT = len(CHECK_IDS)


def _table(path: Path, header_lines: int, columns: int) -> tuple[list[str], np.ndarray]:
    """Header lines and the numeric rows of a CSV written by the CLI."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head, body = lines[:header_lines], lines[header_lines:]
    cells = ",".join(body).split(",") if body else []
    if len(cells) != columns * len(body):
        raise ValueError(f"{path.name}: rows do not all have {columns} columns")
    return head, np.array(cells, dtype=np.float64).reshape(len(body), columns)


# ---------------------------------------------------------------------------
# interfere
# ---------------------------------------------------------------------------


def _expected_fringe(kind: str, config: dict, phi: np.ndarray):
    """Closed-form (p_d0, p_d1, p_absorbed) for the generated configs."""
    T1, T2 = config.get("splitter1", 0.5), config.get("splitter2", 0.5)
    R1, R2 = 1.0 - T1, 1.0 - T2
    ones = np.ones_like(phi)
    if kind == "blocked":
        return 0.25 * ones, 0.25 * ones, 0.5 * ones
    if kind == "classical":
        wu, wl = config["mixture_weights"]
        d0, d1 = wu * R2 + wl * T2, wu * T2 + wl * R2
        return d0 * ones, d1 * ones, 0.0 * ones
    if kind == "recording":
        return (T1 * R2 + R1 * T2) * ones, (T1 * T2 + R1 * R2) * ones, 0.0 * ones
    cross = 2.0 * math.sqrt(T1 * R1 * T2 * R2) * np.cos(phi)
    return T1 * R2 + R1 * T2 + cross, T1 * T2 + R1 * R2 - cross, 0.0 * ones


def check_interfere(facts: dict, stdout: str, out: Path) -> list[str]:
    problems = []
    head, rows = _table(out, 3, 6)
    kind, steps = facts["kind"], facts["steps"]
    if len(rows) != steps:
        return [f"{len(rows)} rows, expected {steps}"]
    if head[2] != "phi,p_d0,p_d1,p_absorbed,p_d0_given_detected,p_d1_given_detected":
        problems.append("unexpected column header")
    phi, d0, d1, ab = rows.T[:4]
    grid = np.linspace(facts["start"], facts["stop"], steps)
    if np.max(np.abs(phi - grid)) > TOL * max(1.0, np.max(np.abs(grid))):
        problems.append("phi column is not the requested grid")
    e0, e1, ea = _expected_fringe(kind, facts["config"], phi)
    worst = max(np.max(np.abs(d0 - e0)), np.max(np.abs(d1 - e1)),
                np.max(np.abs(ab - ea)))
    if not worst <= TOL:
        problems.append(f"probabilities off the closed form by {worst!r}")
    if np.max(np.abs(d0 + d1 + ab - 1.0)) > TOL:
        problems.append("probabilities do not sum to 1")
    if kind == "balanced" and np.max(np.abs(d0 - np.cos(phi / 2.0) ** 2)) > TOL:
        problems.append("balanced p_d0 does not follow cos^2(phi/2)")
    if kind == "blocked":
        exact = out.read_text(encoding="utf-8").splitlines()[3:]
        if any(line.split(",", 1)[1] != "0.25,0.25,0.5,0.5,0.5" for line in exact):
            problems.append("blocked-arm rows are not exactly (0.25, 0.25, 0.5)")
    if kind == "classical":
        if not np.all(rows[:, 1:] == rows[0, 1:]):
            problems.append("classical rows vary with phase")
    lo, hi = float(np.min(d0)), float(np.max(d0))
    vis = 0.0 if hi + lo == 0.0 else (hi - lo) / (hi + lo)
    stated = float(head[1].split("=", 1)[1])
    if abs(stated - vis) > TOL:
        problems.append(f"visibility {stated!r} differs from the table's {vis!r}")
    if stdout.strip() != head[1].lstrip("# ").strip():
        problems.append("stdout visibility line differs from the table header")
    return problems


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def _events(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array(",".join(lines).split(","), dtype=np.float64).reshape(-1, 2)


def check_transform(facts: dict, stdout: str, out: Path,
                    events: np.ndarray) -> list[str]:
    problems = []
    head, rows = _table(out, 2, 6)
    doc, kind = facts["map"], facts["kind"]
    if not head[0].startswith(f"# map: {kind} "):
        problems.append(f"map header {head[0]!r} does not name {kind}")
    if head[1] != "t,x,t_out,x_out,interval_in,interval_out":
        problems.append("unexpected column header")
    if stdout:
        problems.append("transform with --out printed to stdout")
    if rows.shape[0] != len(events):
        return problems + [f"{rows.shape[0]} rows for {len(events)} events"]
    t, x, t2, x2, iv_in, iv_out = rows.T
    if not (np.array_equal(t, events[:, 0]) and np.array_equal(x, events[:, 1])):
        problems.append("input columns differ from the events table")
    # Each printed interval is x^2 - t^2 of its own row (c = 1).
    for label, a, b, iv in (("interval_in", t, x, iv_in),
                            ("interval_out", t2, x2, iv_out)):
        if np.any(np.abs(iv - (b * b - a * a)) > TOL * (a * a + b * b)):
            problems.append(f"{label} is not x^2 - t^2 of its row")
    shift = np.array(doc.get("translation", [0.0, 0.0]))
    if kind == "general-linear":
        lin = np.array(doc["linear_part"])
        want = events @ lin.T + shift
        size = np.abs(events) @ np.abs(lin).T + np.abs(shift)
        if np.any(np.abs(np.column_stack([t2, x2]) - want) > TOL * size):
            problems.append("outputs differ from L @ (t, x) + translation")
        return problems
    # Translation moves the origin, so undo it before comparing intervals.
    u, v = t2 - shift[0], x2 - shift[1]
    moved = v * v - u * u
    scale = ((np.abs(t2) + abs(shift[0])) ** 2 + (np.abs(x2) + abs(shift[1])) ** 2
             + t * t + x * x)
    want = -iv_in if kind == "superluminal" else iv_in
    if np.any(np.abs(moved - want) > TOL * scale):
        verb = "negate" if kind == "superluminal" else "preserve"
        problems.append(f"{kind} rows do not {verb} the interval")
    return problems


# ---------------------------------------------------------------------------
# check and nogo
# ---------------------------------------------------------------------------


def check_check(facts: dict, stdout: str) -> list[str]:
    problems = []
    text, _, report = stdout.partition("\n{")
    lines = text.splitlines()
    verdicts = lines[:-1]
    if len(verdicts) != CHECK_COUNT:
        problems.append(f"{len(verdicts)} check lines, expected {CHECK_COUNT}")
    failing = [line for line in verdicts if not line.startswith("PASS  ")]
    if failing:
        problems.append(f"non-PASS lines: {failing[:3]}")
    summary = (f"{CHECK_COUNT}/{CHECK_COUNT} checks passed "
               f"(suite: all, seed: {facts['seed']})")
    if not lines or lines[-1] != summary:
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    try:
        doc = json.loads("{" + report)
    except json.JSONDecodeError:
        return problems + ["JSON report does not parse"]
    checks = doc.get("checks", [])
    if len(checks) != CHECK_COUNT or not all(c.get("pass") is True for c in checks):
        problems.append(f"JSON report does not hold {CHECK_COUNT} passing checks")
    if [c.get("id") for c in checks] != list(CHECK_IDS):
        problems.append("JSON report does not list the registered check ids")
    return problems


def check_nogo(facts: dict, stdout: str, out: Path) -> list[str]:
    problems = []
    res = facts["resolution"]
    doc = json.loads(out.read_text(encoding="utf-8"))
    if "no-go contrast: PASS" not in stdout.splitlines():
        problems.append("nogo did not report PASS")
    if f"classical configurations enumerated: {12 * res}" not in stdout.splitlines():
        problems.append("stdout config count is not 12 x resolution")
    if doc.get("classical_config_count") != 12 * res:
        problems.append(f"classical_config_count {doc.get('classical_config_count')}"
                        f" != 12 x {res}")
    if doc.get("passed") is not True or doc.get("max_classical_variation") != 0.0:
        problems.append("report is not a pass with zero classical variation")
    if doc.get("resolution") != res:
        problems.append("report resolution differs from the flag")
    return problems


def check_invocation(inv: dict, code: int, pass_dir: Path,
                     events_cache: dict) -> list[str]:
    """Problems with one invocation's exit code and output (empty: correct)."""
    if code != 0:
        return [f"exit code {code}"]
    stdout = (pass_dir / f"{inv['name']}.stdout").read_text(encoding="utf-8")
    out = pass_dir / inv["out"] if inv["out"] else None
    facts = inv["facts"]
    try:
        command = inv["argv"][0]
        if command == "interfere":
            return check_interfere(facts, stdout, out)
        if command == "transform":
            path = facts["events"]
            if path not in events_cache:
                events_cache[path] = _events(Path(path))
            return check_transform(facts, stdout, out, events_cache[path])
        if command == "check":
            return check_check(facts, stdout)
        return check_nogo(facts, stdout, out)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]
