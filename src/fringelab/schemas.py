"""Versioned JSON schemas and the events CSV format.

Every document carries ``schema: 1``.  Unknown fields are rejected rather
than ignored: a typo in a physics-critical field like ``eta`` must fail
loudly, not silently fall back to a default.  Validation gathers every
problem before raising so a bad file is fixed in one round trip.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Sequence

from .constants import DEFAULT_C
from .interference import ConfigError, ExperimentConfig
from .kinematics import BranchKind, FrameMap, KinematicsError, SpacetimePoint

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Document fails schema validation; message lists every offense."""


def _check_schema_field(doc: dict, problems: list[str]) -> None:
    if "schema" not in doc:
        problems.append("schema: missing (expected 1)")
    elif doc["schema"] != SCHEMA_VERSION:
        problems.append(f"schema: unsupported version {doc['schema']!r} (expected 1)")


def _is_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        float(v)  # an int too large for a float is no usable number
    except OverflowError:
        return False
    return True


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

_EXPERIMENT_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "splitter1": config.splitter1,
        "splitter2": config.splitter2,
        "phase": config.phase,
        "blocked_arm": config.blocked_arm.value,
        "detector_model": config.detector_model.value,
        "composition": config.composition.value,
        "mixture_weights": (None if config.mixture_weights is None
                            else list(config.mixture_weights)),
    }


def experiment_config_from_dict(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise SchemaError("experiment config must be a JSON object")
    problems: list[str] = []
    _check_schema_field(doc, problems)
    unknown = sorted(set(doc) - _EXPERIMENT_FIELDS - {"schema"})
    if unknown:
        problems.append(f"unknown fields rejected: {', '.join(unknown)}")
    # Field values are validated in one place, ExperimentConfig.problems();
    # its messages join the schema's so one round trip surfaces every offense.
    try:
        config = ExperimentConfig(**{name: doc[name]
                                     for name in _EXPERIMENT_FIELDS & set(doc)})
    except ConfigError as err:
        problems.append(str(err))
        config = None
    if problems:
        raise SchemaError("; ".join(problems))
    return config


# ---------------------------------------------------------------------------
# frame maps
# ---------------------------------------------------------------------------

_FRAME_MAP_FIELDS = frozenset({
    "schema", "branch", "V", "eta", "c", "translation", "linear_part",
})


def frame_map_to_dict(m: FrameMap) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "branch": m.branch.value,
        "c": m.c,
        "translation": [float(v) for v in m.translation],
    }
    if m.branch is BranchKind.GENERAL_LINEAR:
        doc["linear_part"] = [[float(v) for v in row] for row in m.linear_part]
    else:
        doc["V"] = m.V
        if m.eta is not None:
            doc["eta"] = m.eta
    return doc


def frame_map_from_dict(doc) -> FrameMap:
    if not isinstance(doc, dict):
        raise SchemaError("map spec must be a JSON object")
    problems: list[str] = []
    _check_schema_field(doc, problems)
    unknown = sorted(set(doc) - _FRAME_MAP_FIELDS)
    if unknown:
        problems.append(f"unknown fields rejected: {', '.join(unknown)}")
    branch = None
    if "branch" not in doc:
        problems.append("branch: missing (subluminal, superluminal, or general-linear)")
    else:
        try:
            branch = BranchKind(doc["branch"])
        except ValueError:
            allowed = ", ".join(m.value for m in BranchKind)
            problems.append(f"branch: {doc['branch']!r} is not one of [{allowed}]")
    c = DEFAULT_C
    if "c" in doc:
        if not _is_number(doc["c"]) or doc["c"] <= 0:
            problems.append("c: must be a positive number")
        else:
            c = float(doc["c"])
    translation = None
    if "translation" in doc and doc["translation"] is not None:
        tr = doc["translation"]
        if not isinstance(tr, list) or not all(_is_number(v) for v in tr):
            problems.append("translation: must be a list of numbers")
        else:
            translation = [float(v) for v in tr]
    V = None
    if "V" in doc:
        if not _is_number(doc["V"]):
            problems.append("V: must be a number")
        else:
            V = float(doc["V"])
    eta = None
    if "eta" in doc:
        if doc["eta"] not in (1, -1):
            problems.append("eta: must be 1 or -1")
        else:
            eta = int(doc["eta"])

    if branch is BranchKind.SUBLUMINAL:
        if V is None:
            problems.append("V: required for the subluminal branch")
        if eta is not None:
            problems.append("eta: not allowed for the subluminal branch")
        if "linear_part" in doc:
            problems.append("linear_part: not allowed for the subluminal branch")
    elif branch is BranchKind.SUPERLUMINAL:
        if V is None:
            problems.append("V: required for the superluminal branch")
        if eta is None:
            problems.append("eta: required for the superluminal branch "
                            "(no default; both signs are admissible)")
        if "linear_part" in doc:
            problems.append("linear_part: not allowed for the superluminal branch")
    elif branch is BranchKind.GENERAL_LINEAR:
        if V is not None or "eta" in doc:
            problems.append("V/eta: not allowed for general-linear maps")
        lp = doc.get("linear_part")
        if (not isinstance(lp, list) or not lp
                or not all(isinstance(row, list) and all(_is_number(v) for v in row)
                           for row in lp)
                or len({len(row) for row in lp}) != 1
                or len(lp) != len(lp[0])):
            problems.append("linear_part: required square number matrix "
                            "for general-linear maps")
    if problems:
        raise SchemaError("; ".join(problems))
    try:
        if branch is BranchKind.SUBLUMINAL:
            return FrameMap.boost(V, c, translation=translation)
        if branch is BranchKind.SUPERLUMINAL:
            return FrameMap.superluminal(V, eta, c, translation=translation)
        return FrameMap.general_linear(doc["linear_part"],
                                       translation=translation, c=c)
    except KinematicsError as err:
        raise SchemaError(str(err)) from None


# ---------------------------------------------------------------------------
# events CSV
# ---------------------------------------------------------------------------


def parse_events_csv(text: str) -> list[SpacetimePoint]:
    """Parse an events table: header ``t,x`` then one event per line.

    Blank lines and ``#`` comments are skipped.  Errors carry 1-based line
    numbers.
    """
    events = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            fields = [f.strip() for f in line.split(",")]
            if fields != ["t", "x"]:
                raise SchemaError(
                    f"line {lineno}: expected header 't,x', got {line!r}")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise SchemaError(
                f"line {lineno}: expected 2 comma-separated values, "
                f"got {len(fields)}")
        try:
            t, x = (float(f) for f in fields)
        except ValueError:
            raise SchemaError(
                f"line {lineno}: non-numeric value in {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(x)):
            raise SchemaError(f"line {lineno}: values must be finite")
        events.append(SpacetimePoint(t, x))
    if not header_seen:
        raise SchemaError("line 1: missing header 't,x'")
    return events


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same bits."""
    return format(float(x), ".17g")


def events_csv(events: Sequence[SpacetimePoint]) -> str:
    lines = ["t,x"]
    for p in events:
        lines.append(f"{format_float(p.t)},{format_float(p.x[0])}")
    return "\n".join(lines) + "\n"


def dump_json(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON at line {err.lineno}, "
                          f"column {err.colno}: {err.msg}") from None
    except ValueError as err:  # an integer past Python's digit limit
        raise SchemaError(f"invalid JSON: {err}") from None
