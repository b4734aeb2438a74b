"""Versioned JSON schemas and the events CSV format.

Every document carries ``schema: 1``.  Unknown fields are rejected rather
than ignored: a typo in a physics-critical field like ``eta`` must fail
loudly, not silently fall back to a default.  One helper checks the
envelope of both document types; ExperimentConfig and FrameMap check field
values, and SpacetimePoint checks each event's coordinates.  Every problem
is gathered before raising so a bad file is fixed in one round trip.
"""

from __future__ import annotations

import dataclasses
import json

from .interference import ConfigError, ExperimentConfig
from .kinematics import BranchKind, FrameMap, KinematicsError, SpacetimePoint

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Document fails schema validation; message lists every offense."""


def _envelope(doc, cls, what: str) -> tuple[dict, list[str]]:
    """The fields of ``doc`` that ``cls`` declares, and the envelope problems."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    problems = []
    if "schema" not in doc:
        problems.append("schema: missing (expected 1)")
    elif doc["schema"] != SCHEMA_VERSION:
        problems.append(f"schema: unsupported version {doc['schema']!r} (expected 1)")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - known - {"schema"})
    if unknown:
        problems.append(f"unknown fields rejected: {', '.join(unknown)}")
    return {name: doc[name] for name in known & set(doc)}, problems


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


def experiment_config_from_dict(doc) -> ExperimentConfig:
    fields, problems = _envelope(doc, ExperimentConfig, "experiment config")
    # Field values are validated in one place, ExperimentConfig.problems();
    # its messages join the schema's so one round trip surfaces every offense.
    try:
        config = ExperimentConfig(**fields)
    except ConfigError as err:
        problems.append(str(err))
        config = None
    if problems:
        raise SchemaError("; ".join(problems))
    return config


# ---------------------------------------------------------------------------
# frame maps
# ---------------------------------------------------------------------------


def frame_map_from_dict(doc) -> FrameMap:
    fields, problems = _envelope(doc, FrameMap, "map spec")
    # A boost document gives its velocity, never its matrix.
    if (fields.get("branch") in (BranchKind.SUBLUMINAL, BranchKind.SUPERLUMINAL)
            and "linear_part" in fields):
        problems.append(f"linear_part: not allowed for the {doc['branch']} branch")
        del fields["linear_part"]
    # FrameMap alone validates field values (a missing branch is passed as
    # None); its messages join the schema's, so one round trip names them all.
    try:
        frame_map = FrameMap(**{"branch": None, **fields})
    except KinematicsError as err:
        problems.append(str(err))
    if problems:
        raise SchemaError("; ".join(problems))
    return frame_map


# ---------------------------------------------------------------------------
# events CSV
# ---------------------------------------------------------------------------


def parse_events_csv(text: str) -> list[SpacetimePoint]:
    """Parse an events table: header ``t,x`` then one event per line.

    Blank lines and ``#`` comments are skipped.  Errors carry 1-based line
    numbers; SpacetimePoint is the one check that a value is finite.
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
            events.append(SpacetimePoint(float(fields[0]), float(fields[1])))
        except ValueError as err:
            raise SchemaError(f"line {lineno}: {err}") from None
    if not header_seen:
        raise SchemaError("line 1: missing header 't,x'")
    return events


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same bits."""
    return format(float(x), ".17g")


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
