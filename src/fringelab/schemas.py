"""Versioned JSON schemas and the events CSV format.

Every document carries ``schema: 1``.  Unknown and repeated fields are
rejected, not ignored: a typo in a physics-critical field like ``eta`` must
fail loudly, not silently fall back to a default.  One function reads both
documents: it checks the envelope, and ExperimentConfig and FrameMap check
field values; SpacetimePoint checks each event's coordinates.  Every problem
is gathered before raising so a bad file is fixed in one round trip.
"""

from __future__ import annotations

import dataclasses
import json

from .constants import is_real
from .interference import ConfigError, ExperimentConfig
from .kinematics import FrameMap, KinematicsError, SpacetimePoint

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Document fails schema validation; message lists every offense."""


def _from_dict(doc, cls, what: str, error: type[Exception], **defaults):
    """``cls`` built from the fields of ``doc``, which it alone validates.

    Envelope problems (the schema version, unknown fields) come first; a
    field problem ``cls`` raises as ``error`` joins them, so one round trip
    names every offense.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    problems = []
    if "schema" not in doc:
        problems.append("schema: missing (expected 1)")
    elif not (is_real(doc["schema"]) and doc["schema"] == SCHEMA_VERSION):
        problems.append(f"schema: unsupported version {doc['schema']!r} (expected 1)")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - known - {"schema"})
    if unknown:
        problems.append(f"unknown fields rejected: {', '.join(unknown)}")
    try:
        value = cls(**{**defaults, **{name: doc[name] for name in known & set(doc)}})
    except error as err:
        problems.append(str(err))
    if problems:
        raise SchemaError("; ".join(problems))
    return value


def experiment_config_from_dict(doc) -> ExperimentConfig:
    return _from_dict(doc, ExperimentConfig, "experiment config", ConfigError)


def frame_map_from_dict(doc) -> FrameMap:
    # A missing branch is passed as None, so FrameMap names it with the rest.
    return _from_dict(doc, FrameMap, "map spec", KinematicsError, branch=None)


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


def row_format(width: int) -> str:
    """The ``%`` format of a row of ``width`` floats, comma-joined, each in
    the 17 significant digits that parse back to its bits (nan, inf and
    -0.0 included).  Both CSV writers build ``row_format(6)`` once."""
    return ",".join(["%.17g"] * width)


def format_float(x: float) -> str:
    """``row_format(1) % float(x)``: 17 digits that parse back to its bits."""
    return row_format(1) % float(x)


def dump_json(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    seen, repeated = set(), set()
    for name, _ in pairs:
        (repeated if name in seen else seen).add(name)
    if repeated:
        raise SchemaError(f"duplicate fields rejected: {', '.join(sorted(repeated))}")
    return dict(pairs)


def load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_fields)
    except SchemaError:  # a repeated field; a ValueError, so not wrapped below
        raise
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON at line {err.lineno}, "
                          f"column {err.colno}: {err.msg}") from None
    except ValueError as err:  # an integer past Python's digit limit
        raise SchemaError(f"invalid JSON: {err}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply to parse") from None
