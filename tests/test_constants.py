"""Tests for the shared numerical policy: the one finiteness rule."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fringelab.constants import finite_float

SRC = Path(__file__).resolve().parent.parent / "src" / "fringelab"

# The only places an OverflowError may be caught: finite_float itself, and
# the four sites that catch arithmetic overflow in a result.
OVERFLOW_HANDLERS = [
    ("amplitudes.py", "carrier_minimality_check"),
    ("constants.py", "finite_float"),
    ("kinematics.py", "classify_interval"),
    ("kinematics.py", "event_interval"),
    ("kinematics.py", "polyline_is_simple"),
]


def _names_overflow(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type
    if kinds is None:
        return False
    elts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(e, ast.Name) and e.id == "OverflowError"
               for e in elts)


def _overflow_handlers(path: Path) -> list[tuple[str, str]]:
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and _names_overflow(child):
                found.append((path.name, scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_overflow_is_caught_only_by_finite_float_and_result_checks():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _overflow_handlers(path))
    assert found == OVERFLOW_HANDLERS


@pytest.mark.parametrize("value, expected", [
    (0, 0.0), (-2, -2.0), (1.5, 1.5), (True, 1.0), (Fraction(1, 4), 0.25),
    (np.float32(0.5), 0.5), ("2.5", 2.5), (10 ** 300, 1e300),
    (1.7976931348623157e308, 1.7976931348623157e308),
])
def test_finite_float_returns_the_float_of_a_finite_value(value, expected):
    out = finite_float(value)
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400,
                                   -10 ** 400, "nan", "-inf", np.float64("inf")])
def test_finite_float_returns_none_for_a_nonfinite_value(value):
    assert finite_float(value) is None


@pytest.mark.parametrize("value, error", [
    ("x", ValueError), (None, TypeError), ([1.0], TypeError),
    (1j, TypeError),
])
def test_finite_float_lets_other_errors_of_float_propagate(value, error):
    with pytest.raises(error) as info:
        finite_float(value)
    with pytest.raises(error) as direct:
        float(value)
    assert str(info.value) == str(direct.value)
