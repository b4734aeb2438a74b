"""Tests for the shared numerical policy: the one number and finiteness rule."""

import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fringelab.constants import finite_float, is_count, is_real

SRC = Path(__file__).resolve().parent.parent / "src" / "fringelab"

# The only places an OverflowError may be caught: finite_float itself, the
# two sites that catch arithmetic overflow in a result, and math.fsum's
# overflow of rule weights.  Elsewhere a square is a product, which
# overflows to inf instead of raising.
OVERFLOW_HANDLERS = [
    ("amplitudes.py", "_weight_sum"),
    ("amplitudes.py", "carrier_minimality_check"),
    ("constants.py", "finite_float"),
    ("kinematics.py", "event_interval"),
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


def _is_number_test(node) -> bool:
    # isinstance(..., numbers.Real) or isinstance(..., (int, float)).
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1]
    if isinstance(kinds, ast.Tuple):
        return any(isinstance(e, ast.Name) and e.id in ("int", "float")
                   for e in kinds.elts)
    return ((isinstance(kinds, ast.Attribute) and kinds.attr == "Real")
            or (isinstance(kinds, ast.Name) and kinds.id == "Real"))


def _number_tests(path: Path) -> list[tuple[str, str]]:
    # (file, function) of each number test; a name _is_number counts as one.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if func.name == "_is_number":
                found.append((path.name, func.name))
            found.extend((path.name, func.name) for node in ast.walk(func)
                         if _is_number_test(node))
    found.extend((path.name, "<module>") for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "_is_number")
    return found


def test_only_is_real_decides_what_a_number_is():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _number_tests(path))
    assert found == [("constants.py", "is_real")]


@pytest.mark.parametrize("value, expected", [
    (0, 0.0), (-2, -2.0), (1.5, 1.5), (Fraction(1, 4), 0.25),
    (np.float32(0.5), 0.5), (10 ** 300, 1e300),
    (1.7976931348623157e308, 1.7976931348623157e308),
])
def test_finite_float_returns_the_float_of_a_finite_value(value, expected):
    out = finite_float(value)
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400,
                                   -10 ** 400, "nan", "-inf", np.float64("inf")])
def test_finite_float_returns_none_for_a_nonfinite_value(value):
    assert finite_float(value) is None


@pytest.mark.parametrize("value", ["x", None, [1.0], 1j, True, "2.5",
                                   Decimal("0.5")])
def test_finite_float_returns_none_for_a_non_number(value):
    assert not is_real(value)
    assert finite_float(value) is None


@pytest.mark.parametrize("value", [0, 1.5, np.float64(0.5), np.float32(0.5),
                                   np.int64(3), Fraction(1, 2), 10 ** 400,
                                   math.nan])
def test_is_real_accepts_ints_floats_fractions_and_numpy_scalars(value):
    assert is_real(value)


@pytest.mark.parametrize("value, expected", [
    (0, True), (3, True), (10 ** 400, True), (np.int64(3), True),
    (np.uint8(3), True), (True, False), (np.bool_(True), False),
    (2.0, False), (2.5, False), (np.float64(2.0), False),
    (Fraction(4, 2), False), ("5", False), (None, False)])
def test_is_count_takes_ints_and_numpy_integers_but_not_bools(value, expected):
    assert is_count(value) is expected
