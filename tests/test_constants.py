"""Tests for the shared numerical policy: the one number and finiteness rule."""

import ast
import enum
import math
import numbers
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fringelab.constants import finite_float, is_count, is_real

SRC = Path(__file__).resolve().parent.parent / "src" / "fringelab"

# The only places an OverflowError (or its base ArithmeticError) may be
# caught: finite_float itself, the two sites that catch arithmetic overflow
# in a result, math.fsum's overflow of rule weights, and a rule's weight
# function, whose arithmetic errors are named.  Elsewhere a square is a
# product, which overflows to inf instead of raising.
OVERFLOW_HANDLERS = [
    ("amplitudes.py", "__call__"),
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
    # ArithmeticError is OverflowError's base, so it catches overflow too.
    return any(isinstance(e, ast.Name)
               and e.id in ("OverflowError", "ArithmeticError") for e in elts)


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


# The one place a 17-significant-digit format is written, in code, string or
# comment, and the one function that is cached.  A second row format, or a
# second cache, must be added here on purpose.
FLOAT_FORMATS = [("schemas.py", "row_format")]
CACHES = [("interference.py", "_fixed_parts")]
_CACHE_NAMES = {"lru_cache", "cache", "cached_property"}


def _scopes(tree) -> list[tuple[int, int, str]]:
    # (first line, last line, name) of each function, decorators included,
    # sorted so that the last scope holding a line is the innermost.
    return sorted((min([f.lineno] + [d.lineno for d in f.decorator_list]),
                   f.end_lineno, f.name) for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _scope_of(scopes, lineno: int) -> str:
    inside = [name for first, last, name in scopes if first <= lineno <= last]
    return inside[-1] if inside else "<module>"


def test_the_17_digit_format_is_written_once():
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        scopes = _scopes(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), start=1):
            found += [(path.name, _scope_of(scopes, lineno))] * line.count(".17g")
    assert found == FLOAT_FORMATS


def test_only_fixed_parts_is_cached():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = _scopes(tree)
        found += [(path.name, _scope_of(scopes, node.lineno))
                  for node in ast.walk(tree)
                  if (node.id if isinstance(node, ast.Name) else
                      node.attr if isinstance(node, ast.Attribute) else None)
                  in _CACHE_NAMES]
    assert found == CACHES


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


def _rule_tests(path: Path) -> list[tuple[str, str]]:
    # (file, function) of each isinstance(..., ProbabilityRule).
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = _scopes(tree)
    return [(path.name, _scope_of(scopes, node.lineno)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any((n.id if isinstance(n, ast.Name) else
                     n.attr if isinstance(n, ast.Attribute) else None)
                    == "ProbabilityRule" for n in ast.walk(node.args[1]))]


def test_only_require_rule_decides_what_a_rule_is():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _rule_tests(path))
    assert found == [("amplitudes.py", "_require_rule")]


# The only functions that build a value with object.__new__, skipping its
# class's checks: both are on the measured per-phase path.
BYPASSES = [("interference.py", "_at_phase"), ("interference.py", "_unchecked")]


def _sites(path: Path, matches) -> list[tuple[str, str]]:
    # (file, function) of each AST node that ``matches``.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = _scopes(tree)
    return [(path.name, _scope_of(scopes, node.lineno))
            for node in ast.walk(tree) if matches(node)]


def _is_object_new(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_only_the_per_phase_builders_bypass_a_constructor():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _sites(path, _is_object_new))
    assert found == BYPASSES


def _names_a_non_member(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "is not one of [" in node.value)


def test_only_enum_member_names_a_value_outside_an_enum():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _sites(path, _names_a_non_member))
    assert found == [("constants.py", "enum_member")]


def _calls_frexp(node) -> bool:
    return isinstance(node, ast.Call) and (
        node.func.id if isinstance(node.func, ast.Name) else
        node.func.attr if isinstance(node.func, ast.Attribute) else None) == "frexp"


def test_frexp_is_called_only_by_the_unit_scaling_and_its_undoing():
    # _unit_scaled is the one rescaler by a power of two; the other frexp
    # un-scales classify_cone_preserver's multiplier lambda.  A second copy
    # of the rescale must be added here on purpose.
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _sites(path, _calls_frexp))
    assert found == [("kinematics.py", "_unit_scaled"),
                     ("kinematics.py", "classify_cone_preserver")]


@pytest.mark.parametrize("value, expected", [
    (0, 0.0), (-2, -2.0), (1.5, 1.5), (Fraction(1, 4), 0.25),
    (np.float32(0.5), 0.5), (10 ** 300, 1e300),
    (1.7976931348623157e308, 1.7976931348623157e308),
])
def test_finite_float_returns_the_float_of_a_finite_value(value, expected):
    out = finite_float(value)
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -2.5, 1.7976931348623157e308])
def test_finite_float_returns_an_exact_float_as_itself(value):
    assert finite_float(value) is value


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


def _old_is_real(value) -> bool:
    # constants.is_real before exact floats and ints took their own path.
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


class _Level(enum.IntEnum):
    LOW = 1


class _Float(float):
    pass


class _Int(int):
    pass


_IS_REAL_INPUTS = [
    0.0, -0.0, 1.5, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
    -5e-324, 2.0 ** -1030, 1.7976931348623157e308,
    0, -7, 10 ** 400, -10 ** 400, 2 ** 1024 - 1,
    True, False, _Level.LOW, _Float(0.5), _Float(math.nan), _Int(3),
    np.float64(0.5), np.float64(math.nan), np.float32(0.5), np.int64(3),
    np.bool_(True), np.bool_(False), Fraction(1, 3), Decimal("0.5"),
    complex(1.0, 0.0), 1j, "0.5", "nan", None, [1.0], (1.0,)]


@pytest.mark.parametrize("value", _IS_REAL_INPUTS, ids=repr)
def test_is_real_answers_as_the_numbers_real_rule(value):
    assert is_real(value) is _old_is_real(value)


def test_is_real_answers_exact_floats_and_ints_by_type_alone(monkeypatch):
    # An exact float or int never reaches the numbers.Real test; everything
    # else still does.
    seen = []

    def recording_isinstance(value, kinds):
        seen.append(value)
        return isinstance(value, kinds)

    monkeypatch.setitem(is_real.__globals__, "isinstance", recording_isinstance)
    for value in (0.0, -0.0, math.nan, math.inf, 5e-324, 0, 10 ** 400):
        assert is_real(value)
    assert seen == []
    for value in (True, _Float(0.5), _Int(3), np.float64(0.5), Fraction(1, 3)):
        seen.clear()
        assert is_real(value) is _old_is_real(value)
        assert seen and seen[0] is value
