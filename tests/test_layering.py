"""Each layer imports only the layers below it, and only kinematics uses numpy."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fringelab"

# Module -> (in-package modules it imports, whether it imports numpy).
# checks, cli and __init__ join the layers and are not restricted.
LAYERS = {
    "constants": (set(), False),
    "amplitudes": ({"constants"}, False),
    "interference": ({"amplitudes", "constants"}, False),
    "kinematics": ({"constants"}, True),
    "schemas": ({"constants", "interference", "kinematics"}, False),
}
UNRESTRICTED = {"checks", "cli", "__init__"}


def _imports(module: str) -> tuple[set[str], bool]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    package, numpy = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                package.update([node.module] if node.module
                               else [alias.name for alias in node.names])
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            numpy |= top == "numpy"
            if top == "fringelab" and rest:
                package.add(rest.partition(".")[0])
    return package, numpy


def test_every_module_has_a_layer_rule():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS) | UNRESTRICTED


def test_each_layer_imports_only_what_lies_below_it():
    assert {m: _imports(m) for m in LAYERS} == LAYERS


def _annotated(module) -> list:
    # Functions and classes the module defines, and the methods, class and
    # static methods and property getters of those classes.
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append(obj)
        elif inspect.isclass(obj):
            found.append(obj)
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(attr):
                    found.append(attr)
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_annotation_names_a_type_its_module_can_resolve(module):
    # A string annotation naming what the module does not import (numpy in
    # a layer without it, say) raises NameError here.
    objects = _annotated(importlib.import_module(
        "fringelab" if module == "__init__" else f"fringelab.{module}"))
    assert objects or module == "__init__"
    for obj in objects:
        typing.get_type_hints(obj)
