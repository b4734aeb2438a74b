"""Each layer imports only the layers below it, and only kinematics uses numpy."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fringelab"

# Module -> (in-package modules it imports, whether it uses numpy).
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
                # constants binds numpy, imported on first use, as np
                numpy |= node.module == "constants" and any(
                    alias.name == "np" for alias in node.names)
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


_TRACE_AFTER_THE_CLI = """
import sys
import fringelab.cli
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
"""


def test_perfbench_tracer_installs_after_importing_only_the_cli():
    # Tracer.install looks each traced module up in sys.modules and imports
    # none, so `import fringelab.cli` must load every one of them.
    perfbench = SRC.parent.parent / "perfbench"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _TRACE_AFTER_THE_CLI, str(perfbench)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


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
