"""Each layer imports only the layers below it, and only kinematics uses numpy."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fringelab"

# Module -> (in-package modules it imports, whether it imports numpy).
# checks, cli and __init__ join the layers and are not restricted.
LAYERS = {
    "constants": (set(), False),
    "amplitudes": ({"constants"}, False),
    "interference": ({"amplitudes", "constants"}, False),
    "kinematics": ({"constants"}, True),
    "schemas": ({"interference", "kinematics"}, False),
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
