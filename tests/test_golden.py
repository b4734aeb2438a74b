"""Golden outputs of the four CLI commands, pinned by SHA-256.

Every case runs ``main`` on fixed inputs and hashes the bytes of its
``--out`` file and of its stdout.  The digests in ``GOLDEN`` were recorded
from the program at commit 9f68fa3 by running ``_outputs`` on each case and
taking ``hashlib.sha256(...).hexdigest()`` of both byte strings; they are
the byte-identity contract that a refactor or a faster path must keep.
Change a digest only when an output change is intended, and record why in
CHANGES.md.

The 200-event table comes from ``random.Random``, whose stream is fixed
across Python versions, and is written with ``repr``, so the input bytes
are fixed too.  A quarter of its events sit within four ulp of the light
cone x = +-t, where interval signs are most fragile.
"""

import hashlib
import json
import math
import random

import pytest

from fringelab.cli import main

NEAR_CONE_ULPS = 4


def _events_csv() -> str:
    rng = random.Random(5)
    lines = ["t,x"]
    for k in range(200):
        t = rng.uniform(-10.0, 10.0)
        if k % 4 == 0:
            x = rng.choice((-1.0, 1.0)) * t
            for _ in range(rng.randint(0, NEAR_CONE_ULPS)):
                x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
        else:
            x = rng.uniform(-10.0, 10.0)
        lines.append(f"{t!r},{x!r}")
    return "\n".join(lines) + "\n"


_MAPS = {
    "subluminal": {"schema": 1, "branch": "subluminal", "V": 0.6,
                   "translation": [0.5, -0.25]},
    "superluminal": {"schema": 1, "branch": "superluminal", "V": 2.5,
                     "eta": -1},
    "general_linear": {"schema": 1, "branch": "general-linear",
                       "linear_part": [[1.25, 0.5], [0.75, 2.0]]},
}

_CLASSICAL = {"schema": 1, "composition": "classical_mixture",
              "mixture_weights": [0.3, 0.7], "splitter2": 0.4}

# case -> (argv, input files by name, expected exit code)
CASES = {
    "interfere-default": (["interfere"], {}, 0),
    "interfere-classical": (["interfere", "--config", "{config.json}"],
                            {"config.json": json.dumps(_CLASSICAL)}, 0),
    **{f"transform-{name}": (
        ["transform", "--events", "{events.csv}", "--config", "{map.json}"],
        {"events.csv": _events_csv(), "map.json": json.dumps(doc)}, 0)
       for name, doc in _MAPS.items()},
    "nogo": (["nogo", "--resolution", "11"], {}, 0),
    "check": (["check", "--seed", "42", "--trials", "50",
               "--resolution", "11"], {}, 0),
}

# case -> (sha256 of the --out file, sha256 of stdout)
GOLDEN = {
    "check": ("b7342ead946a9e41b22394f06f37fdf2ff3ea42d1de22ce2194857239d9432a8",
              "4b03fabea05367919b62ea6eca4795ea1492d6a3f49351b35e0c51426449be5a"),
    "interfere-classical": (
        "f2bc30babf537806b29244044451b062c978a2b5ca2a066c04921ef449f7d4d5",
        "c7ea311d5c968764a8b6f09d2c0d0dc4e8d8c45219961199af138fbf148b0233"),
    "interfere-default": (
        "aef57fa86643cfd36d9b2730155762bd7632cf4979cd66b63ab526f2ff970683",
        "c4d198df31092a4b3cd19157dc4955b8c406ec29a1a99e136ec6cc449de37186"),
    "nogo": ("cf35a690cf44cf8e1e21fc0b283a25feafcb4162e234ef55577e3c78d7180d3b",
             "8994e117afa7c5a30473d41b577fc2a7e2f7515314096cad2981d62ba1a865b0"),
    "transform-general_linear": (
        "59cca05f99c48e9bf835296bd946853d9e2ac32d3f5ef67ed19a11fa7979d1eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "transform-subluminal": (
        "a3eaff44bcffa7f86afd1f2bb492d1bcae2a144d44cccf50de19e3defea0b5b5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "transform-superluminal": (
        "494c0bd3ea34fc04ec8c3328a771ef09d3c3a2ac45ad2932baf3d40cd96f1a1e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _outputs(tmp_path, capsys, case):
    argv, files, expected_code = CASES[case]
    paths = {}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths["{" + name + "}"] = str(path)
    out_path = tmp_path / "out"
    argv = [paths.get(arg, arg) for arg in argv] + ["--out", str(out_path)]
    capsys.readouterr()
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == expected_code
    return out_path.read_bytes(), stdout.encode("utf-8")


def test_events_fixture_reaches_the_light_cone():
    rows = [line.split(",") for line in _events_csv().splitlines()[1:]]
    assert len(rows) == 200
    near = 0
    for t, x in ((float(a), float(b)) for a, b in rows):
        if abs(abs(x) - abs(t)) <= NEAR_CONE_ULPS * math.ulp(t):
            near += 1
    assert near >= 50


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes_are_golden(tmp_path, capsys, case):
    out, stdout = _outputs(tmp_path, capsys, case)
    digests = (hashlib.sha256(out).hexdigest(),
               hashlib.sha256(stdout).hexdigest())
    assert digests == GOLDEN[case]
