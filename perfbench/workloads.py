"""Seeded inputs and command lists for the three benchmark workloads.

Every input file is derived from ``(seed, workload)`` alone, so one seed
always yields the same bytes.  The program under test only ever sees these
files and the flags listed in the returned invocations.

* ``sweep``: ``interfere`` over five experiment configs, about 10^4 phases.
  Three configs take the amplitude-graph path (balanced, unbalanced,
  which-way recording) and two bypass it (blocked arm, classical mixture).
* ``transform``: ``transform`` of one events table under a superluminal,
  a translated subluminal and a general-linear map; a seeded share of the
  events lies within a few ulp of the light cone.
* ``verify``: ``check`` (all registered checks, 100 trials) then ``nogo``; many tiny
  calls, so fixed per-call cost dominates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "transform", "verify")

# Registry ids of ``fringelab.checks``, in order: ``check`` must report each
# one, and the traced run gives each a ``checks.<id>.s`` metric.
CHECK_IDS = (
    "boost-interval-invariance", "superluminal-interval-flip",
    "velocity-addition-consistency", "superluminal-composition-closure",
    "cone-preserver-classification", "null-line-sampling-agreement",
    "no-sign-flip-in-four-dimensions", "causal-past-boost-invariance",
    "worldline-no-branching", "past-segment-prefix", "phase-group-law",
    "alternative-sum-cancellation", "concatenation-associativity",
    "concatenation-distributivity", "interference-witness",
    "global-phase-invariance", "outcome-normalization", "carrier-minimality",
    "blocked-arm-exact", "fringe-law", "detector-model-robustness",
    "classical-no-go", "frame-invariant-statistics", "seed-repeatability",
)

_TAGS = {"sweep": 1, "transform": 2, "verify": 3}

# A near-null event differs from the cone x = +-t by at most this many ulp.
NEAR_NULL_ULPS = 4
# Relative band used to *measure* the near-null share of a generated table.
NEAR_NULL_REL = 1e-14


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``None`` keeps the CLI default for that flag."""

    events: int
    phases_per_config: int
    check_trials: int | None
    check_resolution: int | None
    nogo_resolution: int


# The benchmark's sizes.  Each invocation takes 0.05-1 s on one core, so a
# run repeats every invocation many times and its fastest repeat can fall
# outside the spells in which a shared host runs slower.
FULL = Sizes(events=10_000, phases_per_config=2001, check_trials=100,
             check_resolution=None, nogo_resolution=101)
SMALL = Sizes(events=300, phases_per_config=41, check_trials=10,
              check_resolution=11, nogo_resolution=11)


def invocation(name: str, argv: list[str], out: str | None = None,
               **facts) -> dict:
    """One CLI call.  ``"{out}"`` in argv is replaced by the pass's out path.

    ``facts`` carries what the correctness checks need to know about the
    generated input (map parameters, grid, config kind, ...).
    """
    return {"name": name, "argv": argv, "out": out, "facts": facts}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 64, _TAGS[workload]])


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _splitter(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.05, 0.95))


def _sweep(seed: int, workdir: Path, sizes: Sizes) -> tuple[list, dict]:
    rng = _rng(seed, "sweep")
    w = float(rng.uniform(0.05, 0.95))
    configs = [
        ("balanced", {"schema": 1, "splitter1": 0.5, "splitter2": 0.5}),
        ("unbalanced", {"schema": 1, "splitter1": _splitter(rng),
                        "splitter2": _splitter(rng)}),
        ("recording", {"schema": 1, "splitter1": _splitter(rng),
                       "splitter2": _splitter(rng),
                       "detector_model": "non_demolishing_recording"}),
        # 50/50 splitters so the blocked-arm outcome is exactly (1/4, 1/4, 1/2).
        ("blocked", {"schema": 1, "splitter1": 0.5, "splitter2": 0.5,
                     "blocked_arm": str(rng.choice(["upper", "lower"]))}),
        ("classical", {"schema": 1, "splitter1": _splitter(rng),
                       "splitter2": _splitter(rng),
                       "composition": "classical_mixture",
                       "mixture_weights": [w, 1.0 - w]}),
    ]
    steps = sizes.phases_per_config
    invocations = []
    graph_phases = 0
    for kind, doc in configs:
        start = float(rng.uniform(-math.pi, math.pi))
        stop = start + 2.0 * math.pi * int(rng.integers(1, 4))
        path = _write_json(workdir / f"experiment-{kind}.json", doc)
        invocations.append(invocation(
            f"interfere-{kind}",
            ["interfere", "--config", path,
             f"--phis={start!r}:{stop!r}:{steps}", "--out", "{out}"],
            out=f"interfere-{kind}.csv",
            kind=kind, config=doc, start=start, stop=stop, steps=steps))
        if kind in ("balanced", "unbalanced", "recording"):
            graph_phases += steps
    total = steps * len(configs)
    props = {"phases": total, "graph_path_phases": graph_phases,
             "graph_path_share": graph_phases / total}
    return invocations, props


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def near_null_mask(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Events whose interval x^2 - t^2 (c = 1) vanishes to ~ulp accuracy."""
    return np.abs(x * x - t * t) <= NEAR_NULL_REL * (x * x + t * t)


def _events(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    t = rng.normal(size=n) * 5.0
    x = rng.normal(size=n) * 5.0
    share = float(rng.uniform(0.05, 0.15))
    near = rng.random(size=n) < share
    k = near.sum()
    sign = np.where(rng.random(size=k) < 0.5, -1.0, 1.0)
    ulps = rng.integers(-NEAR_NULL_ULPS, NEAR_NULL_ULPS + 1, size=k)
    tn = t[near]
    x[near] = sign * (tn + ulps * np.spacing(np.abs(tn)))
    return t, x, share


def _general_linear(rng: np.random.Generator) -> list[list[float]]:
    while True:
        lin = rng.normal(size=(2, 2))
        if abs(np.linalg.det(lin)) >= 0.1:
            return [[float(v) for v in row] for row in lin]


def _transform(seed: int, workdir: Path, sizes: Sizes) -> tuple[list, dict]:
    rng = _rng(seed, "transform")
    t, x, share = _events(rng, sizes.events)
    events_path = workdir / "events.csv"
    lines = ["t,x"] + [f"{a!r},{b!r}" for a, b in zip(t.tolist(), x.tolist())]
    events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    speed = float(rng.uniform(1.2, 5.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    maps = [
        ("superluminal", {"schema": 1, "branch": "superluminal", "V": speed,
                          "eta": 1 if rng.random() < 0.5 else -1}),
        ("subluminal", {"schema": 1, "branch": "subluminal",
                        "V": float(rng.uniform(-0.9, 0.9)),
                        "translation": [float(v) for v in rng.normal(size=2) * 2.0]}),
        ("general-linear", {"schema": 1, "branch": "general-linear",
                            "linear_part": _general_linear(rng),
                            "translation": [float(v) for v in rng.normal(size=2) * 2.0]}),
    ]
    invocations = []
    for kind, doc in maps:
        path = _write_json(workdir / f"map-{kind}.json", doc)
        invocations.append(invocation(
            f"transform-{kind}",
            ["transform", "--events", str(events_path), "--config", path,
             "--out", "{out}"],
            out=f"transform-{kind}.csv", kind=kind, map=doc,
            events=str(events_path)))
    measured = int(near_null_mask(t, x).sum())
    props = {"events": sizes.events, "near_null_target_share": share,
             "near_null_events": measured,
             "near_null_share": measured / sizes.events}
    return invocations, props


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify(seed: int, workdir: Path, sizes: Sizes) -> tuple[list, dict]:
    check_seed = seed % 2 ** 64
    check = ["check", "--seed", str(check_seed)]
    if sizes.check_trials is not None:
        check += ["--trials", str(sizes.check_trials)]
    if sizes.check_resolution is not None:
        check += ["--resolution", str(sizes.check_resolution)]
    res = sizes.nogo_resolution
    invocations = [
        invocation("check", check, seed=check_seed,
                   trials=sizes.check_trials),
        invocation("nogo", ["nogo", "--resolution", str(res), "--out", "{out}"],
                   out="nogo.json", resolution=res),
    ]
    return invocations, {"check_seed": check_seed, "nogo_resolution": res}


_BUILDERS = {"sweep": _sweep, "transform": _transform, "verify": _verify}


def generate(workload: str, seed: int, workdir: Path,
             sizes: Sizes = FULL) -> tuple[list[dict], dict]:
    """Write the workload's input files under ``workdir``.

    Returns the invocation list for one pass and the measured properties
    of the generated inputs.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, workdir, sizes)
