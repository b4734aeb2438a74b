"""Span tracing of fringelab's public functions, from outside the package.

``Tracer.install()`` replaces each traced function at every module binding
of its name (``cli``, ``checks`` and ``interference`` import these names
directly, so patching the defining module alone would miss calls), and the
class attribute for methods and constructors.  ``Tracer.uninstall()`` puts
every original back.

Each call records one span: name, start, end, parent span and the
invocation it belongs to.  Spans live in flat typed arrays while the run
goes and are written out once, at the end.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import CHECK_IDS



def _polyline_work(args, kwargs, result):
    n = len(args[0] if args else kwargs["points"])
    # Non-adjacent segment pairs the contact test may visit: C(n-1, 2) - (n-2).
    return {"vertices": n, "segment_pairs": max(0, (n - 2) * (n - 3) // 2)}


def _phases(args, kwargs, result):
    return {"phases": len(args[1] if len(args) > 1 else kwargs["phis"])}


# (span name, module, attribute path, work counter or None, report .calls)
TARGETS = (
    ("cli.cmd_transform", "fringelab.cli", "cmd_transform", None, False),
    ("cli.cmd_interfere", "fringelab.cli", "cmd_interfere", None, False),
    ("cli.cmd_nogo", "fringelab.cli", "cmd_nogo", None, False),
    ("cli.cmd_check", "fringelab.cli", "cmd_check", None, False),
    ("schemas.parse_events_csv", "fringelab.schemas", "parse_events_csv",
     lambda a, k, r: {"events": len(r)}, False),
    ("schemas.format_float", "fringelab.schemas", "format_float", None, True),
    ("schemas.experiment_config_from_dict", "fringelab.schemas",
     "experiment_config_from_dict", None, False),
    ("schemas.frame_map_from_dict", "fringelab.schemas", "frame_map_from_dict",
     None, False),
    ("kinematics.FrameMap.apply", "fringelab.kinematics", "FrameMap.apply",
     None, True),
    ("kinematics.event_interval", "fringelab.kinematics", "event_interval",
     None, True),
    ("kinematics.SpacetimePoint.init", "fringelab.kinematics",
     "SpacetimePoint.__init__", None, True),
    ("kinematics.FrameMap.init", "fringelab.kinematics", "FrameMap.__init__",
     None, True),
    ("kinematics.compose", "fringelab.kinematics", "compose", None, True),
    ("kinematics.classify_cone_preserver", "fringelab.kinematics",
     "classify_cone_preserver", None, True),
    ("kinematics.polyline_is_simple", "fringelab.kinematics",
     "polyline_is_simple", _polyline_work, True),
    ("kinematics.check_no_branching", "fringelab.kinematics",
     "check_no_branching", None, False),
    ("amplitudes.evaluate", "fringelab.amplitudes", "evaluate", None, True),
    ("amplitudes.components", "fringelab.amplitudes", "components", None, True),
    ("interference.simulate", "fringelab.interference", "simulate", None, True),
    ("interference.phase_sweep", "fringelab.interference", "phase_sweep",
     _phases, False),
    ("interference.ExperimentConfig.init", "fringelab.interference",
     "ExperimentConfig.__init__", None, True),
    ("interference.no_go_search", "fringelab.interference", "no_go_search",
     lambda a, k, r: {"configs": r.classical_config_count}, False),
)

# Work counters, by span name, as reported: ``<span>.<counter>``.
WORK_COUNTERS = {
    "schemas.parse_events_csv": ("events",),
    "kinematics.polyline_is_simple": ("vertices", "segment_pairs"),
    "interference.phase_sweep": ("phases",),
    "interference.no_go_search": ("configs",),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _, _, report_calls in TARGETS:
        out.append((f"{name}.s", "s"))
        if report_calls:
            out.append((f"{name}.calls", "count"))
        for counter in WORK_COUNTERS.get(name, ()):
            out.append((f"{name}.{counter}", "count"))
    out += [(f"checks.{cid}.s", "s") for cid in CHECK_IDS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records spans around fringelab calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.work: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_request = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.request = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, counter=None):
        index = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, requests = self.span_start, self.span_end, self.span_request
        stack, clock, work = self._stack, time.perf_counter_ns, self.work
        tracer = self

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1])
            requests.append(tracer.request)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    work[key] = work.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; callable once per tracer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "fringelab"
                                         or key.startswith("fringelab."))]
        for name, module, path, counter, _ in TARGETS:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, counter)
                # Aliases such as ``FrameMap.__call__ = apply`` share the object.
                for alias, value in list(vars(cls).items()):
                    if value is original:
                        self._patch(cls, alias, wrapper)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, wrapper)
        checks = sys.modules["fringelab.checks"]
        registry = tuple(
            dataclasses.replace(spec, run=self._wrap(f"checks.{spec.id}", spec.run))
            for spec in checks.REGISTRY)
        self._patch(checks, "REGISTRY", registry)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.uint16),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32),
                "request": np.frombuffer(self.span_request, dtype=np.uint16),
                "start": np.frombuffer(self.span_start, dtype=np.int64),
                "end": np.frombuffer(self.span_end, dtype=np.int64)}

    def summary(self) -> dict[str, float | int]:
        """Self time (s) and call count per span name, plus work counters."""
        a = self._arrays()
        n_names = len(self.names)
        duration = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        self_ns = np.bincount(a["name"], weights=duration - child,
                              minlength=n_names)
        calls = np.bincount(a["name"], minlength=n_names)
        out: dict[str, float | int] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = float(self_ns[i]) / 1e9
            out[f"{name}.calls"] = int(calls[i])
        out.update(self.work)
        out["spans"] = len(duration)
        return out

    def write(self, path: Path) -> None:
        """Write every span (times in ns from the first span) to ``path``."""
        a = self._arrays()
        if len(a["start"]):
            origin = int(a["start"].min())
            a["start"] = a["start"] - origin
            a["end"] = a["end"] - origin
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, names=np.array(self.names), **a)
