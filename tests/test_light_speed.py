"""Every public ``c`` parameter of kinematics, interference and checks
follows one rule."""

import inspect
import math

import numpy as np
import pytest

import fringelab.checks as checks
import fringelab.interference as interference
import fringelab.kinematics as kinematics
from fringelab.checks import check_O3_frame_invariance, interferometer_events
from fringelab.interference import ExperimentConfig
from fringelab.kinematics import (
    BranchKind,
    FrameMap,
    IntervalKind,
    KinematicsError,
    SpacetimePoint,
    boost_matrix,
    classify_cone_preserver,
    classify_interval,
    event_interval,
    in_causal_past,
    lorentz_boost,
    superluminal_map,
    superluminal_matrix,
    velocity_addition,
)

_O, _P = SpacetimePoint(0.0, 0.0), SpacetimePoint(1.0, 0.3)

# One call per public function, class and classmethod that takes ``c``,
# with every other argument valid.
_CALLS = {
    "kinematics.event_interval": lambda c: event_interval(_P, c),
    "kinematics.classify_interval": lambda c: classify_interval(_O, _P, c),
    "kinematics.in_causal_past": lambda c: in_causal_past(_P, _O, c),
    "kinematics.boost_matrix": lambda c: boost_matrix(0.1, c),
    "kinematics.superluminal_matrix": lambda c: superluminal_matrix(2.0, 1, c),
    "kinematics.FrameMap": lambda c: FrameMap(BranchKind.SUBLUMINAL, 0.1, c=c),
    "kinematics.FrameMap.boost": lambda c: FrameMap.boost(0.1, c),
    "kinematics.FrameMap.superluminal":
        lambda c: FrameMap.superluminal(2.0, 1, c),
    "kinematics.FrameMap.general_linear":
        lambda c: FrameMap.general_linear(np.eye(2), c=c),
    "kinematics.FrameMap.identity": lambda c: FrameMap.identity(c),
    "kinematics.lorentz_boost": lambda c: lorentz_boost(_P, 0.1, c),
    "kinematics.superluminal_map": lambda c: superluminal_map(_P, 2.0, 1, c),
    "kinematics.velocity_addition": lambda c: velocity_addition(0.1, 0.2, c),
    "kinematics.classify_cone_preserver":
        lambda c: classify_cone_preserver(np.eye(2), c),
    "checks.interferometer_events": lambda c: interferometer_events(c),
    "checks.check_O3_frame_invariance":
        lambda c: check_O3_frame_invariance(ExperimentConfig(), [0.3], c),
}


def _takes_c(obj) -> bool:
    try:
        return "c" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # not callable, or no signature
        return False


def _public_c_parameters() -> set[str]:
    found = set()
    for module in (kinematics, interference, checks):
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if _takes_c(obj):
                found.add(f"{prefix}.{name}")
            if inspect.isclass(obj):
                found.update(f"{prefix}.{name}.{attr}" for attr in vars(obj)
                             if not attr.startswith("_")
                             and _takes_c(getattr(obj, attr)))
    return found


def test_the_table_covers_every_public_c_parameter():
    assert set(_CALLS) == _public_c_parameters()


_BAD_C = [("1", "str"), (None, "None"), (True, "bool"), (-1.0, "negative"),
          (0.0, "zero"), (math.nan, "nan"), (math.inf, "inf"),
          (10 ** 400, "10**400")]


@pytest.mark.parametrize("c", [c for c, _ in _BAD_C],
                         ids=[name for _, name in _BAD_C])
@pytest.mark.parametrize("name", _CALLS)
def test_every_c_parameter_names_a_bad_light_speed(name, c):
    with pytest.raises(KinematicsError) as info:
        _CALLS[name](c)
    assert type(info.value) is KinematicsError
    assert str(info.value) == (
        f"c: must be positive with a finite nonzero square, got {c!r}")


def test_interval_functions_compute_with_a_float64_light_speed():
    c = np.float32(0.3)
    value = event_interval(_P, c)
    assert type(value) is float and value == -7.152557518486091e-09
    assert classify_interval(_O, _P, c) is IntervalKind.TIMELIKE
    assert classify_interval(_O, _P, float(c)) is IntervalKind.TIMELIKE
