"""Every public ``eta`` parameter of kinematics, interference and checks
follows one rule: a real number equal to +1 or -1, used as that int."""

import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import fringelab.checks as checks
import fringelab.interference as interference
import fringelab.kinematics as kinematics
from fringelab.kinematics import (
    BranchKind,
    FrameMap,
    KinematicsError,
    SpacetimePoint,
    event_interval,
    superluminal_map,
    superluminal_matrix,
)
from fringelab.schemas import SchemaError, frame_map_from_dict, load_json

_P = SpacetimePoint(0.3, 1.7)


# One call per public function, class and classmethod that takes ``eta``,
# with every other argument valid; each returns an array to compare.
_CALLS = {
    "kinematics.superluminal_matrix": lambda eta: superluminal_matrix(2.0, eta),
    "kinematics.superluminal_map":
        lambda eta: superluminal_map(_P, 2.0, eta).to_vector(),
    "kinematics.FrameMap":
        lambda eta: FrameMap(BranchKind.SUPERLUMINAL, 2.0, eta).linear_part,
    "kinematics.FrameMap.superluminal":
        lambda eta: FrameMap.superluminal(2.0, eta).linear_part,
}


def _takes_eta(obj) -> bool:
    try:
        return "eta" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # not callable, or no signature
        return False


def _public_eta_parameters() -> set[str]:
    found = set()
    for module in (kinematics, interference, checks):
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if _takes_eta(obj):
                found.add(f"{prefix}.{name}")
            if inspect.isclass(obj):
                found.update(f"{prefix}.{name}.{attr}" for attr in vars(obj)
                             if not attr.startswith("_")
                             and _takes_eta(getattr(obj, attr)))
    return found


def test_the_table_covers_every_public_eta_parameter():
    assert set(_CALLS) == _public_eta_parameters()


def _document(eta):
    # A superluminal map spec as JSON text would carry it.
    return load_json(json.dumps({"schema": 1, "branch": "superluminal",
                                 "V": 2.0, "eta": eta}))


# (value, id, expressible in a JSON document)
_BAD_ETA = [(True, "True", True), (0, "0", True), (2, "2", True),
            (1.5, "1.5", True), (math.nan, "nan", True), ("1", "str", True),
            (1 + 0j, "complex", False), (np.array([1]), "array-1", False),
            (np.array(1), "array-0d", False)]


@pytest.mark.parametrize("eta", [eta for eta, _, _ in _BAD_ETA],
                         ids=[name for _, name, _ in _BAD_ETA])
@pytest.mark.parametrize("name", _CALLS)
def test_every_eta_parameter_names_a_bad_sign(name, eta):
    with pytest.raises(KinematicsError) as info:
        _CALLS[name](eta)
    assert type(info.value) is KinematicsError
    assert str(info.value) == f"eta: must be +1 or -1, got {eta!r}"


@pytest.mark.parametrize("eta", [eta for eta, _, json_ok in _BAD_ETA if json_ok],
                         ids=[name for _, name, json_ok in _BAD_ETA if json_ok])
def test_a_map_document_names_a_bad_sign(eta):
    with pytest.raises(SchemaError) as info:
        frame_map_from_dict(_document(eta))
    assert str(info.value) == f"eta: must be +1 or -1, got {eta!r}"


_GOOD_ETA = [(1, 1, "1"), (-1, -1, "-1"), (1.0, 1, "1.0"),
             (np.float32(-1), -1, "float32"), (np.int64(1), 1, "int64"),
             (Fraction(1), 1, "Fraction")]


@pytest.mark.parametrize("eta, sign", [(eta, sign) for eta, sign, _ in _GOOD_ETA],
                         ids=[name for _, _, name in _GOOD_ETA])
@pytest.mark.parametrize("name", _CALLS)
def test_every_eta_parameter_computes_with_the_int_sign(name, eta, sign):
    got, want = _CALLS[name](eta), _CALLS[name](sign)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eta, sign", [(eta, sign) for eta, sign, _ in _GOOD_ETA],
                         ids=[name for _, _, name in _GOOD_ETA])
def test_a_frame_map_stores_the_int_sign(eta, sign):
    m = FrameMap.superluminal(2.0, eta)
    assert type(m.eta) is int and m.eta == sign


@pytest.mark.parametrize("eta", [1, -1, 1.0])
def test_a_map_document_takes_a_json_sign(eta):
    m = frame_map_from_dict(_document(eta))
    assert type(m.eta) is int and m.eta == eta
    assert np.array_equal(m.linear_part, superluminal_matrix(2.0, int(eta)))


def test_a_float32_sign_negates_the_interval_as_the_int_does():
    scale = _P.t * _P.t + _P.x * _P.x
    for eta in (1, np.float32(1)):
        q = superluminal_map(_P, 2.0, eta)
        assert abs(event_interval(q) + event_interval(_P)) <= 1e-12 * scale
