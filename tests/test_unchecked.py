"""``alpha_bounds`` and ``otto_cycle_energies`` build their frozen results
without the generated ``__init__``; each result must be the one the public
constructor gives on the same fields, and the constructors keep every check."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given, reject, strategies as st

from qtmkit import (
    AlphaBounds,
    CarnotLimitKind,
    ExchangeTriple,
    QtmDesign,
    ValidationError,
    alpha_bounds,
    gap_medium,
    otto_cycle_energies,
)

THETAS = [math.nextafter(1.0, 2.0), 5.0, 1e308]


def assert_as_constructed(result):
    """``result`` against the public constructor's instance on its fields."""
    cls = type(result)
    built = cls(**{f.name: getattr(result, f.name) for f in dataclasses.fields(cls)})
    assert result == built and hash(result) == hash(built)
    assert repr(result) == repr(built)
    assert list(vars(result).items()) == list(vars(built).items())
    assert dataclasses.replace(result) == built
    assert dataclasses.asdict(result) == dataclasses.asdict(built)
    assert pickle.loads(pickle.dumps(result)) == built
    assert pickle.dumps(result) == pickle.dumps(built)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(result, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(result, name)


@pytest.mark.parametrize("theta_sq", THETAS, ids=repr)
@pytest.mark.parametrize("design", list(QtmDesign), ids=lambda d: d.value)
def test_alpha_bounds_is_the_constructors_instance(design, theta_sq):
    bounds = alpha_bounds(design, theta_sq)
    assert_as_constructed(bounds)
    assert bounds.alpha_sq_min < bounds.alpha_sq_max


@given(gap_low=st.floats(1e-300, 1e300), alpha_sq=st.floats(1e-6, 1e6),
       e_ground_low=st.floats(-1e300, 1e300), e_ground_high=st.floats(-1e300, 1e300),
       gap_per_kt=st.floats(1e-3, 40.0), theta_sq=st.floats(1.0, 1e6, exclude_min=True))
@example(gap_low=1.0, alpha_sq=2.0, e_ground_low=0.0, e_ground_high=0.0,
         gap_per_kt=1.0, theta_sq=2.0)  # the reversible ratio: both exchanges 0
def test_otto_cycle_energies_is_the_constructors_instance(
        gap_low, alpha_sq, e_ground_low, e_ground_high, gap_per_kt, theta_sq):
    try:
        medium = gap_medium(gap_low, alpha_sq, e_ground_low, e_ground_high)
        energies = otto_cycle_energies(medium, gap_low / gap_per_kt, theta_sq, 1.0)
    except ValidationError:
        reject()
    assert_as_constructed(energies)
    assert math.isfinite(energies.e_high) and math.isfinite(energies.e_low)


def test_the_constructors_keep_their_checks():
    with pytest.raises(ValidationError, match="alpha_sq_min must be below"):
        AlphaBounds(1.0, 0.5, CarnotLimitKind.MAXIMUM, 0.5)
    with pytest.raises(ValidationError, match="e_high must be finite"):
        ExchangeTriple(math.inf, -1.0)


def test_neither_builder_runs_the_generated_init(monkeypatch):
    calls = []

    def counted(init):
        def __init__(self, *args, **kwargs):
            calls.append(type(self))
            init(self, *args, **kwargs)
        return __init__

    for cls in (AlphaBounds, ExchangeTriple):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    ExchangeTriple(1.0, -2.0)
    assert len(calls) == 1  # the counter sees a constructor call
    for design in QtmDesign:
        for theta_sq in THETAS:
            alpha_bounds(design, theta_sq)
    otto_cycle_energies(gap_medium(1.0, 3.0), 1.0, 5.0, 1.0)
    assert len(calls) == 1
