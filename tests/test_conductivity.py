import json
from dataclasses import fields

import numpy as np
import pytest

from chronofrac.conductivity import (
    BoundedRational,
    ClampedAffine,
    Constant,
    Table,
    model_from_json,
)

ALL_MODELS = [
    Constant(2.5),
    ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
    ClampedAffine(base=3.0, slope=-0.5, lo=0.5, hi=3.0),
    BoundedRational(c1=0.5, c2=2.0, scale=1.5),
    Table(breakpoints=(0.0, 1.0, 4.0), values=(2.0, 1.0, 0.5)),
]


# -- individual families ---------------------------------------------------


def test_constant_family():
    f = Constant(2.5)
    assert f(0.0) == 2.5
    assert f(17.3) == 2.5
    c1, c2, lip = f.constants()
    assert (c1, c2, lip) == (2.5, 2.5, 0.0)
    with pytest.raises(ValueError, match="positive"):
        Constant(0.0)


def test_clamped_affine_family():
    f = ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0)
    assert f(0.0) == 1.0
    assert f(0.5) == 1.5
    assert f(2.0) == 2.0  # clamped at the cap
    assert f.constants() == (1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="lo"):
        ClampedAffine(base=1.0, slope=1.0, lo=0.0, hi=2.0)
    with pytest.raises(ValueError, match="hi"):
        ClampedAffine(base=1.0, slope=1.0, lo=2.0, hi=1.0)


def test_bounded_rational_family():
    f = BoundedRational(c1=0.5, c2=2.0, scale=1.5)
    assert f(0.0) == 2.0  # starts at the upper bound
    assert abs(f(1e9) - 0.5) <= 1e-8  # decays to the floor
    c1, c2, lip = f.constants()
    assert (c1, c2) == (0.5, 2.0)
    assert lip == (2.0 - 0.5) / 1.5


def test_table_family():
    f = Table(breakpoints=(0.0, 1.0, 4.0), values=(2.0, 1.0, 0.5))
    assert f(0.0) == 2.0
    assert f(0.5) == 1.5  # interpolates
    assert f(10.0) == 0.5  # constant extrapolation
    c1, c2, lip = f.constants()
    assert (c1, c2) == (0.5, 2.0)
    assert lip == 1.0  # steepest segment
    with pytest.raises(ValueError, match="increasing"):
        Table(breakpoints=(0.0, 0.0, 1.0), values=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        Table(breakpoints=(0.0, 1.0), values=(1.0, 0.0))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_negative_temperature_clamped_to_zero(model):
    assert model(-3.0) == model(0.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_vectorized_matches_scalar(model):
    u = np.array([0.0, 0.3, 1.7, 9.0])
    out = model.apply(u)
    assert out.shape == u.shape
    for ui, fi in zip(u, out):
        assert fi == model(float(ui))


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: Constant(float("inf")), "c"),
        (lambda: ClampedAffine(base=float("nan"), slope=1.0, lo=1.0, hi=2.0), "base"),
        (lambda: ClampedAffine(base=1.0, slope=float("nan"), lo=1.0, hi=2.0), "slope"),
        (lambda: ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=float("inf")), "hi"),
        (lambda: BoundedRational(c1=1.0, c2=float("inf"), scale=0.5), "c2"),
        (lambda: BoundedRational(c1=1.0, c2=2.0, scale=float("inf")), "scale"),
        (lambda: Table(breakpoints=(0.0, float("nan")), values=(1.0, 2.0)), "breakpoints"),
        (lambda: Table(breakpoints=(0.0, 1.0), values=(1.0, float("inf"))), "values"),
    ],
    ids=[
        "Constant.c",
        "ClampedAffine.base",
        "ClampedAffine.slope",
        "ClampedAffine.hi",
        "BoundedRational.c2",
        "BoundedRational.scale",
        "Table.breakpoints",
        "Table.values",
    ],
)
def test_non_finite_parameters_rejected(build, field):
    with pytest.raises(ValueError, match=f"'{field}' must be finite"):
        build()


# -- structural bounds -----------------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_bounds_and_lipschitz_constants_hold(model):
    rng = np.random.default_rng(31)
    c1, c2, lip = model.constants()
    u = rng.uniform(0.0, 20.0, 4000)
    v = rng.uniform(0.0, 20.0, 4000)
    fu, fv = model.apply(u), model.apply(v)
    assert np.all(fu >= c1 - 1e-12)
    assert np.all(fu <= c2 + 1e-12)
    assert np.all(np.abs(fu - fv) <= lip * np.abs(u - v) + 1e-12)


# -- serialization ---------------------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_json_round_trip(model):
    blob = json.dumps(model.to_json())
    back = model_from_json(json.loads(blob))
    assert type(back) is type(model)
    for u in (0.0, 0.4, 2.7, 11.0):
        assert back(u) == model(u)


def test_model_from_json_errors():
    with pytest.raises(ValueError, match="unknown conductivity family"):
        model_from_json({"family": "mystery"})
    with pytest.raises(ValueError, match="family"):
        model_from_json({"c": 1.0})
    with pytest.raises(ValueError, match="'c' is required for family 'constant'"):
        model_from_json({"family": "constant"})


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_every_family_serialises_its_fields_in_order(model):
    names = [f.name for f in fields(model)]
    blob = model.to_json()
    assert list(blob) == ["family", *names]
    assert blob["family"] == type(model).family
    for name in names:
        partial = {k: v for k, v in blob.items() if k != name}
        message = f"conductivity field '{name}' is required for family '{blob['family']}'"
        with pytest.raises(ValueError, match=message):
            model_from_json(partial)
    back = model_from_json(json.loads(json.dumps(blob)))
    assert back == model and back.to_json() == blob
