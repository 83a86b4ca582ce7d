"""Electrical conductivity models with certified bounds.

Every model maps temperature to conductivity and carries a certified
triple ``(c1, c2, L)``: positive lower and upper bounds and a Lipschitz
constant, fixed by construction of the family rather than estimated.
Negative inputs are evaluated as ``f(max(u, 0))``: physically the
temperature is nonnegative, and iterates only dip below zero by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

__all__ = [
    "ConductivityModel",
    "Constant",
    "ClampedAffine",
    "BoundedRational",
    "Table",
    "model_from_json",
]


@dataclass(frozen=True)
class ConductivityModel:
    """Base interface; families subclass and certify their constants.  A
    family's JSON form is its ``family`` name, then its fields in order."""

    family: ClassVar[str]

    def __post_init__(self) -> None:
        # a NaN or infinite parameter would certify NaN or inf constants
        for field in fields(self):
            if not np.isfinite(getattr(self, field.name)).all():
                raise ValueError(f"conductivity parameter '{field.name}' must be finite")

    def constants(self) -> tuple[float, float, float]:
        """Certified ``(c1, c2, L)``: bounds and Lipschitz constant."""
        raise NotImplementedError

    def _eval(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, u) -> np.ndarray:
        """Vectorized evaluation with the nonnegative clamp applied."""
        arr = np.maximum(np.asarray(u, dtype=float), 0.0)
        return self._eval(arr)

    def __call__(self, u: float) -> float:
        return float(self.apply(u))

    def to_json(self) -> dict:
        """``family``, then the fields in order, tuples as lists."""
        out: dict = {"family": self.family}
        for field in fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class Constant(ConductivityModel):
    """Temperature-independent conductivity."""

    family = "constant"

    c: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.c > 0:
            raise ValueError("conductivity constant must be positive")

    def constants(self) -> tuple[float, float, float]:
        return (self.c, self.c, 0.0)

    def _eval(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, float(self.c))


@dataclass(frozen=True)
class ClampedAffine(ConductivityModel):
    """Affine response clamped into a positive band [lo, hi]."""

    family = "clamped_affine"

    base: float
    slope: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.lo <= self.hi:
            raise ValueError("clamp band must satisfy 0 < lo <= hi")

    def constants(self) -> tuple[float, float, float]:
        return (self.lo, self.hi, abs(self.slope))

    def _eval(self, u: np.ndarray) -> np.ndarray:
        return np.clip(self.base + self.slope * u, self.lo, self.hi)


@dataclass(frozen=True)
class BoundedRational(ConductivityModel):
    """Smooth monotone decay from ``c2`` at zero toward ``c1``.

    ``f(u) = c1 + (c2 - c1) / (1 + u / scale)``, so the bounds are the
    asymptotes and the Lipschitz constant is the slope at zero,
    ``(c2 - c1) / scale``.
    """

    family = "bounded_rational"

    c1: float
    c2: float
    scale: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.c1 <= self.c2:
            raise ValueError("bounds must satisfy 0 < c1 <= c2")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def constants(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, (self.c2 - self.c1) / self.scale)

    def _eval(self, u: np.ndarray) -> np.ndarray:
        return self.c1 + (self.c2 - self.c1) / (1.0 + u / self.scale)


@dataclass(frozen=True)
class Table(ConductivityModel):
    """Piecewise-linear interpolation of tabulated measurements.

    Inside the table the response is linear between breakpoints; beyond
    either end it continues with the boundary value, so the certified
    bounds are the extreme table values and the Lipschitz constant the
    steepest segment slope.
    """

    family = "table"

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        super().__post_init__()
        if len(bps) != len(vals) or not bps:
            raise ValueError("table needs equally many breakpoints and values")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("table breakpoints must be strictly increasing")
        if any(v <= 0 for v in vals):
            raise ValueError("table values must be positive")

    def constants(self) -> tuple[float, float, float]:
        slopes = np.abs(np.diff(self.values) / np.diff(self.breakpoints))
        return (min(self.values), max(self.values), float(slopes.max(initial=0.0)))

    def _eval(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.breakpoints, self.values)


_FAMILIES = {cls.family: cls for cls in (Constant, ClampedAffine, BoundedRational, Table)}


def model_from_json(data: dict) -> ConductivityModel:
    """Rebuild a model from its ``to_json`` form."""
    if not isinstance(data, dict) or "family" not in data:
        raise ValueError("conductivity JSON must be an object with a 'family' field")
    family = data["family"]
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown conductivity family '{family}' (known: {known})")
    try:
        params = {}
        for field in fields(_FAMILIES[family]):
            if field.name not in data:
                raise ValueError(
                    f"conductivity field '{field.name}' is required for family '{family}'"
                )
            # scalars are floats; the table's breakpoints and values, tuples
            convert = tuple if str(field.type).startswith("tuple") else float
            params[field.name] = convert(data[field.name])
        return _FAMILIES[family](**params)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValueError) and str(exc):
            raise
        raise ValueError(f"invalid parameters for conductivity family '{family}'") from exc
