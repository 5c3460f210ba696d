"""Deformation to the normal cone in chart coordinates.

Chart points are triples (y, xi, t) whose ambient shadow is (y, t*xi);
domain membership is checked where a map is evaluated, not on the
point.  The correspondence psi identifies t = 0 points with normal
vectors and t != 0 points with ambient points; an adapted map h induces
the map

    h~(y, xi, t) = (h1(y, t xi), t^{-1} h2(y, t xi), t)      for t != 0,
    h~(y, xi, 0) = (h1(y, 0),    dN h(y) xi,         0)      at t = 0,

the multiplicative group acts by lambda . (y, xi, t) = (y, xi/lambda,
lambda t), and t itself is a submersion whose fibers are the slices.

A function f vanishing on the slice is a map of pairs (R^n, R^p) ->
(R, {0}); the deformation space of (R, {0}) is R x R, so the dnc_f1
quotient f(y, t xi)/t, extended by dN f(y) xi at t = 0, is the
xi-component of the induced map of f.
"""

from __future__ import annotations

import math
import numbers
import sys

from .errors import ArityMismatch, DomainViolation, NotVanishing
from .pairs import MapOfPairs, PairDims, check_adapted, normal_image, require_adapted
from .expr import SmoothMapExpr, as_floats
from .record import Record


class DncPoint(Record, frozen=True):
    """A chart point (y, xi, t); the ambient shadow is (y, t*xi)."""

    def __init__(self, y: tuple, xi: tuple, t: float):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "t", t)

    @staticmethod
    def of(y, xi, t) -> "DncPoint":
        """The point with blocks y and xi, each a number or a flat
        sequence of numbers (an array too), and parameter t."""
        return DncPoint(_block(y), _block(xi), float(t))

    @property
    def dims(self) -> PairDims:
        return PairDims(len(self.y) + len(self.xi), len(self.y))

    def ambient(self) -> tuple:
        """The underlying chart point (y, t*xi)."""
        t = self.t
        return (*self.y, *[t * c for c in self.xi])

    def close_to(self, other: "DncPoint", tol: float) -> bool:
        return (
            all(abs(a - b) <= tol for a, b in zip(self.y, other.y, strict=True))
            and all(abs(a - b) <= tol for a, b in zip(self.xi, other.xi, strict=True))
            and abs(self.t - other.t) <= tol
        )


def _block(v) -> tuple:
    """A number, or a flat sequence of numbers, as a tuple of floats."""
    if isinstance(v, numbers.Real) or getattr(v, "ndim", None) == 0:
        return (float(v),)
    return tuple(as_floats(v))


class NormalSlice(Record, frozen=True):
    """A point (y, xi) of the t = 0 slice (a normal vector)."""

    def __init__(self, y: tuple, xi: tuple):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xi", xi)


class Body(Record, frozen=True):
    """An ambient point x at parameter t != 0."""

    def __init__(self, x: tuple, t: float):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        if t == 0.0:
            raise ArityMismatch("Body points require t != 0")


def psi(z: DncPoint):
    """Identify a chart point with a normal vector (t = 0) or a body point
    (the ambient shadow (y, t*xi) at t != 0)."""
    if z.t == 0.0:
        return NormalSlice(z.y, z.xi)
    return Body(z.ambient(), z.t)


def psi_inv(point, dims: PairDims | None = None) -> DncPoint:
    """Inverse of psi; Body points decompose in adapted coordinates.

    Raises DomainViolation when x / t overflows, as at subnormal t."""
    if isinstance(point, NormalSlice):
        return DncPoint(point.y, point.xi, 0.0)
    if isinstance(point, Body):
        if dims is None:
            raise ArityMismatch("psi_inv on a Body point needs the pair dimensions")
        y, x = dims.split(point.x)
        xi = tuple([c / point.t for c in x])
        if not all(map(math.isfinite, xi)):
            raise DomainViolation(f"x / t is not finite at t = {point.t!r}")
        return DncPoint(tuple(y), xi, point.t)
    raise TypeError(f"not an abstract DNC point: {point!r}")


def rx_action(lam: float, z: DncPoint) -> DncPoint:
    """The scaling action lambda . (y, xi, t) = (y, xi/lambda, lambda*t)."""
    if lam == 0.0:
        raise DomainViolation("the scaling action needs lambda != 0")
    return DncPoint(z.y, tuple([c / lam for c in z.xi]), lam * z.t)


class DncMap:
    """The induced map h~ of an adapted map of pairs h."""

    def __init__(self, h: MapOfPairs, check: bool = True):
        if check:
            require_adapted(h)
        self.h = h

    def __call__(self, z: DncPoint) -> DncPoint:
        h = self.h
        if z.t == 0.0:
            return DncPoint(h.slice_image(z.y), normal_image(h, z.y, z.xi), 0.0)
        t = z.t
        value = h.f(z.ambient())
        y2, x2 = value[: h.target.p], value[h.target.p :]
        # Once t*xi leaves the normal float range, h2(y, t*xi)/t has lost
        # its precision; the jet branch is then exact to rounding.
        if any(c != 0.0 and abs(t * c) < sys.float_info.min for c in z.xi):
            return DncPoint(y2, normal_image(h, z.y, z.xi), t)
        return DncPoint(y2, tuple([c / t for c in x2]), t)


_KINDS = ("hat_f0", "dnc_f1", "hat_t")


def check_vanishes_on_slice(f: SmoothMapExpr, dims: PairDims):
    """Sampled check that a scalar function vanishes on the slice {x = 0}:
    that f is a map of pairs (R^n, R^p) -> (R, {0})."""
    report = check_adapted(MapOfPairs(f, dims, PairDims(1, 0)), samples=128)
    if not report.ok:
        raise NotVanishing(
            f"function does not vanish on the slice (worst violation {report.worst_violation:.3e})"
        )


def eval_function_class(
    kind: str, f: SmoothMapExpr, dims: PairDims, z: DncPoint, check: bool = True
) -> float:
    """The three canonical smooth functions on DNC built from chart data.

    hat_f0: pullback of f along the shadow, (y, xi, t) -> f(y, t*xi).
    dnc_f1: for f vanishing on the slice, the smooth quotient
            (y, xi, t) -> f(y, t*xi)/t, extended by dN f(y) xi at t = 0:
            the xi-component of the induced map of the map of pairs
            f: (R^n, R^p) -> (R, {0}).
    hat_t:  the submersion (y, xi, t) -> t.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown function class {kind!r}; expected one of {_KINDS}")
    if kind == "hat_t":
        return z.t
    if f.output_dim != 1 or f.input_dim != dims.n:
        raise ArityMismatch("function classes need a scalar function on the ambient chart")
    if kind == "hat_f0":
        return float(f(z.ambient())[0])
    # dnc_f1
    if check:
        check_vanishes_on_slice(f, dims)
    return float(DncMap(MapOfPairs(f, dims, PairDims(1, 0)), check=False)(z).xi[0])
