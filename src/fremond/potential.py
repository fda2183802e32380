"""Polynomial interaction potentials F and their lambda-convex split.

F is a polynomial, bounded below, with F'(0) = 0. Writing G(y) = F(y) +
lambda*y^2 with F'' >= -lambda, G is strongly convex (G'' >= lambda) and
G'(0) = 0. The implicit part of the phase-equation splitting uses G', the
explicit part the concave remainder -2*lambda*y, so exact derivatives up to
third order are provided. G is a polynomial too: its coefficient table is
F's with lambda added at y^2, built once next to F's, and both are
evaluated by the same Horner lookup.

Every ``Potential`` is admissible by construction: it has even degree, a
positive leading coefficient, F'(0) = 0, lambda >= 0, and F'' + lambda >= 0
on the real line, checked where that even polynomial is least: at y = 0 and
the real parts of the roots of F'''; a non-finite F''' or margin fails too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PotentialValidationError

__all__ = ["Potential"]


def _table(coeffs: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """Coefficients of a polynomial and of its first three derivatives."""
    ds = [coeffs]
    for _ in range(3):
        ds.append(tuple(k * c for k, c in enumerate(ds[-1]) if k >= 1) or (0.0,))
    return tuple(ds)


def _horner(table: tuple[tuple[float, ...], ...], y, order: int):
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be in {0,1,2,3}")
    *rest, lead = table[order]
    arr = np.asarray(y, dtype=float)
    if not rest:
        acc = lead + 0.0 * arr  # a constant, shaped like y
    else:
        acc = lead * arr
        # adding an interior 0.0 only makes a -0.0 acc +0.0, as the final += rest[0] does unless rest[0] is -0.0
        skip = rest[0] != 0.0 or math.copysign(1.0, rest[0]) > 0.0
        for c in reversed(rest[1:]):
            if c != 0.0 or not skip:
                acc += c
            acc *= arr
        acc += rest[0]
    if arr.ndim == 0:
        return float(acc)
    return acc


@dataclass(frozen=True)
class Potential:
    """Polynomial F(y) = sum coeffs[k] * y^k with its convexity constant lambda."""

    coeffs: tuple[float, ...]
    lam: float

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lam", float(self.lam))
        if not coeffs:
            raise PotentialValidationError("F needs at least one coefficient")
        if self.lam < 0:
            raise PotentialValidationError("lambda must be nonnegative")
        if len(coeffs) >= 2 and coeffs[1] != 0.0:
            # a nonzero linear term means F'(0) != 0; an affine renormalization
            # is not applied silently, such potentials are rejected
            raise PotentialValidationError("potential must satisfy F'(0) = 0")
        degree = len(coeffs) - 1
        if degree > 0:
            if degree % 2 != 0:
                raise PotentialValidationError("polynomial degree must be even")
            if coeffs[-1] <= 0.0:
                raise PotentialValidationError("leading coefficient must be positive")
        g = list(coeffs + (0.0,) * (3 - len(coeffs)))
        g[2] += self.lam
        object.__setattr__(self, "_d", _table(coeffs))
        object.__setattr__(self, "_g", _table(tuple(g)))
        d3 = np.array(self._d[3][::-1])  # F''' highest power first; np.roots divides d3[1:] by d3[0]
        with np.errstate(all="ignore"):  # an overflowing table gives inf or nan, rejected below
            ys = np.roots(d3).real if np.isfinite(np.append(d3, d3[1:] / d3[0])).all() else np.nan
            margin = float(np.min(self.eval(np.append(ys, 0.0), 2) + self.lam))
        if not math.isfinite(margin):
            raise PotentialValidationError("F'' + lambda is not finite at the roots of F''' (or they overflow)")
        if margin < 0.0:
            raise PotentialValidationError(f"F'' + lambda dips to {margin:.3g} on the real line; lambda too small")

    @classmethod
    def double_well(cls, lam: float = 4.0) -> "Potential":
        """F(r) = (r^2 - 1)^2; F'' has minimum -4, so lambda = 4 is admissible."""
        return cls((1.0, 0.0, -2.0, 0.0, 1.0), lam)

    @classmethod
    def zero(cls) -> "Potential":
        """F identically 0 (linear test regime); only lambda = 0 makes sense."""
        return cls((0.0,), 0.0)

    def eval(self, y, order: int = 0):
        """F and derivatives up to F''' by exact Horner evaluation."""
        return _horner(self._d, y, order)

    def convex(self, y, order: int = 0):
        """The convex modification G = F + lambda*y^2 and its derivatives (G''' = F''')."""
        return _horner(self._g, y, order)

