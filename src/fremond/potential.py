"""Polynomial interaction potentials F and their lambda-convex split.

F is a polynomial, bounded below, with F'(0) = 0. Writing G(y) = F(y) +
lambda*y^2 with F'' >= -lambda, G is strongly convex (G'' >= lambda) and
G'(0) = 0. The implicit part of the phase-equation splitting uses G', the
explicit part the concave remainder -2*lambda*y, so exact derivatives up to
third order are provided. G is a polynomial too: its coefficient table is
F's with lambda added at y^2, built once next to F's, and both are
evaluated by the same Horner lookup.

Admissibility (even degree, positive leading coefficient, lambda-convexity
with the supplied lambda, coercivity at the lattice ends, and the log-growth
bound on F' against F) is checked on a sampling lattice by
``validate_hypotheses``; the checks are honest about being sampled, not
symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PotentialValidationError

__all__ = ["Potential", "ValidationReport", "check_convexity", "validate_hypotheses"]


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


@dataclass(frozen=True)
class ValidationReport:
    lambda_margin: float        # min over lattice of F'' + lambda
    growth_constant_f: float    # smallest lattice c with |F'| log(e+|F'|) <= c (1+|F|)
    growth_constant_g: float    # same for G against 1+G
    f_lower_bound: float        # min over lattice of F


def check_convexity(pot: Potential, lo: float = -10.0, hi: float = 10.0, samples: int = 10_000) -> float:
    """The minimum of F'' + lambda on the sampling lattice over [lo, hi];
    PotentialValidationError when it is negative (lambda too small)."""
    if samples < 2:
        raise ValueError("need at least 2 lattice samples")
    margin = float(np.min(pot.eval(np.linspace(lo, hi, samples), 2) + pot.lam))
    if margin < 0.0:
        raise PotentialValidationError(f"F'' + lambda dips to {margin:.3g} on [{lo}, {hi}]; lambda too small")
    return margin


def validate_hypotheses(
    pot: Potential, lo: float = -10.0, hi: float = 10.0, samples: int = 10_000
) -> ValidationReport:
    """Sample the structural hypotheses on a lattice over [lo, hi].

    Raises PotentialValidationError when lambda-convexity (``check_convexity``)
    or coercivity fails; the growth constants are reported, not enforced
    (finite for every polynomial).
    """
    lambda_margin = check_convexity(pot, lo, hi, samples)
    ys = np.linspace(lo, hi, samples)
    d1 = pot.eval(ys, 1)
    degree = len(pot.coeffs) - 1
    if not (d1[0] * np.sign(ys[0]) > 0 and d1[-1] * np.sign(ys[-1]) > 0 and degree >= 2):
        raise PotentialValidationError("F'(y) sgn(y) <= 0 at the lattice ends; F not coercive")

    f = pot.eval(ys, 0)
    g = pot.convex(ys, 0)
    g1 = pot.convex(ys, 1)
    cf = float(np.max(np.abs(d1) * np.log(np.e + np.abs(d1)) / (1.0 + np.abs(f))))
    cg = float(np.max(np.abs(g1) * np.log(np.e + np.abs(g1)) / (1.0 + np.abs(g))))

    return ValidationReport(
        lambda_margin=lambda_margin,
        growth_constant_f=cf,
        growth_constant_g=cg,
        f_lower_bound=float(np.min(f)),
    )
