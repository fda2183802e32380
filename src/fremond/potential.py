"""Polynomial interaction potentials F and their lambda-convex split.

F is a polynomial, bounded below, with F'(0) = 0. Writing G(y) = F(y) +
lambda*y^2 with F'' >= -lambda, G is strongly convex (G'' >= lambda) and
G'(0) = 0. The implicit part of the phase-equation splitting uses G', the
explicit part the concave remainder -2*lambda*y, so exact derivatives up to
third order are provided.

Admissibility (even degree, positive leading coefficient, lambda-convexity
with the supplied lambda, coercivity at the lattice ends, and the log-growth
bound on F' against F) is checked on a sampling lattice by
``validate_hypotheses``; the checks are honest about being sampled, not
symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PotentialValidationError

__all__ = ["Potential", "ValidationReport", "validate_hypotheses"]


def _derive(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    if len(coeffs) <= 1:
        return (0.0,)
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


def _horner(coeffs: tuple[float, ...], y):
    arr = np.asarray(y, dtype=float)
    acc = np.zeros_like(arr)
    for c in reversed(coeffs):
        acc = acc * arr + c
    if arr.ndim == 0:
        return float(acc)
    return acc


@dataclass(frozen=True)
class Potential:
    """Polynomial F(y) = sum coeffs[k] * y^k with its convexity constant lambda."""

    coeffs: tuple[float, ...]
    lam: float
    kind: str = "polynomial"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lam", float(self.lam))
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
        ds = [coeffs]
        for _ in range(3):
            ds.append(_derive(ds[-1]))
        object.__setattr__(self, "_d", tuple(ds))

    @classmethod
    def double_well(cls, lam: float = 4.0) -> "Potential":
        """F(r) = (r^2 - 1)^2; F'' has minimum -4, so lambda = 4 is admissible."""
        return cls((1.0, 0.0, -2.0, 0.0, 1.0), lam, kind="double_well")

    @classmethod
    def zero(cls) -> "Potential":
        """F identically 0 (linear test regime); only lambda = 0 makes sense."""
        return cls((0.0,), 0.0, kind="zero")

    @classmethod
    def from_coefficients(cls, coeffs, lam: float) -> "Potential":
        return cls(tuple(coeffs), lam)

    def eval(self, y, order: int = 0):
        """F and derivatives up to F''' by exact Horner evaluation."""
        if order not in (0, 1, 2, 3):
            raise ValueError("order must be in {0,1,2,3}")
        return _horner(self._d[order], y)

    def convex(self, y, order: int = 0):
        """The convex modification G = F + lambda*y^2 and its derivatives (G''' = F''')."""
        if order == 0:
            return self.eval(y, 0) + self.lam * np.asarray(y, dtype=float) ** 2
        if order == 1:
            return self.eval(y, 1) + 2.0 * self.lam * np.asarray(y, dtype=float)
        if order == 2:
            return self.eval(y, 2) + 2.0 * self.lam
        return self.eval(y, order)


@dataclass(frozen=True)
class ValidationReport:
    lambda_margin: float        # min over lattice of F'' + lambda
    coercive: bool              # F'(y) sgn(y) > 0 at both lattice ends
    growth_constant_f: float    # smallest lattice c with |F'| log(e+|F'|) <= c (1+|F|)
    growth_constant_g: float    # same for G against 1+G
    f_lower_bound: float        # min over lattice of F
    passed: bool


def validate_hypotheses(
    pot: Potential, lo: float = -10.0, hi: float = 10.0, samples: int = 10_000
) -> ValidationReport:
    """Sample the structural hypotheses on a lattice over [lo, hi].

    Raises PotentialValidationError when lambda-convexity or coercivity fails;
    the growth constants are reported, not enforced (finite for every
    polynomial).
    """
    if samples < 2:
        raise ValueError("need at least 2 lattice samples")
    ys = np.linspace(lo, hi, samples)
    d2 = pot.eval(ys, 2)
    lambda_margin = float(np.min(d2 + pot.lam))

    d1 = pot.eval(ys, 1)
    degree = len(pot.coeffs) - 1
    coercive = bool(d1[0] * np.sign(ys[0]) > 0 and d1[-1] * np.sign(ys[-1]) > 0) and degree >= 2

    f = pot.eval(ys, 0)
    g = pot.convex(ys, 0)
    g1 = pot.convex(ys, 1)
    cf = float(np.max(np.abs(d1) * np.log(np.e + np.abs(d1)) / (1.0 + np.abs(f))))
    cg = float(np.max(np.abs(g1) * np.log(np.e + np.abs(g1)) / (1.0 + np.abs(g))))

    passed = lambda_margin >= 0.0 and coercive
    report = ValidationReport(
        lambda_margin=lambda_margin,
        coercive=coercive,
        growth_constant_f=cf,
        growth_constant_g=cg,
        f_lower_bound=float(np.min(f)),
        passed=passed,
    )
    if lambda_margin < 0.0:
        raise PotentialValidationError(
            f"F'' + lambda dips to {lambda_margin:.3g} on [{lo}, {hi}]; lambda too small"
        )
    if not coercive:
        raise PotentialValidationError("F'(y) sgn(y) <= 0 at the lattice ends; F not coercive")
    return report
