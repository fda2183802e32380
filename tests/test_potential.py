import numpy as np
import pytest

from fremond.errors import PotentialValidationError
from fremond.potential import Potential, _horner


class TestDoubleWell:
    def test_roots_and_critical_points(self, double_well):
        assert double_well.eval(1.0) == 0.0
        assert double_well.eval(-1.0) == 0.0
        assert double_well.eval(1.0, 1) == 0.0
        assert double_well.eval(-1.0, 1) == 0.0
        assert double_well.eval(0.0) == 1.0

    def test_second_derivative_minimum(self, double_well):
        # F''(r) = 12 r^2 - 4, minimum -4 at r = 0, so lambda = 4 works
        assert double_well.eval(0.0, 2) == -4.0
        ys = np.linspace(-3, 3, 1001)
        assert np.min(double_well.eval(ys, 2)) == pytest.approx(-4.0, abs=1e-2)
        assert double_well.lam == 4.0

    def test_third_derivative(self, double_well):
        assert double_well.eval(0.5, 3) == 12.0


class TestConvexPart:
    def test_values_at_zero(self, double_well):
        assert double_well.convex(0.0) == 1.0
        assert double_well.convex(0.0, 1) == 0.0
        assert double_well.convex(0.0, 2) == 4.0

    def test_split_identities(self, double_well):
        ys = np.linspace(-5, 5, 101)
        lam = double_well.lam
        assert np.allclose(double_well.convex(ys) - lam * ys**2 - double_well.eval(ys), 0.0, atol=1e-9)
        assert np.allclose(double_well.convex(ys, 1) - double_well.eval(ys, 1), 2 * lam * ys, atol=1e-9)
        assert np.allclose(double_well.convex(ys, 2) - double_well.eval(ys, 2), 2 * lam, atol=1e-12)
        assert np.array_equal(double_well.convex(ys, 3), double_well.eval(ys, 3))

    def test_value_at_one(self, double_well):
        assert double_well.convex(1.0) == pytest.approx(4.0, abs=1e-14)

    def test_strong_convexity_on_lattice(self, double_well):
        ys = np.linspace(-10, 10, 5001)
        assert np.min(double_well.convex(ys, 2)) >= double_well.lam


class TestDerivativeConsistency:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_central_difference(self, order):
        pot = Potential((0.3, 0.0, -1.5, 0.0, 0.25, 0.0, 0.125), lam=3.5)
        rng = np.random.default_rng(5)
        eps = 1e-5
        for fn in (pot.eval, pot.convex):
            for y in rng.uniform(-2, 2, size=25):
                fd = (fn(y + eps, order - 1) - fn(y - eps, order - 1)) / (2 * eps)
                assert fd == pytest.approx(fn(y, order), rel=1e-6, abs=1e-6)


def random_even_potential(rng, degree, lam):
    """Random coefficients with F'(0) = 0 and a positive leading one."""
    return Potential((rng.normal(), 0.0, *rng.normal(size=degree - 2), rng.uniform(0.1, 1.0)), lam)


def reference_horner(table, y, order):
    """Horner's rule started from (c_n + 0 y), as before it started from c_n y."""
    coeffs = table[order]
    arr = np.asarray(y, dtype=float)
    acc = coeffs[-1] + 0.0 * arr
    for c in reversed(coeffs[:-1]):
        acc = acc * arr + c
    return float(acc) if arr.ndim == 0 else acc


class TestHorner:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("pot", [
        Potential.double_well(),
        Potential.zero(),
        random_even_potential(np.random.default_rng(7), degree=6, lam=3.0),  # F'' dips to -2.77
    ], ids=["double_well", "zero", "random_degree_6"])
    def test_bitwise_equal_to_the_zero_started_form(self, pot, order):
        rng = np.random.default_rng(order)
        ys = np.concatenate([rng.normal(scale=3.0, size=64), [0.0, -0.0, 1.0, -1.0, 1e-300, -1e40]])
        for table in (pot._d, pot._g):
            assert _horner(table, ys, order).tobytes() == reference_horner(table, ys, order).tobytes()
            assert _horner(table, ys.reshape(2, 35), order).shape == (2, 35)
            for y in (0.0, -0.0, 0.75, -2.5):
                assert np.float64(_horner(table, y, order)).tobytes() == np.float64(
                    reference_horner(table, y, order)).tobytes()


def full_horner(table, y, order):
    """Horner's rule from c_n y, adding every lower coefficient, the zero ones included."""
    *rest, lead = table[order]
    arr = np.asarray(y, dtype=float)
    if not rest:
        acc = lead + 0.0 * arr
    else:
        acc = lead * arr
        for c in reversed(rest[1:]):
            acc = (acc + c) * arr
        acc = acc + rest[0]
    return float(acc) if arr.ndim == 0 else acc


class TestZeroCoefficientsSkipped:
    """``_horner`` adds no interior zero coefficient; every value, down to the sign of a zero, is the full rule's."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e100, -1e100, np.inf, -np.inf]

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("pot", [
        Potential.double_well(),
        Potential.zero(),
        Potential((0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0), 2.0),
        Potential((-0.0, 0.0, 1.0), 0.0),  # a lowest coefficient of -0.0 keeps the sign of a zero
    ], ids=["double_well", "zero", "degree_6", "negative_zeros"])
    def test_bitwise_equal_to_the_full_rule(self, pot, order):
        ys = np.concatenate([self.EDGES, np.random.default_rng(order).uniform(-3.0, 3.0, size=200)])
        with np.errstate(all="ignore"):  # 1e100 and inf overflow and meet 0 * inf
            for method, table in ((pot.eval, pot._d), (pot.convex, pot._g)):
                assert method(ys, order).tobytes() == full_horner(table, ys, order).tobytes()
                for y in self.EDGES:
                    assert np.float64(method(y, order)).tobytes() == np.float64(full_horner(table, y, order)).tobytes()


class TestValidation:
    """F'' + lambda >= 0 on the lattice of [-10, 10] is checked at construction."""

    def test_double_well_default_passes(self):
        assert Potential.double_well().lam == 4.0

    def test_small_lambda_fails_convexity(self):
        with pytest.raises(PotentialValidationError, match="dips to -3 on"):
            Potential.double_well(lam=1.0)

    def test_pure_quartic_with_zero_lambda(self):
        assert Potential((0, 0, 0, 0, 1.0), lam=0.0).lam == 0.0

    @pytest.mark.parametrize("coeffs, lam", [
        ((0.0, 0.0, -1e308, 0.0, 1e308), 0.0),  # F'' = -2e308 + 12e308 y^2 overflows to -inf and nan
        ((1.0, 0.0, -2.0, 0.0, 1.0), np.nan),
        ((1.0, 0.0, -2.0, 0.0, 1.0), np.inf),
    ], ids=["overflow", "nan_lambda", "inf_lambda"])
    def test_non_finite_margin_fails(self, coeffs, lam):
        with pytest.raises(PotentialValidationError, match="not finite"):
            Potential(coeffs, lam)


class TestConstruction:
    def test_rejects_odd_degree(self):
        with pytest.raises(PotentialValidationError):
            Potential((0, 0, 1, 1), lam=1.0)

    def test_rejects_negative_leading(self):
        with pytest.raises(PotentialValidationError):
            Potential((0, 0, -1.0), lam=1.0)

    def test_rejects_nonzero_slope_at_origin(self):
        # F'(0) != 0 would need a silent renormalization; rejected instead
        with pytest.raises(PotentialValidationError):
            Potential((0, 1.0, 0, 0, 1.0), lam=1.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(PotentialValidationError):
            Potential.double_well(lam=-1.0)

    def test_zero_potential_allowed_for_linear_regime(self):
        pot = Potential.zero()
        assert pot.eval(3.0) == 0.0
        assert pot.convex(3.0, 1) == 0.0
