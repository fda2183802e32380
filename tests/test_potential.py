import numpy as np
import pytest

from fremond.errors import PotentialValidationError
from fremond.potential import Potential, validate_hypotheses


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
        assert np.allclose(double_well.convex(ys, 2) - double_well.eval(ys, 2), 2 * lam, atol=1e-12)

    def test_value_at_one(self, double_well):
        assert double_well.convex(1.0) == pytest.approx(4.0, abs=1e-14)

    def test_strong_convexity_on_lattice(self, double_well):
        ys = np.linspace(-10, 10, 5001)
        assert np.min(double_well.convex(ys, 2)) >= double_well.lam


class TestDerivativeConsistency:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_central_difference(self, order):
        pot = Potential.from_coefficients([0.3, 0.0, -1.5, 0.0, 0.25, 0.0, 0.125], lam=3.5)
        rng = np.random.default_rng(5)
        eps = 1e-5
        for fn in (pot.eval, pot.convex):
            for y in rng.uniform(-2, 2, size=25):
                fd = (fn(y + eps, order - 1) - fn(y - eps, order - 1)) / (2 * eps)
                assert fd == pytest.approx(fn(y, order), rel=1e-6, abs=1e-6)


class TestValidation:
    def test_double_well_default_passes(self, double_well):
        rep = validate_hypotheses(double_well, -10, 10, 10_000)
        assert rep.passed
        assert rep.lambda_margin >= 0.0
        assert rep.coercive
        assert np.isfinite(rep.growth_constant_f)
        assert np.isfinite(rep.growth_constant_g)
        # F stays above the bound implied by the growth constant report
        ys = np.linspace(-10, 10, 10_000)
        assert np.min(double_well.eval(ys)) >= -rep.growth_constant_f

    def test_small_lambda_fails_convexity(self):
        pot = Potential.double_well(lam=1.0)
        with pytest.raises(PotentialValidationError):
            validate_hypotheses(pot)

    def test_pure_quartic_with_zero_lambda(self):
        pot = Potential.from_coefficients([0, 0, 0, 0, 1.0], lam=0.0)
        rep = validate_hypotheses(pot)
        assert rep.passed

    def test_sample_count_precondition(self, double_well):
        with pytest.raises(ValueError):
            validate_hypotheses(double_well, -1, 1, samples=1)


class TestConstruction:
    def test_rejects_odd_degree(self):
        with pytest.raises(PotentialValidationError):
            Potential.from_coefficients([0, 0, 1, 1], lam=1.0)

    def test_rejects_negative_leading(self):
        with pytest.raises(PotentialValidationError):
            Potential.from_coefficients([0, 0, -1.0], lam=1.0)

    def test_rejects_nonzero_slope_at_origin(self):
        # F'(0) != 0 would need a silent renormalization; rejected instead
        with pytest.raises(PotentialValidationError):
            Potential.from_coefficients([0, 1.0, 0, 0, 1.0], lam=1.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(PotentialValidationError):
            Potential.double_well(lam=-1.0)

    def test_zero_potential_allowed_for_linear_regime(self):
        pot = Potential.zero()
        assert pot.eval(3.0) == 0.0
        assert pot.convex(3.0, 1) == 0.0
        with pytest.raises(PotentialValidationError):
            validate_hypotheses(pot)  # not coercive; fails honestly
