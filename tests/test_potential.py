import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixch.errors import DomainError
from sixch.potential import (Nonlinearity, PotentialParams, TruncationLevel, eval_a,
                             eval_beta, eval_F, eval_f, eval_g)

LN2 = 0.6931471805599453
BETA_HALF = 0.5493061443340548  # atanh(1/2)
F_HALF = 0.13081203594113696    # 0.75*ln(1.5) + 0.25*ln(0.5)
BETA_95 = 1.8317808230648232    # atanh(0.95)


class TestBeta:
    def test_origin(self):
        assert eval_beta(0.0) == (0.0, 1.0, 0.0)

    def test_half(self):
        b, b1, b2 = eval_beta(0.5)
        assert b == pytest.approx(BETA_HALF, abs=1e-12)
        assert b1 == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert b2 == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_odd_even_odd(self):
        b, b1, b2 = eval_beta(-0.5)
        assert b == pytest.approx(-BETA_HALF, abs=1e-12)
        assert b1 == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert b2 == pytest.approx(-16.0 / 9.0, rel=1e-14)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5, -2.0])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            eval_beta(r)

    def test_near_boundary_relative_accuracy(self):
        # oracle: exact rational arithmetic on the float closest to 1 - 1e-12
        from fractions import Fraction
        r = 1.0 - 1e-12
        rq = Fraction(r)
        b, b1, _ = eval_beta(r)
        assert b == pytest.approx(0.5 * np.log(float((1 + rq) / (1 - rq))), rel=1e-13)
        assert b1 == pytest.approx(float(1 / (1 - rq * rq)), rel=1e-13)


class TestF:
    def test_zero(self):
        assert eval_F(PotentialParams(0.0, 0.0), 0.0) == 0.0

    def test_boundary_by_continuity(self):
        p = PotentialParams(0.0, 0.0)
        assert eval_F(p, 1.0) == pytest.approx(LN2, abs=1e-15)
        assert eval_F(p, -1.0) == pytest.approx(LN2, abs=1e-15)
        p2 = PotentialParams(3.0, 0.0)
        assert eval_F(p2, 1.0) == pytest.approx(LN2 - 1.5, abs=1e-14)

    def test_half(self):
        assert eval_F(PotentialParams(0.0, 0.0), 0.5) == pytest.approx(F_HALF, abs=1e-15)

    def test_outside_closed_interval(self):
        with pytest.raises(DomainError):
            eval_F(PotentialParams(0.0, 0.0), 1.0000001)


class TestLittleF:
    def test_zero(self):
        for lam in (0.0, 2.0, -3.5):
            assert eval_f(PotentialParams(lam, 0.0), 0.0) == 0.0

    def test_values(self):
        assert eval_f(PotentialParams(0.0, 0.0), 0.5) == pytest.approx(BETA_HALF, abs=1e-12)
        assert eval_f(PotentialParams(2.0, 0.0), 0.5) == pytest.approx(BETA_HALF - 1.0, abs=1e-12)

    def test_strictly_increasing_for_nonpositive_lambda(self):
        r = np.linspace(-0.999, 0.999, 2001)
        vals = eval_f(PotentialParams(-1.0, 0.0), r)
        assert np.all(np.diff(vals) > 0)


class TestA:
    def test_origin(self):
        assert eval_a(0.0) == (2.0, 0.0, 4.0)

    def test_half(self):
        a, a1, a2 = eval_a(0.5)
        assert a == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert a1 == pytest.approx(32.0 / 9.0, rel=1e-14)
        assert a2 == pytest.approx(448.0 / 27.0, rel=1e-14)

    @pytest.mark.parametrize("r", [-0.9, 0.0, 0.9])
    def test_a_is_twice_beta1(self, r):
        assert eval_a(r)[0] == pytest.approx(2.0 * eval_beta(r)[1], rel=1e-15)

    def test_lower_bound(self):
        r = np.linspace(-0.99, 0.99, 500)
        assert np.all(eval_a(r)[0] >= 2.0)


class TestG:
    def test_identically_zero_when_unforced(self):
        p = PotentialParams(0.0, 0.0)
        r = np.linspace(-0.99, 0.99, 101)
        g, g1 = eval_g(p, r)
        assert np.all(g == 0.0)
        assert np.all(g1 == 0.0)

    def test_origin_slope(self):
        lam, eta = 1.7, -0.4
        g, g1 = eval_g(PotentialParams(lam, eta), 0.0)
        assert g == 0.0
        assert g1 == pytest.approx(eta - 2 * lam + lam**2 - lam * eta, rel=1e-14)

    def test_reference_value(self):
        g, _ = eval_g(PotentialParams(1.0, -1.0), 0.5)
        assert g == pytest.approx(-0.7652789553347764, abs=1e-12)


class TestTruncate:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            TruncationLevel(2)


class TestExtension:
    def setup_method(self):
        self.p = PotentialParams(1.0, -0.5)
        self.lvl = TruncationLevel(10)
        self.nl = Nonlinearity(self.p, self.lvl)

    def test_interior_agreement_is_bit_exact(self):
        r = np.linspace(-self.lvl.knee, self.lvl.knee, 1001)
        be, b1e, b2e = self.nl.beta_all(r)
        b, b1, b2 = eval_beta(r)
        assert np.array_equal(be, b)
        assert np.array_equal(b1e, b1)
        assert np.array_equal(b2e, b2)
        ge, g1e = self.nl.g_all(r)
        g, g1 = eval_g(self.p, r)
        assert np.array_equal(ge, g)
        assert np.array_equal(g1e, g1)
        assert self.nl.beta(0.0) == 0.0

    def test_knee_continuity(self):
        assert self.nl.beta(0.95) == pytest.approx(BETA_95, abs=1e-12)

    def test_taylor_value_beyond_knee(self):
        k = 0.95
        b, b1, b2 = eval_beta(k)
        expected = b + b1 * (2.0 - k) + 0.5 * b2 * (2.0 - k) ** 2
        assert self.nl.beta(2.0) == pytest.approx(expected, rel=1e-14)

    def test_c2_matching_at_knee(self):
        h = 1e-7
        k = self.lvl.knee
        for fn in (self.nl.beta, lambda r: self.nl.beta_all(r)[1], self.nl.g):
            inner_slope = (fn(k) - fn(k - h)) / h
            outer_slope = (fn(k + h) - fn(k)) / h
            assert outer_slope == pytest.approx(inner_slope, rel=1e-5, abs=1e-4)

    def test_extension_monotone_and_finite(self):
        r = np.linspace(-50.0, 50.0, 4001)
        vals = self.nl.beta(r)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0)

    def test_extended_F_is_antiderivative_of_extended_f(self):
        h = 1e-6
        for r in (0.97, 1.3, -2.0, 5.0):
            fd = (self.nl.F(r + h) - self.nl.F(r - h)) / (2 * h)
            assert fd == pytest.approx(self.nl.f(r), rel=1e-7, abs=1e-7)


class TestProperties:
    @given(st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_oddness(self, r):
        b_pos = eval_beta(r)[0]
        b_neg = eval_beta(-r)[0]
        assert b_pos == pytest.approx(-b_neg, abs=1e-12)
        p = PotentialParams(1.3, 0.8)
        assert eval_f(p, r) == pytest.approx(-eval_f(p, -r), abs=1e-12)
        assert eval_g(p, r)[0] == pytest.approx(-eval_g(p, -r)[0], abs=1e-11)

    @given(st.floats(min_value=-0.99, max_value=0.99),
           st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_derivatives_match_finite_differences(self, r, lam, eta):
        h = 1e-6
        p = PotentialParams(lam, eta)
        _, b1, b2 = eval_beta(r)
        fd_b1 = (eval_beta(r + h)[0] - eval_beta(r - h)[0]) / (2 * h)
        fd_b2 = (eval_beta(r + h)[1] - eval_beta(r - h)[1]) / (2 * h)
        assert fd_b1 == pytest.approx(b1, rel=1e-5)
        assert fd_b2 == pytest.approx(b2, rel=1e-5, abs=1e-5)
        _, g1 = eval_g(p, r)
        fd_g1 = (eval_g(p, r + h)[0] - eval_g(p, r - h)[0]) / (2 * h)
        assert fd_g1 == pytest.approx(g1, rel=1e-4, abs=1e-5)

    def test_f_prime_relation(self):
        # f'(r) = a(r)/2 - lambda
        r = np.linspace(-0.95, 0.95, 41)
        p = PotentialParams(2.0, 0.0)
        h = 1e-6
        fd = (eval_f(p, r + h) - eval_f(p, r - h)) / (2 * h)
        assert np.allclose(fd, eval_a(r)[0] / 2.0 - p.lam, rtol=1e-9, atol=1e-8)

    def test_monotone_product_on_lattice(self):
        r = np.linspace(-1 + 1e-6, 1 - 1e-6, 10_000)
        beta, beta1, _ = eval_beta(r)
        prod = beta * beta1
        assert np.all(np.diff(prod) >= -1e-12 * np.maximum(1.0, np.abs(prod[:-1])))

    def test_domination_near_pure_phases(self):
        # |beta*beta'| / |g| diverges as |r| -> 1, but only like beta(r)
        # itself (for lam = eta = 1, g = -r*beta' exactly, so the ratio is
        # beta(r)/|r|).  Check strict monotone growth toward the boundary
        # and a concrete floor at the closest representable distances.
        p = PotentialParams(1.0, 1.0)
        for sign in (1.0, -1.0):
            ratios = []
            for k in (3, 6, 9, 12):
                r = sign * (1.0 - 10.0 ** (-k))
                beta, beta1, _ = eval_beta(r)
                g, _ = eval_g(p, r)
                ratios.append(abs(beta * beta1) / abs(g))
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] > 10.0

    def test_lambda_convexity(self):
        r = np.linspace(-1 + 1e-9, 1 - 1e-9, 5001)
        assert np.all(eval_beta(r)[1] >= 1.0)


class TestNonlinearityBundle:
    def test_exact_mode_checks_domain(self):
        nl = Nonlinearity(PotentialParams(0.0, 0.0))
        with pytest.raises(DomainError):
            nl.check(np.array([0.2, 1.0]))
        nl.check(np.array([0.2, 1.0]), closed=True)  # closed interval is fine

    def test_extended_mode_accepts_everything(self):
        nl = Nonlinearity(PotentialParams(1.0, 1.0), TruncationLevel(5))
        nl.check(np.array([5.0, -7.0]))
        assert np.isfinite(nl.f(5.0))
        assert np.isfinite(nl.F(-7.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PotentialParams(np.nan, 0.0)

    @pytest.mark.parametrize("evaluate", [
        eval_beta,
        lambda r: eval_F(PotentialParams(1.0, 1.0), r),
        lambda r: Nonlinearity(PotentialParams(1.0, 1.0)).pointwise(r),
    ], ids=["eval_beta", "eval_F", "pointwise"])
    def test_nan_is_outside_the_domain(self, evaluate):
        with pytest.raises(DomainError):
            evaluate(np.array([0.2, np.nan]))
        with pytest.raises(DomainError):
            evaluate(np.nan)

    def test_F_matches_the_xlogy_reference(self):
        # F from the trio's logarithms, against F from two xlogy calls, up to
        # the points +-(1 - 10^-k) next to the endpoints, and at the endpoints.
        # F's entropy and lam terms are O(1) and cancel, so the bound is absolute.
        from scipy.special import xlogy

        p = PotentialParams(0.9, -0.4)
        near = 1.0 - 10.0 ** -np.arange(1, 16)
        r = np.concatenate([np.linspace(-1.0, 1.0, 20001)[1:-1], near, -near])
        reference = 0.5 * (xlogy(1.0 + r, 1.0 + r) + xlogy(1.0 - r, 1.0 - r)) - 0.45 * r**2
        worst = np.max(np.abs(Nonlinearity(p).pointwise(r).F - reference))
        assert worst <= 2.0 * np.finfo(float).eps
        assert eval_F(p, np.array([-1.0, 1.0])).tolist() == [LN2 - 0.45] * 2

    def test_exact_pointwise_matches_reference_evaluators(self):
        p = PotentialParams(0.9, -0.4)
        r = np.linspace(-1.0, 1.0, 2001)[1:-1]
        pw = Nonlinearity(p).pointwise(r, jacobian=True)
        b, b1, b2 = eval_beta(r)
        g, g1 = eval_g(p, r)
        for got, want in [(pw.beta, b), (pw.beta1, b1), (pw.beta2, b2),
                          (pw.beta3, eval_a(r)[2] / 2.0), (pw.g, g), (pw.g1, g1),
                          (pw.F, eval_F(p, r))]:
            assert np.array_equal(got, want)
