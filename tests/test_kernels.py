"""Kernel tests: branch values, domain errors, symmetry, Moreau consistency,
and closed-form Gaussian expectations against the quadrature oracle."""

import math

import numpy as np
import pytest

from lasso_mismatch.kernels import (
    _gauss_moments,
    gauss_expect_e,
    gauss_expect_eta,
    q_function,
    soft_threshold,
    soft_threshold_value,
    std_normal_pdf,
)
from oracles import oracle_expect_abs_eta, oracle_expect_e, oracle_expect_eta, oracle_prob_inside

# frozen oracle values (adaptive Simpson, tol 1e-11)
ORACLE_E_0_1_HALF = 0.2903607399748979        # mu=0, tau=1, chi=0.5
ORACLE_E_SQRT09_06_08 = 0.4984702150731719    # mu=sqrt(0.9), tau=0.6, chi=0.8
ORACLE_ETA_1_05_04 = 0.6276706820297511       # mu=1, tau=0.5, chi=0.4
ORACLE_Q_1 = 0.158655253931457                # tail integral of phi from 1


class TestSoftThreshold:
    def test_branches(self):
        assert soft_threshold(2.0, 0.5) == 1.5
        assert soft_threshold(0.3, 0.5) == 0.0
        assert soft_threshold(-1.2, 0.5) == pytest.approx(-0.7, abs=1e-15)

    def test_boundary_is_dead_zone(self):
        assert soft_threshold(0.5, 0.5) == 0.0
        assert soft_threshold(-0.5, 0.5) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            soft_threshold(float("nan"), 0.5)
        with pytest.raises(ValueError):
            soft_threshold(float("inf"), 0.5)
        with pytest.raises(ValueError):
            soft_threshold(1.0, 0.0)
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_odd(self):
        rng = np.random.default_rng(1)
        for a, t in zip(rng.normal(0, 3, 1000), rng.uniform(0.01, 2, 1000)):
            assert soft_threshold(-a, t) == -soft_threshold(a, t)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 3, 5000)
        b = rng.normal(0, 3, 5000)
        t = rng.uniform(0.01, 2, 5000)
        for ai, bi, ti in zip(a, b, t):
            assert abs(soft_threshold(ai, ti) - soft_threshold(bi, ti)) <= abs(ai - bi) + 1e-15


class TestSoftThresholdValue:
    def test_branches(self):
        assert soft_threshold_value(2.0, 0.5) == pytest.approx(0.875, abs=1e-15)
        assert soft_threshold_value(0.3, 0.5) == pytest.approx(0.045, abs=1e-15)
        assert soft_threshold_value(-2.0, 0.5) == pytest.approx(0.875, abs=1e-15)

    def test_even_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for a, t in zip(rng.normal(0, 3, 1000), rng.uniform(0.01, 2, 1000)):
            assert soft_threshold_value(a, t) == soft_threshold_value(-a, t)
            assert soft_threshold_value(a, t) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            soft_threshold_value(float("nan"), 1.0)
        with pytest.raises(ValueError):
            soft_threshold_value(1.0, 0.0)

    def test_moreau_consistency_bulk(self):
        # e(a;t) == (eta - a)^2/2 + t*|eta| for 1e5 random points
        rng = np.random.default_rng(4)
        a = rng.normal(0, 5, 100_000)
        t = rng.uniform(1e-3, 4, 100_000)
        worst = 0.0
        for ai, ti in zip(a, t):
            eta = soft_threshold(ai, ti)
            lhs = soft_threshold_value(ai, ti)
            rhs = 0.5 * (eta - ai) ** 2 + ti * abs(eta)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12


class TestNormalFunctions:
    def test_pdf_values(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)
        assert std_normal_pdf(1.0) == pytest.approx(0.2419707245, abs=1e-10)
        assert std_normal_pdf(-1.0) == std_normal_pdf(1.0)

    def test_q_values(self):
        assert q_function(0.0) == 0.5
        assert q_function(10.0) <= 1e-23
        assert q_function(1.0) == pytest.approx(ORACLE_Q_1, abs=1e-13)

    def test_q_symmetry(self):
        for x in np.linspace(-8, 8, 161):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            std_normal_pdf(float("inf"))
        with pytest.raises(ValueError):
            q_function(float("nan"))


class TestGaussMoment:
    """Arguments (mean, spread, threshold) of the Gaussian expectations."""

    def test_validation(self):
        for kernel in (gauss_expect_e, gauss_expect_eta):
            with pytest.raises(ValueError):
                kernel(0.0, 0.0, 1.0)
            with pytest.raises(ValueError):
                kernel(0.0, 1.0, -1.0)
            with pytest.raises(ValueError):
                kernel(float("nan"), 1.0, 1.0)

    @pytest.mark.parametrize("kernel", [gauss_expect_e, gauss_expect_eta])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_argument(self, kernel, position, bad):
        args = [0.3, 0.7, 0.5]
        args[position] = bad
        with pytest.raises(ValueError, match="finite"):
            kernel(*args)

    @pytest.mark.parametrize("kernel", [gauss_expect_e, gauss_expect_eta])
    @pytest.mark.parametrize("position", [1, 2])
    def test_rejects_zero_spread_or_threshold(self, kernel, position):
        args = [0.3, 0.7, 0.5]
        args[position] = 0.0
        with pytest.raises(ValueError, match="positive"):
            kernel(*args)


class TestGaussExpectations:
    def test_wide_dead_zone_limit(self):
        # chi = 10 leaves only the quadratic branch: E[H^2]/2 = 1/2
        val = gauss_expect_e(0.0, 1.0, 10.0)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_frozen_oracle_values(self):
        assert gauss_expect_e(0.0, 1.0, 0.5) == pytest.approx(
            ORACLE_E_0_1_HALF, abs=1e-9
        )
        assert gauss_expect_e(math.sqrt(0.9), 0.6, 0.8) == pytest.approx(
            ORACLE_E_SQRT09_06_08, abs=1e-9
        )
        assert gauss_expect_eta(1.0, 0.5, 0.4) == pytest.approx(
            ORACLE_ETA_1_05_04, abs=1e-9
        )

    def test_eta_odd_in_mean(self):
        assert gauss_expect_eta(0.0, 0.7, 0.3) == pytest.approx(0.0, abs=1e-15)
        m_pos = gauss_expect_eta(0.8, 0.7, 0.3)
        m_neg = gauss_expect_eta(-0.8, 0.7, 0.3)
        assert m_pos == pytest.approx(-m_neg, abs=1e-14)

    def test_eta_huge_threshold(self):
        assert gauss_expect_eta(1.0, 0.5, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_match_oracle_grid(self):
        worst_e = 0.0
        worst_eta = 0.0
        for mu in (0.0, 0.5, -0.5, 1.0, -1.0):
            for tau in (0.1, 0.5, 1.0, 2.0):
                for chi in (0.05, 0.5, 1.0, 3.0):
                    worst_e = max(
                        worst_e,
                        abs(gauss_expect_e(mu, tau, chi) - oracle_expect_e(mu, tau, chi)),
                    )
                    worst_eta = max(
                        worst_eta,
                        abs(gauss_expect_eta(mu, tau, chi) - oracle_expect_eta(mu, tau, chi)),
                    )
        assert worst_e <= 1e-9
        assert worst_eta <= 1e-9

    def test_moments_match_oracle_grid(self):
        # E e, E|eta| and P(|a| <= chi), including means past the threshold
        # on either side
        oracles = (oracle_expect_e, oracle_expect_abs_eta, oracle_prob_inside)
        worst = [0.0, 0.0, 0.0]
        for mu in (0.0, 0.5, -0.5, 1.0, -1.5, 4.0):
            for tau in (0.1, 0.5, 1.0, 2.0):
                for chi in (0.05, 0.5, 1.0, 3.0):
                    got = _gauss_moments(mu, tau, chi)
                    for i, oracle in enumerate(oracles):
                        worst[i] = max(worst[i], abs(got[i] - oracle(mu, tau, chi)))
                    assert got[0] == gauss_expect_e(mu, tau, chi)
        assert max(worst) <= 1e-9, worst
