"""Prior construction, expectation linearity, and the simulator's draw of
support values from the prior conditioned on being nonzero."""

import math

import numpy as np
import pytest

from lasso_mismatch.prior import (
    Prior,
    _prior_moments,
    prior_expect_e,
    prior_expect_eta_x0,
    sparse_bernoulli,
)
from lasso_mismatch.predictor import ModelConfig
from lasso_mismatch.simulator import generate_instance
from oracles import oracle_expect_abs_eta, oracle_expect_e, oracle_expect_eta, oracle_prob_inside

# frozen oracle values (adaptive Simpson, tol 1e-11)
PRIOR_E_SB01 = 0.20060927601425        # sb(0.1), gamma=sqrt(0.9), tau=0.6, chi=0.8
PRIOR_ETA_X0_SB01 = 0.0311481804644526  # sb(0.1), gamma=sqrt(0.8), tau=0.5, chi=0.7


class TestConstruction:
    def test_sparse_bernoulli_atoms(self):
        p = sparse_bernoulli(0.1)
        assert p.atoms == ((0.0, 0.9), (1.0, 0.1))
        assert sparse_bernoulli(0.5).atoms == ((0.0, 0.5), (1.0, 0.5))

    def test_sparse_bernoulli_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sparse_bernoulli(bad)

    def test_atoms_sorted_and_validated(self):
        p = Prior(atoms=((1.0, 0.25), (-1.0, 0.25), (0.0, 0.5)))
        assert [v for v, _ in p.atoms] == [-1.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            Prior(atoms=((0.0, 0.5), (0.0, 0.5)))
        with pytest.raises(ValueError):
            Prior(atoms=((0.0, 0.7), (1.0, 0.2)))
        with pytest.raises(ValueError):
            Prior(atoms=((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            Prior(atoms=())
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="atom value must be finite"):
                Prior(atoms=((0.0, 0.5), (value, 0.5)))

    def test_moments(self):
        p = sparse_bernoulli(0.1)
        assert p.second_moment() == pytest.approx(0.1, abs=1e-15)
        assert p.nonzero_atoms() == ((1.0, 1.0),)


class TestExpectations:
    def test_definition_expansion(self):
        p = sparse_bernoulli(0.1)
        gamma, tau, chi = math.sqrt(0.9), 0.7, 0.6
        direct = prior_expect_e(p, gamma, tau, chi)
        manual = 0.1 * oracle_expect_e(gamma, tau, chi) + 0.9 * oracle_expect_e(0.0, tau, chi)
        assert direct == pytest.approx(manual, abs=1e-9)

    def test_single_zero_atom(self):
        p = Prior(atoms=((0.0, 1.0),))
        assert prior_expect_e(p, 1.0, 0.8, 0.5) == pytest.approx(
            oracle_expect_e(0.0, 0.8, 0.5), abs=1e-9
        )
        assert prior_expect_eta_x0(p, 1.0, 0.8, 0.5) == 0.0

    def test_frozen_values(self):
        p = sparse_bernoulli(0.1)
        assert prior_expect_e(p, math.sqrt(0.9), 0.6, 0.8) == pytest.approx(
            PRIOR_E_SB01, abs=1e-9
        )
        assert prior_expect_eta_x0(p, math.sqrt(0.8), 0.5, 0.7) == pytest.approx(
            PRIOR_ETA_X0_SB01, abs=1e-9
        )

    def test_eta_x0_drops_zero_atom(self):
        p = sparse_bernoulli(0.3)
        gamma, tau, chi = 0.9, 0.4, 0.5
        expected = 0.3 * oracle_expect_eta(0.9, tau, chi)
        assert prior_expect_eta_x0(p, gamma, tau, chi) == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_and_dead_zone_limit(self):
        p = Prior(atoms=((0.0, 1.0),))
        tau = 0.9
        assert prior_expect_e(p, 1.0, tau, 40.0) == pytest.approx(tau * tau / 2.0, abs=1e-12)
        for chi in (0.05, 0.5, 2.0):
            assert prior_expect_e(sparse_bernoulli(0.2), 0.8, 0.5, chi) >= 0.0

    def test_mixture_linearity_vs_oracle(self):
        p = Prior(atoms=((-2.0, 0.2), (0.0, 0.5), (1.5, 0.3)))
        gamma, tau, chi = 0.95, 0.8, 0.7
        per_atom = sum(
            w * oracle_expect_e(gamma * v, tau, chi) for v, w in p.atoms
        )
        assert prior_expect_e(p, gamma, tau, chi) == pytest.approx(per_atom, abs=1e-9)

    def test_moments_mixture_vs_oracle(self):
        p = Prior(atoms=((-2.0, 0.2), (0.0, 0.5), (1.5, 0.3)))
        gamma, tau, chi = 0.95, 0.8, 0.7
        oracles = (oracle_expect_e, oracle_expect_abs_eta, oracle_prob_inside)
        got = _prior_moments(p, gamma, tau, chi)
        for value, oracle in zip(got, oracles):
            per_atom = sum(w * oracle(gamma * v, tau, chi) for v, w in p.atoms)
            assert value == pytest.approx(per_atom, abs=1e-9)
        assert got[0] == pytest.approx(prior_expect_e(p, gamma, tau, chi), abs=1e-15)

    def test_argument_validation(self):
        p = sparse_bernoulli(0.1)
        with pytest.raises(ValueError):
            prior_expect_e(p, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            prior_expect_e(p, 1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            prior_expect_e(p, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            prior_expect_eta_x0(p, 1.0, 1.0, 0.0)


def support_draws(p, count, seed):
    """`count` support values of one instance with n = 2 count and m = 1.

    delta = 1/n gives one measurement row, so the draw costs a 1 x n matrix.
    """
    n = 2 * count
    cfg = ModelConfig(delta=1.0 / n, kappa=0.5, eps2=0.1, sigma_z2=0.2, lam=1.0)
    inst = generate_instance(cfg, p, n, np.random.default_rng(seed))
    assert inst.A.shape == (1, n) and inst.support.size == count
    return inst.x0[inst.support]


class TestSampling:
    def test_single_nonzero_atom(self):
        draws = support_draws(sparse_bernoulli(0.1), 5, 0)
        assert np.array_equal(draws, np.ones(5))

    def test_symmetric_two_point(self):
        p = Prior(atoms=((-1.0, 0.05), (0.0, 0.9), (1.0, 0.05)))
        draws = support_draws(p, 100_000, 7)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        # each renormalized weight is 1/2; 4 standard errors of a fair coin
        frac_plus = np.mean(draws == 1.0)
        se = math.sqrt(0.25 / draws.size)
        assert abs(frac_plus - 0.5) <= 4 * se
        assert abs(draws.mean()) <= 4 * math.sqrt(1.0 / draws.size)

    def test_deterministic_for_fixed_seed(self):
        p = Prior(atoms=((-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)))
        a = support_draws(p, 1000, 123)
        b = support_draws(p, 1000, 123)
        assert np.array_equal(a, b)

    def test_empirical_frequencies_match_renormalized(self):
        p = Prior(atoms=((-1.0, 0.1), (0.0, 0.6), (0.5, 0.3)))
        draws = support_draws(p, 100_000, 11)
        for value, weight in p.nonzero_atoms():
            frac = np.mean(draws == value)
            se = math.sqrt(weight * (1 - weight) / draws.size)
            assert abs(frac - weight) <= 4 * se

    def test_all_mass_at_zero_errors(self):
        with pytest.raises(ValueError, match="no nonzero atoms"):
            support_draws(Prior(atoms=((0.0, 1.0),)), 4, 0)
