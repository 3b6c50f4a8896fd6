"""Tests for the rank-based estimation pipeline."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from copula_rank import (circular, custom_affine, eval_geometry,
                         efficient_info, exchangeable, factor, norm_quantile,
                         one_step, pilot_moment, ple_estimate, rank_transform,
                         sample_copula, sigma_n_sq, toeplitz, unrestricted,
                         adaptivity_demo, lower_triangle_pairs)
from copula_rank.estimators import (normal_scores_matrix, _mean_pseudo_negloglik,
                                    _pseudo_score)
from copula_rank.exceptions import (ConvergenceError, DegenerateMarginError,
                                    DomainError, ShapeError)

THETA_STAR = np.array([0.4945460, -0.4592764, -0.8462492])


def exch_corr(p, theta):
    r = np.full((p, p), theta)
    np.fill_diagonal(r, 1.0)
    return r


class TestRankTransform:
    def test_basic_column(self):
        sample = rank_transform(np.array([[3.2], [-1.0], [7.0]]))
        assert_allclose(sample.ranks[:, 0], [2, 1, 3])
        assert_allclose(sample.pseudo_obs[:, 0], [0.5, 0.25, 0.75])
        assert_allclose(sample.zhat[:, 0],
                        norm_quantile(np.array([0.5, 0.25, 0.75])))
        assert not sample.has_ties

    def test_monotone_invariance_bitwise(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, 3))
        base = rank_transform(data)
        transformed = data.copy()
        transformed[:, 1] = np.exp(transformed[:, 1])
        other = rank_transform(transformed)
        assert np.array_equal(base.ranks, other.ranks)
        assert np.array_equal(base.pseudo_obs, other.pseudo_obs)
        assert np.array_equal(base.zhat, other.zhat)

    def test_ties_average_rank_and_warning(self):
        with pytest.warns(RuntimeWarning, match="tie"):
            sample = rank_transform(np.array([[1.0], [2.0], [2.0], [5.0]]))
        assert_allclose(sample.ranks[:, 0], [1.0, 2.5, 2.5, 4.0])
        assert sample.has_ties
        assert sample.tie_columns == (0,)

    def test_constant_column(self):
        data = np.ones((5, 2))
        data[:, 0] = np.arange(5)
        with pytest.raises(DegenerateMarginError, match="column 1"):
            rank_transform(data)

    def test_too_small_or_bad_input(self):
        with pytest.raises(DomainError):
            rank_transform(np.array([[1.0, 2.0]]))
        with pytest.raises(DomainError):
            rank_transform(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_one_dimensional_promoted(self):
        sample = rank_transform(np.array([5.0, 1.0, 3.0]))
        assert sample.p == 1
        assert_allclose(sample.ranks[:, 0], [3, 1, 2])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, width=32),
                    unique=True, min_size=2, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_rank_invariance_property(self, values):
        col = np.asarray(values, dtype=float).reshape(-1, 1)
        base = rank_transform(col)
        squeezed = rank_transform(np.arctan(col / 1e6))
        assert np.array_equal(base.zhat, squeezed.zhat)


class TestNormalScoresMatrix:
    def test_diagonal_is_sigma_n_sq(self):
        rng = np.random.default_rng(3)
        sample = rank_transform(rng.standard_normal((37, 3)))
        rhat = normal_scores_matrix(sample)
        assert_allclose(np.diag(rhat), np.full(3, sigma_n_sq(37)), rtol=1e-12)

    def test_n2_enumeration(self):
        c2 = norm_quantile(1.0 / 3.0) ** 2
        aligned = rank_transform(np.array([[1.0, 10.0], [2.0, 20.0]]))
        rhat = normal_scores_matrix(aligned)
        assert_allclose(rhat, [[c2, c2], [c2, c2]], rtol=1e-12)
        opposed = rank_transform(np.array([[1.0, 20.0], [2.0, 10.0]]))
        rhat = normal_scores_matrix(opposed)
        assert_allclose(rhat, [[c2, -c2], [-c2, c2]], rtol=1e-12)

    def test_identical_columns(self):
        x = np.arange(10.0)
        rhat = normal_scores_matrix(rank_transform(np.column_stack([x, x])))
        assert rhat[0, 1] == pytest.approx(rhat[0, 0])

    def test_sigma_trend_toward_one(self):
        assert sigma_n_sq(50) < sigma_n_sq(5000) < 1.0
        assert abs(sigma_n_sq(5000) - 1.0) <= 0.005


class TestPleEstimate:
    def test_unrestricted_closed_form(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((80, 3)) @ np.linalg.cholesky(
            exch_corr(3, 0.4)).T
        sample = rank_transform(data)
        rhat = normal_scores_matrix(sample)
        result = ple_estimate(unrestricted(3), sample)
        expected = [rhat[i, j] for i, j in lower_triangle_pairs(3)]
        assert np.array_equal(result.theta_hat, np.array(expected))
        assert result.iterations == 0
        assert result.converged

    def test_exchangeable_vs_bisection_oracle(self):
        model = exchangeable(3)
        u = sample_copula(exch_corr(3, 0.5), 400, seed=14)
        sample = rank_transform(u)
        rhat = normal_scores_matrix(sample)
        result = ple_estimate(model, sample)

        def score(t):
            return _pseudo_score(model, np.array([t]), rhat)[0]

        oracle = brentq(score, -0.45, 0.95, xtol=1e-13)
        assert_allclose(result.theta_hat[0], oracle, atol=1e-9)
        assert result.converged
        assert result.method == "ple"

    def test_independence_sanity(self):
        u = sample_copula(np.eye(3), 10_000, seed=77)
        result = ple_estimate(exchangeable(3), rank_transform(u))
        se = np.sqrt(1.0 / (3.0 * 10_000))
        assert abs(result.theta_hat[0]) <= 3 * se

    @pytest.mark.parametrize("model,theta", [
        (exchangeable(3), np.array([0.5])),
        (toeplitz(3), np.array([0.5, 0.3])),
        (circular(), np.array([0.4])),
    ], ids=["exch3", "toep3", "circ"])
    def test_first_order_condition(self, model, theta):
        u = sample_copula(model.r_of_theta(theta), 300, seed=6)
        sample = rank_transform(u)
        result = ple_estimate(model, sample)
        rhat = normal_scores_matrix(sample)
        psi = _pseudo_score(model, result.theta_hat, rhat)
        assert np.max(np.abs(psi)) <= 1e-8 * model.k
        assert result.converged
        assert result.std_errors is not None

    @pytest.mark.parametrize("model,theta", [
        (exchangeable(3), np.array([0.5])),
        (toeplitz(4), THETA_STAR),
        (circular(), np.array([0.4])),
        (adaptivity_demo(), np.array([0.1])),
        (factor(5, 1), np.linspace(0.3, 0.7, 5)),
    ], ids=["exch3", "toep4", "circ", "adapt", "factor51"])
    def test_local_minimiser(self, model, theta):
        # Moves along single coordinates and along pairs e_i +- e_j: at the
        # factor saddle L = 0 a single loading leaves R unchanged, a pair
        # does not.
        u = sample_copula(model.r_of_theta(theta), 300, seed=6)
        sample = rank_transform(u)
        rhat = normal_scores_matrix(sample)
        theta_hat = ple_estimate(model, sample).theta_hat
        f0 = _mean_pseudo_negloglik(model, theta_hat, rhat)
        eye = np.eye(model.k)
        moves = list(eye) + [eye[i] + sign * eye[j] for sign in (1.0, -1.0)
                             for i, j in itertools.combinations(range(model.k), 2)]
        for move in moves:
            for h in (1e-3, -1e-3):
                f = _mean_pseudo_negloglik(model, theta_hat + h * move, rhat)
                assert f >= f0 - 1e-12, (move, h, f - f0)

    def test_iteration_cap_raises_with_trace(self):
        model = toeplitz(4)
        u = sample_copula(model.r_of_theta(THETA_STAR), 250, seed=6)
        with pytest.raises(ConvergenceError) as info:
            ple_estimate(model, rank_transform(u), max_iter=1)
        trace = info.value.trace
        assert trace
        assert trace[-1][1] > 1e-8 * model.k

    def test_out_of_domain_init(self):
        u = sample_copula(exch_corr(3, 0.2), 50, seed=1)
        with pytest.raises(DomainError):
            ple_estimate(exchangeable(3), rank_transform(u),
                         init=np.array([2.0]))

    def test_to_dict_fields(self):
        u = sample_copula(exch_corr(3, 0.2), 50, seed=1)
        d = ple_estimate(exchangeable(3), rank_transform(u)).to_dict()
        assert set(d) == {"theta_hat", "std_errors", "method", "converged",
                          "tie_warning"}


class TestPilotMoment:
    def test_exchangeable_average(self):
        u = sample_copula(exch_corr(3, 0.5), 120, seed=4)
        sample = rank_transform(u)
        rhat = normal_scores_matrix(sample)
        result = pilot_moment(exchangeable(3), sample)
        expected = np.mean([rhat[0, 1], rhat[0, 2], rhat[1, 2]])
        assert_allclose(result.theta_hat[0], expected, rtol=1e-12)
        assert result.method == "pilot_moment"
        assert result.std_errors is None

    def test_toeplitz_lag_means(self):
        model = toeplitz(3)
        u = sample_copula(model.r_of_theta(np.array([0.5, 0.3])), 150, seed=5)
        sample = rank_transform(u)
        rhat = normal_scores_matrix(sample)
        result = pilot_moment(model, sample)
        assert_allclose(result.theta_hat,
                        [np.mean([rhat[0, 1], rhat[1, 2]]), rhat[0, 2]],
                        rtol=1e-12)

    def test_circular_first_neighbor_mean(self):
        model = circular()
        u = sample_copula(model.r_of_theta(np.array([0.4])), 150, seed=15)
        sample = rank_transform(u)
        rhat = normal_scores_matrix(sample)
        result = pilot_moment(model, sample)
        expected = np.mean([rhat[0, 1], rhat[1, 2], rhat[2, 3], rhat[0, 3]])
        assert_allclose(result.theta_hat[0], expected, rtol=1e-12)

    def test_unrestricted_collapse(self):
        u = sample_copula(exch_corr(3, 0.3), 90, seed=8)
        sample = rank_transform(u)
        pilot = pilot_moment(unrestricted(3), sample)
        ple = ple_estimate(unrestricted(3), sample)
        assert_allclose(pilot.theta_hat, ple.theta_hat, rtol=1e-12)

    def test_non_affine_fallback(self):
        model = adaptivity_demo()
        u = sample_copula(model.r_of_theta(np.array([0.1])), 200, seed=51)
        result = pilot_moment(model, rank_transform(u))
        assert result.method == "ple"
        assert model.domain_check(result.theta_hat)


class TestOneStep:
    def test_bit_exact_zero_update(self):
        # generator is a contrast between the (1,2) and (3,4) correlations;
        # duplicating the two data columns makes Rhat_12 == Rhat_34, so the
        # empirical efficient score is exactly 0.0 at pilot 0.
        gen = np.zeros((4, 4))
        gen[0, 1] = gen[1, 0] = 1.0
        gen[2, 3] = gen[3, 2] = -1.0
        model = custom_affine(4, [gen])
        rng = np.random.default_rng(12)
        xy = rng.standard_normal((50, 2))
        sample = rank_transform(np.hstack([xy, xy]))
        result = one_step(model, sample, pilot=np.zeros(1))
        assert result.theta_hat[0] == 0.0
        assert not result.clamped

    def test_rank_invariance_bitwise(self):
        model = exchangeable(3)
        u = sample_copula(exch_corr(3, 0.5), 150, seed=16)
        transformed = u.copy()
        transformed[:, 0] = np.expm1(transformed[:, 0])
        transformed[:, 2] = np.tan(np.pi * (transformed[:, 2] - 0.5))
        for estimator in (one_step, ple_estimate, pilot_moment):
            a = estimator(model, rank_transform(u))
            b = estimator(model, rank_transform(transformed))
            assert np.array_equal(a.theta_hat, b.theta_hat), estimator

    def test_self_consistency_at_truth(self):
        model = exchangeable(3)
        theta = np.array([0.5])
        r = exch_corr(3, 0.5)
        n, reps = 1000, 500
        _, inv = efficient_info(eval_geometry(model, theta))
        budget = 3.0 * np.sqrt(np.trace(inv) / n)
        updates = np.empty(reps)
        for rep in range(reps):
            u = sample_copula(r, n, seed=1234, rep=rep)
            res = one_step(model, rank_transform(u), pilot=theta)
            updates[rep] = np.linalg.norm(res.theta_hat - theta)
        assert updates.mean() <= budget

    def test_pilot_out_of_domain(self):
        u = sample_copula(exch_corr(3, 0.2), 60, seed=3)
        with pytest.raises(DomainError):
            one_step(exchangeable(3), rank_transform(u),
                     pilot=np.array([-0.9]))

    def test_clamped_update_flag(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 1))
        sample = rank_transform(np.hstack([x, x]))
        model = exchangeable(2)
        for iterate_twice in (False, True):
            result = one_step(model, sample, pilot=np.array([1.0 - 1e-6]),
                              iterate_twice=iterate_twice)
            assert result.clamped
            assert result.iterations == 1
            assert model.domain_check(result.theta_hat)

    def test_default_pilot_and_std_errors(self):
        model = exchangeable(3)
        u = sample_copula(exch_corr(3, 0.5), 400, seed=19)
        sample = rank_transform(u)
        result = one_step(model, sample)
        assert_allclose(result.theta_hat, one_step(
            model, sample, pilot=pilot_moment(model, sample).theta_hat).theta_hat)
        _, inv = efficient_info(eval_geometry(model, result.theta_hat))
        assert_allclose(result.std_errors, np.sqrt(np.diag(inv) / 400),
                        rtol=1e-10)

    def test_iterate_twice(self):
        model = exchangeable(3)
        u = sample_copula(exch_corr(3, 0.5), 300, seed=23)
        sample = rank_transform(u)
        once = one_step(model, sample)
        twice = one_step(model, sample, iterate_twice=True)
        assert twice.iterations == 2
        # second update is second-order small
        assert abs(twice.theta_hat[0] - once.theta_hat[0]) <= 5e-3

    def test_tie_warning_propagates(self):
        data = np.array([[1.0, 4.0], [2.0, 4.0], [2.0, 1.0], [5.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sample = rank_transform(data)
        result = one_step(exchangeable(2), sample)
        assert result.tie_warning
        assert result.to_dict()["tie_warning"] is True
