"""Tests for the rank-based estimation pipeline."""

import dataclasses
import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.stats import rankdata

from copula_rank import (CorrelationModel, EstimateResult, circular, custom_affine,
                         efficiency_bundle, eval_geometry, efficient_info,
                         efficient_score_matrices, exchangeable, factor, norm_quantile,
                         one_step, pilot_moment, ple_estimate, rank_transform,
                         run_experiment, sample_copula, sigma_n_sq, toeplitz, unrestricted,
                         adaptivity_demo, lower_triangle_pairs)
from copula_rank import estimators, models
from copula_rank.estimators import RankedSample, normal_scores_matrix
from copula_rank.exceptions import (ConvergenceError, DegenerateMarginError,
                                    DomainError, ShapeError, SingularityError)

THETA_STAR = np.array([0.4945460, -0.4592764, -0.8462492])


def exch_corr(p, theta):
    r = np.full((p, p), theta)
    np.fill_diagonal(r, 1.0)
    return r


def mirrored_pairs_sample():
    """Columns x, x, -x, -x: the lag means of their Rhat, toeplitz(4)'s moment
    fit, give a Toeplitz R that is not positive definite."""
    x = np.random.default_rng(0).standard_normal(50)
    return rank_transform(np.column_stack([x, x, -x, -x]))


def assert_shrunk_into_domain(model, theta, anchor, target):
    """theta is in the domain and lies on the segment from anchor toward the
    out-of-domain target, strictly short of it."""
    assert model.domain_check(theta) and not model.domain_check(target)
    step = target - anchor
    scale = float((theta - anchor) @ step / (step @ step))
    assert 0.0 < scale < 1.0
    assert_allclose(theta, anchor + scale * step, rtol=0, atol=1e-14)


def group_sums(spectrum, zhat):
    """The eigen-group sums D_g = ||zhat Q_g||_F^2 / n of one sample, a last
    group without columns as sum zhat^2 / n minus the others, in the
    operations that the estimators use for one sample."""
    y = spectrum.columns.T @ zhat.T
    sums = spectrum.group_totals(np.add.reduce(y * y, 1))
    if len(sums) < len(spectrum.sizes):
        flat = zhat.ravel()
        sums = np.r_[sums, flat @ flat - np.add.reduce(sums)]
    return sums / len(zhat)


def spectral_moment_fit(model, sample):
    """The moment fit sum w D on a Spectrum's eigen-groups, with the weights
    w = dlam(0) / sum m dlam(0)^2 and the group sums D = `group_sums`, in the
    operations that the estimators use for one sample."""
    spectrum = model.spectrum
    dlam = spectrum.group_fn(np.zeros(1))[1][0]
    weights = dlam / np.add.reduce(spectrum.sizes * dlam * dlam)
    assert np.array_equal(weights, spectrum.moment_weights)
    return np.add.reduce(group_sums(spectrum, sample.zhat) * weights)


def _pseudo_score(model, theta, rhat):
    """Reference pseudo-score tr(dS_m (R - Rhat)) = -tr(dR_m S (R - Rhat) S),
    with S = inv(R), independent of the package's objective."""
    r = model.r_of_theta(theta)
    s = np.linalg.inv(r)
    w = s @ (r - rhat) @ s
    return -np.array([np.sum(dr * w) for dr in model.r_dots(theta)])


def _mean_pseudo_negloglik(model, theta, rhat):
    """Reference mean negative pseudo-log-likelihood up to a constant,
    (log det R + tr((S - I) Rhat)) / 2; inf where R(theta) is not positive
    definite."""
    r = model.r_of_theta(theta)
    if not np.linalg.eigvalsh(r)[0] > 0.0:
        return np.inf
    logdet = np.linalg.slogdet(r)[1]
    return 0.5 * (logdet + np.sum((np.linalg.inv(r) - np.eye(len(r))) * rhat))


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

    def test_matches_rankdata_reference(self):
        # The package ranks without scipy.stats; rankdata is the reference.
        rng = np.random.default_rng(7)
        inputs = []
        for _ in range(25):
            n, p = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            inputs += [
                rng.standard_normal((n, p)),
                rng.integers(0, 3, size=(n, p)).astype(float),
                rng.integers(-1000, 1000, size=(n, p)).astype(float),
                rng.choice([0.0, -0.0, 1.0, -1.5], size=(n, p)),
                np.round(rng.standard_normal((n, p)), 1),
            ]
        for data in inputs:
            tied = tuple(j for j in range(data.shape[1])
                         if np.unique(data[:, j]).size < data.shape[0])
            if any(np.unique(col).size == 1 for col in data.T):
                with pytest.raises(DegenerateMarginError):
                    rank_transform(data)
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sample = rank_transform(data)
            ref = np.column_stack([rankdata(col, method="average") for col in data.T])
            assert np.array_equal(sample.ranks, ref)
            assert sample.tie_columns == tied
            assert [w.category for w in caught] == ([RuntimeWarning] if tied else [])

    def test_first_constant_column_named(self):
        data = np.random.default_rng(3).standard_normal((6, 4))
        data[:, 1] = 2.0
        data[:, 3] = -0.0
        data[::2, 3] = 0.0
        with pytest.raises(DegenerateMarginError, match=r"^column 1 is constant$"):
            rank_transform(data)

    def test_too_small_or_bad_input(self):
        with pytest.raises(DomainError):
            rank_transform(np.array([[1.0, 2.0]]))
        with pytest.raises(DomainError):
            rank_transform(np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(ShapeError, match=r"^data must be 2-d, got shape \(2, 2, 2\)$"):
            rank_transform(np.zeros((2, 2, 2)))

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


    @pytest.mark.parametrize("n", [7, 60, 500])
    def test_row_order_never_reaches_the_output(self, n):
        # Permuting the rows changes the order in which the sort meets equal
        # values (-0.0 beside 0.0 included); average ranks make every output
        # the base sample's rows, permuted, to the bit.
        rng = np.random.default_rng(n)
        data = rng.integers(-3, 4, size=(n, 6)).astype(float)
        data[data == 0.0] *= rng.choice([-1.0, 1.0], size=int(np.sum(data == 0.0)))
        data[:, 4] = np.round(rng.standard_normal(n), 1)
        data[:, 5] = rng.standard_normal(n)
        assert np.signbit(data[data == 0.0]).any() and (data == 0.0).sum() > 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            base = rank_transform(data)
            perms = [np.arange(n)[::-1], np.roll(np.arange(n), n // 2)]
            perms += [rng.permutation(n) for _ in range(3)]
            for perm in perms:
                permuted = rank_transform(data[perm])
                for field in ("ranks", "pseudo_obs", "zhat"):
                    assert np.array_equal(getattr(permuted, field).view(np.int64),
                                          getattr(base, field)[perm].view(np.int64)), field
                assert permuted.tie_columns == base.tie_columns == (0, 1, 2, 3, 4)


class TestRankedSample:
    """A sample is its normal scores zhat; n, p, ranks, pseudo_obs and the
    tied columns are read from zhat."""

    @pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "tied"])
    def test_ranks_read_back_from_zhat(self, tied):
        rng = np.random.default_rng(4)
        zhat = (np.round(rng.standard_normal((30, 4)), 1) if tied
                else rng.standard_normal((30, 4)))
        tie_columns = tuple(j for j, col in enumerate(zhat.T) if np.unique(col).size < 30)
        assert bool(tie_columns) == tied
        sample = RankedSample(zhat)
        assert (sample.n, sample.p) == (30, 4)
        assert sample.tie_columns == tie_columns and sample.has_ties == tied
        ref = np.column_stack([rankdata(col, method="average") for col in zhat.T])
        assert np.array_equal(sample.ranks, ref)
        assert np.array_equal(sample.pseudo_obs, ref / 31.0)

    def test_block_samples_hold_only_zhat_until_read(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((3, 40, 3))
        data[1, :, 2] = np.round(data[1, :, 2], 1)  # a tied column in row 1
        block = estimators._rank_block(data)
        assert [set(vars(sample)) for sample in block] == [{"zhat", "n", "p"}] * 3
        assert [sample.tie_columns for sample in block] == [(), (2,), ()]
        for sample, x in zip(block, data):
            ref = np.column_stack([rankdata(col, method="average") for col in x.T])
            assert np.array_equal(sample.ranks, ref)
            assert np.array_equal(sample.pseudo_obs, ref / 41.0)

    def test_tied_columns_read_from_zhat(self):
        # Four equal zeros in every column of zhat: each column is tied, and
        # every estimate from the sample carries the tie warning.
        sample = quarter_identity_sample(3)
        assert sample.tie_columns == (0, 1, 2) and sample.has_ties
        model = exchangeable(3)
        for result in (pilot_moment(model, sample), one_step(model, sample)):
            assert result.tie_warning
            assert result.to_dict()["tie_warning"] is True

    def test_zhat_read_as_a_2d_float_array(self):
        sample = RankedSample([[0, 1], [1, 0], [-1, 0]])
        assert sample.zhat.dtype == float and (sample.n, sample.p) == (3, 2)
        assert sample.tie_columns == (1,)
        zhat = np.random.default_rng(1).standard_normal((5, 2))
        assert RankedSample(zhat).zhat is zhat  # no copy
        for bad in (np.zeros(5), np.zeros((2, 3, 4)), 1.0):
            with pytest.raises(ShapeError, match="^zhat must be 2-d, got shape "):
                RankedSample(bad)


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


class TestComputedOnce:
    def test_grid_scores_equal_quantiles_of_ranks(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 57):
            data = rng.integers(0, 4, size=(n, 4)).astype(float)
            data[:, 0] = rng.standard_normal(n)  # tie-free
            data[:, 1] = np.arange(n, 0, -1.0)  # tie-free, reversed
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sample = rank_transform(data)
            assert np.array_equal(sample.zhat, norm_quantile(sample.ranks / (n + 1.0)))
        assert sample.has_ties
        assert not estimators._score_grid(57).flags.writeable

    def test_rhat_formed_once_per_sample(self, monkeypatch):
        # A matrix family's estimators share one Rhat; a spectral family's
        # read d from zhat and form none.
        calls = []
        form = estimators.normal_scores_matrix

        def counted(sample):
            calls.append(sample)
            return form(sample)

        monkeypatch.setattr(estimators, "normal_scores_matrix", counted)
        for model, theta, formed in [(toeplitz(4), THETA_STAR, 1),
                                     (exchangeable(3), [0.5], 0)]:
            calls.clear()
            sample = rank_transform(sample_copula(model.r_of_theta(theta), 80, seed=2))
            one_step(model, sample, pilot=ple_estimate(model, sample).theta_hat)
            pilot_moment(model, sample)
            assert calls == [sample] * formed
            assert not sample.rhat.flags.writeable
            assert np.array_equal(sample.rhat, form(sample))

    def test_moment_map_built_once_per_model(self, monkeypatch):
        calls = []
        pinv = models.pinv

        def counted(*args, **kwargs):
            calls.append(args)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(models, "pinv", counted)
        model = toeplitz(4)
        for seed in range(3):
            sample = rank_transform(sample_copula(model.r_of_theta(THETA_STAR), 100,
                                                  seed=seed))
            ple_estimate(model, sample)
            pilot_moment(model, sample)
        assert len(calls) == 1


class TestPleEstimate:
    def test_unrestricted_stationary(self):
        # Rhat's diagonal is sigma_n^2 < 1, so its off-diagonal entries are
        # the descent's start, not the pseudo-likelihood minimiser.
        rng = np.random.default_rng(10)
        data = rng.standard_normal((80, 3)) @ np.linalg.cholesky(
            exch_corr(3, 0.4)).T
        sample = rank_transform(data)
        rhat = normal_scores_matrix(sample)
        model = unrestricted(3)
        result = ple_estimate(model, sample)
        assert result.converged
        assert result.iterations > 0
        assert np.max(np.abs(_pseudo_score(model, result.theta_hat, rhat))) <= 1e-8 * model.k

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
        (unrestricted(3), np.array([0.3, -0.1, 0.25])),
    ], ids=["exch3", "toep3", "circ", "unr3"])
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
        (unrestricted(3), np.array([0.3, -0.1, 0.25])),
    ], ids=["exch3", "toep4", "circ", "adapt", "factor51", "unr3"])
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

    def test_iteration_cap_raises_with_trace(self, monkeypatch):
        model = toeplitz(4)
        u = sample_copula(model.r_of_theta(THETA_STAR), 250, seed=6)
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            ple_estimate(model, rank_transform(u))
        trace = info.value.trace
        assert len(trace) == 2
        assert trace[-1][1] > 1e-8 * model.k

    def test_line_search_gives_up(self, monkeypatch):
        # Every candidate of a step of 1e12, halved 30 times, leaves the
        # positive-definite region, so the descent stops unconverged.
        monkeypatch.setattr(estimators, "_newton_step",
                            lambda psi, jac: (np.full_like(psi, 1e12), np.ones_like(psi)))
        model = toeplitz(4)
        u = sample_copula(model.r_of_theta(THETA_STAR), 250, seed=6)
        with pytest.raises(ConvergenceError) as info:
            ple_estimate(model, rank_transform(u))
        # The sup-norm is the iterate's, recorded before the descent was
        # written over one evaluation per candidate.
        assert str(info.value) == (
            "pseudo-likelihood Newton descent did not converge for toeplitz "
            "(final sup-norm 2.081e+01, tolerance 3.000e-08)")
        assert len(info.value.trace) == 1

    def test_spectral_line_search_gives_up(self, monkeypatch):
        # Every candidate of a step of 1e12, halved 30 times, has an
        # eigenvalue below 0.
        descent = estimators._descent

        def huge_steps(*args):
            evaluate = descent(*args)

            def huge(rows, theta, scoring):
                f, norm, slope, dx, eigs = evaluate(rows, theta, scoring)
                return f, norm, slope, np.full_like(dx, 1e12), eigs
            return huge

        monkeypatch.setattr(estimators, "_descent", huge_steps)
        model = circular()
        u = sample_copula(model.r_of_theta(np.array([0.5])), 250, seed=6)
        with pytest.raises(ConvergenceError) as info:
            ple_estimate(model, rank_transform(u))
        assert str(info.value) == (
            "pseudo-likelihood Newton descent did not converge for circular "
            "(final sup-norm 4.510e-01, tolerance 1.000e-08)")
        assert len(info.value.trace) == 1

    @pytest.mark.parametrize("model,theta,seed,theta_hat,iterations,norms", [
        (toeplitz(4), THETA_STAR, 12,
         ["0x1.0e721dbf5f6f6p-1", "-0x1.7da8d8efea26dp-2", "-0x1.e9ff5d43b99e0p-1"], 8,
         ("9.978e+00", "1.768e+01")),
        (circular(), [0.5], 0, ["0x1.494ec8bbf821cp-1"], 7, ("2.173e+00", "1.232e+00")),
    ], ids=["toep4", "circ"])
    def test_backtracking_solves(self, monkeypatch, model, theta, seed, theta_hat,
                                 iterations, norms):
        # At n = 12 these descents reject full steps and halve them
        # (toeplitz(4): 22 evaluations in 8 steps, circular: 9 in 7).
        # Recorded before the descent was written over one evaluation per
        # candidate.
        sample = rank_transform(sample_copula(model.r_of_theta(np.array(theta)), 12,
                                              seed=seed))
        result = ple_estimate(model, sample)
        assert [v.hex() for v in result.theta_hat] == theta_hat
        assert result.iterations == iterations
        for max_iter, norm in zip((1, 3), norms):
            monkeypatch.setattr(estimators, "_MAX_ITER", max_iter)
            with pytest.raises(ConvergenceError) as info:
                ple_estimate(model, sample)
            assert str(info.value) == (
                f"pseudo-likelihood Newton descent did not converge for {model.name} "
                f"(final sup-norm {norm}, tolerance {1e-8 * model.k:.3e})")
            assert len(info.value.trace) == max_iter + 1

    def test_objective_infinite_where_r_overflows(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert estimators._objective_and_inverse(
                factor(3, 1), np.full(3, 1e200), np.eye(3), 3.0) == (np.inf, None)

    @pytest.mark.parametrize("entry", [(1, 0), (2, 1), (0, 0), (2, 2)], ids=str)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    def test_objective_infinite_where_r_is_not_finite(self, entry, value):
        # R(theta) is not scanned before its factorization: a NaN or inf in
        # its lower triangle (set symmetrically, as corr_fn builds R) fails
        # the factorization or reaches the log-determinant.
        def corr_fn(t):
            r = exch_corr(3, 0.2)
            r[entry] = r[entry[::-1]] = value
            return r

        model = dataclasses.replace(toeplitz(3), corr_fn=corr_fn)
        assert estimators._objective_and_inverse(
            model, np.zeros(2), np.eye(3), 3.0) == (np.inf, None)

    def test_saddle_point_rejected(self):
        # At L = 0 every dR_m vanishes, so the pseudo-score is exactly zero,
        # but the objective curves downward along pairs of loadings.  factor
        # has no moment map, so the descent starts at default_init.
        model = factor(5, 1)
        u = sample_copula(model.r_of_theta(np.linspace(0.3, 0.7, 5)), 300, seed=6)
        sample = rank_transform(u)
        with pytest.raises(ConvergenceError, match="saddle point") as info:
            ple_estimate(dataclasses.replace(model, default_init=np.zeros(5)), sample)
        assert len(info.value.trace) == 1
        assert info.value.trace[-1][1] <= 1e-8 * model.k
        assert ple_estimate(model, sample).converged

    def test_one_factorization_per_objective_evaluation(self, monkeypatch,
                                                        factorizations):
        # Every evaluation makes exactly one factorization attempt, which
        # alone decides positive definiteness; the descent steps make none.
        objective, descent_step = estimators._objective_and_inverse, estimators._descent_step
        per_evaluation, in_steps = [], []

        def counted_objective(*args, **kwargs):
            before = len(factorizations)
            out = objective(*args, **kwargs)
            per_evaluation.append(len(factorizations) - before)
            return out

        def counted_step(*args):
            before = len(factorizations)
            out = descent_step(*args)
            in_steps.append(len(factorizations) - before)
            return out

        monkeypatch.setattr(estimators, "_objective_and_inverse", counted_objective)
        monkeypatch.setattr(estimators, "_descent_step", counted_step)
        model = toeplitz(4)
        u = sample_copula(model.r_of_theta(THETA_STAR), 250, seed=6)
        result = ple_estimate(model, rank_transform(u))
        assert result.converged and result.iterations > 0
        assert len(in_steps) == result.iterations + 1
        assert in_steps == [0] * len(in_steps)
        assert len(per_evaluation) > result.iterations
        assert per_evaluation == [1] * len(per_evaluation)

    def test_domain_checked_at_the_start_and_the_estimate(self, monkeypatch, eigensolves):
        # The domain is tested a block at a time, before the descent (the
        # pilot) and once on the converged point, never inside the line
        # search and never by a per-row domain_check.  toeplitz(4) has no
        # box, so each test is an eigen-solve of R (4 x 4).  The others are
        # of the 3 x 3 Hessian, one per evaluation: the start's (its Fisher
        # information) and each accepted candidate's, the last of which the
        # saddle test reads.  No candidate is rejected on this sample.
        calls = []
        check_block = CorrelationModel.domain_check_block

        def counted(self, thetas):
            calls.append(np.array(thetas, dtype=float))
            return check_block(self, thetas)

        def per_row(self, theta):
            raise AssertionError("a per-row domain_check")

        monkeypatch.setattr(CorrelationModel, "domain_check_block", counted)
        monkeypatch.setattr(CorrelationModel, "domain_check", per_row)
        model = toeplitz(4)
        sample = rank_transform(sample_copula(model.r_of_theta(THETA_STAR), 250, seed=6))
        eigensolves.clear()
        result = ple_estimate(model, sample)
        assert result.iterations > 0
        assert [len(thetas) for thetas in calls] == [1, 1]
        assert np.array_equal(calls[-1][0], result.theta_hat)
        assert result.iterations == 4
        assert sorted(eigensolves) == [(3, 3)] * 5 + [(4, 4)] * 2

    def test_converged_outside_domain_raises(self, monkeypatch):
        # exchangeable(3) declares a Spectrum, so this is the spectral descent.
        # Its box is tested a block at a time, so both tests reject.
        u = sample_copula(exch_corr(3, 0.2), 80, seed=1)
        sample = rank_transform(u)
        assert ple_estimate(exchangeable(3), sample).converged
        monkeypatch.setattr(CorrelationModel, "domain_check", lambda self, theta: False)
        monkeypatch.setattr(CorrelationModel, "domain_check_block",
                            lambda self, thetas: np.zeros(len(thetas), dtype=bool))
        with pytest.raises(ConvergenceError, match="outside the domain") as info:
            ple_estimate(exchangeable(3), sample)
        assert info.value.trace[-1][1] <= 1e-8

    def test_max_iter_zero_takes_no_step(self, monkeypatch):
        # The trace holds the start alone: the moment fit from the group
        # sums, which is moment_map vec(Rhat) up to roundoff.
        model = exchangeable(3)
        sample = rank_transform(sample_copula(exch_corr(3, 0.5), 250, seed=2))
        monkeypatch.setattr(estimators, "_MAX_ITER", 0)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            ple_estimate(model, sample)
        assert len(info.value.trace) == 1
        start = info.value.trace[0][0]
        assert np.array_equal(start, [spectral_moment_fit(model, sample)])
        assert_allclose(start, model.moment_map @ sample.rhat.ravel(), rtol=2e-15, atol=0)

    def test_to_dict_fields(self):
        u = sample_copula(exch_corr(3, 0.2), 50, seed=1)
        d = ple_estimate(exchangeable(3), rank_transform(u)).to_dict()
        assert set(d) == {"theta_hat", "std_errors", "method", "converged",
                          "tie_warning"}


# Every model shape that declares a Spectrum, with (theta, n) for its samples.
SPECTRAL = [
    (exchangeable(3), [0.5], 250),
    (exchangeable(100), [0.25], 50),
    (circular(), [0.5], 250),
    (toeplitz(2), [0.3], 250),
    (unrestricted(2), [-0.4], 250),
    (custom_affine(3, [[[0, 1, 0.5], [1, 0, 0], [0.5, 0, 0]]]), [0.3], 250),
]


def eigen_columns(model, theta):
    """(Q, lam, dlam) of a spectral model at theta, formed test-side: an
    eigenbasis Q of R(theta) from numpy's eigh and the eigenvalues of R and
    dR/dtheta along its columns, diag(Q' R Q) and diag(Q' dR Q)."""
    lam, q = np.linalg.eigh(model.r_of_theta([theta]))
    return q, lam, np.diag(q.T @ model.r_dots([theta])[0] @ q)


def matrix_descent(model):
    """The same model without its Spectrum, so the PLE runs on matrices."""
    return dataclasses.replace(model, spectrum=None)


class TestSpectralDescent:
    @pytest.mark.parametrize("model,theta,n", SPECTRAL,
                             ids=lambda v: f"{v.name}{v.p}" if hasattr(v, "p") else None)
    def test_matches_matrix_descent(self, model, theta, n, factorizations):
        assert model.spectrum is not None
        generic = matrix_descent(model)
        for seed in range(4):
            sample = rank_transform(sample_copula(model.r_of_theta(theta), n, seed=seed))
            before = len(factorizations)
            spectral = ple_estimate(model, sample)
            assert len(factorizations) == before  # no factorization at all
            matrix = ple_estimate(generic, sample)
            assert len(factorizations) > before
            assert_allclose(spectral.theta_hat, matrix.theta_hat, rtol=0, atol=1e-10)
            assert spectral.iterations == matrix.iterations
            assert spectral.converged and matrix.converged

    @pytest.mark.parametrize("spectral", [True, False], ids=["spectral", "matrix"])
    def test_saddle_point_rejected(self, spectral):
        # A start where the descent takes exact Newton steps only: the moment
        # pilot lies outside the domain, so the descent starts at
        # default_init, here theta = 0.7.  With the generator's eigenvalues
        # g = (-1, -0.366, 1.366) and eigenbasis Q, Rhat = Q diag(d) Q' with
        # d_2 solved so that the pseudo-score sum g (d - lam) / lam^2 vanishes
        # at 0.7, where the objective curves downward.
        model = dataclasses.replace(
            custom_affine(3, [[[0, 1, 0.5], [1, 0, 0.5], [0.5, 0.5, 0]]]),
            default_init=np.array([0.7]))
        q, lam, g = eigen_columns(model, 0.7)
        d = np.array([0.01, 0.0, 5.0])
        d[1] = lam[1] - lam[1] ** 2 / g[1] * sum(g[i] * (d[i] - lam[i]) / lam[i] ** 2
                                                 for i in (0, 2))
        rows = np.sqrt(3.0 * d)[:, None] * q.T
        zhat = np.vstack([rows, -rows])
        sample = RankedSample(zhat)
        assert not model.domain_check(model.moment_map @ sample.rhat.ravel())
        with pytest.raises(ConvergenceError, match="saddle point") as info:
            ple_estimate(model if spectral else matrix_descent(model), sample)
        assert len(info.value.trace) == 1
        assert info.value.trace[0][0].tolist() == [0.7]
        assert info.value.trace[-1][1] <= 1e-8


class TestScoringStart:
    """One Fisher-scoring step from the moment pilot, then exact Newton."""

    def spy_scoring(self, monkeypatch):
        """Records the `scoring` flag of every evaluation, whose step is the
        next descent step where the candidate is accepted."""
        flags = []
        descent = estimators._descent

        def spied(*args):
            evaluate = descent(*args)

            def recorded(rows, theta, scoring):
                flags.extend(scoring)
                return evaluate(rows, theta, scoring)
            return recorded

        monkeypatch.setattr(estimators, "_descent", spied)
        return flags

    @pytest.mark.parametrize("model,theta", [
        (toeplitz(4), THETA_STAR), (exchangeable(3), [0.5]), (circular(), [0.5]),
    ], ids=["toep4", "exch3", "circ"])
    def test_first_step_only_from_the_pilot(self, monkeypatch, model, theta):
        flags = self.spy_scoring(monkeypatch)
        sample = rank_transform(sample_copula(model.r_of_theta(theta), 250, seed=6))
        result = ple_estimate(model, sample)
        assert result.converged
        assert flags == [True] + [False] * result.iterations

    def test_default_start_keeps_exact_newton(self, monkeypatch):
        # theta_hat and iterations of the exact Newton descent, recorded
        # before the scoring step was added: a family with no moment map
        # starts at default_init exactly as before, and so does a sample
        # whose moment pilot lies outside the domain.
        flags = self.spy_scoring(monkeypatch)
        model = factor(5, 1)
        assert model.moment_map is None
        sample = rank_transform(sample_copula(model.r_of_theta(np.linspace(0.3, 0.7, 5)),
                                              300, seed=6))
        result = ple_estimate(model, sample)
        assert [v.hex() for v in result.theta_hat] == [
            "-0x1.610b5a7f4c972p-2", "-0x1.453ea155b6492p-2", "-0x1.0eb97976b159fp-1",
            "-0x1.583774ecb6318p-1", "-0x1.5de31c16838afp-1"]
        assert result.iterations == 7
        assert flags and not any(flags)
        flags.clear()
        model, sample = toeplitz(4), mirrored_pairs_sample()
        assert not model.domain_check(model.moment_map @ sample.rhat.ravel())
        with pytest.raises(ConvergenceError) as info:
            ple_estimate(model, sample)
        assert np.array_equal(info.value.trace[0][0], model.default_init)
        assert flags and not any(flags)

    def test_mixed_scoring_rows_in_one_spectral_block(self, monkeypatch):
        # The comonotone sample's moment pilot, 1.155, lies outside
        # |theta| < 0.894, so its row starts at default_init with exact
        # Newton between two rows that start with a scoring step.
        model, theta, n = SPECTRAL[-1]
        assert model.name == "custom_affine" and model.spectrum is not None
        good = [rank_transform(sample_copula(model.r_of_theta(theta), n, seed=seed))
                for seed in (0, 1)]
        comonotone = rank_transform(sample_copula(np.ones((3, 3)), 250, seed=2))
        assert not model.domain_check(model.moment_map @ comonotone.rhat.ravel())
        samples = [good[0], comonotone, good[1]]
        expected = [outcome(lambda: ple_estimate(model, sample)) for sample in samples]
        flags = self.spy_scoring(monkeypatch)
        block = ple_rows(model, samples)
        assert flags[:3] == [True, False, True]
        assert [outcome(lambda: _raise_or_return(row)) for row in block] == expected

    def test_fewer_steps_and_evaluations(self, monkeypatch):
        # Exact Newton from the pilot averaged 6.1 steps and 9.6 objective
        # evaluations per solve on these samples.
        objective = estimators._objective_and_inverse
        evaluations = []

        def counted(*args):
            evaluations.append(1)
            return objective(*args)

        monkeypatch.setattr(estimators, "_objective_and_inverse", counted)
        model = toeplitz(4)
        iterations = [ple_estimate(model, rank_transform(
            sample_copula(model.r_of_theta(THETA_STAR), 250, seed=seed))).iterations
            for seed in range(40)]
        assert np.mean(iterations) < 5.0
        assert len(evaluations) / 40 < 7.0

    @pytest.mark.parametrize("spectral", [True, False], ids=["spectral", "matrix"])
    def test_saddle_at_the_pilot_rejected(self, spectral):
        # Rhat = I/4: the moment pilot is theta = 0, a saddle, where the
        # Fisher information is positive definite; the verdict reads the
        # exact Hessian.
        model = unrestricted(2) if spectral else matrix_descent(unrestricted(2))
        a = np.sqrt(0.5)
        zhat = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        sample = RankedSample(zhat)
        with pytest.raises(ConvergenceError, match="saddle point") as info:
            ple_estimate(model, sample)
        assert len(info.value.trace) == 1
        assert np.array_equal(info.value.trace[0][0], np.zeros(1))


def quarter_identity_sample(p):
    """A sample with Rhat = I/4: its moment pilot theta = 0 is stationary
    and, for every family with dR(0) != 0, a saddle of the objective."""
    a = np.sqrt(p) / 2.0
    zhat = np.vstack([a * np.eye(p), -a * np.eye(p)])
    return RankedSample(zhat)


def outcome(solve):
    """theta_hat bits and iterations of a solve, or its exception type and
    message, and for a ConvergenceError the bits of its trace (theta,
    sup-norm) per iteration."""
    try:
        result = solve()
    except DomainError as exc:
        return type(exc), str(exc)
    except ConvergenceError as exc:
        return type(exc), str(exc), [([float(v).hex() for v in theta], float(norm).hex())
                                     for theta, norm in exc.trace]
    return [v.hex() for v in result.theta_hat], result.iterations


def ple_rows(model, samples):
    """`_ple_solve` on the block `samples`: for each row, the exception that
    fails it, or an EstimateResult as `ple_estimate` builds one."""
    theta, iterations, failures = estimators._ple_solve(
        model, samples, estimators._BlockStats(model, samples))
    return [failures[i] if i in failures
            else EstimateResult(theta_hat=theta[i], method="ple", iterations=int(iterations[i]),
                                converged=True, model=model, sample=sample)
            for i, sample in enumerate(samples)]


class TestBlockSolve:
    """`_ple_solve` solves every sample of a block in one descent, and a row
    is the same to the bit as `ple_estimate` on its sample alone."""

    @pytest.mark.parametrize("model,theta,n", SPECTRAL + [
        (toeplitz(4), THETA_STAR, 250), (factor(5, 1), np.linspace(0.3, 0.7, 5), 300)],
        ids=lambda v: f"{v.name}{v.p}" if hasattr(v, "p") else None)
    @pytest.mark.parametrize("max_iter", [100, 4])
    def test_rows_equal_blocks_of_one(self, monkeypatch, model, theta, n, max_iter):
        # Samples of sizes n and 12 (whose descents backtrack more often),
        # and the Rhat = I/4 saddle; a budget of 4 steps stops rows mid-block.
        monkeypatch.setattr(estimators, "_MAX_ITER", max_iter)
        r = model.r_of_theta(theta)
        samples = [rank_transform(sample_copula(r, n if seed % 2 else 12, seed=seed))
                   for seed in range(11)]
        samples.insert(5, quarter_identity_sample(model.p))
        expected = [outcome(lambda: ple_estimate(model, sample)) for sample in samples]
        rng = np.random.default_rng(0)
        for order in (np.arange(12), np.arange(12)[::-1], rng.permutation(12)):
            block = ple_rows(model, [samples[i] for i in order])
            assert len(block) == 12
            for i, row in zip(order, block):
                got = outcome(lambda: _raise_or_return(row))
                assert got == expected[i], (i, got, expected[i])

    @pytest.mark.parametrize("model", [exchangeable(3), circular(), toeplitz(4), factor(4, 1)],
                             ids=lambda m: f"{m.name}{m.p}")
    def test_empty_block(self, model):
        # Every core returns its arrays with zero rows, as the one-step core
        # does, and no failure.
        stats = estimators._BlockStats(model, [])
        theta, iterations, failures = estimators._ple_solve(model, [], stats)
        assert (theta.shape, iterations.shape, iterations.dtype, failures) == (
            (0, model.k), (0,), np.dtype(int), {})
        theta, clamped, failures = estimators._one_step_update(model, [], theta, stats.sums)
        assert (theta.shape, clamped.shape, failures) == ((0, model.k), (0,), {})
        if model.moment_map is not None:
            theta, clamped = estimators._moment_pilot(model, [], stats)
            assert (theta.shape, clamped.shape) == ((0, model.k), (0,))

    def test_rows_keep_their_own_traces_and_starts(self, monkeypatch):
        # The mirrored-pairs row starts at default_init, the others at their
        # moment pilots; one step each, so every row fails and carries the
        # trace a block of one gives it.
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
        model = toeplitz(4)
        samples = [rank_transform(sample_copula(model.r_of_theta(THETA_STAR), 40, seed=seed))
                   for seed in range(3)]
        samples.insert(1, mirrored_pairs_sample())
        block = ple_rows(model, samples)
        for sample, row in zip(samples, block):
            with pytest.raises(ConvergenceError) as info:
                ple_estimate(model, sample)
            alone = info.value
            assert type(row) is type(alone) and str(row) == str(alone)
            assert len(row.trace) == len(alone.trace) == 2
            for (t1, n1), (t2, n2) in zip(row.trace, alone.trace):
                assert np.array_equal(t1, t2) and n1 == n2
        assert np.array_equal(block[1].trace[0][0], model.default_init)

    def test_default_start_outside_positive_definite_region(self):
        # A default start with R(theta) not positive definite is that row's
        # DomainError, from the descent's first evaluation; the other rows
        # of the block still solve.
        model = factor(3, 1)
        bad = dataclasses.replace(model, default_init=np.full(3, 5.0))
        sample = rank_transform(sample_copula(model.r_of_theta(np.array([0.5, 0.6, 0.4])),
                                              100, seed=1))
        message = "initial theta [5. 5. 5.] outside the domain of factor"
        with pytest.raises(DomainError) as exc:
            ple_estimate(bad, sample)
        assert str(exc.value) == message
        # toeplitz(4) starts the mirrored-pairs sample, whose moment pilot
        # lies outside the domain, at default_init, and the other at its pilot.
        model = toeplitz(4)
        bad = dataclasses.replace(model, default_init=np.full(3, 5.0))
        sample = rank_transform(sample_copula(model.r_of_theta(THETA_STAR), 250, seed=6))
        first, second = ple_rows(bad, [mirrored_pairs_sample(), sample])
        assert isinstance(first, DomainError)
        assert str(first) == "initial theta [5. 5. 5.] outside the domain of toeplitz"
        alone = ple_estimate(model, sample)
        assert np.array_equal(second.theta_hat, alone.theta_hat)
        assert second.iterations == alone.iterations


def column_groups(model, theta=0.3):
    """(Q, groups): the eigenbasis Q of `eigen_columns` at theta and the
    eigen-group of each of its columns, the group whose (lam, dlam) at theta
    are nearest the column's."""
    q, lam, dlam = eigen_columns(model, theta)
    group_lam, group_dlam, _ = (a[0] for a in model.spectrum.group_fn(np.array([theta])))
    return q, np.argmin(np.abs(lam[:, None] - group_lam) + np.abs(dlam[:, None] - group_dlam),
                        axis=1)


# SPECTRAL, then samples near each end of exchangeable's and circular's box
# and near toeplitz(2)'s and unrestricted(2)'s singular R, where one group
# sum is far smaller than tr Rhat, and a generator whose eigenvalues 2
# (twice) and -1 (four times) make groups of several columns.
STACKED = SPECTRAL + [(model, [end], 250) for model in (exchangeable(3), exchangeable(100),
                                                        circular())
                      for end in (model.box[0] + 1e-4, model.box[1] - 1e-4)] + [
    (toeplitz(2), [-0.9999], 250), (unrestricted(2), [0.9999], 250),
    (custom_affine(6, [np.kron(np.eye(2), np.ones((3, 3))) - np.eye(6)]), [0.3], 250)]


class TestStackedD:
    """A spectral block forms its eigen-group sums D_g = tr(Q_g' Rhat Q_g)
    from its stacked zhat, and neither a row's sums nor its moment start
    depends on the block."""

    @staticmethod
    def zhats(model, theta, n):
        """Samples of sizes n and 12, a tied sample and the Rhat = I/4
        saddle, as zhat arrays."""
        r = model.r_of_theta(theta)
        zhats = [rank_transform(sample_copula(r, n if seed % 2 else 12, seed=seed)).zhat
                 for seed in range(6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tied = rank_transform(np.round(sample_copula(r, n, seed=7), 2))
        assert tied.has_ties
        zhats.insert(2, tied.zhat)
        zhats.insert(5, quarter_identity_sample(model.p).zhat)
        return zhats

    @pytest.mark.parametrize("model,theta,n", STACKED,
                             ids=lambda v: f"{v.name}{v.p}" if hasattr(v, "p") else None)
    def test_rows_equal_blocks_of_one(self, model, theta, n):
        zhats = self.zhats(model, theta, n)
        count = len(zhats)

        def fresh(order):
            return [RankedSample(zhats[i]) for i in order]

        def block_starts(order):
            samples = fresh(order)
            return estimators._starts(model, samples, estimators._BlockStats(model, samples))

        sums_alone = [estimators._group_sums(model.spectrum, fresh([i]))[0]
                      for i in range(count)]
        starts_alone = [block_starts([i]) for i in range(count)]
        rng = np.random.default_rng(0)
        for order in (np.arange(count), np.arange(count)[::-1], rng.permutation(count)):
            sums = estimators._group_sums(model.spectrum, fresh(order))
            starts, from_pilot = block_starts(order)
            for row, i in enumerate(order):
                assert np.array_equal(sums[row], sums_alone[i]), (row, i)
                assert np.array_equal(sums[row], group_sums(model.spectrum, zhats[i]))
                alone, alone_from_pilot = starts_alone[i]
                assert np.array_equal(starts[row], alone[0]), (row, i)
                assert from_pilot[row] == alone_from_pilot[0]

    @pytest.mark.parametrize("model,theta,n", STACKED,
                             ids=lambda v: f"{v.name}{v.p}" if hasattr(v, "p") else None)
    def test_equals_diagonal_of_rotated_rhat(self, model, theta, n):
        # diag(Q' Rhat Q) summed over each group's columns.  The last group's
        # sum is tr Rhat minus the others, so the bound is a few ulps of
        # tr Rhat: at most 6.7 eps tr Rhat was seen (exchangeable(100) near
        # theta = 1), on a 2-CPU x86-64 VM with numpy 2.4.
        spectrum = model.spectrum
        q, members = column_groups(model)
        assert np.bincount(members).tolist() == spectrum.sizes.tolist()
        for zhat in self.zhats(model, theta, n):
            sample = RankedSample(zhat)
            sums = estimators._group_sums(spectrum, [sample])[0]
            reference = np.bincount(members, np.diag(q.T @ sample.rhat @ q))
            bound = 16 * np.finfo(float).eps * np.trace(sample.rhat)
            assert_allclose(sums, reference, rtol=0, atol=bound)


def _raise_or_return(row):
    if isinstance(row, Exception):
        raise row
    return row


class TestContract:
    @pytest.mark.parametrize("estimator,signature", [
        (ple_estimate, "(model, sample)"),
        (estimators._ple_solve, "(model, samples, stats)"),
        (pilot_moment, "(model, sample)"),
        (one_step, "(model, sample, pilot=None)"),
        (estimators._one_step_update, "(model, samples, pilots, sums)"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_no_solver_options(self, estimator, signature):
        # Where a descent starts and how many steps it takes are the
        # solver's own: the estimators take a model and ranks, one_step its
        # pilot, and the array cores a block and what the block shares.
        assert str(inspect.signature(estimator)) == signature

    def test_ranked_sample_takes_only_zhat(self):
        # n, p, ranks, pseudo_obs and the tied columns are read from zhat,
        # never passed.
        assert str(inspect.signature(RankedSample)) == "(zhat)"

    @pytest.mark.parametrize("model", [exchangeable(3), factor(3, 1)],
                             ids=["exch3", "factor31"])
    def test_sample_width_checked(self, model):
        narrow = rank_transform(sample_copula(np.eye(2), 50, seed=1))
        message = "^sample has 2 columns, model needs 3$"
        for estimator in (ple_estimate, pilot_moment, one_step):
            with pytest.raises(ShapeError, match=message):
                estimator(model, narrow)
        with pytest.raises(ShapeError, match=message):
            one_step(model, narrow, pilot=model.default_init)


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
        # The pilot is Rhat's off-diagonal; the PLE descends from it to the
        # stationary point of the pseudo-likelihood.
        u = sample_copula(exch_corr(3, 0.3), 90, seed=8)
        sample = rank_transform(u)
        rhat = normal_scores_matrix(sample)
        model = unrestricted(3)
        pilot = pilot_moment(model, sample)
        expected = [rhat[i, j] for i, j in lower_triangle_pairs(3)]
        assert_allclose(pilot.theta_hat, expected, rtol=1e-12)
        ple = ple_estimate(model, sample)
        assert ple.converged
        assert np.max(np.abs(_pseudo_score(model, ple.theta_hat, rhat))) <= 1e-8 * model.k

    def test_family_name_not_consulted(self):
        circ = circular()
        ring = CorrelationModel(
            name="ring", p=4, k=1, corr_fn=circ.corr_fn, grad_fn=circ.grad_fn,
            box=circ.box, default_init=circ.default_init)
        sample = rank_transform(sample_copula(circ.r_of_theta(np.array([0.4])),
                                              150, seed=15))
        # The ring reads Rhat through the moment map, circular reads d from
        # its Spectrum: the same fit up to roundoff, and to the bit once the
        # ring declares that Spectrum too.
        result = pilot_moment(ring, sample)
        assert result.method == "pilot_moment"
        expected = pilot_moment(circ, sample).theta_hat
        assert_allclose(result.theta_hat, expected, rtol=1e-15, atol=0)
        ring = dataclasses.replace(ring, spectrum=circ.spectrum)
        assert np.array_equal(pilot_moment(ring, sample).theta_hat, expected)
        # dR(0) = 0 for factor loadings: no moment pilot, the PLE is used.
        model = factor(4, 1)
        u = sample_copula(model.r_of_theta(np.linspace(0.3, 0.6, 4)), 150, seed=15)
        assert pilot_moment(model, rank_transform(u)).method == "ple"

    @pytest.mark.parametrize("model,theta,n", SPECTRAL,
                             ids=lambda v: f"{v.name}{v.p}" if hasattr(v, "p") else None)
    def test_equals_ple_start_on_spectra(self, monkeypatch, model, theta, n):
        # One moment rule from d: the pilot is the start that a PLE with no
        # step budget records, to the bit.
        monkeypatch.setattr(estimators, "_MAX_ITER", 0)
        for seed in range(3):
            zhat = rank_transform(sample_copula(model.r_of_theta(theta), n, seed=seed)).zhat
            with pytest.raises(ConvergenceError) as info:
                ple_estimate(model, RankedSample(zhat))
            pilot = pilot_moment(model, RankedSample(zhat))
            assert not pilot.clamped
            assert np.array_equal(pilot.theta_hat, info.value.trace[0][0])

    def test_spectral_fit_outside_domain_shrunk(self, monkeypatch):
        # The comonotone sample's fit, 1.155, lies outside custom_affine(3)'s
        # |theta| < 0.894: the pilot is shrunk toward default_init and
        # flagged, and the PLE starts at default_init.
        model = SPECTRAL[-1][0]
        comonotone = rank_transform(sample_copula(np.ones((3, 3)), 250, seed=2))
        fit = np.array([spectral_moment_fit(model, comonotone)])
        result = pilot_moment(model, comonotone)
        assert result.clamped and result.method == "pilot_moment"
        assert_shrunk_into_domain(model, result.theta_hat, model.default_init, fit)
        monkeypatch.setattr(estimators, "_MAX_ITER", 0)
        with pytest.raises(ConvergenceError) as info:
            ple_estimate(model, comonotone)
        assert np.array_equal(info.value.trace[0][0], model.default_init)

    def test_out_of_domain_fit_shrunk_toward_default(self):
        # toeplitz declares no box to clip onto, so the fit is shrunk toward
        # default_init until it is in the domain.
        model = toeplitz(4)
        sample = mirrored_pairs_sample()
        fit = model.moment_map @ sample.rhat.ravel()
        assert model.box is None
        result = pilot_moment(model, sample)
        assert result.clamped and result.method == "pilot_moment"
        assert_shrunk_into_domain(model, result.theta_hat, model.default_init, fit)

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
        result = one_step(model, sample, pilot=np.array([1.0 - 1e-6]))
        assert result.clamped
        assert not result.converged
        assert result.iterations == 1
        assert model.domain_check(result.theta_hat)

    def test_update_shrunk_toward_pilot_without_a_box(self):
        # From the pilot theta = 0 the update leaves toeplitz(4)'s domain,
        # which has no closed-form clamp.
        model = toeplitz(4)
        sample = mirrored_pairs_sample()
        pilot = np.zeros(3)
        geom = eval_geometry(model, pilot)
        score = 0.5 * efficient_score_matrices(geom).reshape(3, -1) @ sample.rhat.ravel()
        update = pilot + efficient_info(geom)[1] @ score
        result = one_step(model, sample, pilot=pilot)
        assert result.clamped and not result.converged
        assert_shrunk_into_domain(model, result.theta_hat, pilot, update)

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

    def test_rank_deficient_information_raises(self):
        # factor(5, 2) loadings are identified only up to a rotation: the
        # efficient information has rank 9 of 10 at every theta, and the
        # update must not invert it, whatever the roundoff at theta.
        model = factor(5, 2)
        rng = np.random.default_rng(0)
        for seed in range(50):
            theta = rng.uniform(-0.5, 0.5, 10)
            sample = rank_transform(sample_copula(model.r_of_theta(theta), 60, seed=seed))
            with pytest.raises(SingularityError, match="^efficient information matrix "
                               "is not positive definite") as exc:
                one_step(model, sample, pilot=theta)
            assert abs(exc.value.eigenvalue) <= 1e-14
            assert exc.value.cond > 1e13

    def test_tie_warning_propagates(self):
        data = np.array([[1.0, 4.0], [2.0, 4.0], [2.0, 1.0], [5.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sample = rank_transform(data)
        result = one_step(exchangeable(2), sample)
        assert result.tie_warning
        assert result.to_dict()["tie_warning"] is True


# The families whose one-step update takes the closed form, and a
# one-generator custom_affine(3) whose spectrum is not balanced.
BALANCED = [exchangeable(2), exchangeable(3), exchangeable(4), exchangeable(100),
            circular(), toeplitz(2), unrestricted(2)]
UNBALANCED = custom_affine(3, [[[0, 1, 0.5], [1, 0, 0], [0.5, 0, 0]]])
# Models on the row-by-row `efficiency_bundle` path, with a truth for samples.
GENERAL = [
    (UNBALANCED, [0.3]),
    (toeplitz(4), THETA_STAR),
    (unrestricted(3), [0.2, -0.1, 0.3]),
    (factor(5, 1), np.linspace(0.3, 0.7, 5)),
    (adaptivity_demo(), [0.1]),
    (custom_affine(3, [[[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                       [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]), [0.3, -0.2]),
]


def model_id(v):
    return f"{v.name}{v.p}" if isinstance(v, CorrelationModel) else None


def bundle_update(model, sample, pilot):
    """The one-step update before the clamp, in the operations of the
    row-by-row path: pilot + I*^-1 tr(A* Rhat) / 2 from `efficiency_bundle`."""
    bundle = efficiency_bundle(eval_geometry(model, pilot))
    return pilot + bundle.eff_info_inv @ (
        0.5 * (bundle.eff_matrices.reshape(model.k, -1) @ sample.rhat.ravel()))


def update_rows(model, samples, pilots):
    """`_one_step_update` on the block `samples` from `pilots`, read as a
    (B, k) float array: for each row, the exception that fails it, or an
    EstimateResult as `one_step` builds one."""
    theta, clamped, failures = estimators._one_step_update(
        model, samples, np.array(pilots, dtype=float),
        estimators._BlockStats(model, samples).sums)
    return [failures[i] if i in failures
            else EstimateResult(theta_hat=theta[i], method="one_step", iterations=1,
                                converged=not clamped[i], model=model, sample=sample,
                                clamped=bool(clamped[i]))
            for i, sample in enumerate(samples)]


def update_outcome(row):
    """theta_hat bits, clamped and converged of a one-step row, or its
    exception's type, message and eigenvalue."""
    if isinstance(row, Exception):
        return type(row), str(row), getattr(row, "eigenvalue", None)
    return [v.hex() for v in row.theta_hat], row.clamped, row.converged


def identical_columns_sample(p):
    """p copies of one column: Rhat is sigma_n^2 times the all-ones matrix."""
    x = np.random.default_rng(8).standard_normal((60, 1))
    return rank_transform(np.hstack([x] * p))


class TestBalancedSpectrum:
    """The one-step update is elementwise arithmetic on the eigenvalues where
    the model's spectrum is balanced, and reads `efficiency_bundle` row by
    row on every other model."""

    @pytest.mark.parametrize("model", BALANCED, ids=model_id)
    def test_balanced_families(self, model):
        assert model.spectrum.balanced

    def test_unbalanced_spectrum(self):
        # There sum (x - xbar)^2 / 2 is not I*: off by 0.2% to 4.7% at
        # theta = 0.1 to 0.5.
        assert UNBALANCED.spectrum is not None
        assert not UNBALANCED.spectrum.balanced
        for theta in (0.1, 0.3, 0.5):
            _, lam, dlam = eigen_columns(UNBALANCED, theta)
            x = dlam / lam - (dlam / lam).mean()
            eff_info = efficient_info(eval_geometry(UNBALANCED, [theta]))[0][0, 0]
            assert 0.5 * (x * x).sum() / eff_info - 1.0 > 2e-3

    @pytest.mark.parametrize("model,theta", GENERAL, ids=model_id)
    def test_general_path_is_the_bundle_update_to_the_bit(self, monkeypatch, model, theta):
        # All the rows go through the block producer of A* and I*^-1 in one
        # call.
        assert model.spectrum is None or not model.spectrum.balanced
        blocks = []
        efficient_block = estimators._efficient_block
        monkeypatch.setattr(estimators, "_efficient_block",
                            lambda model, thetas: blocks.append(len(thetas))
                            or efficient_block(model, thetas))
        r = model.r_of_theta(theta)
        samples = [rank_transform(sample_copula(r, 40 + 30 * seed, seed=seed))
                   for seed in range(5)]
        pilots = [model.theta_vec(theta)] * 5
        block = update_rows(model, samples, pilots)
        assert blocks == [5]
        for sample, pilot, row in zip(samples, pilots, block):
            theta_hat, clamped = model.into_domain(bundle_update(model, sample, pilot), pilot)
            assert update_outcome(row) == ([v.hex() for v in theta_hat], clamped, not clamped)

    @pytest.mark.parametrize("model", BALANCED, ids=model_id)
    def test_closed_form_matches_the_bundle_update(self, monkeypatch, model):
        # Roundoff only: at most 6.7e-16 at p <= 4 and 5.7e-14 at p = 100
        # on criteria 6 and 8's configs.
        theta = {"exchangeable": 0.25 if model.p == 100 else 0.5}.get(model.name, 0.3)
        r = model.r_of_theta([theta])
        samples = [rank_transform(sample_copula(r, 250, seed=seed)) for seed in range(8)]
        pilots = [ple_estimate(model, sample).theta_hat for sample in samples]
        monkeypatch.setattr(estimators, "eval_geometry", None)  # never called
        block = update_rows(model, samples, pilots)
        monkeypatch.undo()
        for sample, pilot, row in zip(samples, pilots, block):
            assert not row.clamped and row.converged
            assert_allclose(row.theta_hat, bundle_update(model, sample, pilot), rtol=0,
                            atol=2e-13 if model.p == 100 else 2e-15)


class TestOneStepBlock:
    @pytest.mark.parametrize("model,theta,edge", [
        (exchangeable(3), [0.5], [1.0 - 1e-6]),
        (circular(), [0.5], [-1.0 + 1e-6]),
        (toeplitz(4), THETA_STAR, np.zeros(3)),
        (UNBALANCED, [0.3], [0.0]),
    ], ids=["exch3", "circ", "toep4", "unbalanced"])
    def test_rows_equal_blocks_of_one(self, model, theta, edge):
        # Draws from the truth updated from the truth, and an edge sample
        # whose update leaves the domain from the pilot `edge`: identical
        # columns, or toeplitz(4)'s mirrored pairs, clamped.
        edge_sample = (mirrored_pairs_sample() if model.name == "toeplitz"
                       else identical_columns_sample(model.p))
        r = model.r_of_theta(theta)
        samples = [rank_transform(sample_copula(r, 40 + 20 * seed, seed=seed))
                   for seed in range(6)]
        pilots = [model.theta_vec(theta)] * 6
        samples[2:2], pilots[2:2] = [edge_sample], [model.theta_vec(edge)]
        samples.append(edge_sample)
        pilots.append(model.theta_vec(edge))
        expected = [update_outcome(update_rows(model, [s], [t])[0])
                    for s, t in zip(samples, pilots)]
        assert [clamped for _, clamped, _ in expected] == [False] * 2 + [True] + [False] * 4 + [True]
        rng = np.random.default_rng(0)
        for order in (np.arange(8), np.arange(8)[::-1], rng.permutation(8)):
            block = update_rows(model, [samples[i] for i in order],
                                   [pilots[i] for i in order])
            assert [update_outcome(row) for row in block] == [expected[i] for i in order]
        for sample, pilot, want in zip(samples, pilots, expected):
            assert update_outcome(one_step(model, sample, pilot=pilot)) == want

    @pytest.mark.parametrize("model,theta,edge", [
        (exchangeable(3), [0.5], [1.0 - 1e-6]),
        (circular(), [0.5], [-1.0 + 1e-6]),
    ], ids=["exch3", "circ"])
    def test_one_box_test_per_block(self, monkeypatch, model, theta, edge):
        # The closed form tests the block against the box at once; only the
        # two rows outside it reach into_domain, whose own test of the row
        # it is given is a block of one.
        r = model.r_of_theta(theta)
        samples = [rank_transform(sample_copula(r, 60, seed=seed)) for seed in range(6)]
        pilots = [model.theta_vec(theta)] * 6
        samples[1:1] = samples[5:5] = [identical_columns_sample(model.p)]
        pilots[1:1] = pilots[5:5] = [model.theta_vec(edge)]
        expected = [update_outcome(update_rows(model, [s], [t])[0])
                    for s, t in zip(samples, pilots)]
        calls = {"domain_check_block": [], "into_domain": []}
        for name, rows in calls.items():
            method = getattr(CorrelationModel, name)
            monkeypatch.setattr(CorrelationModel, name,
                                lambda self, *args, _m=method, _rows=rows:
                                _rows.append(args) or _m(self, *args))
        block = update_rows(model, samples, pilots)
        assert [update_outcome(row) for row in block] == expected
        assert [row.clamped for row in block] == [False, True] + [False] * 3 + [True, False, False]
        assert [len(thetas) for thetas, in calls["domain_check_block"]] == [8, 1, 1]
        assert len(calls["into_domain"]) == 2
        assert not any(model.domain_check(theta) for theta, _ in calls["into_domain"])

    @pytest.mark.parametrize("model,theta", GENERAL + [(factor(5, 2), np.linspace(0.1, 0.5, 10))],
                             ids=model_id)
    def test_failing_rows_fail_alone(self, model, theta):
        # A pilot where R is not positive definite (the truth scaled by 40),
        # a NaN pilot and, on factor(5, 2), whose I* is singular at every
        # point, rows failing on a singular I*: in three orders every row has
        # the outcome of its block of one, bits, clamp and error alike.
        theta = model.theta_vec(theta)
        samples = [rank_transform(sample_copula(model.r_of_theta(theta), 40 + 15 * seed,
                                                seed=seed)) for seed in range(6)]
        pilots = [theta, theta * 40.0, theta, np.full(model.k, np.nan), theta * 0.9, theta]
        expected = [update_outcome(update_rows(model, [s], [t])[0])
                    for s, t in zip(samples, pilots)]
        assert expected[1][:2] == (SingularityError, f"R(theta) is not positive definite for "
                                   f"{model.name} (min eigenvalue {expected[1][2]:.3e})")
        assert expected[3] == (DomainError, "theta must be finite", None)
        others = [expected[i] for i in (0, 2, 4, 5)]
        if model.k == 10:  # factor(5, 2)
            assert others == [(SingularityError, "efficient information matrix is not positive "
                               f"definite (min eigenvalue {row[2]:.3e})", row[2]) for row in others]
        else:
            assert not any(row[0] in (SingularityError, DomainError) for row in others)
        for order in (np.arange(6), np.arange(6)[::-1], np.array([3, 0, 5, 1, 4, 2])):
            block = update_rows(model, [samples[i] for i in order], [pilots[i] for i in order])
            assert [update_outcome(row) for row in block] == [expected[i] for i in order]

    @pytest.mark.parametrize("model,theta", [
        (exchangeable(3), [0.5]), (circular(), [0.5]), (toeplitz(4), THETA_STAR),
        (UNBALANCED, [0.3]),
    ], ids=["exch3", "circ", "toep4", "unbalanced"])
    def test_nan_pilot_row_fails_alone(self, model, theta):
        # A failed PLE's NaN row among finite pilots, on the balanced path
        # (exchangeable(3), circular) and the general one (toeplitz(4), and
        # a spectrum that is not balanced): it fails alone with theta_vec's
        # DomainError, every other row is its block of one to the bit, and
        # no warning is raised.
        theta = model.theta_vec(theta)
        samples = [rank_transform(sample_copula(model.r_of_theta(theta), 60, seed=seed))
                   for seed in range(5)]
        pilots = np.array([theta] * 5)
        pilots[2] = np.nan
        alone = [update_outcome(update_rows(model, [s], [t])[0])
                 for s, t in zip(samples, pilots)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta_hat, clamped, failures = estimators._one_step_update(
                model, samples, pilots, estimators._BlockStats(model, samples).sums)
        assert list(failures) == [2]
        assert (type(failures[2]), str(failures[2])) == (DomainError, "theta must be finite")
        assert np.isnan(theta_hat[2]).all() and not clamped[2]
        assert alone[2] == (DomainError, "theta must be finite", None)
        for row in (0, 1, 3, 4):
            assert alone[row] == ([v.hex() for v in theta_hat[row]], clamped[row],
                                  not clamped[row])

    @pytest.mark.parametrize("bad,error,message", [
        ([5.0], SingularityError,
         "R(theta) is not positive definite for exchangeable (min eigenvalue -4.000e+00)"),
        ([-0.6], SingularityError,
         "R(theta) is not positive definite for exchangeable (min eigenvalue -2.000e-01)"),
        ([np.nan], DomainError, "theta must be finite"),
        ([np.inf], DomainError, "theta must be finite"),
    ], ids=["indefinite", "below", "nan", "inf"])
    def test_bad_pilot_same_outcome_on_both_paths(self, bad, error, message):
        # A pilot where R is not positive definite fails its row with
        # eval_geometry's error on both paths, one not finite with
        # theta_vec's, and the good row beside it keeps its outcome.
        model = exchangeable(3)
        samples = [rank_transform(sample_copula(model.r_of_theta([0.5]), 200, seed=seed))
                   for seed in (1, 2)]
        for path in (model, matrix_descent(model)):
            row, good = update_rows(path, samples, [bad, [0.5]])
            assert (type(row), str(row)) == (error, message)
            alone, = update_rows(path, samples[1:], [[0.5]])
            assert update_outcome(good) == update_outcome(alone)

    @pytest.mark.parametrize("bad", [[0.5, 0.9], [[0.5]], [[0.5], [0.5]]],
                             ids=["long", "nested", "column"])
    def test_pilots_not_b_by_k(self, monkeypatch, bad):
        # one_step, a block of one, takes its pilot as a length-k vector:
        # any other shape is theta_vec's ShapeError on both paths, before
        # any update.
        model = exchangeable(3)
        sample = rank_transform(sample_copula(model.r_of_theta([0.5]), 200, seed=1))
        monkeypatch.setattr(estimators, "_one_step_update", None)
        for path in (model, matrix_descent(model)):
            with pytest.raises(ShapeError) as info:
                one_step(path, sample, pilot=bad)
            assert str(info.value) == f"theta must have length 1, got shape {np.shape(bad)}"

    def test_edge_pilot_same_on_both_paths(self):
        # exchangeable(3) at the top of its box, 1 - 1e-6, where kappa(R) is
        # about 3e6: identical columns clamp on both paths, to the same point;
        # draws from theta = 0.9 stay inside on both, and the row-by-row
        # update carries about kappa(R) eps of roundoff.
        model = exchangeable(3)
        general = matrix_descent(model)
        pilot = np.array([1.0 - 1e-6])
        samples = [identical_columns_sample(3)] + [
            rank_transform(sample_copula(model.r_of_theta([0.9]), 60, seed=seed))
            for seed in range(1, 4)]
        for i, sample in enumerate(samples):
            closed, matrix = one_step(model, sample, pilot), one_step(general, sample, pilot)
            assert closed.clamped == matrix.clamped == (i == 0)
            assert closed.converged == matrix.converged == (i != 0)
            if i == 0:
                assert np.array_equal(closed.theta_hat, matrix.theta_hat)
                assert closed.theta_hat[0] == model.box[1]
            else:
                assert_allclose(closed.theta_hat, matrix.theta_hat, rtol=0, atol=1e-9)

    def test_constant_x_raises_the_general_paths_error(self):
        # A zero generator: dlam = 0, so x = dlam / lam is constant and
        # I* = sum (x - xbar)^2 / 2 = 0 on both paths.
        model = custom_affine(3, [np.zeros((3, 3))])
        assert model.spectrum.balanced
        samples = [rank_transform(sample_copula(np.eye(3), 50, seed=seed)) for seed in (1, 2)]
        pilots = [np.zeros(1)] * 2
        closed = update_rows(model, samples, pilots)
        matrix = update_rows(matrix_descent(model), samples, pilots)
        for row in closed + matrix:
            assert isinstance(row, SingularityError)
            assert str(row) == ("efficient information matrix is not positive definite "
                                "(min eigenvalue 0.000e+00)")
            assert row.eigenvalue == 0.0 and row.cond == np.inf
        with pytest.raises(SingularityError, match="^efficient information matrix"):
            one_step(model, samples[0], pilot=np.zeros(1))


class TestLazyStdErrors:
    def test_run_experiment_computes_none(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("standard errors computed")

        monkeypatch.setattr(estimators, "_std_errors", forbidden)
        report = run_experiment({
            "model": {"family": "circular"}, "theta_true": [0.5], "n": 80,
            "replications": 4, "estimators": ["ple", "one_step", "pilot_moment"],
            "seed": 3, "workers": 1})
        assert report.failures == {"ple": 0, "one_step": 0, "pilot_moment": 0}

    @pytest.mark.parametrize("model,theta,estimators_run", [
        ({"family": "exchangeable", "p": 3}, [0.5], ["one_step"]),
        ({"family": "circular"}, [0.5], ["one_step", "ple"]),
        ({"family": "toeplitz", "p": 4}, list(THETA_STAR), ["one_step", "ple"]),
    ], ids=["exch3", "circ", "toep4"])
    def test_run_experiment_reads_no_ties(self, monkeypatch, model, theta, estimators_run):
        # The configs of acceptance criteria 6 and 7, with fewer
        # replications: a replication reads theta_hat alone, so neither the
        # tied columns nor the standard errors are ever computed.
        def forbidden(*args):
            raise AssertionError("tie columns or standard errors computed")

        monkeypatch.setattr(estimators, "_std_errors", forbidden)
        monkeypatch.setattr(RankedSample, "tie_columns", property(forbidden))
        report = run_experiment({
            "model": model, "theta_true": theta, "n": 250, "replications": 20,
            "estimators": estimators_run, "seed": 20260814, "workers": 1})
        assert report.failures == dict.fromkeys(estimators_run, 0)

    @pytest.mark.parametrize("model,theta,n", [
        (toeplitz(4), THETA_STAR, 250),
        (circular(), np.array([0.5]), 250),
        (exchangeable(100), np.array([0.25]), 50),
    ], ids=["toep4", "circ", "exch100"])
    def test_first_read_equals_eager_value_then_cached(self, model, theta, n):
        sample = rank_transform(sample_copula(model.r_of_theta(theta), n, seed=31))
        ple = ple_estimate(model, sample)
        ose = one_step(model, sample, pilot=ple.theta_hat)
        _, eff_inv = efficient_info(eval_geometry(model, ose.theta_hat))
        expected = [(ple, estimators._std_errors(model, ple.theta_hat, n, "ple_cov")),
                    (ose, np.sqrt(np.maximum(np.diag(eff_inv), 0.0) / n))]
        for result, eager in expected:
            first = result.std_errors
            assert np.array_equal(first, eager)
            assert result.std_errors is first

    def test_singular_geometry_reads_none(self):
        model = exchangeable(3)
        assert estimators._std_errors(model, np.array([1.5]), 100, "ple_cov") is None
        assert estimators._std_errors(model, np.array([1.5]), 100, "eff_info_inv") is None
