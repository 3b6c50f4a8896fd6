"""Tests for scores, information matrices, projections and diagnostics."""

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from copula_rank import (adaptivity_check, adaptivity_demo, circular,
                         d_operator, efficiency_bundle, efficiency_criterion,
                         efficient_info, efficient_score_matrices,
                         eval_geometry, exchangeable, factor,
                         generator_function, norm_cdf, parametric_score,
                         ple_influence, project_tangent, quad_influence_value,
                         regularity_check, score_generators, theta_inner,
                         toeplitz, unrestricted)
from copula_rank.exceptions import DomainError, ShapeError

THETA_STAR = np.array([0.4945460, -0.4592764, -0.8462492])


def random_theta(model, rng):
    """Draw an in-domain parameter for any of the built-in families."""
    for _ in range(200):
        if model.name == "exchangeable":
            lo = -1.0 / (model.p - 1)
            theta = np.array([rng.uniform(lo + 0.1, 0.9)])
        elif model.name == "circular":
            theta = np.array([rng.uniform(-0.85, 0.85)])
        elif model.name == "factor":
            q = model.k // model.p
            rows = rng.uniform(-1, 1, size=(model.p, q))
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            rows *= rng.uniform(0.2, 0.8) / np.maximum(norms, 1e-12)
            theta = rows.ravel()
        elif model.name == "adaptivity_demo":
            theta = np.array([rng.uniform(-0.3, 0.3)])
        else:
            theta = rng.uniform(-0.35, 0.35, size=model.k)
        if model.domain_check(theta):
            return theta
    raise AssertionError(f"could not draw theta for {model.name}")


class TestParametricScore:
    def test_zero_at_independence_origin(self):
        geom = eval_geometry(exchangeable(3), np.array([0.0]))
        assert_allclose(parametric_score(geom, np.zeros(3)), [0.0])

    def test_quadratic_form_value(self):
        geom = eval_geometry(exchangeable(3), np.array([0.0]))
        # at independence the score is z'Rdot z / 2 = 3 for z = (1,1,1)
        assert_allclose(parametric_score(geom, np.ones(3)), [3.0], rtol=1e-14)

    def test_zero_mean(self):
        rng = np.random.default_rng(17)
        geom = eval_geometry(toeplitz(3), np.array([0.5, 0.3]))
        z = rng.multivariate_normal(np.zeros(3), geom.r, size=200_000,
                                    method="cholesky")
        scores = np.array([parametric_score(geom, zi) for zi in z[:5]])
        assert scores.shape == (5, 2)
        # vectorized evaluation of the same quadratic form for the mean test
        vals = np.stack([
            -0.5 * np.sum(geom.s * geom.r_dots[m])
            - 0.5 * np.einsum("ij,jk,ik->i", z, geom.s_dots[m], z)
            for m in range(2)], axis=1)
        assert_allclose(vals[:5], scores, rtol=1e-12)
        se = vals.std(axis=0, ddof=1) / np.sqrt(len(z))
        assert np.all(np.abs(vals.mean(axis=0)) <= 4 * se)

    def test_shape_error(self):
        geom = eval_geometry(exchangeable(3), np.array([0.2]))
        with pytest.raises(ShapeError):
            parametric_score(geom, np.zeros(4))


class TestDOperator:
    def test_zero_vector(self):
        s = eval_geometry(exchangeable(3), np.array([0.4])).s
        assert_allclose(d_operator(s, np.zeros(3)), np.zeros((3, 3)))

    def test_identity_basis_vector(self):
        out = d_operator(np.eye(3), np.array([1.0, 0.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.0
        assert_allclose(out, expected)

    def test_hand_expansion(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        b = np.array([1.0, 0.0, 0.0])
        out = d_operator(geom.s, b)
        expected = geom.s @ np.diag(b) + np.diag(b) @ geom.s
        assert_allclose(out, expected, rtol=1e-14)
        # entrywise: S_ij (b_i + b_j)
        for i in range(3):
            for j in range(3):
                assert out[i, j] == pytest.approx(
                    geom.s[i, j] * (b[i] + b[j]))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            d_operator(np.eye(3), np.zeros(2))


class TestScoreGenerators:
    def test_zero_at_independence(self):
        geom = eval_geometry(toeplitz(3), np.array([0.0, 0.0]))
        assert_allclose(score_generators(geom), np.zeros((2, 3)), atol=1e-14)

    def test_exchangeable_symmetry(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        g = score_generators(geom)
        assert g.shape == (1, 3)
        assert np.ptp(g[0]) <= 1e-12

    def test_against_dense_solve_oracle(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        g = score_generators(geom)
        lhs = np.eye(3) + geom.r * geom.s
        rhs = -(geom.r_dots[0] * geom.s) @ np.ones(3)
        oracle = np.linalg.solve(lhs, rhs)
        assert_allclose(g[0], oracle, rtol=1e-12)

    def test_linear_system_residual(self):
        rng = np.random.default_rng(23)
        for model in (toeplitz(4), circular(), factor(4, 2)):
            theta = random_theta(model, rng)
            geom = eval_geometry(model, theta)
            g = score_generators(geom)
            for m in range(model.k):
                resid = (g[m] + (geom.r * geom.s) @ g[m]
                         + (geom.r_dots[m] * geom.s) @ np.ones(model.p))
                assert np.max(np.abs(resid)) <= 1e-10


class TestGeneratorFunction:
    def test_zero_at_unit_z(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        val = generator_function(geom, 0, 0, float(norm_cdf(1.0)))
        assert abs(val) <= 1e-12

    def test_zero_at_independence(self):
        geom = eval_geometry(exchangeable(3), np.array([0.0]))
        for u in (0.1, 0.5, 0.9):
            assert generator_function(geom, 0, 0, u) == pytest.approx(0.0)

    def test_integrates_to_zero(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        total, _ = quad(lambda u: generator_function(geom, 0, 1, u), 0.0, 1.0)
        assert abs(total) <= 1e-8

    def test_domain_error(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        with pytest.raises(DomainError):
            generator_function(geom, 0, 0, 1.0)

    @pytest.mark.parametrize("m,j,message", [
        (1, 0, "parameter index 1 out of range for k=1"),
        (-1, 0, "parameter index -1 out of range for k=1"),
        (0, 3, "coordinate index 3 out of range for p=3"),
    ])
    def test_index_errors(self, m, j, message):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        with pytest.raises(ShapeError, match=f"^{message}$"):
            generator_function(geom, m, j, 0.5)


class TestEfficientScoreMatrices:
    def test_independence_equals_rdot(self):
        geom = eval_geometry(exchangeable(4), np.array([0.0]))
        mats = efficient_score_matrices(geom)
        assert_allclose(mats[0], geom.r_dots[0], atol=1e-14)

    def test_orthogonality_exchangeable(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        mats = efficient_score_matrices(geom)
        assert np.max(np.abs(np.diag(geom.r @ mats[0]))) <= 1e-10

    def test_zero_trace_toeplitz(self):
        rng = np.random.default_rng(3)
        model = toeplitz(4)
        theta = random_theta(model, rng)
        geom = eval_geometry(model, theta)
        for mat in efficient_score_matrices(geom):
            assert abs(np.sum(mat * geom.r)) <= 1e-10


class TestInformationMatrices:
    def test_exchangeable_closed_form(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        info, inv = efficient_info(geom)
        assert_allclose(inv[0, 0], 1.0 / 3.0, rtol=1e-12)
        assert_allclose(info[0, 0], 3.0, rtol=1e-12)

    def test_circular_closed_form(self):
        geom = eval_geometry(circular(), np.array([0.5]))
        _, inv = efficient_info(geom)
        assert_allclose(inv[0, 0], 0.140625, rtol=1e-12)

    def test_toeplitz3_entry(self):
        geom = eval_geometry(toeplitz(3), np.array([0.5, 0.3]))
        _, inv = efficient_info(geom)
        assert_allclose(inv[1, 1], (1 - 0.3**2) ** 2, rtol=1e-9)

    def test_fisher_independence(self):
        geom = eval_geometry(exchangeable(3), np.array([0.0]))
        assert_allclose(efficiency_bundle(geom).fisher, [[3.0]], rtol=1e-14)

    def test_fisher_known_margins_ratio(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        fisher = efficiency_bundle(geom).fisher
        _, inv = efficient_info(geom)
        assert_allclose(1.0 / fisher[0, 0], inv[0, 0] / 1.5, rtol=1e-10)
        geom = eval_geometry(circular(), np.array([0.5]))
        assert_allclose(1.0 / efficiency_bundle(geom).fisher[0, 0], 0.09375, rtol=1e-10)


class TestProjectTangent:
    def test_idempotent_on_subspace(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        b0 = np.array([0.3, -0.2, 0.7])
        a = d_operator(geom.s, b0)
        b, proj = project_tangent(a, geom)
        assert_allclose(b, b0, rtol=1e-10)
        assert_allclose(proj, a, rtol=1e-10)

    def test_score_projection_gives_minus_g(self):
        geom = eval_geometry(circular(), np.array([0.5]))
        g = score_generators(geom)
        b, _ = project_tangent(-geom.s_dots[0], geom)
        assert_allclose(b, -g[0], rtol=1e-10)

    def test_orthogonal_input_maps_to_zero(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        mats = efficient_score_matrices(geom)
        b, proj = project_tangent(mats[0], geom)
        assert np.max(np.abs(b)) <= 1e-10
        assert np.max(np.abs(proj)) <= 1e-10

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        geom = eval_geometry(toeplitz(4), np.array([0.4, 0.1, -0.2]))
        a = rng.standard_normal((4, 4))
        a = a + a.T
        b, proj = project_tangent(a, geom)
        assert np.max(np.abs(np.diag(geom.r @ (a - proj)))) <= 1e-9


class TestRegularity:
    def test_ose_influence_regular(self):
        geom = eval_geometry(toeplitz(4), THETA_STAR)
        bundle = efficiency_bundle(geom)
        influence = [sum(bundle.eff_info_inv[m, mm] * bundle.eff_matrices[mm]
                         for mm in range(geom.k)) for m in range(geom.k)]
        report = regularity_check(influence, geom)
        assert report.verdict == "regular"
        assert report.passed

    def test_ple_influence_regular(self):
        geom = eval_geometry(circular(), np.array([0.5]))
        _, a_mats, _ = ple_influence(geom)
        assert regularity_check(list(a_mats), geom).passed

    def test_unrestricted_unique_regular_matrix(self):
        model = unrestricted(3)
        theta = np.array([0.3, -0.1, 0.25])
        geom = eval_geometry(model, theta)
        from copula_rank import lower_triangle_pairs
        influence = []
        for m, (i, j) in enumerate(lower_triangle_pairs(3)):
            mat = np.zeros((3, 3))
            mat[i, j] = mat[j, i] = 1.0
            mat[i, i] = mat[j, j] = -geom.r[i, j]
            influence.append(mat)
        report = regularity_check(influence, geom)
        assert report.passed
        # and the one-step machinery reproduces exactly these matrices
        bundle = efficiency_bundle(geom)
        ose = [sum(bundle.eff_info_inv[m, mm] * bundle.eff_matrices[mm]
                   for mm in range(geom.k)) for m in range(geom.k)]
        for got, expected in zip(ose, influence):
            assert_allclose(got, expected, atol=1e-9)

    def test_not_regular(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        report = regularity_check([geom.r_dots[0]], geom)
        assert not report.passed
        assert report.verdict == "not_regular"

    def test_wrong_count(self):
        geom = eval_geometry(toeplitz(3), np.array([0.4, 0.2]))
        with pytest.raises(ShapeError):
            regularity_check([np.zeros((3, 3))], geom)


class TestPleInfluence:
    def test_independence_efficient(self):
        geom = eval_geometry(exchangeable(3), np.array([0.0]))
        b_mats, _, cov = ple_influence(geom)
        assert_allclose(b_mats[0], geom.r_dots[0], atol=1e-13)
        assert_allclose(cov, np.linalg.inv(efficiency_bundle(geom).fisher), rtol=1e-12)

    def test_circular_closed_form_grid(self):
        model = circular()
        for theta in np.linspace(-0.9, 0.9, 20):
            geom = eval_geometry(model, np.array([theta]))
            _, _, cov = ple_influence(geom)
            expected = 0.25 * (1 - theta**2) ** 2 * (
                1 + 2 * theta**6 / (1 + 2 * theta**2) ** 2)
            assert_allclose(cov[0, 0], expected, rtol=1e-9)

    def test_circular_pinned_value(self):
        geom = eval_geometry(circular(), np.array([0.5]))
        _, _, cov = ple_influence(geom)
        assert_allclose(cov[0, 0], 0.142578125, rtol=1e-12)

    def test_toeplitz4_are(self):
        geom = eval_geometry(toeplitz(4), THETA_STAR)
        _, inv = efficient_info(geom)
        _, _, cov = ple_influence(geom)
        are = np.diag(inv) / np.diag(cov)
        assert_allclose(are, [0.183, 0.198, 0.969], atol=5e-4)


class TestEfficiencyCriterion:
    @pytest.mark.parametrize("model,theta", [
        (unrestricted(3), np.array([0.3, -0.1, 0.25])),
        (unrestricted(4), np.linspace(0.05, 0.3, 6)),
        (exchangeable(3), np.array([0.5])),
        (exchangeable(4), np.array([0.3])),
        (exchangeable(5), np.array([-0.2])),
        (toeplitz(3), np.array([0.5, 0.3])),
        (factor(4, 1), np.array([0.6, -0.3, 0.5, 0.2])),
        (factor(5, 2), np.array([0.5, 0.0, 0.2, 0.4, -0.3,
                                 0.1, 0.4, 0.2, -0.2, 0.3])),
    ], ids=["unr3", "unr4", "exch3", "exch4", "exch5", "toep3", "factor41", "factor52"])
    def test_efficient_cases(self, model, theta):
        report = efficiency_criterion(eval_geometry(model, theta))
        assert report.verdict == "efficient"
        assert max(report.per_m_residuals) <= 1e-8

    def test_inefficient_cases(self):
        report = efficiency_criterion(eval_geometry(toeplitz(4), THETA_STAR))
        assert report.verdict == "not_efficient"
        assert max(report.per_m_residuals) >= 1e-3
        report = efficiency_criterion(eval_geometry(circular(), np.array([0.5])))
        assert not report.passed
        assert max(report.per_m_residuals) >= 1e-3

    def test_explicit_influence_matrices(self):
        # handing the PLE influence matrices to the general-case criterion
        # reproduces the specialized PLE-criterion verdicts
        geom = eval_geometry(exchangeable(4), np.array([0.3]))
        b_mats, _, _ = ple_influence(geom)
        report = efficiency_criterion(geom, b_matrices=list(b_mats))
        assert report.criterion == "influence_efficiency"
        assert report.passed
        geom = eval_geometry(circular(), np.array([0.5]))
        b_mats, _, _ = ple_influence(geom)
        assert not efficiency_criterion(geom, b_matrices=list(b_mats)).passed

    def test_wrong_influence_count(self):
        geom = eval_geometry(toeplitz(3), np.array([0.4, 0.2]))
        with pytest.raises(ShapeError, match="^expected 2 influence matrices, got 1$"):
            efficiency_criterion(geom, b_matrices=[np.zeros((3, 3))])

    def test_report_serialization(self):
        report = efficiency_criterion(eval_geometry(circular(), np.array([0.5])))
        d = report.to_dict()
        assert set(d) == {"criterion", "per_m_residuals", "tolerance", "verdict"}
        assert d["criterion"] == "ple_efficiency"


class TestAdaptivity:
    def test_independence_adaptive(self):
        for model, zero in ((exchangeable(3), [0.0]), (circular(), [0.0]),
                            (toeplitz(3), [0.0, 0.0])):
            report = adaptivity_check(efficiency_bundle(eval_geometry(model, np.array(zero))))
            assert report.verdict == "adaptive"
            assert report.details["cross_check_consistent"]

    def test_demo_adaptive_at_zero_only(self):
        model = adaptivity_demo()
        assert adaptivity_check(
            efficiency_bundle(eval_geometry(model, np.array([0.0])))).passed
        assert not adaptivity_check(
            efficiency_bundle(eval_geometry(model, np.array([0.2])))).passed

    def test_exchangeable_not_adaptive(self):
        bundle = efficiency_bundle(eval_geometry(exchangeable(3), np.array([0.5])))
        report = adaptivity_check(bundle)
        assert not report.passed
        assert report.details["info_gap"] > 0.1
        assert report.details["cross_check_consistent"]
        # fisher^-1 = 2/9 differs from the bound 1/3
        assert_allclose(1.0 / bundle.fisher[0, 0], 2.0 / 9.0,
                        rtol=1e-10)


class TestQuadInfluenceValue:
    def test_zero_matrix(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        assert quad_influence_value(np.zeros((3, 3)), geom,
                                    np.array([0.2, 0.5, 0.8])) == 0.0

    def test_domain_error(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        with pytest.raises(DomainError):
            quad_influence_value(np.eye(3), geom, np.array([0.2, 1.0, 0.8]))

    def test_wrong_length(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        with pytest.raises(ShapeError, match=r"^u must have length 3, got shape \(2,\)$"):
            quad_influence_value(np.eye(3), geom, np.array([0.2, 0.8]))

    def test_mc_mean_and_variance(self):
        rng = np.random.default_rng(41)
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        a = np.array([[0.2, 1.0, 0.0], [1.0, -0.1, 0.5], [0.0, 0.5, -0.1]])
        z = rng.multivariate_normal(np.zeros(3), geom.r, size=10**6,
                                    method="cholesky")
        vals = 0.5 * (np.einsum("ij,jk,ik->i", z, a, z) - np.sum(a * geom.r))
        u = norm_cdf(z[:3])
        direct = [quad_influence_value(a, geom, ui) for ui in u]
        assert_allclose(direct, vals[:3], rtol=1e-9)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) <= 3 * se
        var = vals.var(ddof=1)
        target = theta_inner(a, a, geom.r)
        var_se = np.sqrt(np.var((vals - vals.mean()) ** 2, ddof=1) / len(vals))
        assert abs(var - target) <= 3 * var_se


class TestBundleAndInvariants:
    @pytest.mark.parametrize("model", [
        exchangeable(3), exchangeable(4), unrestricted(3), toeplitz(3),
        toeplitz(4), circular(), factor(4, 1), factor(4, 2), adaptivity_demo(),
    ], ids=lambda m: f"{m.name}_{m.p}_{m.k}")
    def test_orthogonality_and_psd_loss(self, model):
        rng = np.random.default_rng(hash(model.name) % 2**32)
        for _ in range(20):
            theta = random_theta(model, rng)
            geom = eval_geometry(model, theta)
            mats = efficient_score_matrices(geom)
            for mat in mats:
                assert np.max(np.abs(np.diag(geom.r @ mat))) <= 1e-9
            fisher = efficiency_bundle(geom).fisher
            eff = np.array([[theta_inner(a, b, geom.r) for b in mats]
                            for a in mats])
            assert np.min(np.linalg.eigvalsh(fisher - eff)) >= -1e-9

    def test_independence_equalities(self):
        geom = eval_geometry(toeplitz(4), np.zeros(3))
        bundle = efficiency_bundle(geom)
        assert_allclose(bundle.fisher, bundle.eff_info, atol=1e-13)
        for mat, rdot in zip(bundle.eff_matrices, geom.r_dots):
            assert_allclose(mat, rdot, atol=1e-13)

    def test_bundle_consistency(self):
        geom = eval_geometry(circular(), np.array([0.5]))
        bundle = efficiency_bundle(geom)
        assert_allclose(bundle.eff_info @ bundle.eff_info_inv, np.eye(1),
                        rtol=1e-12)
        assert_allclose(bundle.eff_info, efficient_info(geom)[0], rtol=1e-14)
        assert_allclose(bundle.ple_cov, ple_influence(geom)[2], rtol=1e-14)
        assert bundle.g.shape == (1, 4)


def _exchangeable_info(p, theta):
    """I* of exchangeable(p) to 50 digits: p (p - 1) / (2 (1 + (p - 1) t)^2 (1 - t)^2),
    the balanced-spectrum closed form on its eigenvalues 1 + (p - 1) t (once)
    and 1 - t (p - 1 times); for p = 3 the inverse of criterion 1's bound."""
    with mp.workdps(50):
        t = mp.mpf(theta)
        return p * (p - 1) / (2 * (1 + (p - 1) * t) ** 2 * (1 - t) ** 2)


def _circular_info(theta):
    """I* of circular to 50 digits: sum (x - xbar)^2 / 2 with x = dlam / lam on
    its eigenvalues (1 + t)^2, 1 - t^2 (twice) and (1 - t)^2."""
    with mp.workdps(50):
        t = mp.mpf(theta)
        x = [2 / (1 + t), -2 * t / (1 - t * t), -2 * t / (1 - t * t), -2 / (1 - t)]
        xbar = sum(x) / 4
        return sum((v - xbar) ** 2 for v in x) / 2


# (p, theta, bound on the relative error of efficiency_bundle's eff_info,
# bound on that of the float closed form on the per-column eigenvalues that
# `eval_geometry` reads, `Spectrum.eigen_fn`): about 10x the largest error
# seen on a 2-CPU x86-64 VM (numpy 2.4, OpenBLAS).  The general path's error
# grows with kappa(R) toward the domain's edge; the per-column closed form's
# only with the roundoff of the generator's eigenvalues from sym_eig
# (-1 +- a few eps for exchangeable).
EXCHANGEABLE_POINTS = [
    (p, theta, general, closed)
    for p in (2, 3, 4, 10, 30, 100)
    for theta, general, closed in [
        (-0.5 / (p - 1), 1e-12, 1e-14), (0.0, 1e-12, 1e-14), (0.25, 1e-12, 1e-14),
        (0.5, 1e-12, 1e-14), (0.9, 5e-12, 1e-13), (0.99, 1e-11, 2e-12),
        (0.999, 5e-11, 2e-11)]]
CIRCULAR_POINTS = [
    (theta, general, 2e-15)
    for magnitude, general in [(0.0, 1e-14), (0.5, 1e-14), (0.9, 1e-13), (0.999, 2e-9),
                               (0.9999, 2e-8), (1.0 - 1e-5, 5e-5)]
    for theta in sorted({magnitude, -magnitude})]
# The bound on the relative error of the float closed form on the declared
# eigen-groups (`Spectrum.group_fn`), which the one-step update reads.  Their
# eigenvalues are exact formulas, so it holds at every point above: at most
# 3.9e-16 was seen on exchangeable and 3.5e-16 on circular, on the same VM.
GROUP_CLOSED = 1e-15


def closed_form_info(eigen, sizes, theta):
    """I* = sum m (x - xbar)^2 / 2, x = dlam / lam and xbar = sum m x / p, from
    the map t -> (lam, dlam, d2lam) `eigen` and its multiplicities `sizes`,
    in the operations of the one-step update."""
    lam, dlam, _ = eigen(np.array([theta]))
    x = dlam / lam
    x -= (np.add.reduce(sizes * x, 1) / sizes.sum())[:, None]
    return 0.5 * np.add.reduce(sizes * x * x, 1)[0]


class TestBalancedSpectrumOracle:
    """`efficiency_bundle`'s eff_info and the closed form
    I* = sum m (x - xbar)^2 / 2, x = dlam / lam, on a balanced spectrum,
    against 50-digit references: on the eigen-groups, as the one-step update
    uses it, and on the per-column eigenvalues."""

    @staticmethod
    def check(model, theta, exact, general, closed):
        spectrum = model.spectrum
        eff_info = efficiency_bundle(eval_geometry(model, [theta])).eff_info
        on_groups = closed_form_info(spectrum.group_fn, spectrum.sizes, theta)
        on_columns = closed_form_info(spectrum.eigen_fn, np.ones(model.p), theta)
        assert float(abs(eff_info[0, 0] - exact) / exact) <= general
        assert float(abs(on_groups - exact) / exact) <= GROUP_CLOSED
        assert float(abs(on_columns - exact) / exact) <= closed

    @pytest.mark.parametrize("p,theta,general,closed", EXCHANGEABLE_POINTS,
                             ids=lambda v: f"{v:.6g}" if isinstance(v, float) else None)
    def test_exchangeable(self, p, theta, general, closed):
        self.check(exchangeable(p), theta, _exchangeable_info(p, theta), general, closed)

    def test_exchangeable3_is_criterion_1(self):
        for theta in (-0.4, 0.25, 0.5, 0.9):
            bound = (1 - theta) ** 2 * (1 + 2 * theta) ** 2 / 3
            assert_allclose(float(1 / _exchangeable_info(3, theta)), bound, rtol=1e-15)

    @pytest.mark.parametrize("theta,general,closed", CIRCULAR_POINTS,
                             ids=lambda v: f"{v:.6g}" if isinstance(v, float) else None)
    def test_circular(self, theta, general, closed):
        self.check(circular(), theta, _circular_info(theta), general, closed)
