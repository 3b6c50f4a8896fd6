"""Tests for the correlation-model builders and geometry evaluation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copula_rank import (adaptivity_demo, build_model, circular, custom_affine,
                         efficiency_bundle, eval_geometry, exchangeable, factor,
                         load_model, load_schema, lower_triangle_pairs, toeplitz,
                         unrestricted, validate_assumption1)
from copula_rank.exceptions import (ConfigError, DomainError, ShapeError,
                                    SingularityError)
from copula_rank import models
from copula_rank.models import FAMILIES
from copula_rank.numcore import _cholesky

ALL_BUILTINS = [
    (exchangeable(3), np.array([0.4])),
    (exchangeable(4), np.array([-0.2])),
    (unrestricted(3), np.array([0.3, -0.1, 0.25])),
    (toeplitz(4), np.array([0.4, 0.1, -0.2])),
    (circular(), np.array([0.45])),
    (factor(4, 1), np.array([0.6, -0.3, 0.5, 0.2])),
    (factor(4, 2), np.array([0.5, 0.0, 0.2, 0.4, -0.3, 0.1, 0.4, 0.2])),
    (adaptivity_demo(), np.array([0.1])),
]


class TestBuilders:
    def test_exchangeable_structure(self):
        model = exchangeable(3)
        r = model.r_of_theta(np.array([0.5]))
        assert_allclose(r, np.array([[1.0, 0.5, 0.5],
                                     [0.5, 1.0, 0.5],
                                     [0.5, 0.5, 1.0]]))
        rdot = model.r_dots(np.array([0.5]))[0]
        assert_allclose(rdot, np.ones((3, 3)) - np.eye(3))

    def test_circular_structure(self):
        model = circular()
        assert (model.p, model.k) == (4, 1)
        r = model.r_of_theta(np.array([0.4]))
        assert r[0, 2] == pytest.approx(0.16)
        assert r[1, 3] == pytest.approx(0.16)
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
            assert r[i, j] == pytest.approx(0.4)
        # derivative: 1 on first-neighbor entries, 2*theta on the diagonals
        rdot = model.r_dots(np.array([0.4]))[0]
        assert rdot[0, 1] == pytest.approx(1.0)
        assert rdot[0, 2] == pytest.approx(0.8)

    def test_unrestricted_unit_derivatives(self):
        model = unrestricted(4)
        assert model.k == 6
        pairs = lower_triangle_pairs(4)
        assert pairs[0] == (1, 0)
        theta = np.linspace(0.05, 0.3, 6)
        for m, (i, j) in enumerate(pairs):
            rdot = model.r_dots(theta)[m]
            expected = np.zeros((4, 4))
            expected[i, j] = expected[j, i] = 1.0
            assert_allclose(rdot, expected)

    def test_toeplitz_structure(self):
        model = toeplitz(4)
        r = model.r_of_theta(np.array([0.5, 0.3, 0.1]))
        assert r[0, 1] == r[1, 2] == r[2, 3] == 0.5
        assert r[0, 2] == r[1, 3] == 0.3
        assert r[0, 3] == 0.1

    def test_factor_structure(self):
        model = factor(3, 1)
        theta = np.array([0.5, 0.4, -0.3])
        r = model.r_of_theta(theta)
        outer = np.outer(theta, theta)
        expected = np.eye(3) + outer - np.diag(np.diag(outer))
        assert_allclose(r, expected)
        assert any("lower" in note for note in model.notes)
        assert any("unverified reparametrization" in note
                   for note in model.notes)

    def test_factor_note_and_descriptor(self):
        model = factor(4, 2)
        assert model.descriptor == {"family": "factor", "p": 4, "q": 2}
        note = next(n for n in model.notes if "loadings" in n)
        assert "not identifiable for q >= 2" in note
        for name in ("ple_estimate", "pilot_moment", "one_step"):
            assert name in note
        with pytest.raises(TypeError):
            factor(4, 2, constraint="none")
        with pytest.raises(ConfigError, match="constraint: unexpected field"):
            build_model({"family": "factor", "p": 4, "q": 2,
                         "constraint": "lower_triangular"})

    def test_adaptivity_demo_curve(self):
        model = adaptivity_demo()
        r = model.r_of_theta(np.array([0.2]))
        assert r[0, 1] == pytest.approx(0.54)
        assert r[0, 2] == pytest.approx(0.54)
        assert r[1, 2] == pytest.approx(0.45)

    def test_custom_affine(self):
        gen = np.zeros((3, 3))
        gen[0, 1] = gen[1, 0] = 1.0
        model = custom_affine(3, [gen])
        r = model.r_of_theta(np.array([0.7]))
        assert r[0, 1] == pytest.approx(0.7)
        assert r[1, 2] == 0.0

    def test_custom_affine_rejections(self):
        with pytest.raises(ConfigError):
            custom_affine(3, [])
        bad_diag = np.eye(3)
        with pytest.raises(ConfigError):
            custom_affine(3, [bad_diag])
        asym = np.zeros((3, 3))
        asym[0, 1] = 1.0
        with pytest.raises(ConfigError):
            custom_affine(3, [asym])

    def test_custom_affine_error_names_field_once(self):
        asym = np.zeros((3, 3))
        asym[0, 1] = 1.0
        cases = [([asym], "generators[0] is not symmetric"),
                 ([np.zeros((3, 3)), np.zeros((2, 2))],
                  "generators[1] has dim 2, expected 3"),
                 ([[[0.0, np.nan, 0.0], [np.nan, 0.0, 0.0], np.zeros(3)]],
                  "generators[0]: array must not contain infs or NaNs")]
        for generators, message in cases:
            with pytest.raises(ConfigError) as exc:
                custom_affine(3, generators)
            assert str(exc.value) == message

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            exchangeable(1)
        with pytest.raises(ConfigError):
            factor(3, 0)
        with pytest.raises(ConfigError):
            factor(3, 3)
        for build in (unrestricted, toeplitz, lambda p: factor(p, 1),
                      lambda p: custom_affine(p, [[[0.0]]])):
            with pytest.raises(ConfigError, match="^p: .* needs p >= 2$"):
                build(1)

    def test_theta_vec_validation(self):
        model = exchangeable(3)
        with pytest.raises(ShapeError):
            model.theta_vec(np.array([0.1, 0.2]))
        with pytest.raises(DomainError):
            model.theta_vec(np.array([np.nan]))

    def test_r_dots_validates_theta(self):
        for model in (exchangeable(3), toeplitz(4), circular()):
            with pytest.raises(ShapeError):
                model.r_dots(np.full(model.k + 1, 0.1))
            with pytest.raises(DomainError):
                model.r_dots(np.full(model.k, np.nan))


class TestDerivativesAndDomains:
    @pytest.mark.parametrize("model,theta", ALL_BUILTINS,
                             ids=lambda v: getattr(v, "name", None) or str(v))
    def test_finite_difference_match(self, model, theta):
        h = 1e-6
        for m in range(model.k):
            e = np.zeros(model.k)
            e[m] = h
            fd = (model.r_of_theta(theta + e) - model.r_of_theta(theta - e)) / (2 * h)
            assert np.max(np.abs(model.r_dots(theta)[m] - fd)) <= 1e-6

    @pytest.mark.parametrize("model,theta", ALL_BUILTINS + [
        (dataclasses.replace(circular(), name="circular_fd", grad_fn=None),
         np.array([0.45]))],
        ids=lambda v: getattr(v, "name", None) or str(v))
    def test_r_dots_stack(self, model, theta):
        # circular_fd has no analytic gradient: finite differences.
        r_dots = model.r_dots(theta)
        assert r_dots.shape == (model.k, model.p, model.p)
        if model.affine_generators is not None:
            assert r_dots is model.affine_generators
            with pytest.raises(ValueError):
                r_dots[0, 0, 1] = 0.5

    @pytest.mark.parametrize("model,theta", ALL_BUILTINS,
                             ids=lambda v: getattr(v, "name", None) or str(v))
    def test_derivative_zero_diagonal(self, model, theta):
        for m in range(model.k):
            assert np.all(np.diag(model.r_dots(theta)[m]) == 0.0)

    def test_exchangeable_domain(self):
        model = exchangeable(4)
        assert model.domain_check(np.array([0.9]))
        assert not model.domain_check(np.array([-1.0 / 3.0]))
        assert not model.domain_check(np.array([1.0]))

    def test_clamp(self):
        model = exchangeable(3)
        clamped, flag = model.into_domain(np.array([1.7]), model.default_init)
        assert flag and model.domain_check(clamped)
        assert clamped[0] == pytest.approx(1.0 - 1e-6)

    def test_factor_orthogonal_invariance(self):
        model = factor(4, 2)
        rng = np.random.default_rng(5)
        loadings = rng.uniform(-0.5, 0.5, size=(4, 2))
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = loadings @ q
        assert_allclose(model.r_of_theta(loadings.ravel()),
                        model.r_of_theta(rotated.ravel()), atol=1e-12)


# Instances of every family with in-domain thetas, including each shape that
# declares a Spectrum (one-generator affine models and circular).
FAMILY_EXAMPLES = {
    "unrestricted": [(unrestricted(2), [[-0.7], [0.0], [0.6]]),
                     (unrestricted(3), [[0.3, -0.1, 0.25]])],
    "exchangeable": [(exchangeable(3), [[-0.45], [0.0], [0.5], [0.9]]),
                     (exchangeable(100), [[-0.009], [0.25], [0.8]])],
    "toeplitz": [(toeplitz(2), [[-0.5], [0.3]]), (toeplitz(4), [[0.4, 0.1, -0.2]])],
    "circular": [(circular(), [[-0.8], [-0.2], [0.0], [0.45], [0.9]])],
    "factor": [(factor(4, 1), [[0.6, -0.3, 0.5, 0.2]])],
    "adaptivity_demo": [(adaptivity_demo(), [[0.1]])],
    "custom_affine": [(custom_affine(3, [[[0, 1, 0.5], [1, 0, 0], [0.5, 0, 0]]]),
                       [[-0.5], [0.3]]),
                      (custom_affine(3, [[[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                                         [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]),
                       [[0.2, 0.3]])],
}


class TestDomain:
    """The model owns its domain: the box declared as data, `into_domain`
    and `require`."""

    def test_box_ends(self):
        assert set(FAMILY_EXAMPLES) == set(FAMILIES)
        boxed = set()
        for family, examples in FAMILY_EXAMPLES.items():
            for model, _ in examples:
                if model.box is None:
                    continue
                boxed.add(family)
                lo, hi = model.box
                for end, outward in ((lo, -np.inf), (hi, np.inf)):
                    assert model.domain_check([end])
                    # circular's ends have lambda_min(R) = (1 - |theta|)^2 ~ 1e-12
                    assert _cholesky(model.r_of_theta([end])) is not None
                    assert not model.domain_check([np.nextafter(end, outward)])
        assert boxed == {"exchangeable", "circular"}

    @pytest.mark.parametrize(
        "model,thetas", [example for examples in FAMILY_EXAMPLES.values()
                         for example in examples],
        ids=lambda v: getattr(v, "name", None) and f"{v.name}{v.p}")
    def test_domain_check_block_is_domain_check_per_row(self, model, thetas):
        rng = np.random.default_rng(5)
        rows = np.vstack([rng.uniform(-2.5, 2.5, (30 - len(thetas), model.k)), thetas,
                          np.full((3, model.k), [np.nan], dtype=float),
                          np.full((3, model.k), [np.inf], dtype=float)])
        rows[30:, 1:] = 0.0
        if model.box is not None:
            rows[-6:-3, 0] = [model.box[0], model.box[1], np.nextafter(model.box[1], 2.0)]
        verdict = model.domain_check_block(rows)
        assert verdict.dtype == bool and verdict.shape == (len(rows),)
        assert verdict.tolist() == [model.domain_check(theta) for theta in rows]
        assert verdict.any() and not verdict.all()

    @pytest.mark.parametrize("model,start", [
        (toeplitz(2), [0.3]), (toeplitz(4), [0.49, -0.46, -0.85]),
        (unrestricted(3), [0.2, -0.1, 0.3]), (factor(4, 1), [0.5, 0.4, 0.3, 0.6])],
        ids=lambda v: getattr(v, "name", None) and f"{v.name}{v.p}")
    def test_no_box_block_is_domain_check_per_row(self, monkeypatch, eigensolves, model, start):
        # Pairs of rows on both sides of lambda_min(R) = 1e-10, one ulp of
        # the step apart along a ray from `start`, a row where R is not
        # positive definite and a NaN row: in three orders, the block's
        # verdicts are domain_check's, from one pass over the rows (an
        # eigen-solve per finite row) and no per-row domain_check.
        def excess(step):
            theta = np.asarray(start) * (1.0 + step)
            return np.linalg.eigvalsh(model.r_of_theta(theta))[0] - 1e-10

        pairs = []
        for direction in (1.0, -1.0):
            inside, outside = 0.0, direction
            while excess(outside) > 0.0:
                outside *= 2.0
            for _ in range(200):
                middle = 0.5 * (inside + outside)
                if middle in (inside, outside):
                    break
                inside, outside = (middle, outside) if excess(middle) > 0.0 else (inside, middle)
            pairs += [np.asarray(start) * (1.0 + inside), np.asarray(start) * (1.0 + outside)]
        rows = np.array(pairs + [np.asarray(start), np.asarray(start) * 40.0,
                                 np.full(model.k, np.nan), np.asarray(start) * 0.5])
        expected = [model.domain_check(theta) for theta in rows]
        assert expected[:4] == [True, False, True, False]
        assert expected[4:] == [True, False, False, True]
        monkeypatch.setattr(models.CorrelationModel, "domain_check",
                            lambda self, theta: pytest.fail("a per-row domain_check"))
        for order in (np.arange(8), np.arange(8)[::-1], np.array([6, 1, 4, 0, 7, 3, 5, 2])):
            eigensolves.clear()
            verdict = model.domain_check_block(rows[order])
            assert verdict.dtype == bool
            assert verdict.tolist() == [expected[i] for i in order]
            assert eigensolves == [(model.p, model.p)] * 7

    def test_into_domain_falls_back_to_anchor(self):
        # 2^-80 * 1e30 is still far outside, so no point of the segment is in.
        model, anchor = toeplitz(4), np.zeros(3)
        result, clamped = model.into_domain(np.full(3, 1e30), anchor)
        assert clamped
        assert np.array_equal(result, anchor) and result is not anchor

    @pytest.mark.parametrize(
        "model,anchor",
        [(model, thetas[0]) for examples in FAMILY_EXAMPLES.values()
         for model, thetas in examples],
        ids=lambda v: getattr(v, "name", None) or str(v))
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(-2.5, 2.5), min_size=8, max_size=8))
    def test_into_domain_and_require(self, model, anchor, values):
        theta = np.array(values[:model.k])
        inside = model.domain_check(theta)
        result, clamped = model.into_domain(theta, anchor)
        assert model.domain_check(result)
        assert clamped == (not inside)
        anchor = np.asarray(anchor, dtype=float)
        if inside:
            assert result is theta
            assert np.array_equal(model.require(theta), theta)
        else:
            if model.box is not None:
                assert np.array_equal(result, np.clip(theta, *model.box))
            else:
                segment = [anchor + 0.5 ** j * (theta - anchor) for j in range(1, 81)]
                assert any(np.array_equal(result, c) for c in segment + [anchor])
            with pytest.raises(DomainError,
                               match=f"^pilot .* outside the domain of {model.name}$"):
                model.require(theta, "pilot")


SPECTRAL_EXAMPLES = [(model, thetas) for examples in FAMILY_EXAMPLES.values()
                     for model, thetas in examples if model.spectrum is not None]


def projectors(spectrum):
    """The projectors P_g = Q_g Q_g' of a Spectrum's groups, the last one
    I - sum of the others where it has no columns."""
    columns, sizes = spectrum.columns, spectrum.sizes
    p = len(columns)
    owner = np.repeat(np.arange(len(sizes)), sizes.astype(int))[:columns.shape[1]]
    out = [columns[:, owner == g] @ columns[:, owner == g].T for g in range(owner[-1] + 1)]
    if len(out) < len(sizes):
        out.append(np.eye(p) - sum(out, np.zeros((p, p))))
    return out


def spectrum_defects(model, thetas, h=2.0 ** -10):
    """Largest deviations of a declared Spectrum from the model: the columns'
    Q'Q from I, sum lam_g P_g from R(theta), sum dlam_g P_g from
    dR/dtheta_m, and d2lam from a central difference of dlam with step h."""
    spectrum = model.spectrum
    q, proj = spectrum.columns, projectors(spectrum)
    defects = {"orthonormal": np.max(np.abs(q.T @ q - np.eye(q.shape[1]))),
               "r": 0.0, "r_dots": 0.0, "d2lam": 0.0}
    for theta in np.asarray(thetas, dtype=float):
        lam, dlam, d2lam = (a[0] for a in spectrum.group_fn(theta))
        assert (lam.shape, dlam.shape, d2lam.shape) == ((len(spectrum.sizes),),) * 3
        fd = (spectrum.group_fn(theta + h)[1][0] - spectrum.group_fn(theta - h)[1][0]) / (2.0 * h)
        for key, weights, target in (("r", lam, model.corr_fn(theta)),
                                     ("r_dots", dlam, model.r_dots(theta)[0])):
            assembled = sum(w * pg for w, pg in zip(weights, proj))
            defects[key] = max(defects[key], np.max(np.abs(assembled - target)))
        defects["d2lam"] = max(defects["d2lam"], np.max(np.abs(d2lam - fd)))
    return defects


class TestSpectrum:
    def test_examples_cover_families(self):
        assert set(FAMILY_EXAMPLES) == set(FAMILIES)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_declared_spectrum_matches_model(self, family):
        for model, thetas in FAMILY_EXAMPLES[family]:
            for theta in thetas:
                assert model.domain_check(theta)
            # Exactly the one-parameter affine models and circular declare one.
            expected = model.k == 1 and (model.affine_generators is not None
                                         or family == "circular")
            assert (model.spectrum is not None) == expected, (family, model.p)
            if model.spectrum is None:
                continue
            defects = spectrum_defects(model, thetas)
            assert max(defects.values()) <= 1e-12, (family, model.p, defects)

    def test_wrong_spectrum_fails_the_check(self):
        model = circular()

        def first_neighbours_only(t):
            # 1 +- 2 theta and 1 ignore the theta^2 second neighbours.
            lam = 1.0 + np.outer(t, [2.0, -2.0, 0.0])
            return lam, np.tile([2.0, -2.0, 0.0], (len(t), 1)), np.zeros(lam.shape)

        def no_curvature(t):
            lam, dlam, _ = model.spectrum.group_fn(t)
            return lam, dlam, np.zeros(lam.shape)

        defects = [spectrum_defects(dataclasses.replace(
            model, spectrum=dataclasses.replace(model.spectrum, group_fn=fn)), [[0.45]])
            for fn in (first_neighbours_only, no_curvature)]
        assert defects[0]["r"] > 0.1 and defects[0]["r_dots"] > 0.1
        assert defects[1]["d2lam"] > 1.0
        assert max(defects[1]["r"], defects[1]["r_dots"]) <= 1e-12

    @pytest.mark.parametrize("model,thetas", SPECTRAL_EXAMPLES,
                             ids=[f"{m.name}{m.p}" for m, _ in SPECTRAL_EXAMPLES])
    def test_stacked_rows_equal_blocks_of_one(self, model, thetas):
        # Row b of group_fn on a vector of B parameter values is, to the bit,
        # group_fn on the block of one (theta_b): the PLE descent solves a
        # block of samples on these rows.
        t = np.array([theta[0] for theta in thetas] + [-0.3, 1e-3, 0.0, 0.7])
        stacked = model.spectrum.group_fn(t)
        assert [a.shape for a in stacked] == [(len(t), len(model.spectrum.sizes))] * 3
        for b in range(len(t)):
            for rows, single in zip(stacked, model.spectrum.group_fn(t[b:b + 1])):
                assert np.array_equal(rows[b], single[0]), (b, t[b])

    def test_spectrum_needs_one_parameter(self):
        spectrum = exchangeable(3).spectrum
        with pytest.raises(ShapeError, match="needs k = 1, got k = 2"):
            dataclasses.replace(toeplitz(3), spectrum=spectrum)
        assert dataclasses.replace(toeplitz(3), spectrum=None).spectrum is None

    @pytest.mark.parametrize("model,thetas", SPECTRAL_EXAMPLES,
                             ids=[f"{m.name}{m.p}" for m, _ in SPECTRAL_EXAMPLES])
    def test_geometry_matches_matrix_path(self, model, thetas):
        # The same model stripped of its Spectrum evaluates the same S and dS
        # to the bit, and so every information matrix built on them: the
        # geometry factors R on every model and reads no Spectrum.
        generic = dataclasses.replace(model, spectrum=None)
        for theta in thetas:
            spectral, matrix = (eval_geometry(m, theta) for m in (model, generic))
            pairs = [(getattr(spectral, f), getattr(matrix, f)) for f in ("s", "s_dots")]
            bundles = efficiency_bundle(spectral), efficiency_bundle(matrix)
            pairs += [(getattr(bundles[0], f), getattr(bundles[1], f))
                      for f in ("eff_info", "eff_info_inv", "fisher", "ple_cov")]
            for a, b in pairs:
                assert np.array_equal(a, b), (theta, a, b)

    def test_geometry_exact_at_independence(self):
        # R(0) = I is its own Cholesky factor and inverse, so S = I and
        # dS = -S dR S = -dR exactly.
        for model, _ in SPECTRAL_EXAMPLES:
            geom = eval_geometry(model, np.zeros(model.k))
            assert np.array_equal(geom.s, np.eye(model.p))
            assert np.array_equal(geom.s_dots, -geom.r_dots)

    @pytest.mark.parametrize("build,solves", [
        (lambda: exchangeable(3), 0), (lambda: exchangeable(100), 0), (lambda: toeplitz(2), 1),
        (lambda: custom_affine(3, [[[0, 1, 0.5], [1, 0, 0], [0.5, 0, 0]]]), 1),
    ], ids=["exchangeable3", "exchangeable100", "toeplitz2", "custom_affine3"])
    def test_build_eigen_solves(self, eigensolves, build, solves):
        # exchangeable declares its groups; the other one-generator affine
        # families cluster the eigenvalues of one eigen-solve of G.
        assert build().spectrum is not None
        assert len(eigensolves) == solves

    @pytest.mark.parametrize("model,theta,eig", [(exchangeable(3), -0.6, -0.2),
                                                 (exchangeable(100), 1.01, -0.01),
                                                 (circular(), -1.0, 0.0)],
                             ids=["exchangeable3", "exchangeable100", "circular"])
    def test_non_pd_point_raises_with_eigenvalue(self, model, theta, eig):
        message = f"^R\\(theta\\) is not positive definite for {model.name} \\(min eigenvalue "
        with pytest.raises(SingularityError, match=message) as exc:
            eval_geometry(model, np.array([theta]))
        assert exc.value.eigenvalue == pytest.approx(eig, abs=1e-12)
        r = model.r_of_theta(np.array([theta]))
        assert exc.value.eigenvalue == pytest.approx(np.linalg.eigvalsh(r)[0], abs=1e-12)


def probe_balanced(model, theta0=0.1414):
    """The balance verdict on an eigenbasis Q of R(theta0) from numpy's eigh,
    independent of the declared groups: columns whose eigenvalues of R and
    dR/dtheta, diag(Q' R Q) and diag(Q' dR Q), agree to 1e-10 relative at
    three fixed parameter values form groups, and each group's sum_a Q_ia^2
    must equal |group| / p, to 1e-10, in every row i."""
    q = np.linalg.eigh(model.r_of_theta([theta0]))[1]
    thetas = [[-0.2718], [0.1414], [0.5772]]
    values = np.array([np.diag(q.T @ mats @ q) for theta in thetas
                       for mats in (model.r_of_theta(theta), model.r_dots(theta)[0])]).T
    p = len(values)  # row a: column a's functions
    agree = (np.abs(values[:, None] - values[None])
             <= 1e-10 * (1.0 + np.abs(values[:, None]))).all(axis=2)
    members = agree.argmax(axis=1)[:, None] == np.arange(p)
    weights = (q * q) @ members
    return bool((np.abs(weights - members.sum(axis=0) / p) <= 1e-10).all())


def block_ones(p, size):
    """The generator with an all-ones off-diagonal block on each run of
    `size` coordinates: its eigenvalue size - 1 has multiplicity p / size."""
    return np.kron(np.eye(p // size), np.ones((size, size))) - np.eye(p)


# Every built-in spectral family, with the thetas its groups are checked at.
# The one-generator custom_affine models: three distinct eigenvalues (not
# balanced), and eigenvalues 2 (twice) and -1 (four times), whose projected
# group has two columns.
GROUPED = [(exchangeable(p), [-0.4 / (p - 1), 0.0, 0.3, 0.9]) for p in (2, 3, 4, 100)] + [
    (circular(), [-0.9, -0.2, 0.0, 0.45, 0.9]),
    (toeplitz(2), [-0.5, 0.3]), (unrestricted(2), [-0.7, 0.6]),
    (custom_affine(3, [[[0, 1, 0.5], [1, 0, 0], [0.5, 0, 0]]]), [-0.5, 0.3]),
    (custom_affine(6, [block_ones(6, 3)]), [-0.4, 0.2, 0.9]),
]


class TestEigenGroups:
    """The eigen-groups a Spectrum declares: sum_g lam_g P_g is R(theta), with
    P_g = Q_g Q_g' and the last group's projector I - sum of the others."""

    @pytest.mark.parametrize("model,thetas", GROUPED,
                             ids=[f"{m.name}{m.p}" for m, _ in GROUPED])
    def test_groups_reproduce_the_model(self, model, thetas):
        spectrum, p = model.spectrum, model.p
        sizes = spectrum.sizes
        columns = spectrum.columns
        assert sizes.sum() == p
        # every group's columns, or every group's but a largest last one's
        assert columns.shape == (p, p) or (columns.shape == (p, p - sizes[-1])
                                           and sizes[-1] == sizes.max())
        assert_allclose(columns.T @ columns, np.eye(len(columns.T)), rtol=0, atol=1e-14)
        for theta in np.array(thetas)[:, None]:
            assert model.domain_check(theta)
        assert max(spectrum_defects(model, np.array(thetas)[:, None]).values()) <= 1e-12

    @pytest.mark.parametrize("model,thetas", GROUPED,
                             ids=[f"{m.name}{m.p}" for m, _ in GROUPED])
    def test_balanced_verdict_unchanged(self, model, thetas):
        assert model.spectrum.balanced == probe_balanced(model)

    def test_exchangeable_groups_are_exact(self):
        for p in (2, 3, 100):
            spectrum = exchangeable(p).spectrum
            assert spectrum.sizes.tolist() == [1, p - 1]
            assert np.array_equal(spectrum.columns, np.full((p, 1), 1 / np.sqrt(p)))
            lam, dlam, _ = spectrum.group_fn(np.array([0.5]))
            assert lam.tolist() == [[1 + (p - 1) * 0.5, 0.5]]
            assert dlam.tolist() == [[p - 1, -1]]


class TestMomentMap:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_decision_and_fit_match_least_squares(self, family):
        # A moment pilot exists where R(0) = I and dR(0) does not vanish; the
        # map then gives lstsq's fit of Rhat - I on dR(0).
        rng = np.random.default_rng(8)
        for model, _ in FAMILY_EXAMPLES[family]:
            zero = np.zeros(model.k)
            design = model.r_dots(zero).reshape(model.k, -1).T
            has_pilot = bool(np.array_equal(model.r_of_theta(zero), np.eye(model.p))
                             and design.any())
            assert (model.moment_map is not None) == has_pilot, (family, model.p)
            assert has_pilot == (family not in ("factor", "adaptivity_demo"))
            if not has_pilot:
                continue
            assert not model.moment_map.flags.writeable
            assert model.moment_map is model.moment_map
            b = rng.standard_normal(model.p ** 2)
            fit = np.linalg.lstsq(design, b, rcond=None)[0]
            assert_allclose(model.moment_map @ b, fit, rtol=0, atol=1e-12)


class TestDescriptors:
    def test_build_model_families(self):
        m = build_model({"family": "toeplitz", "p": 4})
        assert (m.p, m.k) == (4, 3)
        m = build_model({"family": "circular"})
        assert (m.p, m.k) == (4, 1)
        m = build_model({"family": "factor", "p": 5, "q": 2})
        assert (m.p, m.k) == (5, 10)
        gen = [[0.0, 1.0], [1.0, 0.0]]
        m = build_model({"family": "custom_affine", "p": 2, "generators": [gen]})
        assert m.k == 1

    def test_descriptor_errors_name_field(self):
        with pytest.raises(ConfigError, match="family"):
            build_model({})
        with pytest.raises(ConfigError, match="^descriptor: expected a JSON object$"):
            build_model([])
        with pytest.raises(ConfigError, match="family"):
            build_model({"family": "gumbel"})
        with pytest.raises(ConfigError, match="p"):
            build_model({"family": "exchangeable"})
        with pytest.raises(ConfigError, match="p"):
            build_model({"family": "exchangeable", "p": 2.5})
        with pytest.raises(ConfigError, match="q"):
            build_model({"family": "factor", "p": 4})
        # A dimension too large for dense p x p matrices is a config error,
        # not a numpy failure; the schema carries the same bound.
        limit = load_schema("model_descriptor")["properties"]["p"]["maximum"]
        for p in (limit + 1, 2**64 - 1):
            with pytest.raises(ConfigError, match="^p: expected an integer <= "):
                build_model({"family": "exchangeable", "p": p})
        assert build_model({"family": "exchangeable", "p": limit}).p == limit
        with pytest.raises(ConfigError, match="margin"):
            build_model({"family": "circular", "margin": "x"})
        for generators in (5, "abc", True, [5], ["abc"], [None]):
            with pytest.raises(ConfigError, match="^generators"):
                build_model({"family": "custom_affine", "p": 3,
                             "generators": generators})

    def test_descriptor_schema_matches_families(self):
        # The shipped schema and the FAMILIES table describe the same
        # families and fields.
        schema = load_schema("model_descriptor")
        assert schema["properties"]["family"]["enum"] == list(FAMILIES)
        fields = {key for _, keys in FAMILIES.values() for key in keys}
        assert set(schema["properties"]) == fields | {"family"}

    def test_unknown_schema_named(self):
        with pytest.raises(KeyError, match="unknown schema 'nope'"):
            load_schema("nope")

    def test_descriptor_round_trip(self):
        gen = [[0.0, 1.0], [1.0, 0.0]]
        models = [m for m, _ in ALL_BUILTINS] + [custom_affine(2, [gen])]
        assert {m.descriptor["family"] for m in models} == set(FAMILIES)
        for model in models:
            rebuilt = build_model(model.descriptor)
            assert rebuilt.descriptor == model.descriptor
            assert (rebuilt.name, rebuilt.p, rebuilt.k) == (model.name, model.p, model.k)

    def test_required_fields_checked_in_table_order(self):
        gen = [[0.0, 1.0], [1.0, 0.0]]
        cases = [
            ({"family": "custom_affine"}, "generators: missing required field"),
            ({"family": "custom_affine", "p": 2, "generators": None},
             "generators: missing required field"),
            ({"family": "custom_affine", "generators": [gen]},
             "p: missing required field"),
            ({"family": "custom_affine", "p": None, "generators": [gen]},
             "p: expected an integer, got None"),
            ({"family": "factor"}, "p: missing required field"),
            ({"family": "factor", "p": 4, "q": True}, "q: expected an integer, got True"),
        ]
        for descriptor, message in cases:
            with pytest.raises(ConfigError) as exc:
                build_model(descriptor)
            assert str(exc.value) == message

    def test_load_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "exchangeable", "p": 3}))
        model = load_model(str(path))
        assert model.name == "exchangeable"
        assert model.descriptor == {"family": "exchangeable", "p": 3}
        path.write_text("{not json")
        with pytest.raises(ConfigError, match=r"^descriptor: invalid JSON \("):
            load_model(str(path))


class TestAssumption1:
    def test_exchangeable_pass(self):
        report = validate_assumption1(exchangeable(3), np.array([0.5]))
        assert report.passed
        assert report.violated == ()
        assert report.min_eigenvalue == pytest.approx(0.5)  # 1 - theta
        assert report.rdot_rank == 1

    def test_exchangeable_boundary_pd_fails(self):
        report = validate_assumption1(exchangeable(3), np.array([-0.5]))
        assert not report.passed
        assert any("positive" in v for v in report.violated)
        # eigenvalue 1 + 2*theta = 0 at the boundary
        assert abs(report.min_eigenvalue) <= 1e-12

    def test_factor_rank_deficiency(self):
        # At loadings (a, 0, 0) the derivative of the first loading is the
        # off-diagonal part of 2a*e1e1', which is zero: rank drops to 2.
        report = validate_assumption1(factor(3, 1), np.array([0.6, 0.0, 0.0]))
        assert report.rdot_rank == 2
        assert not report.rdot_independent
        assert not report.passed

    def test_non_unit_diagonal_reported(self):
        model = dataclasses.replace(exchangeable(3), name="scaled",
                                    corr_fn=lambda t: 2.0 * exchangeable(3).corr_fn(t))
        report = validate_assumption1(model, np.array([0.5]))
        assert report.unit_diag_error == pytest.approx(1.0)
        assert report.violated == ("unit_diagonal",)
        assert not report.passed

    def test_to_dict_shape(self):
        d = validate_assumption1(exchangeable(3), np.array([0.5])).to_dict()
        assert d["criterion"] == "assumption1"
        assert d["verdict"] == "pass"
        assert d["positive_definite"] is True
        assert d["rdot_rank"] == 1


class TestGeometry:
    def test_independence(self):
        geom = eval_geometry(exchangeable(3), np.array([0.0]))
        assert_allclose(geom.s, np.eye(3), atol=1e-14)
        assert_allclose(geom.s_dots[0], -geom.r_dots[0], atol=1e-14)

    def test_exchangeable_inverse_diagonal(self):
        geom = eval_geometry(exchangeable(3), np.array([0.5]))
        # S = I/(1-t) - t/((1-t)(1+(p-1)t)) 11' has diagonal 1.5 here
        assert_allclose(np.diag(geom.s), [1.5, 1.5, 1.5], rtol=1e-12)

    def test_toeplitz_rs_identity(self):
        geom = eval_geometry(toeplitz(3), np.array([0.5, 0.3]))
        assert np.max(np.abs(geom.r @ geom.s - np.eye(3))) <= 1e-12

    @pytest.mark.parametrize("model,theta", ALL_BUILTINS,
                             ids=lambda v: getattr(v, "name", None) or str(v))
    def test_geometry_invariants(self, model, theta):
        geom = eval_geometry(model, theta)
        p = model.p
        assert np.linalg.norm(geom.r @ geom.s - np.eye(p)) <= 1e-9
        for m in range(model.k):
            target = -geom.s @ geom.r_dots[m] @ geom.s
            assert np.linalg.norm(geom.s_dots[m] - target) <= 1e-9

    @pytest.mark.parametrize("model,theta", [(exchangeable(100), [0.25]),
                                             (toeplitz(4), [0.4945460, -0.4592764, -0.8462492])],
                             ids=["exchangeable100", "toeplitz4"])
    def test_c_contiguous_layout(self, model, theta):
        # Products with S in the geometry and the PLE descent rely on
        # same-layout operands (see estimators._objective_and_inverse).
        geom = eval_geometry(model, np.array(theta))
        for a in (geom.s, geom.r_dots, geom.s_dots):
            assert a.flags.c_contiguous

    def test_factors_r_once(self, factorizations):
        eval_geometry(toeplitz(4), np.array([0.4945460, -0.4592764, -0.8462492]))
        assert len(factorizations) == 1

    def test_non_pd_raises_with_eigenvalue(self):
        gen = np.zeros((2, 2))
        gen[0, 1] = gen[1, 0] = 1.0
        model = custom_affine(2, [gen])
        with pytest.raises(SingularityError) as exc:
            eval_geometry(model, np.array([1.5]))
        assert exc.value.eigenvalue is not None
        assert exc.value.eigenvalue < 0

    def test_degenerate_theta_raises_singularity(self):
        # eval_geometry reports factorization failure (the CLI layer is
        # what enforces declared domains with a domain error).
        with pytest.raises(SingularityError):
            eval_geometry(exchangeable(3), np.array([1.5]))
