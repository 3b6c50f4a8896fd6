"""Tests for the scalar normal functions and symmetric-matrix algebra."""

import ast
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from copula_rank import (custom_affine, efficiency_bundle, eval_geometry, exchangeable, factor,
                         gram, norm_cdf, norm_quantile, one_step, rank_transform, theta_inner,
                         unrestricted)
from copula_rank import numcore
from copula_rank.geometry import _spd_inverse
from copula_rank.exceptions import DomainError, ShapeError, SingularityError
from copula_rank.numcore import (_cholesky, _solve, check_symmetric, identity, pinv,
                                 spd_factor, spd_inverse, sym_eig)


def oracle_quantile(p, dps=50):
    """Independent quantile oracle: bisection on the mpmath error function.

    Deliberately avoids the production code path (scipy.special.ndtri on
    min(p, 1 - p), mirrored about p = 1/2).
    """
    with mp.workdps(dps):
        target = mp.mpf(p)

        def cdf(x):
            return mp.erfc(-x / mp.sqrt(2)) / 2

        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(220):
            mid = (lo + hi) / 2
            if cdf(mid) <= target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def exchangeable_corr(p, theta):
    r = np.full((p, p), theta)
    np.fill_diagonal(r, 1.0)
    return r


class TestNormQuantile:
    def test_symmetry_pinned_points(self):
        assert norm_quantile(0.5) == 0.0
        assert norm_cdf(0.0) == 0.5
        assert_allclose(norm_quantile(0.975), 1.959964, atol=1e-6)
        # exact mirror when 1 - p is exactly representable
        assert norm_quantile(0.25) == -norm_quantile(0.75)
        assert_allclose(norm_quantile(0.2), -norm_quantile(0.8), rtol=1e-15)

    def test_against_bisection_oracle(self):
        # Frozen oracle values (bisection on mpmath erfc, 50 digits):
        frozen = {
            0.975: 1.959963984540054,
            0.001: -3.0902323061678136,
            1e-300: -37.047096299361196,
        }
        for p, ref in frozen.items():
            assert_allclose(oracle_quantile(p), ref, rtol=1e-14)
            assert_allclose(norm_quantile(p), ref, rtol=1e-13)

    def test_tail_accuracy(self):
        # Design target: relative error <= 1e-9 across (1e-300, 1-1e-16).
        points = [1e-300, 1e-200, 1e-30, 1e-16, 1e-9, 0.0013, 0.3,
                  0.9987, 1.0 - 1e-9, float(np.nextafter(1.0, 0.0))]
        for p in points:
            ref = oracle_quantile(p)
            got = float(norm_quantile(p))
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), p

    def test_relative_accuracy_near_half(self):
        # Near p = 1/2 the quantile is close to 0, so only a relative bound
        # shows cancellation in its evaluation.
        points = [float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0)),
                  0.5 - 1e-12, 0.5 + 1e-12, 0.5 - 1e-9, 0.5 + 1e-9,
                  0.500005, 0.49]
        for p in points:
            ref = oracle_quantile(p)
            assert abs(float(norm_quantile(p)) - ref) <= 1e-14 * abs(ref), p

    def test_roundtrip(self):
        # Above x ~ 5.2 the roundtrip is limited by the spacing of doubles
        # near cdf(x) = 1: one ulp of p maps to 2^-53 / pdf(x) in x, which
        # exceeds 1e-9 there no matter how the quantile is computed.  The
        # bound below is 1e-9 or three ulps through the density, whichever
        # is larger.
        x = np.linspace(-6.0, 6.0, 241)
        back = norm_quantile(norm_cdf(x))
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        limit = np.maximum(1e-9, 3 * 2.0**-53 / pdf)
        assert np.all(np.abs(back - x) <= limit)
        lower = x[x <= 5.0]
        assert np.max(np.abs(norm_quantile(norm_cdf(lower)) - lower)) <= 1e-9

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                norm_quantile(bad)
        with pytest.raises(DomainError):
            norm_quantile(np.array([0.5, 1.0]))

    def test_vectorized(self):
        p = np.array([[0.1, 0.5], [0.9, 0.975]])
        out = norm_quantile(p)
        assert out.shape == (2, 2)
        assert out[0, 1] == 0.0


class TestInnerProduct:
    def test_identity_examples(self):
        p = 4
        r = np.eye(p)
        assert theta_inner(np.eye(p), np.eye(p), r) == pytest.approx(p / 2)
        assert theta_inner(np.zeros((p, p)), np.eye(p), r) == 0.0

    def test_exchangeable_independence(self):
        # A = B = all-ones off-diagonal, R = I: each diagonal entry of
        # A @ A equals p - 1, so the inner product is p(p-1)/2 = 3.
        r = np.eye(3)
        rdot = exchangeable_corr(3, 1.0) - np.eye(3)
        assert theta_inner(rdot, rdot, r) == pytest.approx(3.0)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(1234)
        r = exchangeable_corr(4, 0.35)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            a = a + a.T
            b = rng.standard_normal((4, 4))
            b = b + b.T
            ab = theta_inner(a, b, r)
            ba = theta_inner(b, a, r)
            assert abs(ab - ba) <= 1e-12 * max(1.0, abs(ab))
            assert theta_inner(a, a, r) > 0.0

    def test_bilinearity(self):
        rng = np.random.default_rng(99)
        r = exchangeable_corr(3, -0.2)
        a1 = rng.standard_normal((3, 3))
        a1 = a1 + a1.T
        a2 = rng.standard_normal((3, 3))
        a2 = a2 + a2.T
        b = rng.standard_normal((3, 3))
        b = b + b.T
        lhs = theta_inner(2.5 * a1 - 0.75 * a2, b, r)
        rhs = 2.5 * theta_inner(a1, b, r) - 0.75 * theta_inner(a2, b, r)
        assert_allclose(lhs, rhs, rtol=1e-10)

    def test_shape_errors(self):
        r = np.eye(3)
        with pytest.raises(ShapeError):
            theta_inner(np.eye(2), np.eye(3), r)
        with pytest.raises(ShapeError):
            theta_inner(np.eye(3), np.eye(2), r)

    def test_ctx_validation(self):
        # R, the inner product's context, must be square and symmetric.
        asym = exchangeable_corr(3, 0.2)
        asym[0, 1] = 0.3
        with pytest.raises(ShapeError, match="correlation matrix is not symmetric"):
            theta_inner(np.eye(3), np.eye(3), asym)
        with pytest.raises(ShapeError, match="correlation matrix is not symmetric"):
            gram([np.eye(3)], asym)
        with pytest.raises(ShapeError, match="correlation matrix must be square"):
            gram([np.eye(3)], np.ones((3, 2)))


class TestCheckSymmetric:
    def test_verdict_matches_allclose(self):
        # The cheap test must raise exactly when allclose(a, a.T, rtol=0)
        # is False, including at NaN, +-inf and the atol boundary.
        rng = np.random.default_rng(20)
        atol = 1e-8
        cases = []
        for p in (1, 2, 3, 5):
            for _ in range(42):
                a = rng.standard_normal((p, p))
                a = a + a.T
                kind = len(cases) % 7
                if p > 1:
                    i, j = rng.choice(p, size=2, replace=False)
                    if kind == 0:
                        a[i, j], a[j, i] = atol, 0.0
                    elif kind == 1:
                        a[i, j], a[j, i] = atol * (1.0 + 1e-12), 0.0
                    elif kind == 2:
                        a[i, j] = a[j, i] = rng.choice([np.nan, np.inf, -np.inf])
                    elif kind == 3:
                        a[i, j], a[j, i] = -np.inf, np.inf
                    elif kind == 4:
                        a[i, j] = np.nan
                    elif kind == 5:
                        a[i, j] = a[j, i] + 0.5 * atol
                if rng.integers(4) == 0:
                    a[rng.integers(p), rng.integers(p)] = rng.choice([np.nan, np.inf])
                cases.append(a)
        # A non-finite matrix is rejected as such before the symmetry test.
        outcomes = set()
        for a in cases:
            expected = bool(np.allclose(a, a.T, rtol=0.0, atol=atol))
            outcomes.add(expected)
            assert numcore._all_close(a, a.T, atol) == expected, a
            try:
                check_symmetric(a)
                accepted = True
            except ShapeError as exc:
                assert "not symmetric" in str(exc)
                accepted = False
            except ValueError as exc:
                assert str(exc) == "array must not contain infs or NaNs"
                accepted = None
            assert accepted == (expected if np.isfinite(a).all() else None), a
        assert outcomes == {True, False}
        for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ShapeError, match="square"):
                check_symmetric(bad)

    def test_dimension(self):
        assert check_symmetric(np.eye(3), p=3).shape == (3, 3)
        with pytest.raises(ShapeError, match=r"^A has dim 2, expected 3$"):
            check_symmetric(np.eye(2), name="A", p=3)


# Symmetric and asymmetric placements of NaN and +-inf.
NON_FINITE = [[[1.0, 0.5], [0.5, np.nan]], [[1.0, 0.5], [0.5, np.inf]],
              [[1.0, np.nan], [np.nan, 1.0]], [[1.0, -np.inf], [np.inf, 1.0]]]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", NON_FINITE, ids=str)
    def test_inner_product_context_gram_theta_inner(self, bad):
        # `bad` as R, the inner product's context, and as an argument.
        with pytest.raises(ValueError, match="infs or NaNs"):
            gram([np.eye(2)], bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            theta_inner(np.eye(2), np.eye(2), bad)
        for basis in ([bad], np.array([np.eye(2), bad])):
            with pytest.raises(ValueError, match="infs or NaNs"):
                gram(basis, np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            theta_inner(bad, np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            theta_inner(np.eye(2), bad, np.eye(2))


class TestSpdHelpers:
    @pytest.mark.parametrize("p", [1, 3, 4, 100])
    def test_bit_identical_to_scipy(self, p):
        rng = np.random.default_rng(400 + p)
        for _ in range(4):
            x = rng.standard_normal((2 * p + 3, p))
            a = x.T @ x / (2 * p + 3) + 0.05 * np.eye(p)
            d = 1.0 / np.sqrt(np.diag(a))
            for mat in (a, d[:, None] * a * d[None, :]):  # covariance and correlation
                c = _cholesky(mat)
                assert np.array_equal(c, scipy.linalg.cholesky(mat, lower=True))
                assert np.array_equal(spd_factor(mat, "mat"), c)
                for b in (rng.standard_normal(p), rng.standard_normal((p, 3)), np.eye(p)):
                    assert np.array_equal(_solve(c, b), scipy.linalg.cho_solve((c, True), b))
                inv = spd_inverse(c)
                assert inv.flags.c_contiguous
                assert np.array_equal(inv, scipy.linalg.cho_solve((c, True), np.eye(p)))

    def test_error_contract(self):
        a = exchangeable_corr(3, 0.2)
        for bad in (np.nan, np.inf, -np.inf):
            m = a.copy()
            m[0, 2] = bad  # upper triangle: LAPACK would not read it
            with pytest.raises(ValueError):
                spd_factor(m, "m")
        for shape in ((2, 3), (3,), (2, 2, 2)):
            with pytest.raises(ValueError):
                spd_factor(np.ones(shape), "m")

        indefinite = exchangeable_corr(3, -0.6)
        assert _cholesky(indefinite) is None
        lam = np.linalg.eigvalsh(indefinite)[0]
        with pytest.raises(SingularityError, match=r"^what \(min eigenvalue -2\.000e-01\)$") as exc:
            spd_factor(indefinite, "what")
        assert exc.value.eigenvalue == pytest.approx(lam, abs=1e-14)
        assert exc.value.cond == pytest.approx(8.0, rel=1e-14)  # 1.6 / 0.2


def pd_failures():
    """(raise the error, the matrix it is about, its message) for each
    producer of a "not positive definite" SingularityError; each message is
    the one the package has always printed."""
    indefinite = exchangeable_corr(3, -0.6)
    info = efficiency_bundle(eval_geometry(factor(5, 2), 0.2 + 0.1 * np.cos(np.arange(10)))).eff_info
    balanced = custom_affine(3, [np.zeros((3, 3))])
    sample = rank_transform(np.random.default_rng(1).standard_normal((50, 3)))
    lam = sym_eig(info, vectors=False)[0]
    return {
        "eval_geometry": (lambda: eval_geometry(exchangeable(3), [-0.6]), indefinite,
                          "R(theta) is not positive definite for exchangeable "
                          "(min eigenvalue -2.000e-01)"),
        "spd_factor": (lambda: spd_factor(indefinite, "what"), indefinite,
                       "what (min eigenvalue -2.000e-01)"),
        "spd_inverse": (lambda: _spd_inverse(info, "efficient information matrix"), info,
                        "efficient information matrix is not positive definite "
                        f"(min eigenvalue {lam:.3e})"),
        "balanced_one_step": (lambda: one_step(balanced, sample, pilot=np.zeros(1)),
                              np.zeros((1, 1)), "efficient information matrix is not "
                              "positive definite (min eigenvalue 0.000e+00)"),
    }


class TestSingularityContract:
    @pytest.mark.parametrize("producer", ["eval_geometry", "spd_factor", "spd_inverse",
                                          "balanced_one_step"])
    def test_message_eigenvalue_and_cond(self, producer):
        # Every verdict that a matrix is not positive definite carries its
        # smallest eigenvalue and its condition number max|lam| / min|lam|.
        fail, mat, message = pd_failures()[producer]
        with pytest.raises(SingularityError) as exc:
            fail()
        eigs = sym_eig(mat, vectors=False)
        size = np.abs(eigs)
        assert str(exc.value) == message
        assert exc.value.eigenvalue == eigs[0]
        assert exc.value.cond == (size.max() / size.min() if size.min() > 0.0 else np.inf)


def singularity_builds(tree):
    """The lines of a module's syntax tree that call SingularityError(...),
    however it was imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "SingularityError":
                found.add(node.lineno)
    return found


class TestOneSingularityBuilder:
    def test_numcore_alone_builds_the_error(self):
        # numcore._singular builds every "not positive definite" error, so
        # each carries the same message form, eigenvalue and cond.
        package = Path(numcore.__file__).parent
        found = {path.stem: singularity_builds(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(package.glob("*.py"))}
        assert len(found["numcore"]) == 1  # the rule sees the real call
        assert not any(lines for name, lines in found.items() if name != "numcore"), found

    def test_rule_sees_a_call_in_another_module(self):
        source = ("from .exceptions import SingularityError\n"
                  "from . import exceptions\n"
                  "raise SingularityError('R is singular', eigenvalue=0.0)\n"
                  "err = exceptions.SingularityError('I* is singular')\n"
                  "try:\n    pass\nexcept SingularityError:\n    pass\n")
        assert singularity_builds(ast.parse(source)) == {3, 4}


class TestSymEig:
    @pytest.mark.parametrize("p", [1, 3, 4, 100])
    def test_matches_numpy(self, p):
        rng = np.random.default_rng(500 + p)
        for _ in range(4):
            x = rng.standard_normal((p, p))
            a = x + x.T
            w, v = sym_eig(a)
            w_np, v_np = np.linalg.eigh(a)
            scale = np.abs(w_np).max()
            assert_allclose(w, w_np, rtol=0, atol=1e-13 * scale)
            assert_allclose(sym_eig(a, vectors=False), np.linalg.eigvalsh(a),
                            rtol=0, atol=1e-13 * scale)
            assert v.flags.c_contiguous
            # Eigenvectors are unique up to sign where the eigenvalues are
            # simple, as they are for these draws.
            signs = np.sign(np.sum(v * v_np, axis=0))
            assert_allclose(v * signs, v_np, rtol=0, atol=1e-13 * p)
            assert_allclose(v @ np.diag(w) @ v.T, a, rtol=0, atol=1e-13 * scale * p)

    def test_reads_lower_triangle(self):
        a = exchangeable_corr(3, 0.2)
        m = a.copy()
        m[0, 2] = 7.0
        assert np.array_equal(sym_eig(m, vectors=False), sym_eig(a, vectors=False))

    def test_non_finite_gives_nan(self):
        a = exchangeable_corr(3, 0.2)
        for bad in (np.nan, np.inf, -np.inf):
            for pos in ((0, 0), (1, 0)):
                m = a.copy()
                m[pos] = m[pos[::-1]] = bad
                w, v = sym_eig(m)
                assert w.shape == (3,) and v.shape == (3, 3)
                assert np.isnan(w).all() and np.isnan(v).all()
                assert np.isnan(sym_eig(m, vectors=False)).all()
        # numpy.linalg's eigenvalues for a non-finite off-diagonal pair
        m = a.copy()
        m[1, 0] = m[0, 1] = np.inf
        assert np.isnan(np.linalg.eigvalsh(m)).all()

    def test_shape_errors(self):
        for shape in ((2, 3), (3,), (2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                sym_eig(np.ones(shape))
            with pytest.raises(ValueError, match="square"):
                sym_eig(np.ones(shape), vectors=False)

    def test_failed_dsyevd_raises(self, monkeypatch):
        def failed(a, compute_v=1, lower=0):
            n = a.shape[0]
            return np.zeros(n), np.zeros((n, n)), 2

        monkeypatch.setattr(numcore, "dsyevd", failed)
        for vectors in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                sym_eig(exchangeable_corr(3, 0.2), vectors=vectors)


def linalg_uses(tree):
    """(module, name) pairs for the scipy.linalg imports and the numpy.linalg
    names that numcore wraps or makes redundant (factorizations, eigen-solves,
    inverses, solves, condition numbers) that a module's syntax tree uses."""
    uses = set()
    watched = {"cholesky", "eigh", "eigvalsh", "eig", "inv", "pinv", "solve", "cond"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses |= {("scipy.linalg", alias.name) for alias in node.names
                     if alias.name.startswith("scipy.linalg")}
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.linalg") or (
                    node.module == "scipy" and any(a.name == "linalg" for a in node.names)):
                uses.add(("scipy.linalg", node.module))
            elif node.module == "numpy.linalg":
                uses |= {("numpy.linalg", a.name) for a in node.names if a.name in watched}
        elif (isinstance(node, ast.Attribute) and node.attr in watched
              and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            uses.add(("numpy.linalg", node.attr))
    return uses


class TestLapackEntryPoint:
    def test_numcore_is_the_one_lapack_entry_point(self):
        # Only numcore imports scipy.linalg or calls numpy's factorizations,
        # eigen-solvers, inverses, solves and condition numbers.
        package = Path(numcore.__file__).parent
        found = {path.stem: linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(package.glob("*.py"))}
        assert found["numcore"]  # the rule sees real uses
        misplaced = sorted((name, use) for name, uses in found.items() for use in uses
                           if name != "numcore")
        assert not misplaced, misplaced

    def test_rule_sees_every_spelling(self):
        source = ("import scipy.linalg\nfrom scipy import linalg\n"
                  "from scipy.linalg.lapack import dpotrf\n"
                  "from numpy.linalg import eigh, inv\nnp.linalg.eigvalsh(a)\n"
                  "numpy.linalg.cholesky(a)\nnp.linalg.eig(a)\nnp.linalg.pinv(a)\n"
                  "np.linalg.solve(a, b)\nnp.linalg.cond(a)\nnp.linalg.svd(a)\n"
                  "np.linalg.norm(a)\nnp.linalg.lstsq(a, b)\n")
        assert linalg_uses(ast.parse(source)) == {
            ("scipy.linalg", "scipy.linalg"), ("scipy.linalg", "scipy"),
            ("scipy.linalg", "scipy.linalg.lapack"), ("numpy.linalg", "eigh"),
            ("numpy.linalg", "inv"), ("numpy.linalg", "eigvalsh"),
            ("numpy.linalg", "cholesky"), ("numpy.linalg", "eig"),
            ("numpy.linalg", "pinv"), ("numpy.linalg", "solve"), ("numpy.linalg", "cond")}


def ignoring_filters(tree):
    """(line, function) pairs for the warning filters that ignore in a
    module's syntax tree: `simplefilter` or `filterwarnings` called with the
    action "ignore", and `catch_warnings(action="ignore")`, however they
    were imported."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("simplefilter", "filterwarnings"):
            actions = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "action"]
        elif name == "catch_warnings":
            actions = [kw.value for kw in node.keywords if kw.arg == "action"]
        else:
            continue
        if any(isinstance(a, ast.Constant) and a.value == "ignore" for a in actions):
            found.add((node.lineno, name))
    return found


class TestNoIgnoredWarnings:
    def test_no_warning_filter_ignores_in_the_package(self):
        # A warning in the package reaches its caller: the command line
        # records and prints warnings, and nothing filters one away.
        package = Path(numcore.__file__).parent
        found = {path.stem: ignoring_filters(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(package.glob("*.py"))}
        assert "cli" in found and "mc" in found  # the rule read the package
        assert not any(found.values()), found

    def test_rule_sees_every_spelling(self):
        source = ('warnings.simplefilter("ignore")\n'
                  'warnings.filterwarnings("ignore", category=RuntimeWarning)\n'
                  'simplefilter("ignore", RuntimeWarning)\n'
                  'filterwarnings(action="ignore", message="x")\n'
                  'warnings.catch_warnings(action="ignore")\n'
                  'warnings.catch_warnings(record=True)\n'
                  'warnings.simplefilter("error")\n'
                  'warnings.filterwarnings("always")\n'
                  'np.errstate(invalid="ignore")\n')
        assert ignoring_filters(ast.parse(source)) == {
            (1, "simplefilter"), (2, "filterwarnings"), (3, "simplefilter"),
            (4, "filterwarnings"), (5, "catch_warnings")}


class TestPinv:
    @pytest.mark.parametrize("shape", [(9, 1), (16, 3), (100, 45), (50, 80), (10000, 1)])
    def test_bit_identical_to_numpy(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        deficient = a.copy()
        deficient[:, -1] = deficient[:, 0]  # one zero singular value
        for mat in (a, deficient):
            for rcond in (max(shape) * np.finfo(float).eps, 1e-2):
                assert np.array_equal(pinv(mat, rcond), np.linalg.pinv(mat, rcond=rcond))

    def test_error_contract(self):
        for bad in (np.nan, np.inf):
            m = np.ones((4, 2))
            m[1, 0] = bad
            with pytest.raises(ValueError):
                pinv(m, 1e-15)
        with pytest.raises(ValueError, match="matrix"):
            pinv(np.ones(3), 1e-15)


class TestIdentity:
    def test_read_only_and_shared(self):
        eye = identity(4)
        assert np.array_equal(eye, np.eye(4))
        assert not eye.flags.writeable
        assert identity(4) is eye


class TestGram:
    def test_exchangeable_independence(self):
        r = np.eye(3)
        rdot = exchangeable_corr(3, 1.0) - np.eye(3)
        assert_allclose(gram([rdot], r), [[3.0]], rtol=1e-15)

    def test_zero_matrix_row(self):
        r = np.eye(3)
        rdot = exchangeable_corr(3, 1.0) - np.eye(3)
        g = gram([rdot, np.zeros((3, 3))], r)
        assert_allclose(g[1], [0.0, 0.0])
        assert_allclose(g[:, 1], [0.0, 0.0])

    def test_unrestricted_p2_fisher(self):
        # Fisher information for the single correlation of a bivariate
        # Gaussian copula: (1 + r^2) / (1 - r^2)^2.  Cross-checked with a
        # finite-difference oracle for S-dot instead of the analytic one.
        rdot = np.array([[0.0, 1.0], [1.0, 0.0]])
        for r in (-0.7, -0.2, 0.0, 0.35, 0.9):
            corr = np.array([[1.0, r], [r, 1.0]])
            s = np.linalg.inv(corr)
            sdot = -s @ rdot @ s
            got = gram([-sdot], corr)[0, 0]
            assert_allclose(got, (1 + r * r) / (1 - r * r) ** 2, rtol=1e-12)

            h = 1e-6
            s_hi = np.linalg.inv(np.array([[1.0, r + h], [r + h, 1.0]]))
            s_lo = np.linalg.inv(np.array([[1.0, r - h], [r - h, 1.0]]))
            sdot_fd = (s_hi - s_lo) / (2 * h)
            fd = gram([-sdot_fd], corr)[0, 0]
            assert_allclose(got, fd, rtol=1e-7)

    def test_psd_and_pairwise_consistency(self):
        rng = np.random.default_rng(31)
        r = exchangeable_corr(4, 0.45)
        basis = []
        for _ in range(3):
            a = rng.standard_normal((4, 4))
            basis.append(a + a.T)
        g = gram(basis, r)
        pairwise = [[theta_inner(a, b, r) for b in basis] for a in basis]
        assert_allclose(g, pairwise, rtol=1e-12)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-10
        assert np.array_equal(gram(np.stack(basis), r), g)

    def test_high_k_stack_matches_pairwise(self):
        # k = 15 generators of unrestricted(6) at a non-trivial R.
        model = unrestricted(6)
        theta = 0.1 * np.cos(np.arange(model.k))
        r = model.r_of_theta(theta)
        basis = model.r_dots(theta)
        g = gram(basis, r)
        pairwise = [[theta_inner(a, b, r) for b in basis] for a in basis]
        assert g.shape == (15, 15)
        assert_allclose(g, pairwise, rtol=1e-12)

    def test_empty_basis_rejected(self):
        with pytest.raises(ShapeError):
            gram([], np.eye(2))

    def test_malformed_basis_rejected(self):
        r = np.eye(2)
        asym = np.array([[0.0, 1.0], [0.0, 0.0]])
        for basis in ([np.eye(3)], [np.eye(2), np.eye(3)], [asym], np.eye(2)):
            with pytest.raises(ShapeError):
                gram(basis, r)


class TestMonteCarloIdentity:
    def test_quadratic_form_covariance(self):
        # Cov(z'Az/2, z'Bz/2) under N(0, R) equals tr(ARBR)/2, the inner
        # product.  Brute-force check with 10^6 draws.
        rng = np.random.default_rng(2024)
        corr = exchangeable_corr(3, 0.5)
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
        z = rng.multivariate_normal(np.zeros(3), corr, size=10**6,
                                    method="cholesky")
        qa = 0.5 * np.einsum("ij,jk,ik->i", z, a, z)
        qb = 0.5 * np.einsum("ij,jk,ik->i", z, b, z)
        prod = (qa - qa.mean()) * (qb - qb.mean())
        cov = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(cov - theta_inner(a, b, corr)) <= 3 * se


def spd_stack(p):
    """Five positive definite p x p matrices: correlation matrices (one
    near-singular) and a covariance; then one that is not positive
    definite."""
    rng = np.random.default_rng(70 + p)
    mats = []
    for scale in (0.3, 0.6, 0.9):
        x = rng.standard_normal((2 * p + 2, p))
        a = x.T @ x / (2 * p + 2) + scale * np.eye(p)
        d = 1.0 / np.sqrt(np.diag(a))
        mats.append(d[:, None] * a * d[None, :])
    mats.append(exchangeable_corr(p, 1.0 - 1e-9))
    x = rng.standard_normal((3 * p, p))
    mats.append(x.T @ x)
    mats.append(exchangeable_corr(p, 1.5))  # lambda_min = 1 - 1.5 < 0
    return np.array(mats)


class TestUncheckedCores:
    """The cores that an estimator's internal path calls on arrays it built
    give the bits of the checked calls."""

    @pytest.mark.parametrize("p", [2, 4, 9])
    def test_same_bits_as_the_checked_calls(self, p):
        stack = spd_stack(p)
        rhs = np.random.default_rng(3).standard_normal((p, 3))
        for a in stack[:5]:
            c = numcore._cholesky(a)
            assert c.tobytes() == spd_factor(a, "a").tobytes()
            assert numcore._solve(c, rhs).tobytes() == scipy.linalg.cho_solve((c, True),
                                                                             rhs).tobytes()
        assert numcore._cholesky(stack[5]) is None
        basis = stack[:3] - np.eye(p)
        assert numcore._gram(basis, stack[0]).tobytes() == gram(basis, stack[0]).tobytes()
