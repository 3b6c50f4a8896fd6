"""Scores, information matrices, and efficiency diagnostics.

Every quantity here is a function of a `Geometry` (R, S, their derivatives
at a fixed theta).  The central objects are quadratic forms in the
Gaussianized vector z:

* parametric score, component m:   -tr(S dR_m)/2 - z' dS_m z / 2
* efficient score, component m:    z' A*_m z / 2, with
  A*_m = D(g_m) - dS_m  and  D(b) = S diag(b) + diag(b) S

where the generator weights g_m solve (I + R o S) g = -(dR_m o S) 1
("o" is the entrywise product).  Gram matrices of these quadratic forms
under <A,B> = tr(ARBR)/2 give the Fisher information, the efficient
information (whose inverse is the semiparametric variance bound), and the
asymptotic covariance of the pseudo-likelihood estimator.  All of them are
fields of one lazy `efficiency_bundle`; the other functions here that
return them read a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ShapeError, SingularityError
from .numcore import (check_symmetric, check_symmetric_stack, cholesky_lower, gram,
                      identity, norm_quantile, spd_factor, spd_inverse, spd_solve,
                      sym_eig)

_EPS = float(np.finfo(float).eps)

__all__ = [
    "EfficiencyBundle",
    "DiagnosticReport",
    "parametric_score",
    "d_operator",
    "score_generators",
    "generator_function",
    "efficient_score_matrices",
    "efficient_info",
    "fisher_info",
    "project_tangent",
    "regularity_check",
    "ple_influence",
    "efficiency_criterion",
    "adaptivity_check",
    "quad_influence_value",
    "efficiency_bundle",
]


@dataclass(frozen=True)
class DiagnosticReport:
    """Structured verdict of a diagnostic check.

    per_m_residuals holds one nonnegative violation measure per parameter
    component, so callers can show margins; `verdict` is a short string,
    never a bare boolean.  Extra context (e.g. the information gap for the
    adaptivity check) lives in `details` and is not serialized.
    """

    criterion: str
    per_m_residuals: tuple
    tolerance: float
    verdict: str
    details: dict = None

    @property
    def passed(self):
        return self.verdict in ("regular", "efficient", "adaptive", "pass")

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "per_m_residuals": [float(v) for v in self.per_m_residuals],
            "tolerance": float(self.tolerance),
            "verdict": self.verdict,
        }


def parametric_score(geom, z):
    """Score of the copula log-density at the Gaussianized point z.

    Component m is -tr(S dR_m)/2 - z' dS_m z / 2.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (geom.p,):
        raise ShapeError(f"z must have length {geom.p}, got shape {z.shape}")
    return (-0.5 * (geom.r_dots.reshape(geom.k, -1) @ geom.s.ravel())
            - 0.5 * (geom.s_dots @ z @ z))


def d_operator(s, b):
    """The tangent-space matrix S diag(b) + diag(b) S.

    Entrywise this is S_ij (b_i + b_j), so the output is exactly symmetric.
    """
    s = check_symmetric(s, name="S")
    b = np.asarray(b, dtype=float)
    if b.shape != (s.shape[0],):
        raise ShapeError(f"b must have length {s.shape[0]}, got shape {b.shape}")
    return s * (b[:, None] + b[None, :])


def _ir_hadamard_factor(geom):
    """Cholesky factor of I + R o S, the shared coefficient matrix of the
    generator and projection systems (a Gram matrix, hence positive definite
    whenever R is)."""
    m = identity(geom.p) + geom.r * geom.s
    return spd_factor(0.5 * (m + m.T), "I + R*S failed to factor")


def score_generators(geom):
    """Generator weights g_m solving (I + R o S) g_m = -(dR_m o S) 1.

    Returns a (k, p) array; one factorization of the shared coefficient
    matrix serves all m.
    """
    c = _ir_hadamard_factor(geom)
    return spd_solve(c, -(geom.r_dots * geom.s).sum(axis=2).T).T


def generator_function(geom, m, j, u):
    """Value of the margin-score generator h_{j,m}(u) = g_{j,m} (1 - z(u)^2)."""
    if not 0 <= m < geom.k:
        raise ShapeError(f"parameter index {m} out of range for k={geom.k}")
    if not 0 <= j < geom.p:
        raise ShapeError(f"coordinate index {j} out of range for p={geom.p}")
    z = norm_quantile(u)
    g = score_generators(geom)[m, j]
    return g * (1.0 - z * z)


def efficient_score_matrices(geom):
    """Efficient-score matrices A*_m = D(g_m) - dS_m, as one (k, p, p) array.

    The efficient score at z is z' A*_m z / 2; tr(A*_m R) = 0, so the form
    is already centered under the model.
    """
    return efficiency_bundle(geom).eff_matrices


def _singular(eigs, what):
    """The SingularityError of `_spd_inverse` for the symmetric matrix `what`
    with ascending eigenvalues `eigs`."""
    size = np.abs(eigs)
    return SingularityError(
        f"{what} is not positive definite (min eigenvalue {eigs[0]:.3e})",
        eigenvalue=float(eigs[0]),
        cond=float(size.max() / size.min()) if size.min() > 0.0 else np.inf)


def _spd_inverse(mat, what):
    """Inverse of a symmetric information matrix; SingularityError where its
    smallest eigenvalue is at most k * eps times its largest (numpy's
    matrix_rank tolerance), whether or not Cholesky would succeed.  Its `cond`
    is max|lam| / min|lam|, the 2-norm condition number."""
    eigs = sym_eig(mat, vectors=False)
    c = cholesky_lower(mat) if eigs[0] > len(eigs) * _EPS * eigs[-1] else None
    if c is None:
        raise _singular(eigs, what)
    inv = spd_inverse(c)
    return 0.5 * (inv + inv.T)


def efficient_info(geom):
    """Efficient information matrix and its inverse.

    The matrix is the Gram matrix of the efficient-score matrices under
    theta_inner; its inverse is the semiparametric asymptotic variance
    lower bound for estimating theta without knowledge of the margins.
    """
    bundle = efficiency_bundle(geom)
    return bundle.eff_info, bundle.eff_info_inv


def fisher_info(geom):
    """Parametric Fisher information: Gram matrix of {-dS_m} under theta_inner."""
    return efficiency_bundle(geom).fisher


def project_tangent(a, geom):
    """Project a symmetric matrix onto the span of the D(b) matrices.

    Solves the p-dimensional system b_j + sum_i R_ji S_ij b_i = (RA)_jj,
    i.e. (I + R o S) b = diag(RA), and returns (b, D(b)).  The residual
    A - D(b) satisfies diag(R (A - D(b))) = 0.
    """
    a = check_symmetric(a, name="A", p=geom.p)
    c = _ir_hadamard_factor(geom)
    b = spd_solve(c, np.diag(geom.r @ a))
    return b, d_operator(geom.s, b)


def regularity_check(influence, geom, tol=1e-8):
    """Check the two defining conditions of a regular influence matrix set:
    diag(R A_m) = 0 and tr(A_m dR_m') = 2 if m = m' else 0.

    per_m_residuals[m] is the worst violation over both conditions for
    component m; details carries the two aggregate maxima.
    """
    mats = check_symmetric_stack(influence, geom.p, name="influence")
    k = geom.k
    if len(mats) != k:
        raise ShapeError(f"expected {k} influence matrices, got {len(mats)}")
    diag = np.abs(np.diagonal(geom.r @ mats, axis1=1, axis2=2)).max(axis=1)
    traces = np.tensordot(mats, geom.r_dots, axes=([1, 2], [1, 2]))  # tr(A_m dR_m')
    trace = np.abs(traces - 2.0 * identity(k)).max(axis=1)
    per_m = np.maximum(diag, trace)
    return DiagnosticReport(
        criterion="regularity", per_m_residuals=tuple(map(float, per_m)), tolerance=tol,
        verdict="regular" if per_m.max() <= tol else "not_regular",
        details={"max_diag_violation": float(diag.max()),
                 "max_trace_violation": float(trace.max())},
    )


def ple_influence(geom):
    """Influence matrices and asymptotic covariance of the pseudo-likelihood
    estimator.

    B_m = -dS_m + diag(R dS_m), A_m = sum_m' (I^-1)_{mm'} B_m', and the
    asymptotic covariance is cov_{mm'} = theta_inner(A_m, A_m').  B and A
    are (k, p, p) arrays.
    """
    bundle = efficiency_bundle(geom)
    return bundle.ple_b, bundle.ple_a, bundle.ple_cov


def efficiency_criterion(geom, b_matrices=None, rtol=1e-8):
    """Span test deciding whether a quadratic-influence estimator is efficient.

    For each m the criterion matrix

        M_m = B_{m,R} - (diag(B_{m,R}) R + R diag(B_{m,R})) / 2

    must lie in span{dR_1, ..., dR_k}.  With B omitted the pseudo-likelihood
    case is tested, where B_{m,R} = R diag(dR_m S) R.  For explicit influence
    matrices B_m, B_{m,R} = R B_m R.  per_m_residuals holds the raw Frobenius
    span residuals; the verdict compares residual_m against
    rtol * (1 + ||M_m||_F).
    """
    r, k = geom.r, geom.k
    if b_matrices is None:
        criterion = "ple_efficiency"
        b_r = (r * np.diagonal(geom.r_dots @ geom.s, axis1=1, axis2=2)[:, None, :]) @ r
    else:
        criterion = "influence_efficiency"
        if len(b_matrices) != k:
            raise ShapeError(f"expected {k} influence matrices, got {len(b_matrices)}")
        b_r = r @ check_symmetric_stack(b_matrices, geom.p, name="B") @ r
    m_r = 0.5 * (b_r + b_r.transpose(0, 2, 1))
    d = np.diagonal(m_r, axis1=1, axis2=2)
    crit = (m_r - 0.5 * (d[:, :, None] * r + r * d[:, None, :])).reshape(k, -1).T
    # One least-squares solve onto span{dR_m} (Frobenius geometry, rank
    # deficiency allowed) with the k criterion matrices as right-hand sides.
    design = geom.r_dots.reshape(k, -1).T
    coeff, *_ = np.linalg.lstsq(design, crit, rcond=None)
    residuals = np.linalg.norm(crit - design @ coeff, axis=0)
    ok = np.all(residuals <= rtol * (1.0 + np.linalg.norm(crit, axis=0)))
    return DiagnosticReport(
        criterion=criterion, per_m_residuals=tuple(map(float, residuals)), tolerance=rtol,
        verdict="efficient" if ok else "not_efficient",
    )


def adaptivity_check(bundle, tol=1e-8):
    """Adaptivity test on an `efficiency_bundle`: diag(R dS_m) = 0 for all
    m, equivalently Fisher == efficient information (knowing the margins
    would not help).

    per_m_residuals[m] = ||diag(R dS_m)||_inf.  details carries the
    information gap ||fisher - eff_info||_F and whether the two routes agree.
    """
    geom = bundle.geometry
    diag = np.diagonal(geom.r @ geom.s_dots, axis1=1, axis2=2)
    per_m = tuple(map(float, np.abs(diag).max(axis=1)))
    gap = float(np.linalg.norm(bundle.fisher - bundle.eff_info))
    adaptive = max(per_m) <= tol
    gap_small = gap <= tol * (1.0 + float(np.linalg.norm(bundle.fisher)))
    return DiagnosticReport(
        criterion="adaptivity", per_m_residuals=per_m, tolerance=tol,
        verdict="adaptive" if adaptive else "not_adaptive",
        details={"info_gap": gap, "cross_check_consistent": adaptive == gap_small},
    )


def quad_influence_value(a, geom, u):
    """Quadratic influence function q_A(u) = (z'Az - tr(AR)) / 2 with
    z = quantile(u) componentwise."""
    a = check_symmetric(a, name="A", p=geom.p)
    u = np.asarray(u, dtype=float)
    if u.shape != (geom.p,):
        raise ShapeError(f"u must have length {geom.p}, got shape {u.shape}")
    z = norm_quantile(u)
    return 0.5 * (float(z @ a @ z) - float(np.sum(a * geom.r)))


@dataclass(frozen=True)
class EfficiencyBundle:
    """Every information quantity at one theta, each computed on first read
    and cached: a caller pays only for what it reads, and only once."""

    geometry: object

    @cached_property
    def g(self):  # (k, p) generator weights
        return score_generators(self.geometry)

    @cached_property
    def eff_matrices(self):  # (k, p, p) efficient-score matrices A*_m
        g = self.g
        return self.geometry.s * (g[:, :, None] + g[:, None, :]) - self.geometry.s_dots

    @cached_property
    def eff_info(self):  # k x k efficient information
        return gram(self.eff_matrices, self.geometry.ctx)

    @cached_property
    def eff_info_inv(self):  # its inverse: the variance bound
        return _spd_inverse(self.eff_info, "efficient information matrix")

    @cached_property
    def fisher(self):  # k x k parametric information
        return gram(-self.geometry.s_dots, self.geometry.ctx)

    @cached_property
    def ple_b(self):  # (k, p, p) matrices B_m generating the PLE
        geom = self.geometry
        diag = np.diagonal(geom.r @ geom.s_dots, axis1=1, axis2=2)  # diag(R dS_m)
        return diag[:, :, None] * identity(geom.p) - geom.s_dots

    @cached_property
    def ple_a(self):  # (k, p, p) normalized PLE influence matrices
        return np.tensordot(_spd_inverse(self.fisher, "Fisher information matrix"),
                            self.ple_b, axes=1)

    @cached_property
    def ple_cov(self):  # k x k PLE asymptotic covariance
        return gram(self.ple_a, self.geometry.ctx)


def efficiency_bundle(geom):
    """The `EfficiencyBundle` at geom; nothing is computed until read."""
    return EfficiencyBundle(geometry=geom)
