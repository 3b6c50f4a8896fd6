"""Rank-based estimation pipeline.

Data enter only through their column ranks: pseudo-observations
rank/(n+1), Gaussianized scores zhat = quantile(pseudo-observations), and
the normal-scores matrix Rhat = zhat' zhat / n.  Consequently every
estimator in this module is exactly invariant under strictly increasing
transformations of the raw columns.

The pseudo-likelihood estimator minimises the mean negative
pseudo-log-likelihood, whose gradient is minus half the pseudo-score
tr(dS_m(theta) (R(theta) - Rhat)), by one Newton descent with the exact
Hessian; it stops at pseudo-score sup-norm <= 1e-8 * k, or raises
ConvergenceError with its iterate trace.  The one-step estimator adds the
inverse efficient information times the empirical mean of the efficient
score to a root-n-consistent pilot.  The mean efficient score has the closed
form tr(A*_m Rhat) / 2, since the score is the quadratic form z' A*_m z / 2
with tr(A*_m R) = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.stats import rankdata

from .exceptions import (ConvergenceError, DegenerateMarginError, DomainError,
                         ShapeError, SingularityError)
from .geometry import efficient_info, efficient_score_matrices, ple_influence
from .models import eval_geometry
from .numcore import norm_quantile

__all__ = [
    "RankedSample",
    "EstimateResult",
    "rank_transform",
    "normal_scores_matrix",
    "sigma_n_sq",
    "ple_estimate",
    "pilot_moment",
    "one_step",
]


@dataclass(frozen=True)
class RankedSample:
    """An n x p data matrix reduced to ranks.

    ranks holds average ranks (so half-integers may appear when columns are
    tied); tie_columns records which columns had ties.  pseudo_obs is
    rank/(n+1), strictly inside (0,1), and zhat its Gaussianization.
    """

    n: int
    p: int
    ranks: np.ndarray
    pseudo_obs: np.ndarray
    zhat: np.ndarray
    tie_columns: tuple = ()

    @property
    def has_ties(self):
        return len(self.tie_columns) > 0


@dataclass(frozen=True)
class EstimateResult:
    theta_hat: np.ndarray
    method: str
    iterations: int
    converged: bool
    std_errors: Optional[np.ndarray] = None
    clamped: bool = False
    tie_warning: bool = False

    def to_dict(self):
        return {
            "theta_hat": [float(v) for v in np.atleast_1d(self.theta_hat)],
            "std_errors": None if self.std_errors is None
            else [float(v) for v in np.atleast_1d(self.std_errors)],
            "method": self.method,
            "converged": bool(self.converged),
            "tie_warning": bool(self.tie_warning),
        }


def rank_transform(data):
    """Column ranks, pseudo-observations rank/(n+1), and their Gaussianization.

    Ties get average ranks and a recorded warning; a constant column is a
    degenerate margin and raises.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ShapeError(f"data must be 2-d, got shape {data.shape}")
    n, p = data.shape
    if n < 2:
        raise DomainError("rank transform needs n >= 2 observations")
    if not np.all(np.isfinite(data)):
        raise DomainError("data must be finite")
    ranks = np.empty((n, p))
    ties = []
    for j in range(p):
        col = data[:, j]
        n_distinct = np.unique(col).size
        if n_distinct == 1:
            raise DegenerateMarginError(f"column {j} is constant")
        if n_distinct < n:
            ties.append(j)
        ranks[:, j] = rankdata(col, method="average")
    if ties:
        warnings.warn(f"ties in column(s) {ties}; average ranks used", RuntimeWarning,
                      stacklevel=2)
    pseudo = ranks / (n + 1.0)
    return RankedSample(n=n, p=p, ranks=ranks, pseudo_obs=pseudo,
                        zhat=norm_quantile(pseudo), tie_columns=tuple(ties))


def normal_scores_matrix(sample):
    """Rhat = zhat' zhat / n, the empirical second-moment matrix of the
    Gaussianized pseudo-observations.  For tie-free data its diagonal equals
    sigma_n_sq(n)."""
    m = sample.zhat.T @ sample.zhat / sample.n
    return 0.5 * (m + m.T)


def sigma_n_sq(n):
    """Mean of quantile(i/(n+1))^2 over i = 1..n; tends to 1 at rate log(n)/n."""
    grid = np.arange(1, n + 1) / (n + 1.0)
    z = norm_quantile(grid)
    return float(np.mean(z * z))


# ---------------------------------------------------------------------------
# Pseudo-likelihood estimation
# ---------------------------------------------------------------------------

def _pseudo_score(model, theta, rhat):
    """Vector of pseudo-score values tr(dS_m(theta)(R(theta) - Rhat)).

    Computed as -sum(dR_m * W) with W = S (R - Rhat) S, sharing one
    factorization across components.
    """
    r = model.r_of_theta(theta)
    c = cho_factor(r, lower=True)
    w = cho_solve(c, cho_solve(c, (r - rhat).T).T)
    return np.array([-np.sum(rd * w) for rd in model.r_dots(theta)])


def _mean_pseudo_negloglik(model, theta, rhat):
    """Mean negative pseudo-log-likelihood, up to an additive constant:
    (log det R + tr((S - I) Rhat)) / 2; +inf outside the domain."""
    if not model.domain_check(theta):
        return np.inf
    r = model.r_of_theta(theta)
    try:
        c = cho_factor(r, lower=True)
    except LinAlgError:
        return np.inf
    logdet = 2.0 * float(np.sum(np.log(np.diag(c[0]))))
    s_rhat = cho_solve(c, rhat)
    return 0.5 * (logdet + float(np.trace(s_rhat)) - float(np.trace(rhat)))


def _descent_step(model, theta, rhat):
    """Pseudo-score psi and the step -|H|^-1 grad on `_mean_pseudo_negloglik`
    from one factorization of R(theta), |H| taking the absolute eigenvalues
    of the Hessian H = -(J + J')/4 so that the step always descends.

    J_mj = -tr(d2R_mj W) + tr(S dR_m S dR_j (I - 2 S Rhat)) is the Jacobian
    of psi, from W = S (R - Rhat) S and dW_j = -S dR_j S + S dR_j S Rhat S
    + S Rhat S dR_j S.  d2R = 0 for affine families; otherwise d2R_mj is one
    central difference of the analytic `model.r_dot`, exact up to roundoff
    when dR is affine in theta, as in every built-in family.
    """
    r = model.r_of_theta(theta)
    c = cho_factor(r, lower=True)
    w = cho_solve(c, cho_solve(c, (r - rhat).T).T)
    r_dots = model.r_dots(theta)
    psi = np.array([-np.sum(rd * w) for rd in r_dots])

    x = [cho_solve(c, rd) for rd in r_dots]  # S dR_j
    right = np.eye(model.p) - 2.0 * cho_solve(c, rhat)  # I - 2 S Rhat
    v = [xj @ right for xj in x]
    jac = np.array([[np.sum(xm * vj.T) for vj in v] for xm in x])
    if model.affine_generators is None:
        for j, e in enumerate(np.eye(model.k)):
            h = 1e-5 * max(1.0, abs(theta[j]))
            pairs = zip(model.r_dots(theta + h * e), model.r_dots(theta - h * e))
            for m, (a, b) in enumerate(pairs):
                jac[m, j] -= np.sum((a - b) * w) / (2.0 * h)

    lam, q = np.linalg.eigh(-0.25 * (jac + jac.T))
    lam = np.maximum(np.abs(lam), 1e-12 * np.max(np.abs(lam)))
    step = q @ ((q.T @ (0.5 * psi)) / lam)
    return psi, step


def _default_init(model, rhat):
    pilot = _moment_theta(model, rhat)
    if pilot is not None and model.domain_check(pilot):
        return pilot
    return np.asarray(model.default_init, dtype=float).copy()


def _ple_std_errors(model, theta, n):
    try:
        geom = eval_geometry(model, theta)
        _, _, cov = ple_influence(geom)
        return np.sqrt(np.maximum(np.diag(cov), 0.0) / n)
    except (SingularityError, LinAlgError):
        return None


def ple_estimate(model, sample, init=None, max_iter=100):
    """Pseudo-likelihood estimate by Newton descent (`_descent_step`) with an
    Armijo line search on `_mean_pseudo_negloglik`, from `init`, else the
    moment pilot, else the model's default; every iterate is in the domain.

    Converged means pseudo-score sup-norm <= 1e-8 * k, reached in
    `iterations` steps.  If `max_iter` steps do not get there, or the line
    search finds no descent, ConvergenceError carries the (theta, sup-norm)
    trace.

    For the unrestricted family the solution is read off Rhat (its
    off-diagonal entries, in lower-triangle order) without iteration.
    """
    rhat = normal_scores_matrix(sample)
    tol = 1e-8 * model.k

    if model.name == "unrestricted":
        from .models import lower_triangle_pairs
        theta = np.array([rhat[i, j] for i, j in lower_triangle_pairs(model.p)])
        return EstimateResult(
            theta_hat=theta, method="ple", iterations=0, converged=True,
            std_errors=_ple_std_errors(model, theta, sample.n),
            tie_warning=sample.has_ties)

    theta = model.theta_vec(_default_init(model, rhat) if init is None else init)
    if not model.domain_check(theta):
        raise DomainError(f"initial theta {theta} outside the domain of {model.name}")

    f = _mean_pseudo_negloglik(model, theta, rhat)
    trace = []
    for iteration in range(max_iter + 1):
        psi, step = _descent_step(model, theta, rhat)
        norm = float(np.max(np.abs(psi)))
        trace.append((theta.copy(), norm))
        if norm <= tol:
            return EstimateResult(
                theta_hat=theta, method="ple", iterations=iteration,
                converged=True, std_errors=_ple_std_errors(model, theta, sample.n),
                tie_warning=sample.has_ties)
        if iteration == max_iter:
            break
        # Armijo on the objective; the slack admits steps whose decrease is
        # below the roundoff of f, which near the optimum is all of them.
        slope = -0.5 * float(psi @ step)
        slack = 1e-13 * (1.0 + abs(f))
        scale = 1.0
        while scale > 2.0 ** -30:
            cand = theta + scale * step
            f_cand = _mean_pseudo_negloglik(model, cand, rhat)  # inf off-domain
            if f_cand <= f + 1e-4 * scale * slope + slack:
                theta, f = cand, f_cand
                break
            scale *= 0.5
        else:
            break
    raise ConvergenceError(
        f"pseudo-likelihood Newton descent did not converge for {model.name} "
        f"(final sup-norm {norm:.3e}, tolerance {tol:.3e})", trace=trace)


# ---------------------------------------------------------------------------
# Pilot and one-step
# ---------------------------------------------------------------------------

def _moment_theta(model, rhat):
    """Closed-form minimum-distance pilot where the family supports one."""
    if model.affine_generators is not None:
        design = np.column_stack([g.ravel() for g in model.affine_generators])
        theta, *_ = np.linalg.lstsq(design, (rhat - np.eye(model.p)).ravel(),
                                    rcond=None)
        return theta
    if model.name == "circular":
        first = [(0, 1), (1, 2), (2, 3), (0, 3)]
        return np.array([np.mean([rhat[i, j] for i, j in first])])
    return None


def _clamp_into_domain(model, theta, anchor):
    """Clamp theta into the domain: closed-form projection when the family
    has one, otherwise shrink toward the in-domain anchor."""
    clamped = model.clamp(theta)
    if clamped is not None and model.domain_check(clamped):
        return clamped
    scale = 1.0
    for _ in range(80):
        scale *= 0.5
        cand = anchor + scale * (theta - anchor)
        if model.domain_check(cand):
            return cand
    return anchor.copy()


def pilot_moment(model, sample):
    """Minimum-distance pilot: minimize ||R(theta) - Rhat||_F in closed form
    over affine families (circular uses the mean first-neighbor correlation).
    Falls back to ple_estimate for families without an averaging map."""
    rhat = normal_scores_matrix(sample)
    theta = _moment_theta(model, rhat)
    if theta is None:
        return ple_estimate(model, sample, init=model.default_init)
    clamped = False
    if not model.domain_check(theta):
        theta = _clamp_into_domain(model, theta,
                                   np.asarray(model.default_init, dtype=float))
        clamped = True
    return EstimateResult(theta_hat=theta, method="pilot_moment", iterations=0,
                          converged=True, clamped=clamped,
                          tie_warning=sample.has_ties)


def one_step(model, sample, pilot=None, iterate_twice=False):
    """Efficient one-step update from a root-n-consistent pilot.

    theta_hat = pilot + I*^-1(pilot) mean_i efficient_score(pseudo_obs_i),
    with the mean efficient score computed as tr(A*_m Rhat) / 2.  A single
    update by default; `iterate_twice` repeats the update once from the
    updated point.  An update leaving the domain is clamped to its
    eps-interior, flagged, and is the last; `iterations` counts updates.
    """
    rhat = normal_scores_matrix(sample)
    pilot = (pilot_moment(model, sample).theta_hat if pilot is None
             else model.theta_vec(pilot))
    if not model.domain_check(pilot):
        raise DomainError(f"pilot {pilot} outside the domain of {model.name}")

    theta = np.asarray(pilot, dtype=float).copy()
    clamped = False
    for rounds in range(1, 3 if iterate_twice else 2):
        geom = eval_geometry(model, theta)
        mats = efficient_score_matrices(geom)
        _, eff_inv = efficient_info(geom, eff_matrices=mats)
        mean_score = np.array([0.5 * np.sum(a * rhat) for a in mats])
        cand = theta + eff_inv @ mean_score
        if model.domain_check(cand):
            theta = cand
        else:
            theta = _clamp_into_domain(model, cand, theta)
            clamped = True
            break

    std = None
    try:
        geom = eval_geometry(model, theta)
        _, eff_inv = efficient_info(geom)
        std = np.sqrt(np.maximum(np.diag(eff_inv), 0.0) / sample.n)
    except (SingularityError, LinAlgError):
        pass
    return EstimateResult(theta_hat=theta, method="one_step", iterations=rounds,
                          converged=True, std_errors=std, clamped=clamped,
                          tie_warning=sample.has_ties)
