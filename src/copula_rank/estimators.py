"""Rank-based estimation pipeline.

Data enter only through their column ranks: pseudo-observations
rank/(n+1), Gaussianized scores zhat = quantile(pseudo-observations), and
the normal-scores matrix Rhat = zhat' zhat / n.  Consequently every
estimator in this module is exactly invariant under strictly increasing
transformations of the raw columns.

The pseudo-likelihood estimator minimises the mean negative
pseudo-log-likelihood, whose gradient is minus half the pseudo-score
tr(dS_m(theta) (R(theta) - Rhat)), by one Newton descent with the exact
Hessian.  From the moment pilot, a root-n-consistent start, the first step
is a Fisher-scoring step instead: the Hessian is replaced by its
expectation at Rhat = R(theta), F_mj = tr(S dR_m S dR_j) / 2, built from
the S of the pilot's evaluation.  The descent stops at
pseudo-score sup-norm <= 1e-8 * k where the Hessian has no negative
curvature, or raises ConvergenceError with its iterate trace.  It
evaluates each candidate once, through one function the model selects,
which returns the objective and the step together: an accepted candidate's
step is the next step, a rejected one's is discarded.  In general an
evaluation costs one Cholesky factorization of R(theta), which also gives
S = R^-1, and the pseudo-score, its Jacobian and the step are matrix
products with S.  For a one-parameter
model with theta-free eigen-groups (a `Spectrum`: eigenspaces on which the
eigenvalue lam_g(theta) takes one function of theta), the sample enters
only through one sum per group, D_g = tr(Q_g' Rhat Q_g), formed once from
zhat, and every iterate is elementwise arithmetic and sums on the groups'
eigenvalues and multiplicities, with no factorization and no LAPACK call.

The descent is written once, over a block of samples, as an array core
(`_ple_solve`) that returns the (B, k) estimates with a NaN row per failed
row, the iterations and the failed rows' exceptions.  A Monte Carlo run
solves each block of replications in one call of it, and `ple_estimate`
is a block of one.  A spectral block is a (B, G) array of group
eigenvalues; a matrix family's rows take one Cholesky each in the same
loop.  Every row keeps its own
scoring start, line search, stop test, saddle test, domain verdict and
iterate trace, and reads only its own entries, through elementwise
operations and sums along its own row, so a block never changes a number:
each row is the same to the bit as a block of one.  The rows that meet the
tolerance in one round take their saddle tests row by row and then one
domain test (`model.domain_check_block`).

The one-step estimator adds the inverse efficient information times the
empirical mean of the efficient score to a root-n-consistent pilot.  The
mean efficient score has the closed form tr(A*_m Rhat) / 2, since the score
is the quadratic form z' A*_m z / 2 with tr(A*_m R) = 0.  It too is written
over a block of samples, as an array core (`_one_step_update`) that takes
the PLE core's (B, k) estimates as they come, so a Monte Carlo block hands
it the PLE's output whole: a failed PLE's NaN row fails its update alone.
`one_step` is a block of one, after its pilot's check (`model.require`),
and nothing below checks a finite pilot again.  Like the PLE's core, the
update returns a row's failure (here a singular I*) as a value, which the
block of one raises.
In general the block's rows go through one call of the block producer of
A* and I*^-1 (`geometry._efficient_block`): at each pilot the geometry, a
generator solve, a Gram matrix and an inverse, from the producers that
`eval_geometry` and `efficiency_bundle` read, with nothing checked again;
each update is two matrix-vector products, and the block takes one domain
test.  On a balanced spectrum (`Spectrum.balanced`: exchangeable(p),
circular, toeplitz(2), unrestricted(2)) the efficient influence function is
explicit in the eigenvalues, and the block's updates are elementwise
arithmetic and row sums on (B, G) arrays (`_one_step_update`), so again a
block never changes a number.

Ranking is written once, over a (B, n, p) stack of samples
(`_rank_block`): one argsort orders every column of every sample, the
normal-score grid goes into zhat through one scatter on the flat positions
of the sorted entries, and the constant-column and tie tests read the
sorted values.  `rank_transform` is a block of one, and a Monte Carlo block
ranks its replications in one call.  A ranked sample holds only zhat, and
reads `ranks` back from it on first read by the one average-rank rule
(`_average_ranks`), which also gives a tied column its zhat, and its tied
columns, those with two equal scores, by one sort on first read.

On a spectral family every estimator reads a sample only through its
group sums D: the PLE descent, its moment start
sum dlam(0) D / sum m dlam(0)^2 (the moment pilot's least-squares fit, as
`pilot_moment` forms it there too) and the balanced one-step update.  A
block forms D for all its samples once, as one (B, G) array, from their
stacked zhat, D_g = ||zhat Q_g||_F^2 / n, one gemm per sample and no Rhat
(`_group_sums`), and hands that array to all three in its `_BlockStats`,
which also holds, formed on first read, the moment fits and their one
domain test that the PLE's starts and the moment pilots share.  A family
that declares its groups in closed form leaves its largest group unprojected:
that group's sum is tr Rhat, sum zhat^2 / n, minus the others.  So
exchangeable(p) reads a sample only through its rows' sums (along the one
column 1/sqrt(p)) and sum zhat^2, with no eigen-solve and no p x p product,
and circular projects on two of its four columns.  Elsewhere Rhat is formed
once per sample (`RankedSample.rhat`) and shared by every estimator, and
the moment pilot is `CorrelationModel.moment_map` vec(Rhat), a map built
once per model.  The normal-score grid quantile(i/(n+1)) is formed once per
sample size.  Rhat is a gemm of two C-order operands rather than BLAS's
dsyrk, whose threaded form made a p = 100 replication several times slower
at OpenBLAS's default thread count than at one thread.

An EstimateResult holds the model and the sample it was fit on, and reads
its tie warning and its standard errors (a geometry and an information
matrix at the estimate) from them on first read, so a caller that reads
only theta_hat pays for neither.  Only the public calls build one: a Monte
Carlo block reads the array cores (`_ple_solve`, `_moment_pilot`,
`_one_step_update`) and builds none.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import (ConvergenceError, DegenerateMarginError, DomainError,
                         ShapeError, SingularityError)
from .geometry import _efficient_block, _singular, efficiency_bundle
from .models import _NOT_FINITE, CorrelationModel, eval_geometry
from .numcore import _cholesky, identity, norm_quantile, spd_inverse, sym_eig

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

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
_MAX_ITER = 100  # steps a PLE descent may take


class RankedSample:
    """An n x p data matrix reduced to ranks: its normal scores `zhat`, a
    2-d float array (else ShapeError) whose shape gives n and p.

    ranks holds average ranks (so half-integers may appear when columns are
    tied), read back from zhat on first read (`_average_ranks`): within a
    column zhat is strictly increasing in the ranks, so equal scores are
    exactly tied data, and `tie_columns`, read on first read too, are the
    columns with two equal scores.  pseudo_obs is rank/(n+1), strictly
    inside (0,1).  `rhat` is the read-only `normal_scores_matrix`, formed on
    first read; a spectral family's estimators never read it, and read the
    eigen-group sums D_g = tr(Q_g' Rhat Q_g) instead, which `_group_sums`
    forms from zhat once per block.
    """

    def __init__(self, zhat):
        self.zhat = np.asarray(zhat, dtype=float)
        if self.zhat.ndim != 2:
            raise ShapeError(f"zhat must be 2-d, got shape {self.zhat.shape}")
        self.n, self.p = self.zhat.shape

    @cached_property
    def tie_columns(self):
        ordered = np.sort(self.zhat, axis=0)
        return tuple((ordered[1:] == ordered[:-1]).any(axis=0).nonzero()[0].tolist())

    @cached_property
    def ranks(self):
        return _average_ranks(self.zhat)

    @cached_property
    def pseudo_obs(self):
        return self.ranks / (self.n + 1.0)

    @property
    def has_ties(self):
        return len(self.tie_columns) > 0

    @cached_property
    def rhat(self):
        rhat = normal_scores_matrix(self)
        rhat.flags.writeable = False
        return rhat


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """An estimate, how it was reached, and the `model` and `sample` it was
    fit on.  `tie_warning` is the sample's `has_ties`.  `std_errors` is read
    on first read, at theta_hat as it is then, from the method's covariance
    (`_std_errors`: `ple_cov` for "ple", `eff_info_inv` for "one_step"), and
    cached; None for "pilot_moment", or where the geometry is singular.
    They are asymptotic, sqrt(diag(cov) / n) at theta_hat: over 1,000
    replications at n = 250 (seed 7; toeplitz(4) at its low-efficiency
    point, circular, exchangeable(3)) rms(SE)/SD of theta_hat was 0.93-1.02
    and 95% Wald coverage 0.917-0.958 (the figures of ROADMAP item R)."""

    theta_hat: np.ndarray
    method: str
    iterations: int
    converged: bool
    model: CorrelationModel = field(repr=False)
    sample: RankedSample = field(repr=False)
    clamped: bool = False

    @property
    def tie_warning(self):
        return self.sample.has_ties

    @cached_property
    def std_errors(self):
        cov = {"ple": "ple_cov", "one_step": "eff_info_inv"}.get(self.method)
        return None if cov is None else _std_errors(self.model, self.theta_hat,
                                                    self.sample.n, cov)

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

    A block of one of `_rank_block`.  Tied columns get average ranks, the
    mean 1-based position of each run of equal values (so they agree
    exactly with scipy.stats.rankdata(method="average")), and a
    RuntimeWarning naming them.  A constant column is a degenerate margin
    and raises DegenerateMarginError naming the first one.  Tie-free
    columns of zhat are permutations of `_score_grid(n)`; ranks are read
    back from zhat on first read, by the same rule (`_average_ranks`).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ShapeError(f"data must be 2-d, got shape {data.shape}")
    sample, = _rank_block(data[None])
    if sample.has_ties:
        warnings.warn(f"ties in column(s) {list(sample.tie_columns)}; average ranks used",
                      RuntimeWarning, stacklevel=2)
    return sample


def _rank_block(data):
    """`rank_transform` on every (n, p) row of the (B, n, p) stack `data`,
    as a list of RankedSamples that hold only zhat, without the tie warning.

    One argsort orders every column of every row; runs of equal values in
    the sorted columns reveal constant columns and ties, and a block with no
    repeated value reads neither per column.  The sort need not
    be stable: a run of equal values gets one average rank, so the order
    within it never reaches the output.  The score grid goes into zhat
    through one scatter on the flat positions of the sorted entries, and a
    tied column's zhat is the quantile of the average ranks of its data
    (`_average_ranks`, the rule that reads ranks back from zhat).  The first
    row with a non-finite entry or a constant column raises what
    `rank_transform` raises on it.  Every step is elementwise or along one
    column of one row, so a row is the same to the bit in any block.
    """
    rows, n, p = data.shape
    if n < 2:
        raise DomainError("rank transform needs n >= 2 observations")
    # positions[b, j, i]: the flat position in `data` of the i-th smallest
    # entry of column j of row b
    positions = data.transpose(0, 2, 1).argsort(axis=2)
    positions *= p
    positions += np.arange(0, rows * n * p, n * p)[:, None, None] + np.arange(p)[:, None]
    zhat = data.ravel()[positions]  # the sorted columns, until the scatter
    repeats = zhat[..., 1:] == zhat[..., :-1]
    finite = np.isfinite(zhat).all(axis=(1, 2))
    bad, tied_rows = ~finite, []
    if repeats.any():  # else no column is constant or tied
        constant, tied = repeats.all(axis=2), repeats.any(axis=2)
        bad |= constant.any(axis=1)
        tied_rows = tied.any(axis=1).nonzero()[0].tolist()
    if bad.any():
        row = int(bad.argmax())
        if not finite[row]:
            raise DomainError("data must be finite")
        raise DegenerateMarginError(f"column {int(constant[row].argmax())} is constant")
    zhat = zhat.reshape(rows, n, p)
    zhat.ravel()[positions] = _score_grid(n)
    for row in tied_rows:
        ties = tied[row].nonzero()[0]
        zhat[row][:, ties] = norm_quantile(_average_ranks(data[row][:, ties]) / (n + 1.0))
    return [RankedSample(z) for z in zhat]


def _average_ranks(x):
    """The average ranks of each column of the (n, p) array x: argsort each
    column, then give each run of equal values the mean 1-based position of
    the run.  Integer positions make every rank exact."""
    ranks = np.empty(x.shape)
    for j, order in enumerate(x.argsort(axis=0).T):
        column = x[order, j]
        first = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
        last = np.r_[first[1:], len(x)] - 1
        ranks[order, j] = np.repeat((first + last + 2) / 2.0, last - first + 1)
    return ranks


@lru_cache(maxsize=8)
def _score_grid(n):
    """The read-only normal scores quantile(i/(n+1)), i = 1..n."""
    grid = norm_quantile(np.arange(1.0, n + 1.0) / (n + 1.0))
    grid.flags.writeable = False
    return grid


def normal_scores_matrix(sample):
    """Rhat = zhat' zhat / n, the empirical second-moment matrix of the
    Gaussianized pseudo-observations.  For tie-free data its diagonal equals
    sigma_n_sq(n)."""
    z = np.ascontiguousarray(sample.zhat)
    # Two operands of one layout (C order), so numpy calls gemm.  It hands a
    # transposed view times its own base to BLAS dsyrk, which multithreaded
    # OpenBLAS 0.3.31 ran in ~3 ms per p = 100 Monte Carlo replication
    # against ~15 us for this gemm, and the LAPACK calls after it slowed too
    # (2-CPU x86-64 VM, Haswell kernel).
    m = np.ascontiguousarray(z.T) @ z / sample.n
    return 0.5 * (m + m.T)


def sigma_n_sq(n):
    """Mean of quantile(i/(n+1))^2 over i = 1..n; tends to 1 at rate log(n)/n."""
    z = _score_grid(n)
    return float(np.mean(z * z))


# ---------------------------------------------------------------------------
# Pseudo-likelihood estimation
# ---------------------------------------------------------------------------

def _objective_and_inverse(model, theta, rhat, trace):
    """The mean negative pseudo-log-likelihood, up to an additive constant,
    (log det R(theta) + tr(S Rhat) - `trace`) / 2 with `trace` = tr Rhat,
    and S = R(theta)^-1, both from one factorization attempt on R(theta);
    (inf, None) where R(theta) is not finite or not positive definite.  The
    Cholesky is the only positive-definiteness test: the objective is a
    barrier at the boundary of that region, so no accepted descent step
    leaves it.  R(theta) is not scanned for NaN or inf first: one in its
    lower triangle fails the factorization or reaches the factor's
    diagonal, and so the log-determinant, which then is not finite."""
    c = _cholesky(model.corr_fn(theta))
    if c is None:
        return np.inf, None
    logdet = 2.0 * float(np.log(c.diagonal()).sum())
    if not math.isfinite(logdet):  # R(theta) is not finite
        return np.inf, None
    # S in C order (`spd_inverse`), so every product with S in
    # `_descent_step` has operands of one layout: multithreaded OpenBLAS
    # 0.3.31 took ~5 ms for a 100 x 100 C-by-Fortran product, against
    # ~40 us for same-layout operands (2-CPU x86-64 VM, Haswell kernel).
    s = spd_inverse(c)
    return 0.5 * (logdet + float((s * rhat).sum()) - trace), s


def _descent_step(model, theta, s, rhat, scoring):
    """Pseudo-score psi, the step -|H|^-1 grad on `_objective_and_inverse`
    and the eigenvalues of the Hessian H = -(J + J')/4, by matrix products
    with S = R(theta)^-1 (no factorization) at a theta where R(theta) is
    positive definite; |H| takes absolute eigenvalues so that the step
    always descends.

    psi_m = -tr(dR_m W) with W = S (R - Rhat) S = S - (S Rhat) S, and
    J_mj = -tr(d2R_mj W) + tr(S dR_m S dR_j (I - 2 S Rhat)) is the Jacobian
    of psi, from dW_j = -S dR_j S + S dR_j S Rhat S + S Rhat S dR_j S.
    d2R = 0 for affine families; otherwise d2R_mj is one central difference
    of `model.r_dots`, exact up to roundoff when dR is affine in theta, as in
    every built-in family.  With `scoring`, J is its expectation at Rhat =
    R(theta), -tr(S dR_m S dR_j), so that H is the Fisher information
    F_mj = tr(S dR_m S dR_j) / 2 and the step is Fisher scoring.
    """
    k = model.k
    s_rhat = s @ rhat
    w = s - s_rhat @ s
    r_dots = model._r_dots(theta)
    psi = -(r_dots.reshape(k, -1) @ w.ravel())

    x = s @ r_dots  # S dR_j
    if scoring:
        # -tr(x_m x_j) = -vec(x_m) . vec(x_j')
        return (psi, *_newton_step(
            psi, -(x.reshape(k, -1) @ x.transpose(0, 2, 1).reshape(k, -1).T)))
    v = x @ (identity(model.p) - 2.0 * s_rhat)  # S dR_j (I - 2 S Rhat)
    # J_mj = tr(x_m v_j) = vec(x_m) . vec(v_j')
    jac = x.reshape(k, -1) @ v.transpose(0, 2, 1).reshape(k, -1).T
    if model.affine_generators is None:
        for j, e in enumerate(identity(k)):
            h = 1e-5 * max(1.0, abs(theta[j]))
            d2r = model._r_dots(theta + h * e) - model._r_dots(theta - h * e)
            jac[:, j] -= (d2r.reshape(k, -1) @ w.ravel()) / (2.0 * h)
    return (psi, *_newton_step(psi, jac))


def _newton_step(psi, jac):
    """The step -|H|^-1 grad and the eigenvalues of H = -(J + J')/4, from
    the pseudo-score psi = -2 grad and its Jacobian J."""
    eigs, q = sym_eig(-0.25 * (jac + jac.T))
    magnitude = np.abs(eigs)
    lam = np.maximum(magnitude, 1e-12 * max(magnitude.tolist()))
    return q @ ((q.T @ (0.5 * psi)) / lam), eigs


def _matrix_descent(model, rhats):
    """`_descent`'s evaluate on matrices, one row at a time:
    `_objective_and_inverse` on the row's sample, with tr Rhat taken once per
    sample, then `_descent_step` with that S.  A row where R(theta) is not
    positive definite has no S: its f and sup-norm are inf, its step NaN."""
    traces = [float(rhat.trace()) for rhat in rhats]

    def evaluate(rows, theta, scoring):
        f, norm, slope, steps, eigs = [], [], [], [], []
        for t, row, score in zip(theta, rows, scoring):
            rhat = rhats[row]
            value, s = _objective_and_inverse(model, t, rhat, traces[row])
            if s is None:
                psi, dx, hess_eigs = np.full(model.k, np.inf), np.full(model.k, np.nan), None
            else:
                psi, dx, hess_eigs = _descent_step(model, t, s, rhat, score)
            f.append(value)
            norm.append(max(map(abs, psi.tolist())))
            slope.append(-0.5 * float(psi @ dx))
            steps.append(dx)
            eigs.append(hess_eigs)
        return f, norm, slope, np.array(steps), eigs

    return evaluate


def _spectral_descent(spectrum, sums_all):
    """`_descent`'s evaluate for R(theta) = sum_g lam_g P_g with theta-free
    eigen-groups and one parameter, in one pass over (B, G) arrays.  With
    the block's group sums D_g = tr(P_g Rhat) (`sums_all`, from
    `_group_sums`), multiplicities m_g and tr Rhat = sum D, row b holds

        f   = (sum m log lam + sum D / lam - tr Rhat) / 2, inf unless lam > 0,
        psi = sum x (r - m),  x = dlam / lam,  r = D / lam,
        J   = sum x^2 (m - 2 r) + sum (r - m) d2lam / lam,

    and, for a scoring step, J at D = m lam, -sum m x^2: the
    `_objective_and_inverse` value and the `_descent_step` pseudo-score and
    Jacobian written on the groups.  The Hessian is H = -J / 2 and the step
    psi / (2 |H|) = psi / |J|.  Every quantity is elementwise or a sum along
    the row, so no row depends on another, and min lam > 0 is the
    positive-definiteness condition itself: no evaluation factors a matrix.
    A row outside that region is evaluated at lam = 1 beside its f = inf.
    """
    add = np.add.reduce
    m = spectrum.sizes
    trace_all = add(sums_all, 1)

    def evaluate(rows, theta, scoring):
        lam, dlam, d2lam = spectrum.group_fn(theta[:, 0])
        sums, trace = _take(sums_all, rows), _take(trace_all, rows)
        outside = None
        if not lam.min() > 0.0:  # NaN included
            outside = ~(lam.min(axis=1) > 0.0)
            lam = np.where(outside[:, None], 1.0, lam)
        r = sums / lam
        f = 0.5 * (add(m * np.log(lam) + r, 1) - trace)
        if outside is not None:
            f[outside] = np.inf
        x = dlam / lam
        excess = r - m
        psi = add(x * excess, 1)
        if all(scoring):
            jac = -add(m * x * x, 1)
        else:
            jac = add(x * x * (m - 2.0 * r) + excess * d2lam / lam, 1)
            if any(scoring):
                fisher = x[scoring]
                jac[scoring] = -add(m * fisher * fisher, 1)
        dx = psi / np.abs(jac)
        psi_rows = psi.tolist()
        return (f.tolist(), [abs(v) for v in psi_rows],
                [-0.5 * (v * step) for v, step in zip(psi_rows, dx.tolist())],
                dx[:, None], (-0.5 * jac)[:, None])

    return evaluate


def _group_sums(spectrum, samples):
    """The (B, G) array whose row b holds sample b's eigen-group sums
    D_g = tr(Q_g' Rhat_b Q_g) = ||zhat_b Q_g||_F^2 / n, with no Rhat.  The
    groups with `columns` are projected; a last group without them has the
    sum tr Rhat minus the others, with tr Rhat = sum zhat^2 / n summed from
    zhat, ties included.  So exchangeable(p) reads zhat only through its
    rows' sums, along its one column 1/sqrt(p), and through sum zhat^2.  The
    samples are stacked by n, and each stack takes one matmul of the columns
    with the (B, p, n) stack, a sum over n and, for a last group, one dot
    product per sample.  Every step is along one sample, so a row is the
    same to the bit in any block."""
    stacks = {}
    for row, sample in enumerate(samples):
        stacks.setdefault(sample.n, []).append(row)
    add = np.add.reduce
    sums = np.empty((len(samples), len(spectrum.sizes)))
    for n, rows in stacks.items():
        z = np.stack([samples[row].zhat for row in rows])
        # Y' = Q' zhat', so that each sum over n runs along a contiguous row
        y = spectrum.columns.T @ z.transpose(0, 2, 1)
        part = spectrum.group_totals(add(y * y, 2))
        if part.shape[1] < sums.shape[1]:  # the last group: tr Rhat - the others
            flat = z.reshape(len(rows), 1, -1)  # a (1, n p) row per sample: one dot each
            trace = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
            part = np.column_stack([part, trace - add(part, 1)])
        sums[rows] = part / n
    return sums


class _BlockStats:
    """What more than one estimator core reads from a block of samples, each
    formed once per block and handed to every core: `sums`, the group sums
    (`_group_sums`) on a spectral family, else None, and `moment`, formed on
    first read for a model with a moment map, (fits, inside): the (B, k)
    moment fits (`_moment_fits`) and their one domain test
    (`model.domain_check_block`), which the PLE's starts and the moment
    pilots share."""

    def __init__(self, model, samples):
        self.model, self.samples, self._moment = model, samples, None
        self.sums = None if model.spectrum is None else _group_sums(model.spectrum, samples)

    @property
    def moment(self):
        if self._moment is None:
            fits = _moment_fits(self.model, self.samples, self.sums)
            self._moment = fits, self.model.domain_check_block(fits)
        return self._moment


def _descent(model, samples, sums):
    """The one function the PLE descent evaluates, for the block of
    `samples` and their group sums `sums` (`_BlockStats.sums`).
    evaluate(rows, theta, scoring)
    takes `rows`, the ascending list of the block positions it evaluates,
    and theta, those rows' (len(rows), k) iterates, and returns
    (f, norm, slope, step, eigs): the lists of the rows' objective values,
    inf where R(theta) is not positive definite, pseudo-score sup-norms and
    derivatives of f along their steps, the (len(rows), k) steps
    -|H|^-1 grad, and each row's Hessian eigenvalues in ascending order, H
    replaced by the Fisher information in the rows whose `scoring` flag is
    set.  Nothing but f is read where f is inf.  Spectral
    (`_spectral_descent`) when the model declares a `Spectrum`, else
    `_matrix_descent`."""
    if model.spectrum is not None:
        return _spectral_descent(model.spectrum, sums)
    return _matrix_descent(model, [sample.rhat for sample in samples])


def _take(items, keep):
    """The entries `keep` (ascending positions) of a list or an array; the
    items themselves where `keep` holds them all."""
    if len(keep) == len(items):
        return items
    return items[keep] if isinstance(items, np.ndarray) else [items[i] for i in keep]


def _trace(history, row):
    """The (theta, sup-norm) iterates of the block row `row`."""
    trace = []
    for rows, theta, norm in history:
        pos = rows.index(row)
        trace.append((theta[pos].copy(), norm[pos]))
    return trace


def _descend(model, evaluate, theta, scoring):
    """Newton descent with an Armijo line search on every row of theta
    (B, k) at once, on the `_descent` evaluate.  Rows whose `scoring` flag is
    set take a Fisher-scoring first step.  Returns (theta_hat, iterations,
    failures): the (B, k) estimates, a NaN row where the row failed, each
    row's step count, and {row: the exception `ple_estimate` raises on that
    row's sample alone}.  Each row keeps its own step, stop test, saddle test
    and iterate trace, and a row with an outcome leaves the block.  The rows
    that meet the tolerance in one round take their saddle tests row by row
    and then one domain test, `model.domain_check_block`.  No row reads
    another, so an outcome does not depend on the block around it.  Each
    candidate is evaluated once, step included: an accepted candidate's step
    is the next step, a rejected one's is discarded."""
    rows = list(range(len(theta)))
    f, norm, slope, dx, eigs = evaluate(rows, theta, scoring)
    theta_hat = np.full(theta.shape, np.nan)
    iterations = [0] * len(rows)
    failures = {row: DomainError(f"initial theta {theta[row]} outside the domain "
                                 f"of {model.name}")
                for row, value in enumerate(f) if value == np.inf}
    settled = [value == np.inf for value in f]
    tol = 1e-8 * model.k
    # (rows, theta, norm) of every iterate, for the traces.  A row that has
    # an outcome may stay in one more entry, which its trace, made with the
    # outcome, never reads.
    history = []

    def fail(pos, norm):
        settled[rows[pos]] = True
        failures[rows[pos]] = ConvergenceError(
            f"pseudo-likelihood Newton descent did not converge for {model.name} "
            f"(final sup-norm {norm:.3e}, tolerance {tol:.3e})",
            trace=_trace(history, rows[pos]))

    def settle(met, iteration):
        # The verdicts on the positions `met`, whose pseudo-scores met the
        # tolerance: the saddle test row by row, on the exact Hessian (a
        # scoring step's is evaluated again), then one domain test.
        level = []
        for i in met:
            settled[rows[i]] = True
            hess_eigs = (evaluate(rows[i:i + 1], theta[i:i + 1], [False])[4][0]
                         if iteration == 0 and scoring[rows[i]] else eigs[i])
            low, high = float(hess_eigs[0]), float(hess_eigs[-1])
            if low < -_SQRT_EPS * max(-low, high):  # the eigenvalues ascend
                failures[rows[i]] = ConvergenceError(
                    f"pseudo-likelihood Newton descent stopped at a saddle point "
                    f"for {model.name} (Hessian eigenvalues {low:.3e} to {high:.3e})",
                    trace=_trace(history, rows[i]))
            else:
                level.append(i)
        if not level:
            return
        for i, inside in zip(level, model.domain_check_block(_take(theta, level)).tolist()):
            if inside:
                theta_hat[rows[i]] = theta[i]
                iterations[rows[i]] = iteration
            else:
                failures[rows[i]] = ConvergenceError(
                    f"pseudo-likelihood Newton descent converged to {theta[i].tolist()}, "
                    f"outside the domain of {model.name}", trace=_trace(history, rows[i]))

    for iteration in range(_MAX_ITER + 1):
        history.append((rows, theta, norm))
        met = [i for i, value in enumerate(norm) if value <= tol and not settled[rows[i]]]
        if met:
            settle(met, iteration)
        live = [i for i, row in enumerate(rows) if not settled[row]]
        if iteration == _MAX_ITER or not live:
            for i in live:
                fail(i, norm[i])
            break
        if len(live) < len(rows):
            rows, theta, f, norm, slope, dx = (_take(v, live)
                                               for v in (rows, theta, f, norm, slope, dx))
        # Armijo on the objective; the slack admits steps whose decrease is
        # below the roundoff of f, which near the optimum is all of them.  The
        # first round evaluates the full steps theta + dx (theta + 1.0 * dx to
        # the bit) into new arrays, the next iterate, and each halving round
        # overwrites the rows still searching.
        search, scale, new = range(len(rows)), 1.0, None
        while search and scale > 2.0 ** -30:
            cand = theta + dx if new is None else _take(theta, search) + scale * _take(dx, search)
            # (theta, f, norm, slope, step, eigs) of the candidates
            out = (cand, *evaluate(_take(rows, search), cand, [False] * len(search)))
            new = out if new is None else new
            rejected = []
            for j, i in enumerate(search):
                if not out[1][j] <= f[i] + 1e-4 * scale * slope[i] + 1e-13 * (1.0 + abs(f[i])):
                    rejected.append(i)
                elif out is not new:
                    for v, v_out in zip(new, out):
                        v[i] = v_out[j]
            search, scale = rejected, 0.5 * scale
        for i in search:  # no descent found
            fail(i, norm[i])
        theta, f, norm, slope, dx, eigs = new
    return theta_hat, np.array(iterations), failures


def _moment_fits(model, samples, sums):
    """The (B, k) moment fits of the samples, for a model with a moment map:
    `moment_map` vec(Rhat), or on a `Spectrum` the same least-squares fit
    <dR(0), Rhat> / ||dR(0)||^2 = sum w D from the block's group sums D
    (`_BlockStats.sums`) and the spectrum's `moment_weights` w, in row sums."""
    if sums is None:
        return np.array([model.moment_map @ sample.rhat.ravel() for sample in samples])
    return np.add.reduce(sums * model.spectrum.moment_weights, 1)[:, None]


def _starts(model, samples, stats):
    """(starts, from_pilot): each sample's moment fit where the model has a
    moment map and the fit is in the domain (the block's `stats.moment`),
    else `default_init`."""
    if model.moment_map is None:
        return (np.tile(model.theta_vec(model.default_init), (len(samples), 1)),
                [False] * len(samples))
    fits, inside = stats.moment
    if not inside.all():
        fits = np.where(inside[:, None], fits, model.theta_vec(model.default_init))
    return fits, inside.tolist()


def _ple_solve(model, samples, stats):
    """The PLE of every sample of a block, `stats` its `_BlockStats`, as
    arrays: (theta, iterations, failures) of `_descend`, with no
    EstimateResult.  A Monte Carlo block reads this, and `ple_estimate` is a
    block of one."""
    return _descend(model, _descent(model, samples, stats.sums),
                    *_starts(model, samples, stats))


def _moment_pilot(model, samples, stats):
    """The moment pilots of a block, for a model with a moment map, as
    arrays: (theta, clamped), theta the (B, k) fits of the block's
    `stats.moment` with each fit outside the domain brought into it toward
    default_init (`model.into_domain`) and flagged in `clamped`.  The fits'
    one domain test is the one the PLE's starts read; only the rows outside
    the domain call `into_domain`."""
    fits, inside = stats.moment
    theta, clamped = fits.copy(), ~inside
    for row in clamped.nonzero()[0]:
        theta[row] = model.into_domain(theta[row], model.default_init)[0]
    return theta, clamped


def _std_errors(model, theta, n, field):
    """Standard errors sqrt(diag(cov) / n), cov the `efficiency_bundle` field
    "ple_cov" or "eff_info_inv" at theta; None where it is singular."""
    try:
        cov = getattr(efficiency_bundle(eval_geometry(model, theta)), field)
        return np.sqrt(np.maximum(np.diag(cov), 0.0) / n)
    except (SingularityError, np.linalg.LinAlgError):
        return None


def _check_p(model, sample):
    """ShapeError where the sample's p is not the model's."""
    if sample.p != model.p:
        raise ShapeError(f"sample has {sample.p} columns, model needs {model.p}")


def ple_estimate(model, sample):
    """Pseudo-likelihood estimate by Newton descent with an Armijo line
    search on the mean negative pseudo-log-likelihood (see the module
    docstring): `_ple_solve` on a block of one.  Every iterate has
    R(theta) positive definite.  The descent starts at the moment pilot with
    one Fisher-scoring step, the Hessian replaced by its expectation F, and
    `iterations` counts that step.  Where the model has no moment map or the
    pilot lies outside the domain, it starts at `default_init` and every
    step is exact Newton: scoring from factor(5, 1)'s default start can
    reach the other sign of the loadings.

    Converged means pseudo-score sup-norm <= 1e-8 * k, reached in
    `iterations` steps, at a point where the Hessian of the objective has no
    eigenvalue below -sqrt(eps) times its largest absolute eigenvalue, and
    which lies in the model's domain (`domain_check`).  A semidefinite
    Hessian passes: raw factor loadings with q >= 2 have flat directions.
    A stationary point with negative curvature (a saddle) or outside the
    domain raises ConvergenceError, as do `_MAX_ITER` steps that do not
    reach the tolerance and a line search that finds no descent; the error
    carries the (theta, sup-norm) trace.  A start where R(theta) is not
    positive definite raises DomainError, and a sample whose p is not the
    model's ShapeError.
    """
    _check_p(model, sample)
    theta, iterations, failures = _ple_solve(model, [sample], _BlockStats(model, [sample]))
    if failures:
        raise failures[0]
    return EstimateResult(theta_hat=theta[0], method="ple", iterations=int(iterations[0]),
                          converged=True, model=model, sample=sample)


# ---------------------------------------------------------------------------
# Pilot and one-step
# ---------------------------------------------------------------------------

def pilot_moment(model, sample):
    """Closed-form minimum-distance pilot `model.moment_map` vec(Rhat): the
    least-squares fit of Rhat - I on the derivative matrices at theta = 0,
    where R(0) = I and they do not all vanish (for affine families, minimize
    ||R(theta) - Rhat||_F; for circular, the mean first-neighbor
    correlation).  On a `Spectrum` the same fit is read from the
    eigen-group sums, with no Rhat (`_moment_fits`), and is the PLE's start
    to the bit.  A fit outside
    the domain is brought into it toward default_init (`model.into_domain`)
    and flagged.
    Other families (dR(0) = 0, or R(0) != I) fall back to ple_estimate.
    Raises ShapeError where the sample's p is not the model's."""
    if model.moment_map is None:
        return ple_estimate(model, sample)
    _check_p(model, sample)
    theta, clamped = _moment_pilot(model, [sample], _BlockStats(model, [sample]))
    return EstimateResult(theta_hat=theta[0], method="pilot_moment", iterations=0,
                          converged=True, model=model, sample=sample, clamped=bool(clamped[0]))


def one_step(model, sample, pilot=None):
    """Efficient one-step update from a root-n-consistent pilot:
    `_one_step_update` on a block of one, after the pilot's check.

    theta_hat = pilot + I*^-1(pilot) mean_i efficient_score(pseudo_obs_i),
    with the mean efficient score computed as tr(A*_m Rhat) / 2, in closed
    form on the eigenvalues where the model's spectrum is balanced (see the
    module docstring).  The pilot defaults to `pilot_moment`; one outside
    the domain raises DomainError (`model.require`).  An update leaving the
    domain is brought into it toward the pilot (`model.into_domain`) and
    flagged, and then `converged` is False.  Raises SingularityError where
    the efficient information at the pilot is singular, and ShapeError
    where the sample's p is not the model's.
    """
    pilot = model.require(
        pilot_moment(model, sample).theta_hat if pilot is None else pilot, "pilot")
    _check_p(model, sample)
    theta, clamped, failures = _one_step_update(model, [sample], pilot[None],
                                                _BlockStats(model, [sample]).sums)
    if failures:
        raise failures[0]
    return EstimateResult(theta_hat=theta[0], method="one_step", iterations=1,
                          converged=not clamped[0], model=model, sample=sample,
                          clamped=bool(clamped[0]))


def _one_step_update(model, samples, pilots, sums):
    """The one-step updates of a block from its (B, k) array of pilots, as
    the PLE core returns it, `sums` its group sums (`_BlockStats.sums`), as
    arrays: (theta, clamped, failures).  Row b of theta is the update
    pilot + I*^-1 tr(A* Rhat) / 2 brought into the domain toward the pilot
    (`model.into_domain`) and flagged in `clamped`, or a NaN row where the
    row fails; `failures` maps such a row to its error: `theta_vec`'s
    DomainError where the pilot is not finite (a failed PLE's NaN row),
    found by one pass over the pilots, the SingularityError where I* is
    singular, or the error that the geometry at the pilot raises on the
    general path.  No finite pilot is checked against the domain again (the
    PLE's descent checks its estimates, `one_step` its pilot).  A Monte
    Carlo block reads this, and `one_step` is a block of one.

    On a balanced spectrum R = Q diag(lam) Q', diag(dR S) = xbar 1 with
    x = dlam / lam, so the generator weights are g = -xbar / 2 and
    A* = Q diag((x - xbar) / lam) Q'.  On the eigen-groups, with
    multiplicities m and sums D, as the spectral PLE reads them,
    xbar = sum m x / p and the whole block is then

        I* = sum m (x - xbar)^2 / 2,
        theta = pilot + sum (x - xbar) D / lam / sum m (x - xbar)^2,

    elementwise and in row sums, with no solve, Gram or inverse; I* is
    singular where it is not > 0, `_spd_inverse`'s verdict on a 1 x 1
    matrix.  A finite row whose pilot has min lam <= 0, and every finite row
    of any other model, takes the general path: all those rows go through
    the block producer of A* and I*^-1 (`geometry._efficient_block`) in one
    call, and each update is two matrix-vector products.  The block's
    updates then take one domain test (`model.domain_check_block`), and only
    the rows outside the domain call `into_domain`.  Every step reads one
    row, so a row is the same to the bit as a block of one."""
    finite = np.isfinite(pilots).all(axis=1)
    failures = {row: DomainError(_NOT_FINITE) for row in (~finite).nonzero()[0].tolist()}
    spectrum = model.spectrum
    if spectrum is None or not spectrum.balanced:
        general, theta = finite, np.empty(pilots.shape)
    else:
        m = spectrum.sizes
        add = np.add.reduce
        start = pilots[:, 0]
        # rows where I* = 0, the general rows and those not finite
        with np.errstate(divide="ignore", invalid="ignore"):
            lam, dlam, _ = spectrum.group_fn(start)
            x = dlam / lam
            x -= (add(m * x, 1) / model.p)[:, None]
            squares = add(m * x * x, 1)
            theta = (start + add(x * sums / lam, 1) / squares)[:, None]
        general = finite & ~(lam.min(axis=1) > 0.0)
        info = 0.5 * squares
        failures.update((row, _singular(info[row:row + 1], "efficient information matrix"))
                        for row in (finite & ~general & ~(info > 0.0)).nonzero()[0].tolist())
    general = general.nonzero()[0].tolist()
    if general:
        theta[general], failed = _general_updates(model, _take(samples, general),
                                                  _take(pilots, general))
        failures.update((general[pos], exc) for pos, exc in failed.items())
    if failures:
        theta[list(failures)] = np.nan
    clamped = np.zeros(len(samples), dtype=bool)
    for row in (~model.domain_check_block(theta)).nonzero()[0].tolist():
        if row not in failures:  # a copy, since the row is overwritten with the outcome
            theta[row], clamped[row] = model.into_domain(theta[row].copy(), pilots[row])
    return theta, clamped, failures


def _general_updates(model, samples, pilots):
    """The updates pilot + I*^-1 tr(A* Rhat) / 2 of the samples from their
    (B, k) pilots, before the domain test, with A* and I*^-1 from one call of
    the block producer (`geometry._efficient_block`): (theta, failures), a
    NaN row where the producer fails the row and failures mapping it to its
    error."""
    effs, invs, failures = _efficient_block(model, pilots)
    theta = np.empty(pilots.shape)
    for row, (sample, pilot, eff, inv) in enumerate(zip(samples, pilots, effs, invs)):
        theta[row] = np.nan if eff is None else pilot + inv @ (
            0.5 * (eff.reshape(model.k, -1) @ sample.rhat.ravel()))
    return theta, failures
