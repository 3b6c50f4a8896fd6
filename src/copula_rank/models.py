"""Structured correlation models theta -> R(theta).

Built-in families: unrestricted, exchangeable, Toeplitz, circular (p=4),
factor (low-rank loadings), a one-parameter demonstration model that is
adaptive at theta=0, and custom affine families R(theta) = I + sum theta_m G_m
loaded from config.  A model evaluates into a `Geometry`: the matrices
R, S = R^-1, dR/dtheta_m and dS/dtheta_m at a fixed theta, which is the
working context for every downstream formula.  `_geometry_at` is their one
producer, with S from one Cholesky factorization of R(theta) on every
model: `eval_geometry` reads it after checking theta, and the one-step
update of a Monte Carlo block reads it at each row with nothing checked
again.

The domain is the model's `box` where it declares one, else lambda_min(R)
> 1e-10.  `domain_check_block` tests a block of thetas at once, with the
verdicts of `domain_check` row by row: one comparison with the box, or one
pass over the rows that takes each R and its eigenvalues, checking each
theta and each R once.

A one-parameter model whose eigenbasis does not depend on theta
(one-generator affine families, circular) also declares a `Spectrum`: its
eigen-groups, the eigenspaces on which the eigenvalue is one function of
theta, each with its multiplicity m_g, maps (lam_g, dlam_g, d2lam_g) and
orthonormal columns Q_g, except that a family which knows its groups in
closed form leaves out the columns of a largest one.  The estimators read a
sample only through one sum per group, D_g = ||zhat Q_g||_F^2 / n, the last
group's being tr Rhat minus the others, which reduces the pseudo-likelihood
of a block of samples, and on a balanced spectrum the one-step update, to
elementwise arithmetic on (B, G) arrays.  exchangeable(p) declares its two
groups exactly (1/sqrt(p) with eigenvalue 1 + (p - 1) theta, the rest with
1 - theta) and makes no eigen-solve; circular declares its (1, 2, 1)
grouping on two exact Fourier columns; the other one-generator affine
families group the eigenvalues of one eigen-solve of their generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError
from .numcore import (check_symmetric, finite_rows, identity, pinv, spd_factor, spd_inverse,
                      sym_eig)

__all__ = [
    "CorrelationModel",
    "Spectrum",
    "Geometry",
    "Assumption1Report",
    "build_model",
    "load_model",
    "unrestricted",
    "exchangeable",
    "toeplitz",
    "circular",
    "factor",
    "adaptivity_demo",
    "custom_affine",
    "FAMILIES",
    "lower_triangle_pairs",
    "validate_assumption1",
    "eval_geometry",
]

_EPS_DOMAIN = 1e-6  # margin keeping theta away from open-interval boundaries
_PD_FLOOR = 1e-10  # R counts as positive definite when lambda_min(R) exceeds this
_NOT_FINITE = "theta must be finite"  # the DomainError of a theta with a NaN or inf
# Largest p (and q) a descriptor may ask for: every family holds dense p x p
# matrices, and a larger p fails inside numpy instead of as a ConfigError.
_DIM_MAX = 1000
_INDEP_RTOL = 1e-8  # dR/dtheta rank cutoff, relative to max(1, sigma_max)
_BALANCE_TOL = 1e-10  # `Spectrum.balanced`: a group's projector diagonal against m_g / p
# One-generator affine families group the eigenvalues g of their generator G
# that lie within this tolerance times max(1, max |g|) of their neighbours.
_GROUP_TOL = 1e-10


def lower_triangle_pairs(p):
    """Index pairs (i, j), i > j, in row-major order: (1,0), (2,0), (2,1), ..."""
    return [(i, j) for i in range(1, p) for j in range(i)]


@dataclass(frozen=True)
class Spectrum:
    """The theta-free eigen-groups of a one-parameter family:
    R(theta) = sum_g lam_g(theta) P_g, with P_g the orthogonal projector on
    the g-th eigenspace on which the eigenvalue is one function of theta.

    sizes : the read-only float array of the multiplicities m_g of the G
        groups; they sum to p
    columns : the read-only matrix of the orthonormal columns Q_g of the
        groups, group by group, so that P_g = Q_g Q_g': of every group (p
        columns), or of every group but the last, a largest one (p - m_G
        columns), whose projector is then I - sum Q_g Q_g'.  A family that
        knows its groups in closed form (exchangeable, circular) leaves the
        last one out, so its estimators never project on it; one whose
        groups come from an eigen-solve keeps every column, and its group
        sums stay sums of squares, equal to the bit where the sample makes
        them equal.
    group_fn : t -> (lam, dlam, d2lam) for a vector t of B values of the
        parameter: three (B, G) arrays whose row b holds each group's
        eigenvalue of R(t_b) and its first and second derivatives in theta,
        so that dR/dtheta = sum_g dlam[b, g] P_g.  Row b is computed
        elementwise from t_b alone, so it does not depend on B.  The
        estimators read it.
    """

    sizes: np.ndarray
    columns: np.ndarray = field(repr=False)
    group_fn: Callable = field(repr=False)

    @cached_property
    def _group_starts(self):
        """The first column of each group that has columns, or None where
        each of them is one column."""
        width = self.columns.shape[1]
        starts = np.cumsum(self.sizes).astype(int) - self.sizes.astype(int)
        starts = starts[starts < width]
        return None if len(starts) == width else starts

    def group_totals(self, a):
        """Sums of the last axis of `a`, one entry per column of `columns`,
        over each group's columns: one entry per group that has columns."""
        starts = self._group_starts
        return a if starts is None else np.add.reduceat(a, starts, axis=-1)

    @cached_property
    def moment_weights(self):
        """The read-only weights w_g = dlam_g(0) / sum_g m_g dlam_g(0)^2, so
        that sum_g w_g tr(P_g Rhat) = <dR(0), Rhat> / ||dR(0)||_F^2, the
        least-squares fit of Rhat - I on dR(0).  Built on first read."""
        dlam = self.group_fn(np.zeros(1))[1][0]
        weights = dlam / np.add.reduce(self.sizes * dlam * dlam)
        weights.flags.writeable = False
        return weights

    @cached_property
    def balanced(self):
        """True where every group's projector Q_g Q_g' has the constant
        diagonal m_g / p, to 1e-10; a last group without columns, whose
        projector is I minus the others, then has it too.
        Then diag(dR S) = mean(dlam / lam) 1 at every theta, which puts the
        efficient score in closed form on the eigenvalues.  Decided on first
        read, from the declared groups."""
        weights = self.group_totals(self.columns * self.columns)
        return bool((np.abs(weights - self.sizes[:weights.shape[-1]] / len(self.columns))
                     <= _BALANCE_TOL).all())


@dataclass(frozen=True)
class CorrelationModel:
    """A parametrization theta -> R(theta) with derivative structure.

    Fields
    ------
    name : family identifier
    p : dimension of the random vector
    k : parameter dimension
    grad_fn : analytic dR/dtheta_m as grad_fn(t, m), read only by `r_dots`;
        None for affine families and for finite differences
    box : the closed interval (lo, hi) that is the domain of a one-parameter
        family, as data: theta is in the domain when lo <= theta[0] <= hi.
        None where the domain is R(theta) positive definite, lambda_min above
        1e-10.  `domain_check`, `into_domain` and `require` read it.
    default_init : a point well inside the domain, used to seed solvers
    descriptor : JSON-serializable dict that rebuilds the model via build_model
    notes : caveats attached to diagnostics (e.g. factor identifiability)
    affine_generators : for affine families, the read-only (k, p, p) array
        of the constant matrices G_m with R(theta) = I + sum theta_m G_m;
        None otherwise
    spectrum : the `Spectrum` of a one-parameter family whose eigenbasis
        does not depend on theta; None otherwise.  A model with k != 1
        rejects one with ShapeError.
    """

    name: str
    p: int
    k: int
    corr_fn: Callable = field(repr=False)
    grad_fn: Optional[Callable] = field(repr=False, default=None)
    box: Optional[tuple] = None
    default_init: np.ndarray = None
    descriptor: dict = field(default_factory=dict)
    notes: tuple = ()
    affine_generators: Optional[np.ndarray] = field(repr=False, default=None)
    spectrum: Optional[Spectrum] = field(repr=False, default=None)

    def __post_init__(self):
        if self.spectrum is not None and self.k != 1:
            raise ShapeError(f"spectrum: a Spectrum needs k = 1, got k = {self.k} "
                             f"for {self.name}")

    def theta_vec(self, theta):
        """Coerce theta to a validated 1-d float vector of length k."""
        t = np.asarray(theta, dtype=float)
        if t.ndim == 0:
            t = t.reshape(1)
        if t.shape != (self.k,):
            raise ShapeError(f"theta must have length {self.k}, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise DomainError(_NOT_FINITE)
        return t

    def r_of_theta(self, theta):
        """Correlation matrix R(theta)."""
        return self.corr_fn(self.theta_vec(theta))

    def r_dots(self, theta):
        """All k derivative matrices dR/dtheta_m as one C-contiguous
        (k, p, p) array, validating theta once: the read-only
        `affine_generators` itself for affine families, else `grad_fn(t, m)`
        stacked over m, else central finite differences with step
        max(1e-6, 1e-8*|theta_m|)."""
        return self._r_dots(self.theta_vec(theta))

    def _r_dots(self, t):
        if self.affine_generators is not None:
            return self.affine_generators
        if self.grad_fn is not None:
            return np.stack([self.grad_fn(t, m) for m in range(self.k)])
        steps = np.maximum(1e-6, 1e-8 * np.abs(t))
        return np.stack([(self.corr_fn(t + e) - self.corr_fn(t - e)) / (2.0 * h)
                         for e, h in zip(np.diag(steps), steps)])

    @cached_property
    def moment_map(self):
        """The read-only k x p^2 pseudo-inverse of vec(dR(0)), which maps
        vec(Rhat) to the least-squares fit of Rhat - I on dR(0), the moment
        pilot; None unless R(0) = I and dR(0) != 0.  Built on first read."""
        zero = np.zeros(self.k)
        design = self._r_dots(zero).reshape(self.k, -1).T
        if not np.array_equal(self.corr_fn(zero), identity(self.p)) or not design.any():
            return None
        # lstsq's rank cutoff.  dR(0) has a zero diagonal, so zeroing the
        # diagonal columns sends vec(I) to 0 and changes no fit.
        pilot_map = pinv(design, max(design.shape) * np.finfo(float).eps)
        pilot_map[:, ::self.p + 1] = 0.0
        pilot_map.flags.writeable = False
        return pilot_map

    def domain_check(self, theta):
        """True if theta lies in the declared (numerically safe) domain:
        `domain_check_block` on theta as a block of one, False where theta is
        not a finite vector of length k (`theta_vec`)."""
        try:
            t = self.theta_vec(theta)
        except (ShapeError, DomainError):
            return False
        return bool(self.domain_check_block(t[None])[0])

    def domain_check_block(self, thetas):
        """The domain test of every row of the (B, k) array `thetas`, as a
        boolean array: lo <= theta <= hi for a family with a `box`, in one
        comparison over the block, otherwise a smallest eigenvalue of R(theta)
        above the floor 1e-10, in one pass over the finite rows that takes
        each row's R and its smallest eigenvalue.  A row that is not finite is
        outside."""
        if self.box is not None:
            lo, hi = self.box
            return (lo <= thetas[:, 0]) & (thetas[:, 0] <= hi)
        inside = np.zeros(len(thetas), dtype=bool)
        for row in finite_rows(thetas):
            inside[row] = sym_eig(self.corr_fn(thetas[row]), vectors=False)[0] > _PD_FLOOR
        return inside

    def into_domain(self, theta, anchor):
        """(theta, False) where theta is in the domain, else (a point in it,
        True): theta clipped onto the `box` where the family declares one,
        else the first in-domain point anchor + 2^-j (theta - anchor),
        j = 1..80, else a copy of the in-domain `anchor`."""
        if self.domain_check(theta):
            return theta, False
        if self.box is not None:
            return np.clip(self.theta_vec(theta), *self.box), True
        anchor = np.asarray(anchor, dtype=float)
        scale = 1.0
        for _ in range(80):
            scale *= 0.5
            cand = anchor + scale * (theta - anchor)
            if self.domain_check(cand):
                return cand, True
        return anchor.copy(), True

    def require(self, theta, what="theta"):
        """theta as a validated vector (`theta_vec`) in the domain, else
        DomainError "<what> [...] outside the domain of <name>"."""
        t = self.theta_vec(theta)
        if not self.domain_check(t):
            raise DomainError(f"{what} {t.tolist()} outside the domain of {self.name}")
        return t


def _offdiag(a):
    out = np.array(a, dtype=float)
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _linear_group_fn(slopes):
    """t -> (lam, dlam, d2lam) for eigenvalues 1 + t * slopes: a row per
    value of t, a column per slope."""
    def group_fn(t):
        lam = 1.0 + t[:, None] * slopes
        dlam = np.empty_like(lam)
        dlam[:] = slopes
        return lam, dlam, np.zeros(lam.shape)
    return group_fn


def _spectrum(sizes, columns, group_fn):
    """A Spectrum whose arrays are read-only; `sizes` become floats."""
    return Spectrum(*_read_only(np.array(sizes, dtype=float), columns), group_fn)


def _affine_groups(generator):
    """(slopes, sizes, columns) of the eigen-groups of a generator, from one
    eigen-solve: the runs of its ascending eigenvalues g whose neighbours lie
    within _GROUP_TOL * max(1, max |g|), each with its mean slope, and every
    column of its eigenbasis."""
    g, basis = sym_eig(generator)
    tol = _GROUP_TOL * max(1.0, float(np.abs(g).max()))
    edges = np.r_[0, np.flatnonzero(np.diff(g) > tol) + 1, len(g)]
    return (np.add.reduceat(g, edges[:-1]) / np.diff(edges), np.diff(edges), basis)


def _affine_model(name, p, generators, descriptor, box=None, groups=None):
    """R(theta) = I + sum theta_m G_m.  With one generator,
    R(theta) = sum_g (1 + theta g_g) P_g on the eigen-groups of G, and the
    model declares that spectrum, with `groups` = (slopes, sizes, columns)
    where the family knows them exactly, else the clusters of G's
    eigenvalues (`_affine_groups`)."""
    gens = np.array(generators, dtype=float)
    gens.flags.writeable = False
    k = len(gens)
    flat = gens.reshape(k, p * p)
    eye = identity(p)

    def corr_fn(t):
        return eye + (t @ flat).reshape(p, p)

    spectrum = None
    if k == 1:
        slopes, sizes, columns = _affine_groups(gens[0]) if groups is None else groups
        spectrum = _spectrum(sizes, columns, _linear_group_fn(slopes))
    return CorrelationModel(
        name=name, p=p, k=k, corr_fn=corr_fn, box=box, default_init=np.zeros(k),
        descriptor=descriptor, affine_generators=gens, spectrum=spectrum,
    )


def unrestricted(p):
    """All p(p-1)/2 correlations free; theta lists the lower triangle row-major."""
    if p < 2:
        raise ConfigError("p: unrestricted model needs p >= 2")
    i, j = np.tril_indices(p, -1)  # the order of lower_triangle_pairs
    m = np.arange(len(i))
    gens = np.zeros((len(i), p, p))
    gens[m, i, j] = gens[m, j, i] = 1.0
    return _affine_model("unrestricted", p, gens, {"family": "unrestricted", "p": p})


def exchangeable(p):
    """All off-diagonal entries equal theta; domain (-1/(p-1)+eps, 1-eps)."""
    if p < 2:
        raise ConfigError("p: exchangeable model needs p >= 2")
    # Its two eigen-groups, exactly: the constant vector 1/sqrt(p), with
    # eigenvalue 1 + (p - 1) theta, and its complement, with 1 - theta.
    groups = (np.array([p - 1.0, -1.0]), [1, p - 1], np.full((p, 1), 1.0 / np.sqrt(p)))
    return _affine_model("exchangeable", p, [_offdiag(np.ones((p, p)))],
                         {"family": "exchangeable", "p": p},
                         box=(-1.0 / (p - 1) + _EPS_DOMAIN, 1.0 - _EPS_DOMAIN),
                         groups=groups)


def toeplitz(p):
    """R_ij = theta_|i-j|; k = p-1 free lag correlations."""
    if p < 2:
        raise ConfigError("p: toeplitz model needs p >= 2")
    gens = [np.eye(p, k=lag) + np.eye(p, k=-lag) for lag in range(1, p)]
    return _affine_model("toeplitz", p, gens, {"family": "toeplitz", "p": p})


def circular():
    """The p=4 one-parameter family with first neighbors theta and
    second neighbors theta^2 (nonlinear in theta).

    The real Fourier basis of the 4-cycle diagonalizes R(theta) for every
    theta, with eigenvalues (1+theta)^2, 1-theta^2 (twice) and (1-theta)^2.
    """
    p = 4
    first = np.zeros((p, p))
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        first[i, j] = first[j, i] = 1.0
    second = np.zeros((p, p))
    for i, j in [(0, 2), (1, 3)]:
        second[i, j] = second[j, i] = 1.0

    def corr_fn(t):
        return identity(p) + t[0] * first + t[0] ** 2 * second

    def grad_fn(t, m):
        return first + 2.0 * t[0] * second

    # The eigen-groups (1 + theta)^2, (1 - theta)^2 and 1 - theta^2 (twice),
    # each by that formula's own operations: the zero and unit coefficients
    # below change no rounding.  The first two groups' columns are the real
    # Fourier vectors (1, 1, 1, 1) / 2 and (1, -1, 1, -1) / 2.
    columns, sign, middle, dlam0, d2lam = _read_only(
        np.array([[0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, -0.5]]),
        np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
        np.array([2.0, -2.0, 0.0]), np.array([2.0, 2.0, -2.0]))

    def group_fn(t):
        th = t[:, None]
        lam = (1.0 + th * sign) ** 2 - (th * th) * middle
        d2 = np.empty_like(lam)
        d2[:] = d2lam
        return lam, dlam0 + th * d2lam, d2

    return CorrelationModel(
        name="circular", p=p, k=1, corr_fn=corr_fn, grad_fn=grad_fn,
        default_init=np.zeros(1), descriptor={"family": "circular"},
        spectrum=_spectrum([1, 1, 2], columns, group_fn),
        box=(-1.0 + _EPS_DOMAIN, 1.0 - _EPS_DOMAIN),
    )


def factor(p, q):
    """Factor model R(theta) = I + offdiag(L L') with p x q loadings L.

    The raw parametrization (theta = L flattened row-major, k = p*q) is not
    identifiable for q >= 2 -- R(LO) = R(L) for orthogonal O -- and every
    estimator works on the raw loadings.  Geometry and the efficiency
    diagnostics work on the raw parametrization too, where the span test
    tolerates the rank deficiency of the derivative basis.
    """
    if p < 2:
        raise ConfigError("p: factor model needs p >= 2")
    if not 1 <= q < p:
        raise ConfigError("q: factor model needs 1 <= q < p")
    k = p * q

    def corr_fn(t):
        load = t.reshape(p, q)
        return identity(p) + _offdiag(load @ load.T)

    def grad_fn(t, m):
        load = t.reshape(p, q)
        a, b = divmod(m, q)
        e = np.zeros((p, q))
        e[a, b] = 1.0
        return _offdiag(e @ load.T + load @ e.T)

    # Mildly staggered loadings: inside the domain with nonzero gradients,
    # and column-independent when q > 1.
    init = np.zeros((p, q))
    for j in range(q):
        init[:, j] = 0.5 / (j + 1) * np.cos(np.arange(p) + j)
    notes = (
        "raw loadings are not identifiable for q >= 2; ple_estimate, "
        "pilot_moment and one_step apply no lower-triangular or other constraint",
        "unverified reparametrization condition",
    )
    return CorrelationModel(
        name="factor", p=p, k=k, corr_fn=corr_fn, grad_fn=grad_fn,
        default_init=init.ravel(), descriptor={"family": "factor", "p": p, "q": q},
        notes=notes,
    )


def adaptivity_demo():
    """One-parameter p=3 model with R12 = R13 = theta^2 + 1/2, R23 = theta + 1/4.

    Built so that the derivative structure makes the model adaptive at
    theta = 0 despite R(0) being far from independence.
    """
    p = 3

    def corr_fn(t):
        th = t[0]
        a = th * th + 0.5
        b = th + 0.25
        return np.array([[1.0, a, a], [a, 1.0, b], [a, b, 1.0]])

    def grad_fn(t, m):
        th = t[0]
        return np.array([[0.0, 2 * th, 2 * th],
                         [2 * th, 0.0, 1.0],
                         [2 * th, 1.0, 0.0]])

    return CorrelationModel(
        name="adaptivity_demo", p=p, k=1, corr_fn=corr_fn, grad_fn=grad_fn,
        default_init=np.zeros(1),
        descriptor={"family": "adaptivity_demo"},
    )


def custom_affine(p, generators):
    """Affine family R(theta) = I + sum theta_m G_m from user-supplied
    zero-diagonal symmetric generators."""
    if p < 2:
        raise ConfigError("p: custom_affine model needs p >= 2")
    gens = []
    if not isinstance(generators, (list, tuple, np.ndarray)):
        raise ConfigError(f"generators: expected a list of matrices, got {generators!r}")
    if len(generators) == 0:
        raise ConfigError("generators: custom_affine needs k >= 1 generators")
    for i, g in enumerate(generators):
        try:
            g = check_symmetric(g, name=f"generators[{i}]", p=p)
        except ShapeError as exc:  # its message names the field
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"generators[{i}]: {exc}") from exc
        if np.any(np.diag(g) != 0.0):
            raise ConfigError(f"generators[{i}]: diagonal entries must be zero")
        gens.append(g)
    descriptor = {
        "family": "custom_affine", "p": p,
        "generators": [g.tolist() for g in gens],
    }
    return _affine_model("custom_affine", p, gens, descriptor)


# family -> (builder, the builder's required descriptor fields in the order
# they are checked).  Every field is an integer except "generators".
FAMILIES = {
    "unrestricted": (unrestricted, ("p",)),
    "exchangeable": (exchangeable, ("p",)),
    "toeplitz": (toeplitz, ("p",)),
    "circular": (circular, ()),
    "factor": (factor, ("p", "q")),
    "adaptivity_demo": (adaptivity_demo, ()),
    "custom_affine": (custom_affine, ("generators", "p")),
}


def build_model(descriptor):
    """Build a CorrelationModel from a descriptor dict, validated against
    `FAMILIES`.

    Examples: {"family": "toeplitz", "p": 4} or
    {"family": "custom_affine", "p": 3, "generators": [[...], ...]}.
    Validation errors name the offending field.
    """
    if not isinstance(descriptor, dict):
        raise ConfigError("descriptor: expected a JSON object")
    if "family" not in descriptor:
        raise ConfigError("family: missing required field")
    fam = descriptor["family"]
    if not isinstance(fam, str) or fam not in FAMILIES:
        raise ConfigError(f"family: unknown family {fam!r}")
    builder, fields = FAMILIES[fam]
    for key in descriptor:
        if key != "family" and key not in fields:
            raise ConfigError(f"{key}: unexpected field for family {fam!r}")
    args = {}
    for key in fields:
        v = descriptor.get(key)
        if v is None and (key == "generators" or key not in descriptor):
            raise ConfigError(f"{key}: missing required field")
        if key != "generators" and (not isinstance(v, int) or isinstance(v, bool)):
            raise ConfigError(f"{key}: expected an integer, got {v!r}")
        if key != "generators" and v > _DIM_MAX:
            raise ConfigError(f"{key}: expected an integer <= {_DIM_MAX}, got {v!r}")
        args[key] = v
    return builder(**args)


def load_model(path):
    """Read a model descriptor JSON file and build the model."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            descriptor = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"descriptor: invalid JSON ({exc})") from exc
    return build_model(descriptor)


# ---------------------------------------------------------------------------
# Diagnostics and geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assumption1Report:
    """Numerical check of the identifiability assumption at a point.

    Violations are reported, never thrown, so callers can present them.
    """

    model_name: str
    theta: np.ndarray
    unit_diag_error: float
    unit_diag_ok: bool
    min_eigenvalue: float
    positive_definite: bool
    rdot_rank: int
    rdot_min_singular: float
    rdot_independent: bool
    k: int
    notes: tuple
    passed: bool
    violated: tuple

    def to_dict(self):
        return {
            "criterion": "assumption1",
            "model": self.model_name,
            "theta": list(map(float, np.atleast_1d(self.theta))),
            "unit_diag_error": self.unit_diag_error,
            "min_eigenvalue": self.min_eigenvalue,
            "positive_definite": self.positive_definite,
            "rdot_rank": self.rdot_rank,
            "rdot_min_singular": self.rdot_min_singular,
            "rdot_independent": self.rdot_independent,
            "k": self.k,
            "violated": list(self.violated),
            "notes": list(self.notes),
            "verdict": "pass" if self.passed else "fail",
        }


def validate_assumption1(model, theta):
    """Check R(theta) is a correlation matrix (unit diagonal, positive
    definite) and that the derivative matrices dR/dtheta_m are linearly
    independent, via the singular values of their vectorizations."""
    t = model.theta_vec(theta)
    r = model.corr_fn(t)
    diag_err = float(np.max(np.abs(np.diag(r) - 1.0)))
    unit_ok = diag_err <= 1e-10
    min_eig = float(sym_eig(r, vectors=False)[0])
    pd_ok = min_eig > _PD_FLOOR

    svals = np.linalg.svd(model._r_dots(t).reshape(model.k, -1).T, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    tol = _INDEP_RTOL * max(1.0, smax)
    rank = int(np.sum(svals > tol))
    indep_ok = rank == model.k

    violated = []
    if not unit_ok:
        violated.append("unit_diagonal")
    if not pd_ok:
        violated.append("positive_definite")
    if not indep_ok:
        violated.append("rdot_independent")
    return Assumption1Report(
        model_name=model.name, theta=t,
        unit_diag_error=diag_err, unit_diag_ok=unit_ok,
        min_eigenvalue=min_eig, positive_definite=pd_ok,
        rdot_rank=rank, rdot_min_singular=smin, rdot_independent=indep_ok,
        k=model.k, notes=model.notes, passed=not violated,
        violated=tuple(violated),
    )


@dataclass(frozen=True)
class Geometry:
    """All matrices of the model evaluated at a fixed theta.

    r is the correlation matrix, s its inverse and r_dots/s_dots the
    (k, p, p) arrays of the parameter derivatives of each.  s, r_dots and
    s_dots are C-contiguous.
    """

    theta: np.ndarray
    r: np.ndarray
    s: np.ndarray
    r_dots: np.ndarray
    s_dots: np.ndarray

    @property
    def p(self):
        return self.r.shape[0]

    @property
    def k(self):
        return len(self.r_dots)


def eval_geometry(model, theta):
    """Evaluate R, S = R^-1 and their theta-derivatives dS_m = -S dR_m S at
    theta: `_geometry_at` after `theta_vec`, as a `Geometry`.  A point where
    R(theta) is not positive definite raises SingularityError carrying the
    smallest eigenvalue.
    """
    t = model.theta_vec(theta)
    return Geometry(t, *_geometry_at(model, t))


def _geometry_at(model, t):
    """(R, S, dR, dS) at the finite theta vector t, which is not checked
    again: the one producer of these matrices, which `eval_geometry` and the
    one-step update of a block (`geometry._efficient_block`) read.  S comes
    from one Cholesky factorization of R(theta) on every model.  A point
    where R(theta) is not positive definite raises SingularityError carrying
    the smallest eigenvalue.
    """
    r = model.corr_fn(t)
    s = spd_inverse(spd_factor(r, f"R(theta) is not positive definite for {model.name}"))
    s = 0.5 * (s + s.T)
    r_dots = model._r_dots(t)
    s_dots = -s @ r_dots @ s
    s_dots = 0.5 * (s_dots + s_dots.transpose(0, 2, 1))
    return r, s, r_dots, s_dots
