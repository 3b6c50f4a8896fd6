"""Seeded sampling from a Gaussian copula, with optional margins.

Streams use the counter-based Philox generator keyed by the master seed,
with the replication index (and an experiment lane) placed in the high
words of the 256-bit counter.  Distinct replications therefore draw from
disjoint streams no matter how work is scheduled across workers.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError
from .numcore import (check_symmetric, cholesky_lower, identity, norm_cdf, norm_quantile,
                      spd_factor)

__all__ = ["CopulaFactor", "sample_copula", "apply_margins", "copula_stream"]

# kind -> its quantile transform u -> x, elementwise in u.  gaussian looks
# norm_quantile up at each call, so a wrapper bound in its place sees it.
_MARGINS = {
    "uniform": lambda u: u,
    "gaussian": lambda u: norm_quantile(u),
    "exponential": lambda u: -np.log1p(-u),
    "cauchy": lambda u: np.tan(np.pi * (u - 0.5)),
}


def copula_stream(seed, rep=0, lane=0):
    """Generator for replication `rep` of the experiment `lane` under `seed`."""
    if seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=np.array([0, 0, rep, lane], dtype=np.uint64))
    return np.random.Generator(bitgen)


def _copula_factor(r):
    """Cholesky factor of R with a single 1e-12 jitter retry near singularity."""
    r = check_symmetric(r, name="R")
    chol = cholesky_lower(r)
    return chol if chol is not None else spd_factor(
        r + 1e-12 * identity(len(r)), "correlation matrix is not positive definite")


class CopulaFactor:
    """The read-only lower Cholesky factor `chol` of a correlation matrix R.
    `sample_copula` takes it in place of R, so that draws from one R share
    one factorization."""

    def __init__(self, r):
        self.chol = _copula_factor(r)
        self.chol.flags.writeable = False


def sample_copula(r, n, seed, rep=0, lane=0):
    """Draw n observations from the Gaussian copula with correlation R.

    Z ~ N(0, R) via the Cholesky factor, then U_j = Phi(Z_j).  Identical
    (seed, R, n, rep, lane) give bit-identical output, whether `r` is R or
    its `CopulaFactor`.

    Returns an (n, p) matrix with entries strictly inside (0, 1).  Raises
    ValueError where R is not finite, and SingularityError where R is not
    positive definite even with 1e-12 added to its diagonal.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    chol = r.chol if isinstance(r, CopulaFactor) else _copula_factor(r)
    rng = copula_stream(seed, rep=rep, lane=lane)
    z = rng.standard_normal((n, chol.shape[0])) @ chol.T
    return norm_cdf(z)


def apply_margins(u, kinds):
    """Apply margin quantile transforms columnwise to copula data U.  `kinds`
    is one kind name, or a sequence of 1 name for every column or of p
    names, one per column.  Each kind runs in one call on the block of its
    columns (every transform is elementwise and strictly increasing)."""
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    for kind in kinds:
        if kind not in _MARGINS:
            raise ConfigError(f"margins: unknown kind {kind!r}")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-d, got shape {u.shape}")
    p = u.shape[1]
    if len(kinds) == 1:
        columns = {kinds[0]: slice(None)}
    elif len(kinds) == p:
        columns = {}
        for j, kind in enumerate(kinds):
            columns.setdefault(kind, []).append(j)
    else:
        raise ShapeError(f"margins: {len(kinds)} kinds for p={p} columns")
    out = np.empty_like(u)
    for kind, cols in columns.items():
        out[:, cols] = _MARGINS[kind](u[:, cols])
    return out
