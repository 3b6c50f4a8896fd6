"""Seeded sampling from a Gaussian copula, with optional margins.

Streams use the counter-based Philox generator keyed by the master seed,
with the replication index (and an experiment lane) placed in the high
words of the 256-bit counter.  Distinct replications therefore draw from
disjoint streams no matter how work is scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError, SingularityError
from .numcore import check_symmetric, norm_cdf, norm_quantile

__all__ = ["MarginSpec", "CopulaFactor", "sample_copula", "apply_margins",
           "copula_stream"]

_MARGIN_KINDS = ("uniform", "gaussian", "exponential", "cauchy", "user")


@dataclass(frozen=True)
class MarginSpec:
    """Per-column margin assignment.

    kinds is a tuple of margin names, either of length 1 (applied to every
    column) or of length p.  Every kind is a strictly increasing continuous
    transform of the uniform variate; "user" applies the supplied monotone
    `transform` callable.
    """

    kinds: tuple = ("uniform",)
    transform: Optional[Callable] = None

    def __post_init__(self):
        kinds = tuple(self.kinds) if not isinstance(self.kinds, str) else (self.kinds,)
        for kind in kinds:
            if kind not in _MARGIN_KINDS:
                raise ConfigError(f"margins: unknown kind {kind!r}")
        if "user" in kinds and self.transform is None:
            raise ConfigError("margins: kind 'user' requires a transform callable")
        object.__setattr__(self, "kinds", kinds)

    def kind_for(self, j, p):
        if len(self.kinds) == 1:
            return self.kinds[0]
        if len(self.kinds) != p:
            raise ShapeError(f"margins: {len(self.kinds)} kinds for p={p} columns")
        return self.kinds[j]


def copula_stream(seed, rep=0, lane=0):
    """Generator for replication `rep` of the experiment `lane` under `seed`."""
    if seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=[0, 0, np.uint64(rep), np.uint64(lane)])
    return np.random.Generator(bitgen)


def _copula_factor(r):
    """Cholesky factor of R with a single 1e-12 jitter retry near singularity."""
    r = check_symmetric(r, name="R")
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(r + 1e-12 * np.eye(r.shape[0]))
        except np.linalg.LinAlgError as exc:
            eig = float(np.linalg.eigvalsh(r)[0])
            raise SingularityError(
                f"correlation matrix is not positive definite "
                f"(min eigenvalue {eig:.3e})", eigenvalue=eig) from exc


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

    Returns an (n, p) matrix with entries strictly inside (0, 1).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    chol = r.chol if isinstance(r, CopulaFactor) else _copula_factor(r)
    rng = copula_stream(seed, rep=rep, lane=lane)
    z = rng.standard_normal((n, chol.shape[0])) @ chol.T
    return norm_cdf(z)


def apply_margins(u, spec):
    """Apply the margin quantile transforms columnwise to copula data U."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-d, got shape {u.shape}")
    n, p = u.shape
    out = np.empty_like(u)
    for j in range(p):
        kind = spec.kind_for(j, p)
        col = u[:, j]
        if kind == "uniform":
            out[:, j] = col
        elif kind == "gaussian":
            out[:, j] = norm_quantile(col)
        elif kind == "exponential":
            out[:, j] = -np.log1p(-col)
        elif kind == "cauchy":
            out[:, j] = np.tan(np.pi * (col - 0.5))
        else:  # user
            out[:, j] = spec.transform(col)
    return out
