"""Seeded sampling from a Gaussian copula, and margin transforms.

Streams use the counter-based Philox generator keyed by the master seed,
with the replication index (and an experiment lane) placed in the high
words of the 256-bit counter.  Distinct replications therefore draw from
disjoint streams no matter how work is scheduled across workers.

The draw is written once, over a block of replications stacked as one
(B, n, p) array of latent normals Z (`_sample_block`): one bit generator
reset to each replication's stream, and one matmul with the read-only
Cholesky factor of R (`_copula_factor`), one gemm per row, so a row is the
same to the bit in any block.  `sample_copula` is Phi of a block of one.
A Monte Carlo run factors its R once, draws every block from that factor
and ranks Z itself: the estimators read only ranks, and Phi and the margin
transforms of `apply_margins` are strictly increasing.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError
from .numcore import (check_symmetric, cholesky_lower, identity, norm_cdf, norm_quantile,
                      spd_factor)

__all__ = ["sample_copula", "apply_margins", "copula_stream"]

# kind -> its quantile transform u -> x, elementwise in u, or None for the
# identity.  gaussian looks norm_quantile up at each call, so a wrapper bound
# in its place sees it.
_MARGINS = {
    "uniform": None,
    "gaussian": lambda u: norm_quantile(u),
    "exponential": lambda u: -np.log1p(-u),
    "cauchy": lambda u: np.tan(np.pi * (u - 0.5)),
}
_WORD_MAX = 2**64 - 1  # seed, rep and lane are 64-bit words of the Philox key and counter


def _int_in(key, value, minimum, maximum=None):
    """`value` as an int where it is an integer >= minimum and, when given,
    <= maximum, else ConfigError naming `key`.  As in JSON Schema, a float
    with no fractional part (2.0) is an integer and a bool is not; a numpy
    integer is one too."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if (not isinstance(number, numbers.Integral) or isinstance(number, bool)
            or number < minimum or maximum is not None and number > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{key}: expected an integer {bound}, got {value!r}")
    return int(number)


def copula_stream(seed, rep=0, lane=0):
    """Generator for replication `rep` of the experiment `lane` under `seed`.
    Each of the three must be an integer in [0, 2**64 - 1], else ConfigError
    naming it."""
    seed = _int_in("seed", seed, 0, _WORD_MAX)
    rep = _int_in("rep", rep, 0, _WORD_MAX)
    lane = _int_in("lane", lane, 0, _WORD_MAX)
    bitgen = np.random.Philox(key=np.uint64(seed),
                              counter=np.array([0, 0, rep, lane], dtype=np.uint64))
    return np.random.Generator(bitgen)


def _copula_factor(r):
    """The read-only lower Cholesky factor of R, with a single 1e-12 jitter
    retry near singularity: what `_sample_block` draws with, so that draws
    from one R can share one factorization."""
    r = check_symmetric(r, name="R")
    chol = cholesky_lower(r)
    if chol is None:
        chol = spd_factor(r + 1e-12 * identity(len(r)),
                          "correlation matrix is not positive definite")
    chol.flags.writeable = False
    return chol


def sample_copula(r, n, seed, rep=0, lane=0):
    """Draw n observations from the Gaussian copula with correlation R.

    Z ~ N(0, R) via the Cholesky factor, then U_j = Phi(Z_j).  Identical
    (seed, R, n, rep, lane) give bit-identical output, equal to Phi of that
    replication's row of a block (`_sample_block`).

    Returns an (n, p) matrix with entries in the closed interval [0, 1]:
    in floating point Phi(z) rounds to exactly 1.0 for z >= 8.3 and
    underflows to 0.0 for z <= -37.7, so an extreme draw lands on an end.
    Raises ValueError where R is not finite, and SingularityError where R
    is not positive definite even with 1e-12 added to its diagonal.
    """
    return norm_cdf(_sample_block(_copula_factor(r), n, seed, (rep,), lane)[0])


def _sample_block(chol, n, seed, reps, lane):
    """The latent normals Z = normals L' of every replication of the
    nonempty sequence `reps` of words `copula_stream` accepts, as one
    (len(reps), n, p) array whose row b is replication reps[b]'s draw;
    `sample_copula` is Phi of a row.  One bit generator draws every row: it
    starts on the stream of reps[0] and has its counter reset to each later
    one from the fresh stream's state, which it reads only where the block
    has a second row.  The factor L, from `_copula_factor`, multiplies the
    stack in one matmul, one gemm per row."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = copula_stream(seed, rep=reps[0], lane=lane)
    bitgen = rng.bit_generator
    if len(reps) > 1:
        start = bitgen.state  # a fresh stream: empty buffer, counter [0, 0, rep, lane]
    z = np.empty((len(reps), n, chol.shape[0]))
    for row, rep in enumerate(reps):
        if row:
            start["state"]["counter"][2] = _int_in("rep", rep, 0, _WORD_MAX)
            bitgen.state = start
        rng.standard_normal(out=z[row])
    return z @ chol.T


def apply_margins(u, kinds):
    """Apply margin quantile transforms columnwise to copula data U, on a
    copy of U: user API, which no package path calls (a Monte Carlo run
    ranks its latent normals).  `kinds` is one kind name ("uniform",
    "gaussian", "exponential" or "cauchy"), or a sequence of 1 name for every
    column or of p names, one per column.  Every transform is elementwise
    and strictly increasing, so no rank-based estimate sees it."""
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    for kind in kinds:
        if kind not in _MARGINS:
            raise ConfigError(f"margins: unknown kind {kind!r}")
    u = np.array(u, dtype=float)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-d, got shape {u.shape}")
    if len(kinds) not in (1, u.shape[1]):
        raise ShapeError(f"margins: {len(kinds)} kinds for p={u.shape[1]} columns")
    for j, kind in enumerate(kinds * u.shape[1] if len(kinds) == 1 else kinds):
        if _MARGINS[kind] is not None:
            u[:, j] = _MARGINS[kind](u[:, j])
    return u
