"""Scalar normal functions and symmetric-matrix algebra.

Everything downstream is built on two ingredients: the standard normal
cdf and quantile (scipy.special's ndtr and ndtri, the quantile mirrored
about p = 1/2 so that it is exactly odd), and the inner product

    <A, B> = 1/2 tr(A R B R)

on real symmetric p x p matrices, where R is a correlation matrix.  For
Z ~ N(0, R) this inner product equals Cov(Z'AZ/2, Z'BZ/2), which is why
Gram matrices built from it are information matrices.  `theta_inner` and
`gram` take R itself and check only that it is a finite symmetric matrix:
the formula needs nothing more.

This module is the package's only entry point to LAPACK for Cholesky
factorizations, symmetric eigen-solves and the pseudo-inverse:
`spd_factor` factors (dpotrf), `spd_inverse` inverts with the factor
(dpotrs), `sym_eig` computes eigenvalues and eigenvectors (dsyevd), and
`pinv` inverts through the SVD (dgesdd).  They call the LAPACK wrappers
directly, with the results of scipy.linalg's cholesky/cho_solve and
numpy.linalg's eigh/eigvalsh/pinv, but without their per-call overhead.

The private `_cholesky`, `_solve` and `_gram` make the same calls, with no
checks, on arrays that the package built or checked itself.
`_singular` builds every SingularityError for a matrix that is not positive
definite, so each carries its smallest eigenvalue and condition number.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgesdd, dgesdd_lwork, dpotrf, dpotrs, dsyevd
from scipy.special import ndtr, ndtri

from .exceptions import DomainError, ShapeError, SingularityError

__all__ = [
    "norm_cdf",
    "norm_quantile",
    "theta_inner",
    "gram",
    "check_symmetric",
    "check_symmetric_stack",
    "spd_factor",
    "spd_inverse",
    "sym_eig",
    "finite_rows",
    "pinv",
    "identity",
]

def norm_cdf(x):
    """Standard normal cdf, elementwise."""
    x = np.asarray(x, dtype=float)
    out = ndtr(x)
    return float(out) if np.ndim(out) == 0 else out


def norm_quantile(p):
    """Standard normal quantile function, elementwise.

    Evaluates `scipy.special.ndtri` on the lower half, min(p, 1 - p), and
    mirrors it, so norm_quantile(1 - p) == -norm_quantile(p) exactly
    whenever 1 - p is representable.  1 - p is exact for p in [0.5, 1), so
    the mirror loses nothing; the relative error is that of ndtri, at the
    level of machine precision from the far tails to p = 0.5.

    Parameters
    ----------
    p : float or array_like in the open interval (0, 1)

    Returns
    -------
    float or ndarray

    Raises
    ------
    DomainError
        If any entry lies outside (0, 1) or is not finite.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    # in one buffer, so a stacked Monte Carlo block holds one temporary
    q = np.subtract(1.0, arr, out=np.empty_like(arr))
    np.minimum(arr, q, out=q)
    ndtri(q, out=q)
    np.negative(q, out=q, where=arr > 0.5)
    return float(q) if q.ndim == 0 else q


# The largest |a - a'| entry `check_symmetric` and `check_symmetric_stack` accept.
_SYMMETRY_ATOL = 1e-8


def _all_close(x, y, atol):
    """np.allclose(x, y, rtol=0, atol=atol) for equal-shape arrays, without
    its overhead: every entry pair is equal (so equal infinities pass) or
    within atol (so NaN and unequal infinities fail)."""
    equal = x == y
    if equal.all():
        return True
    with np.errstate(invalid="ignore"):
        return bool(np.all(equal | (np.abs(x - y) <= atol)))


def check_symmetric(a, name="matrix", p=None):
    """Validate that `a` is a finite square symmetric 2-d array, p x p when
    `p` is given, and return it as float; symmetric means within
    _SYMMETRY_ATOL of its transpose.  Raises ShapeError for a shape or
    symmetry fault and ValueError for a non-finite entry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    if p is not None and a.shape[0] != p:
        raise ShapeError(f"{name} has dim {a.shape[0]}, expected {p}")
    if not _all_close(_finite(a), a.T, _SYMMETRY_ATOL):
        raise ShapeError(f"{name} is not symmetric")
    return a


def check_symmetric_stack(mats, p, name="basis"):
    """Validate a nonempty sequence of finite symmetric p x p matrices, or
    one (k, p, p) array, and return it as one float (k, p, p) array.  Raises
    ShapeError for a shape or symmetry fault and ValueError for a non-finite
    entry."""
    try:
        a = np.asarray(mats, dtype=float)
    except ValueError:  # a ragged sequence
        a = np.empty(0)
    if a.ndim != 3 or a.shape[1:] != (p, p) or len(a) == 0:
        raise ShapeError(f"{name} must be a nonempty stack of {p} x {p} matrices")
    if not _all_close(_finite(a), a.transpose(0, 2, 1), _SYMMETRY_ATOL):
        raise ShapeError(f"{name} is not symmetric")
    return a


def _finite(a):
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _cholesky(a):
    """scipy.linalg.cholesky(a, lower=True) of a finite square float matrix,
    unchecked, or None where `a` is not positive definite.  LAPACK reads
    only the lower triangle."""
    c, info = dpotrf(a, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c if info == 0 else None


def spd_factor(a, what):
    """`_cholesky(a)` of a finite square matrix, else ValueError, and
    `_singular(eigenvalues of a, what)` where `a` is not positive definite.
    Invert with the factor through `spd_inverse`."""
    a = _finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    c = _cholesky(a)
    if c is None:
        raise _singular(sym_eig(a, vectors=False), what)
    return c


def _singular(eigs, what):
    """SingularityError "<what> (min eigenvalue ...)" for a symmetric matrix
    with ascending eigenvalues `eigs`, carrying eigs[0] and the condition
    number max|lam| / min|lam|, inf where min|lam| = 0."""
    size = np.abs(eigs)
    return SingularityError(
        f"{what} (min eigenvalue {eigs[0]:.3e})",
        eigenvalue=float(eigs[0]),
        cond=float(size.max() / size.min()) if size.min() > 0.0 else np.inf)


def _solve(c, b):
    """scipy.linalg.cho_solve((c, True), b), unchecked: A^-1 b for the lower
    Cholesky factor `c` of A and a finite vector or matrix b, in b's shape,
    Fortran order when 2-d."""
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def spd_inverse(c):
    """A^-1 in C order, given the lower Cholesky factor `c` of A: the values
    of `_solve(c, identity(p))`."""
    return np.ascontiguousarray(_solve(c, identity(c.shape[0])))


def sym_eig(a, vectors=True):
    """Eigenvalues of the symmetric matrix `a` in ascending order and, with
    `vectors`, the orthonormal eigenvectors as the columns of a C-order
    matrix: numpy.linalg.eigh, or eigvalsh without `vectors`.  LAPACK
    dsyevd reads only the lower triangle.  Where `a` is not finite, every
    eigenvalue is NaN, as numpy.linalg gives for a symmetric non-finite
    matrix, and so is every eigenvector entry.

    Raises ValueError for non-square input and LinAlgError where dsyevd
    does not converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        w = np.full(a.shape[0], np.nan)
        return (w, np.full(a.shape, np.nan)) if vectors else w
    w, v, info = dsyevd(a, compute_v=vectors, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError("eigenvalues did not converge (dsyevd)")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dsyevd")
    # In C order, as numpy returns it: products with a Fortran-order operand
    # take other BLAS kernels, which sum in another order.
    return (w, np.ascontiguousarray(v)) if vectors else w


def finite_rows(a):
    """The positions of the rows of the array `a` (along its first axis)
    whose entries are all finite, ascending: a range where all are, else a
    list."""
    finite = np.isfinite(a)
    if np.logical_and.reduce(finite, axis=None):
        return range(len(a))
    return finite.reshape(len(a), -1).all(axis=1).nonzero()[0].tolist()


def pinv(a, rcond):
    """Moore-Penrose pseudo-inverse of the real matrix `a`, with singular
    values at most `rcond` times the largest taken as zero:
    numpy.linalg.pinv(a, rcond) to the bit.  LAPACK dgesdd runs with its
    optimal workspace, as numpy runs it; with less it may take an
    unblocked path that rounds differently.  One LAPACK library for the SVD
    and the eigen-solves keeps their shared code pages in memory once:
    numpy's pinv beside `sym_eig` cost a Monte Carlo process ~0.5 MB more
    peak resident memory.

    Raises ValueError for input that is not a finite matrix and LinAlgError
    where dgesdd does not converge.
    """
    a = _finite(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    lwork, _ = dgesdd_lwork(*a.shape, compute_uv=1, full_matrices=0)
    u, s, vt, info = dgesdd(a, compute_uv=1, full_matrices=0, lwork=int(lwork))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge (dgesdd)")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgesdd")
    large = s > rcond * s.max()
    s = np.divide(1.0, s, where=large, out=s)
    s[~large] = 0.0
    # numpy's product on numpy's operand layouts (C-order factors), so the
    # same BLAS kernels sum in the same order.
    return np.ascontiguousarray(vt).T @ (s[:, None] * np.ascontiguousarray(u).T)


@lru_cache(maxsize=16)
def identity(p):
    """The read-only p x p identity, built once per p."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


def theta_inner(a, b, r):
    """Inner product <A, B> = tr(A R B R) / 2 on symmetric matrices.

    Parameters
    ----------
    a, b : (p, p) symmetric arrays
    r : (p, p) symmetric array, the correlation matrix R

    Returns
    -------
    float
    """
    r = check_symmetric(r, name="correlation matrix")
    p = r.shape[0]
    a = check_symmetric(a, name="A", p=p)
    b = check_symmetric(b, name="B", p=p)
    ar = a @ r
    br = b @ r
    # tr(X Y) = sum(X * Y.T)
    return 0.5 * float(np.sum(ar * br.T))


def gram(basis, r):
    """Gram matrix of symmetric matrices, a sequence of (p, p) arrays or one
    (k, p, p) array, under `theta_inner` on the correlation matrix `r`:
    entry (i, j) is vec(A_i R) . vec((A_j R)') / 2, one matrix product,
    symmetrized.

    The result is symmetric positive semidefinite, and positive definite
    exactly when the basis is linearly independent.
    """
    r = check_symmetric(r, name="correlation matrix")
    return _gram(check_symmetric_stack(basis, r.shape[0]), r)


def _gram(basis, r):
    """`gram` of a (k, p, p) basis and a correlation matrix that the package
    built, without the checks."""
    prods = basis @ r
    k = len(prods)
    out = prods.reshape(k, -1) @ prods.transpose(0, 2, 1).reshape(k, -1).T
    return 0.25 * (out + out.T)
