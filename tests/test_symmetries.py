"""Estimates and geometry respect a model's column symmetries.

Each case is a column permutation P with P R(theta) P' = R(theta) for every
theta, and with it P dR_m P' = dR_m: toeplitz's reversal, every permutation
of exchangeable's columns, and circular's rotations and reflections.  A
sample and the same sample with its columns permuted then have the same
estimates, and the efficient score is invariant: g_m = P g_m and
A*_m = P A*_m P'.

In floating point a permutation changes only the order of the sums inside
the factorizations, solves and products.  Each computed quantity then moves
by a few units of roundoff of its own scale, amplified by at most the
condition number kappa(R) where it passes through S = R^-1.  Every bound
below is that figure, `_bound`: 4 p eps kappa(R) times the scale, the factor
4 p covering the p-term sums.
"""

import numpy as np
import pytest

from copula_rank import (circular, efficiency_bundle, eval_geometry, exchangeable,
                         one_step, pilot_moment, ple_estimate, rank_transform, sample_copula,
                         toeplitz)
from copula_rank.numcore import sym_eig

THETA_STAR = np.array([0.4945460, -0.4592764, -0.8462492])
EPS = float(np.finfo(float).eps)

CASES = [
    (toeplitz(4), THETA_STAR, [3, 2, 1, 0]),
    (exchangeable(3), np.array([0.5]), [1, 2, 0]),
    (circular(), np.array([0.5]), [1, 2, 3, 0]),
    (circular(), np.array([-0.3]), [0, 3, 2, 1]),
]
IDS = ["toeplitz4-reversal", "exchangeable3-3cycle", "circular-rotation",
       "circular-reflection"]


def _bound(r, scale):
    """4 p eps kappa(R) * scale: the roundoff a permutation may move a
    quantity of size `scale` computed through R^-1 by."""
    eigs = sym_eig(r, vectors=False)
    return 4 * len(r) * EPS * (eigs[-1] / eigs[0]) * scale


@pytest.mark.parametrize("model,theta,perm", CASES, ids=IDS)
def test_the_permutation_is_a_symmetry(model, theta, perm):
    r = model.r_of_theta(theta)
    assert np.array_equal(r[perm][:, perm], r)
    r_dots = model.r_dots(theta)
    assert np.array_equal(r_dots[:, perm][:, :, perm], r_dots)


@pytest.mark.parametrize("model,theta,perm", CASES, ids=IDS)
def test_estimates_are_invariant(model, theta, perm):
    r = model.r_of_theta(theta)
    for seed in range(100):
        x = sample_copula(r, 250, seed=seed)
        sample, permuted = rank_transform(x), rank_transform(x[:, perm])
        for estimator in (ple_estimate, pilot_moment, one_step):
            est = estimator(model, sample).theta_hat
            gap = np.abs(estimator(model, permuted).theta_hat - est).max()
            assert gap <= _bound(r, max(1.0, np.abs(est).max())), (seed, estimator.__name__)


@pytest.mark.parametrize("model,theta,perm", CASES, ids=IDS)
def test_efficient_score_is_invariant(model, theta, perm):
    bundle = efficiency_bundle(eval_geometry(model, theta))
    g, eff = bundle.g, bundle.eff_matrices
    r = bundle.geometry.r
    assert np.abs(g[:, perm] - g).max() <= _bound(r, np.abs(g).max())
    assert np.abs(eff[:, perm][:, :, perm] - eff).max() <= _bound(r, np.abs(eff).max())
