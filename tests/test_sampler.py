"""Tests for seeded Gaussian copula sampling and margin transforms."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import kstest

from copula_rank import (apply_margins, copula_stream, exchangeable, norm_quantile,
                         rank_transform, sample_copula)
from copula_rank.estimators import _rank_block
from copula_rank.exceptions import (ConfigError, DegenerateMarginError, DomainError,
                                    ShapeError, SingularityError)
from copula_rank.numcore import norm_cdf
from copula_rank.sampler import _copula_factor, _sample_block


def exch_corr(p, theta):
    r = np.full((p, p), theta)
    np.fill_diagonal(r, 1.0)
    return r


class TestSampleCopula:
    def test_determinism(self):
        r = exch_corr(3, 0.5)
        u1 = sample_copula(r, 100, seed=42)
        u2 = sample_copula(r, 100, seed=42)
        assert np.array_equal(u1, u2)
        u3 = sample_copula(r, 100, seed=43)
        assert not np.array_equal(u1, u3)

    def test_factor_in_place_of_r_draws_identically(self):
        # A run factors R once and draws every block from that read-only factor.
        r = exch_corr(4, 0.3)
        chol = _copula_factor(r)
        assert not chol.flags.writeable
        for rep in (0, 3):
            assert np.array_equal(norm_cdf(_sample_block(chol, 60, 9, (rep,), 2)[0]),
                                  sample_copula(r, 60, seed=9, rep=rep, lane=2))

    def test_rep_and_lane_streams_disjoint(self):
        r = exch_corr(2, 0.3)
        base = sample_copula(r, 50, seed=7, rep=0, lane=0)
        assert not np.array_equal(base, sample_copula(r, 50, seed=7, rep=1))
        assert not np.array_equal(base, sample_copula(r, 50, seed=7, lane=1))
        assert np.array_equal(base, sample_copula(r, 50, seed=7, rep=0, lane=0))

    def test_open_unit_interval(self):
        u = sample_copula(exch_corr(3, 0.5), 10_000, seed=1)
        assert u.shape == (10_000, 3)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_margins_ks(self):
        u = sample_copula(np.eye(4), 100_000, seed=5)
        for j in range(4):
            assert kstest(u[:, j], "uniform").pvalue > 1e-3

    def test_correlation_recovery(self):
        u = sample_copula(exch_corr(3, 0.5), 10**6, seed=9)
        z = norm_quantile(u)
        corr = np.corrcoef(z, rowvar=False)
        off = corr[np.triu_indices(3, 1)]
        assert np.max(np.abs(off - 0.5)) <= 0.005

    def test_moment_check_four_se(self):
        r = exch_corr(3, 0.4)
        n = 10**6
        u = sample_copula(r, n, seed=13)
        z = norm_quantile(u)
        cov = z.T @ z / n
        # Var of a normal cross-moment estimate: (1 + rho^2)/n offdiag,
        # 2/n on the diagonal
        se = np.sqrt((1.0 + r**2) / n)
        np.fill_diagonal(se, np.sqrt(2.0 / n))
        assert np.all(np.abs(cov - r) <= 4 * se)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            sample_copula(np.eye(2), 0, seed=1)
        with pytest.raises(ConfigError):
            sample_copula(np.eye(2), 5, seed=-1)
        with pytest.raises(SingularityError) as exc:
            sample_copula(exch_corr(3, -0.6), 5, seed=1)
        assert exc.value.eigenvalue < -1e-6

    def test_non_finite_r_raises(self):
        # A factor with an infinite entry would give a column of exactly 1.0.
        # A NaN is named as such, not as an asymmetry.
        for bad in (np.inf, -np.inf, np.nan):
            for r in ([[1.0, 0.5], [0.5, bad]], [[1.0, bad], [bad, 1.0]]):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    sample_copula(r, 5, seed=1)
                with pytest.raises(ValueError, match="infs or NaNs"):
                    _copula_factor(r)

    def test_jitter_rescues_machine_singular(self):
        # exactly singular within round-off: perfectly dependent pair
        u = sample_copula(np.ones((2, 2)), 1000, seed=3)
        assert_allclose(u[:, 0], u[:, 1], atol=1e-5)

    def test_every_64_bit_lane_has_its_own_stream(self):
        # rep and lane are exact 64-bit counter words, never rounded through
        # float64 (which merges lanes above 2**53 and sends 2**64 - 1 to 0).
        def draws(lane):
            return copula_stream(11, lane=lane).standard_normal(4)

        assert not np.array_equal(draws(2**53), draws(2**53 + 1))
        assert not np.array_equal(draws(2**64 - 1), draws(0))
        top = 2**64 - 1
        state = copula_stream(top, rep=top, lane=top).bit_generator.state["state"]
        assert state["key"][0] == top
        assert state["counter"].tolist() == [0, 0, top, top]

    @pytest.mark.parametrize("word", ["seed", "rep", "lane"])
    @pytest.mark.parametrize("value", [1.5, 2.7, -1, 2**64, True, False, "3", None,
                                       math.nan, math.inf, np.float64(0.5)])
    def test_stream_words_validated(self, word, value):
        # Each word is an integer in [0, 2**64 - 1]: np.uint64 would truncate
        # a fraction onto another stream, and overflow on the rest.
        words = {"seed": 1, "rep": 0, "lane": 0, word: value}
        with pytest.raises(ConfigError, match=f"^{word}: expected an integer in "
                                              rf"\[0, {2**64 - 1}\], got "):
            copula_stream(**words)
        with pytest.raises(ConfigError, match=f"^{word}: "):
            sample_copula(np.eye(2), 5, **words)

    @pytest.mark.parametrize("word", ["seed", "rep", "lane"])
    def test_stream_words_integral(self, word):
        # An integral float and a numpy integer name the stream of that int.
        def draws(value):
            return copula_stream(**{"seed": 1, "rep": 0, "lane": 0, word: value}
                                 ).standard_normal(3)

        for value in (2.0, np.int64(2), np.uint64(2)):
            assert np.array_equal(draws(value), draws(2))
        assert np.array_equal(draws(np.uint64(2**64 - 1)), draws(2**64 - 1))

    def test_stream_counter_independence(self):
        # replication streams do not depend on how many draws earlier
        # replications consumed
        a = copula_stream(11, rep=5).standard_normal(4)
        copula_stream(11, rep=4).standard_normal(1000)
        b = copula_stream(11, rep=5).standard_normal(4)
        assert np.array_equal(a, b)


class TestApplyMargins:
    def test_kind_normalization(self):
        # A bare name, a list and a tuple of one name all mean every column;
        # p names are one per column.
        u = sample_copula(exch_corr(2, 0.2), 50, seed=2)
        gaussian = apply_margins(u, ("gaussian",))
        for kinds in ("gaussian", ["gaussian"]):
            assert np.array_equal(apply_margins(u, kinds), gaussian)
        mixed = apply_margins(u, ["uniform", "cauchy"])
        assert np.array_equal(mixed[:, 0], u[:, 0])
        assert np.array_equal(mixed[:, 1], apply_margins(u[:, 1:], "cauchy")[:, 0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="margins: unknown kind 'lognormal'"):
            apply_margins(np.full((2, 2), 0.5), ("lognormal",))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="margins: 2 kinds for p=3 columns"):
            apply_margins(np.full((2, 3), 0.5), ("uniform", "cauchy"))

    def test_uniform_identity(self):
        u = sample_copula(exch_corr(2, 0.2), 50, seed=2)
        assert np.array_equal(apply_margins(u, ("uniform",)), u)

    def test_gaussian_is_quantile(self):
        u = sample_copula(exch_corr(2, 0.2), 50, seed=2)
        out = apply_margins(u, ("gaussian",))
        assert_allclose(out, norm_quantile(u), rtol=0)

    def test_exponential_and_cauchy_values(self):
        u = np.array([[0.5, 0.5]])
        out = apply_margins(u, ("exponential", "cauchy"))
        assert out[0, 0] == pytest.approx(np.log(2.0))
        assert abs(out[0, 1]) <= 1e-12

    def test_rank_invariance_bitwise(self):
        u = sample_copula(exch_corr(3, 0.5), 200, seed=21)
        base = rank_transform(u)
        for kinds in (("gaussian",), ("exponential", "cauchy", "uniform")):
            transformed = rank_transform(apply_margins(u, kinds))
            assert np.array_equal(base.ranks, transformed.ranks)
            assert np.array_equal(base.zhat, transformed.zhat)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            apply_margins(np.zeros(5), ("uniform",))

    # Each kind's transform, written out apart from apply_margins.
    PER_COLUMN = {"uniform": lambda c: c, "gaussian": norm_quantile,
                  "exponential": lambda c: -np.log1p(-c),
                  "cauchy": lambda c: np.tan(np.pi * (c - 0.5))}

    @pytest.mark.parametrize("kind", list(PER_COLUMN))
    def test_block_equals_per_column(self, kind):
        # Bit-identical to transforming one (strided) column at a time, for
        # one kind on every column and for a mix of kinds.
        u = sample_copula(np.eye(100), 50, seed=4)
        others = list(self.PER_COLUMN)
        mixed = tuple(kind if j % 2 else others[j // 2 % len(others)] for j in range(100))
        for kinds in ((kind,), mixed):
            out = apply_margins(u, kinds)
            for j in range(100):
                expected = self.PER_COLUMN[kinds[j % len(kinds)]](u[:, j])
                assert np.array_equal(out[:, j].view(np.int64),
                                      expected.view(np.int64)), (kinds, j)


def bits(a):
    """An array's shape, dtype and bytes: equal only where bit-identical."""
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype, a.tobytes()


def assert_same_sample(row, expected):
    for name in ("zhat", "ranks", "pseudo_obs"):
        assert bits(getattr(row, name)) == bits(getattr(expected, name)), name
    assert row.tie_columns == expected.tie_columns
    assert (row.n, row.p) == (expected.n, expected.p)


def blocks_of_one(r, n, seed, reps, lane, kinds):
    """rank_transform(apply_margins(sample_copula(...))) per replication."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return [rank_transform(apply_margins(sample_copula(r, n, seed, rep=rep, lane=lane),
                                             kinds))
                for rep in reps]


TOP = 2**64 - 1


class TestStackedFrontEnd:
    """A Monte Carlo block draws the latent normals Z of its replications as
    one (B, n, p) stack and ranks Z itself; each row is the public
    per-sample path, the ranks of the copula sample Phi(Z) on any margins,
    to the bit."""

    @pytest.mark.parametrize("rows", [1, 2, 64])
    @pytest.mark.parametrize("p", [3, 100])
    @pytest.mark.parametrize("kinds", [("uniform",), ("gaussian",), ("exponential",),
                                       ("cauchy",), "mixed"])
    def test_rows_equal_blocks_of_one(self, rows, p, kinds):
        n = 250 if p == 3 else 50
        if kinds == "mixed":
            names = ("gaussian", "uniform", "cauchy", "exponential")
            kinds = tuple(names[j % 4] for j in range(p))
        r = exch_corr(p, 0.3)
        # the top replication and lane words, and an ordinary run
        for reps, lane in ((range(TOP - rows + 1, TOP + 1), TOP), (range(5, 5 + rows), 3)):
            block = _rank_block(_sample_block(_copula_factor(r), n, 17, reps, lane))
            assert len(block) == rows
            for row, expected in zip(block, blocks_of_one(r, n, 17, reps, lane, kinds)):
                assert_same_sample(row, expected)

    def test_draws_equal_blocks_of_one(self):
        # Phi of Z, before the ranks: one gemm per row, whatever the block.
        for p, n in ((3, 250), (100, 50)):
            r = exch_corr(p, 0.3)
            block = _sample_block(_copula_factor(r), n, 5, range(TOP - 63, TOP + 1), TOP)
            for row, rep in zip(block, range(TOP - 63, TOP + 1)):
                assert bits(norm_cdf(row)) == bits(sample_copula(r, n, 5, rep=rep, lane=TOP))

    @pytest.mark.parametrize("rep", [1.5, 2.7, -1, 2**64, True, False, "3", None,
                                     math.nan, math.inf, np.float64(0.5)])
    def test_every_rep_validated(self, rep):
        # A later word is written into the Philox counter: it is checked as
        # copula_stream checks the first, not truncated onto another stream.
        with pytest.raises(ConfigError, match=rf"^rep: expected an integer in "
                                              rf"\[0, {TOP}\], got "):
            _sample_block(np.eye(2), 5, 1, (0, rep), 0)

    def test_later_reps_integral(self):
        expected = _sample_block(np.eye(2), 5, 1, (0, 2, TOP), 0)
        for value in (2.0, np.int64(2), np.uint64(2)):
            assert bits(_sample_block(np.eye(2), 5, 1, (0, value, np.uint64(TOP)), 0)) == bits(
                expected)

    def test_tied_row_and_constant_column(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 30, 3))
        data[1, 5, 2] = data[1, 9, 2]  # a tie in row 1
        data[1, 7, 0] = data[1, 8, 0] = data[1, 20, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the warning is rank_transform's
            block = _rank_block(data.copy())
        for row, x in zip(block, data):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                expected = rank_transform(x)
            assert_same_sample(row, expected)
            assert [str(w.message) for w in caught] == (
                [f"ties in column(s) {list(row.tie_columns)}; average ranks used"]
                if row.tie_columns else [])
        assert [row.tie_columns for row in block] == [(), (0, 2), (), ()]
        # The first row that rank_transform rejects decides the block's error.
        data[2, :, 1] = 0.25
        data[3, 0, 0] = np.nan
        with pytest.raises(DegenerateMarginError, match=r"^column 1 is constant$"):
            rank_transform(data[2])
        with pytest.raises(DegenerateMarginError, match=r"^column 1 is constant$"):
            _rank_block(data.copy())
        data[1, 3, 1] = np.inf
        with pytest.raises(DomainError, match=r"^data must be finite$"):
            _rank_block(data.copy())

    def test_mixed_block_rows_equal_blocks_of_one(self):
        # A block with no repeated value reads no constant or tie flags, so a
        # tie-free row is ranked down both paths: alone, and beside a tied row.
        rng = np.random.default_rng(11)
        data = rng.standard_normal((4, 30, 3))
        data[2, 4, 1] = data[2, 17, 1]  # the one tied row
        block = _rank_block(data.copy())
        assert [row.tie_columns for row in block] == [(), (), (1,), ()]
        for row, x in zip(block, data):
            assert_same_sample(row, _rank_block(x[None].copy())[0])

        def error_text(stack):
            with pytest.raises((DegenerateMarginError, DomainError)) as exc:
                _rank_block(stack.copy())
            return f"{type(exc.value).__name__}: {exc.value}"

        # A constant column, then a non-finite entry with no repeat, among
        # tie-free rows: the block raises what its first bad row raises alone.
        clean = np.delete(data, 2, axis=0)
        for row, col, value in ((1, 2, None), (2, 0, np.nan), (0, 1, np.inf)):
            bad = clean.copy()
            if value is None:
                bad[row, :, col] = 0.25
            else:
                bad[row, 7, col] = value
            assert error_text(bad) == error_text(bad[row][None]), (row, col, value)
        bad = clean.copy()
        bad[1, :, 0] = -1.0  # constant, and a later row not finite
        bad[2, 3, 2] = np.nan
        assert error_text(bad) == error_text(bad[1][None]) == (
            "DegenerateMarginError: column 0 is constant")
