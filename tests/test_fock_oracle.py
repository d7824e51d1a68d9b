"""The enumerated-Fock moment oracle, and its agreement with the Wick route.

For operators linear in the ladder algebra, vacuum fourth moments never
populate occupations past 2: the cap-2 oracle is exact, and raising the cap
must not change a single bit. The oracle visits only the occupied support
of a vector; the dense per-mode sweep over every basis state it replaced is
kept here as the reference it must match bit for bit.
"""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgcavity as kg
from kgcavity.fock_oracle import TruncatedFock, oracle_moments

# the r/R, mu R pairs of the benchmark's moments workload, whose oracle op
# reads 4 rows a side on 8 global modes
MOMENTS_CONFIGS = [(0.5, 0.0), (0.3, 2.0), (0.42, 1.0)]


def _dense_apply(self, vec, p, q):
    """(sum_N p_N A_N + q_N A_N^dagger) vec by a sweep of every basis
    state, mode by mode, annihilation before creation: the reference."""
    out = np.zeros_like(vec)
    idx = np.arange(self.dimension)
    for k in range(self.n_modes):
        stride = self.base**k
        d = (idx // stride) % self.base
        if p[k] != 0:
            src = d >= 1
            out[idx[src] - stride] += p[k] * np.sqrt(d[src]) * vec[src]
        if q[k] != 0:
            src = d < self.max_occupation
            out[idx[src] + stride] += q[k] * np.sqrt(d[src] + 1.0) * vec[src]
    return out


def _dense_moments(left_row, right_row, fock):
    with mock.patch.object(TruncatedFock, "apply_ladder_sum", _dense_apply):
        return oracle_moments(left_row, right_row, fock)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def test_space_bookkeeping():
    fk = TruncatedFock(n_modes=2, max_occupation=2)
    assert fk.dimension == 9
    basis = fk.basis()
    assert basis[0] == (0, 0)
    assert basis[1] == (1, 0)      # digit order: mode 0 is the fastest digit
    assert basis[3] == (0, 1)
    assert len(set(basis)) == fk.dimension
    vac = fk.vacuum()
    assert vac[0] == 1.0 and np.count_nonzero(vac) == 1


@pytest.mark.parametrize("n_modes, max_occupation", [
    (2.5, 2), (2, 2.5), (3.0, 2), (2, float("nan")), (float("inf"), 2)])
def test_non_integer_sizes_are_refused(n_modes, max_occupation):
    # 2.5 modes once passed as a space of dimension 3^2.5 = 15.59, and 3.0
    # as one whose basis could not be enumerated
    with pytest.raises(kg.DimensionError, match="integers"):
        TruncatedFock(n_modes=n_modes, max_occupation=max_occupation)
    assert TruncatedFock(n_modes=np.int64(2), max_occupation=np.int64(3)).dimension == 16


def test_dimension_budget_enforced():
    with pytest.raises(kg.DimensionError):
        TruncatedFock(n_modes=0)
    with pytest.raises(kg.DimensionError):
        TruncatedFock(n_modes=3, max_occupation=1)     # cap 1 breaks exactness
    with pytest.raises(kg.DimensionError):
        TruncatedFock(n_modes=9)                       # too many modes
    with pytest.raises(kg.DimensionError):
        TruncatedFock(n_modes=8, max_occupation=9)     # dimension blow-up
    fk = TruncatedFock(n_modes=2)
    with pytest.raises(kg.DimensionError):
        fk.apply_ladder_sum(fk.vacuum(), np.zeros(3), np.zeros(3))


def test_pure_annihilator_gives_nothing():
    fk = TruncatedFock(n_modes=3)
    z = np.zeros(3)
    mom = oracle_moments((np.array([0.3, -0.2, 0.9]), z), (z.copy(), z), fk)
    assert mom.mean_m == 0.0
    assert mom.var_m == 0.0
    assert mom.cov == 0.0
    assert mom.imag_residue == 0.0


def test_single_creator_row():
    # a = A_1^dagger, so a^dagger a |0> = |0>: the vacuum is an
    # eigenstate — mean 1, variance exactly 0
    fk = TruncatedFock(n_modes=3)
    z = np.zeros(3)
    q = np.array([1.0, 0.0, 0.0])
    mom = oracle_moments((z, q), (z, z), fk)
    assert mom.mean_m == pytest.approx(1.0, rel=1e-15, abs=0)
    assert mom.var_m == pytest.approx(0.0, abs=1e-15)
    assert mom.cov == 0.0


def test_variance_of_a_number_eigenstate_is_not_negative():
    # a = sum_N beta_N A_N^dagger makes the vacuum an eigenvector of
    # a^dagger a, so the variance is exactly 0; a raw second moment minus
    # the squared mean rounds to -3.6e-15 on this row
    fk = TruncatedFock(n_modes=4)
    z = np.zeros(4)
    row = (z, np.array([1.0, 0.873, 0.873, 0.873]))
    mom = oracle_moments(row, row, fk)
    assert mom.mean_m == pytest.approx(1.0 + 3 * 0.873**2, rel=1e-15, abs=0)
    assert 0.0 <= mom.var_m <= 1e-30
    assert mom.cov == pytest.approx(0.0, abs=1e-15)
    rep = kg.wick_moments([1], [1], kg.BogoliubovBlock(kg.Region.LEFT, z[None], row[1][None], "row"),
                          kg.BogoliubovBlock(kg.Region.RIGHT, z[None], row[1][None], "row"))
    assert rep.var_left[0] == pytest.approx(mom.var_m, rel=1e-12, abs=1e-15)


def test_oracle_matches_wick_on_random_rows(rng):
    fk = TruncatedFock(n_modes=6)
    for _ in range(5):
        p, q = rng.normal(size=(2, 6)) * 0.4
        pb, qb = rng.normal(size=(2, 6)) * 0.4
        mom = oracle_moments((p, q), (pb, qb), fk)
        # Wick expressions for the same rows
        A, B, C = np.sum(p * p), np.sum(q * q), np.sum(p * q)
        mean = B
        var = A * B + C * C
        cov = np.sum(q * pb) * np.sum(p * qb) + np.sum(q * qb) * np.sum(p * pb)
        assert mom.mean_m == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert mom.var_m == pytest.approx(var, rel=1e-12, abs=1e-15)
        assert mom.cov == pytest.approx(cov, rel=1e-12, abs=1e-15)
        assert mom.imag_residue <= 1e-14


def _random_block(region, n_rows, n_modes):
    """Strategy: a BogoliubovBlock of n_rows random (alpha, beta) rows, entries in [-1, 1]."""
    rows = hnp.arrays(np.float64, (n_rows, n_modes),
                      elements=st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))
    return st.tuples(rows, rows).map(
        lambda ab: kg.BogoliubovBlock(region=region, alpha=ab[0], beta=ab[1],
                                      cfg_hash="random-rows"))


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.tuples(_random_block(kg.Region.LEFT, shape[1], shape[0]),
                            _random_block(kg.Region.RIGHT, shape[2], shape[0]))))
# both pairs have correlation 1, which wick_moments must not push past its
# slack: in the first the right variance is subnormal, in the second the
# right row's own beta dot underflows to 0 (and corr reads 0)
@example((kg.BogoliubovBlock(kg.Region.LEFT, np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]), "row"),
          kg.BogoliubovBlock(kg.Region.RIGHT, np.array([[5.03697256e-105, 5.03697256e-105]]),
                             np.array([[3.63016198e-55, 0.0]]), "row")))
@example((kg.BogoliubovBlock(kg.Region.LEFT, np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]), "row"),
          kg.BogoliubovBlock(kg.Region.RIGHT, np.array([[1.0, 1.0]]),
                             np.array([[4.40549769e-182, 4.40549769e-182]]), "row")))
def test_wick_moments_equal_fock_oracle_property(blocks):
    left, right = blocks
    (n_left, n_modes), n_right = left.alpha.shape, right.alpha.shape[0]
    fk = TruncatedFock(n_modes=n_modes)
    rep = kg.wick_moments(range(1, n_left + 1), range(1, n_right + 1), left, right)
    close = dict(rel=1e-12, abs=1e-15)
    for i in range(n_left):
        row = (left.alpha[i], left.beta[i])
        for j in range(n_right):
            far = (right.alpha[j], right.beta[j])
            mom = oracle_moments(row, far, fk)
            assert rep.mean_left[i] == pytest.approx(mom.mean_m, **close)
            assert rep.var_left[i] == pytest.approx(mom.var_m, **close)
            assert rep.mean_right[j] == pytest.approx(mom.mean_n, **close)
            assert rep.cov[i, j] == pytest.approx(mom.cov, **close)
            # the oracle reports only the first row's variance: swap the sides
            swapped = oracle_moments(far, row, fk)
            assert rep.var_right[j] == pytest.approx(swapped.var_m, **close)


def test_occupation_cap_is_bit_exact(rng):
    p, q = rng.normal(size=(2, 4)) * 0.5
    pb, qb = rng.normal(size=(2, 4)) * 0.5
    m2 = oracle_moments((p, q), (pb, qb), TruncatedFock(4, max_occupation=2))
    m3 = oracle_moments((p, q), (pb, qb), TruncatedFock(4, max_occupation=3))
    assert m2 == m3   # NamedTuple equality: every field bit-identical


def test_oracle_against_real_dictionary_rows(cfg_half, blocks_half):
    # first 6 global modes of the actual r = 1/2 dictionary, rows m = n = 1
    left, right = blocks_half
    fk = TruncatedFock(n_modes=6)
    mom = oracle_moments((left.alpha[0, :6], left.beta[0, :6]),
                         (right.alpha[0, :6], right.beta[0, :6]), fk)
    p, q = left.alpha[0, :6], left.beta[0, :6]
    assert mom.mean_m == pytest.approx(np.sum(q * q), rel=1e-13, abs=0)
    assert mom.mean_n == pytest.approx(np.sum(right.beta[0, :6] ** 2), rel=1e-13, abs=0)


@st.composite
def _ladder_cases(draw):
    """A Fock space of 1-6 modes at cap 2-4, four complex coefficient rows
    with some exact zeros, and a vector: a random dense one with some zero
    entries, or |0>, a|0> or a^dagger a|0> of the first two rows.

    The entries come from a seeded generator rather than from hypothesis's
    floats, whose simple values (0.5, 1.0, 2.0) multiply exactly and so
    cannot tell apart two roundings of one complex product.
    """
    fock = TruncatedFock(draw(st.integers(1, 6)), draw(st.integers(2, 4)))
    kind = draw(st.sampled_from(["dense", "vacuum", "once", "twice"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = gen.normal(size=(4, fock.n_modes)) + 1j * gen.normal(size=(4, fock.n_modes))
    rows[gen.uniform(size=rows.shape) < 0.25] = 0
    if kind == "dense":
        vec = gen.normal(size=fock.dimension) + 1j * gen.normal(size=fock.dimension)
        vec[gen.uniform(size=fock.dimension) < 0.3] = 0
    else:
        vec = fock.vacuum()
        if kind != "vacuum":
            vec = _dense_apply(fock, vec, rows[0], rows[1])
        if kind == "twice":
            vec = _dense_apply(fock, vec, np.conj(rows[1]), np.conj(rows[0]))
    return fock, rows, vec


@settings(max_examples=60, deadline=None)
@given(_ladder_cases())
def test_support_walk_is_the_dense_sweep_bit_for_bit(case):
    fock, (p, q, pb, qb), vec = case
    assert _bits(fock.apply_ladder_sum(vec, p, q)) == _bits(_dense_apply(fock, vec, p, q))
    assert _bits(fock.apply_ladder_sum(vec, pb.real, qb.real)) == _bits(
        _dense_apply(fock, vec, pb.real, qb.real))
    assert _bits(oracle_moments((p, q), (pb, qb), fock)) == _bits(
        _dense_moments((p, q), (pb, qb), fock))


@pytest.mark.parametrize("r, mu", MOMENTS_CONFIGS)
def test_benchmark_oracle_rows_match_the_dense_sweep(r, mu):
    cfg = kg.validate_config(1.0, r, mu)
    m, n = np.arange(1, 5), np.arange(1, 9)
    left = kg.coeff_grid(kg.Region.LEFT, m, n, cfg)
    right = kg.coeff_grid(kg.Region.RIGHT, m, n, cfg)
    fk = TruncatedFock(n_modes=8)
    for i in range(4):
        for j in range(4):
            rows = (left[0][i], left[1][i]), (right[0][j], right[1][j])
            assert _bits(oracle_moments(*rows, fk)) == _bits(_dense_moments(*rows, fk))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_non_finite_coefficients_are_refused(bad):
    # an inf once multiplied the zero entries of the vector too and spread
    # NaN over the result; the support walk never sees those entries
    fk = TruncatedFock(n_modes=3)
    row = np.array([0.5, bad, 0.0])
    z = np.zeros(3)
    with pytest.raises(kg.DomainError, match="finite"):
        fk.apply_ladder_sum(fk.vacuum(), row, z)
    with pytest.raises(kg.DomainError, match="finite"):
        fk.apply_ladder_sum(fk.vacuum(), z, row)
    with pytest.raises(kg.DomainError, match="finite"):
        oracle_moments((z, z + 1), (z, row), fk)
