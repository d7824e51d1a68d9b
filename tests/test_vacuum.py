"""Local-particle content of the global vacuum: spectra, divergence
diagnostics, Wick moments, and the limit scans.

<n_m> = sum_N beta_mN^2 is finite per mode; sum_m <n_m> diverges
logarithmically in the local cutoff M — that divergence is the
unitary-inequivalence signal, so the scan asserts a clean a + b log M fit
rather than a limit. Frozen regression (R=1, r=1/2, mu=0, l=1):

    <n_1> = 0.05396354991407163   at n_max = 1e4   (tail bound 1.0e-9)
    <n_1> = 0.053963550926912032  at n_max = 1e6   (tail bound 1.0e-13)

The 1e6-1e4 difference is 1.01e-9 — the integral-test tail bound at 1e4
is tight to three digits.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import kgcavity as kg

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── spectrum ─────────────────────────────────────────────────────────────────

def test_spectrum_frozen_regression_value(cfg_half, trunc_10k):
    res = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    assert res.values[0] == pytest.approx(0.05396354991407163, rel=1e-12)
    big = kg.Truncation(n_max_global=1_000_000, m_max_local=1)
    res_big = kg.vacuum_spectrum(L, cfg_half, big)
    assert res_big.values[0] == pytest.approx(0.053963550926912032, rel=1e-12)
    # honest tail: the finer value sits within the coarse bound (10% slack
    # because the bound is tight to ~3 digits here)
    assert abs(res_big.values[0] - res.values[0]) <= 1.1 * res.tail_bound[0]


def test_spectrum_positive_and_decreasing_in_l(cfg_half, trunc_10k):
    res = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    assert np.all(res.values > 0)
    assert res.values[0] > res.values[-1]
    assert np.all(res.tail_bound > 0)


def test_spectrum_equals_beta_row_sums(cfg_half, trunc_10k, blocks_half):
    left, _ = blocks_half
    res = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    direct = np.sum(left.beta**2, axis=1)
    assert np.allclose(res.values, direct, rtol=1e-12, atol=0)


def test_left_right_spectra_coincide_at_half(cfg_half, trunc_10k):
    # beta_bar differs from beta only by (-1)^(N+m), which squares away.
    a = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    b = kg.vacuum_spectrum(RG, cfg_half, trunc_10k)
    assert np.array_equal(a.values, b.values)


def test_spectrum_decreases_with_mass():
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=20)
    prev = None
    for mu in (10.0, 30.0):
        cfg = kg.validate_config(1.0, 1 / np.pi, mu)
        vals = kg.vacuum_spectrum(L, cfg, trunc).values
        if prev is not None:
            assert np.all(vals < prev)
        prev = vals


# ── divergence and convergence scans ─────────────────────────────────────────

def test_divergence_scan_is_logarithmic():
    cfg = kg.validate_config(1.0, 1 / np.pi, 10.0)
    scan = kg.divergence_scan(1, cfg, M_list=[100, 1_000, 10_000, 100_000])
    assert np.all(np.diff(scan.partial_sums) > 0)  # growing without bound
    assert scan.fit_slope > 0
    assert scan.fit_r2 > 0.99


def test_divergence_scan_rejects_indices_below_one(cfg_half):
    for N, M_list in ((1, [0, 10]), (0, [10, 100]), (1, [])):
        with pytest.raises(kg.DomainError):
            kg.divergence_scan(N, cfg_half, M_list)
    for m, n_list in ((0, [100]), (1, [0, 100]), (1, [])):
        with pytest.raises(kg.DomainError):
            kg.mode_sum_convergence(L, m, cfg_half, n_list)


def test_tails_match_direct_quadrature(cfg_half):
    # the one tail integrand, pref / (Om (Om +- om)^2), against quad on
    # [start, inf); alpha's starts past its resonance pole at N = 6, at
    # 2 om R / pi = 12 rather than n_from = 8
    m, n_from, w = 3, 8, 0.5
    om = math.sqrt((math.pi * m / w) ** 2)
    pref = m**2 * math.pi**2 / (2.0 * w**3 * om)
    conv = kg.mode_sum_convergence(L, m, cfg_half, n_list=[n_from])
    for got, sign, start in ((conv.beta2_tail, 1.0, n_from),
                             (conv.alpha2_tail, -1.0, max(n_from, 2.0 * om / math.pi))):
        want, _ = integrate.quad(lambda N: pref / (math.pi * N * (math.pi * N + sign * om) ** 2),
                                 start, math.inf)
        assert got == pytest.approx(want, rel=1e-8)
    spec = kg.vacuum_spectrum(L, cfg_half, kg.Truncation(n_max_global=n_from, m_max_local=m))
    assert spec.tail_bound[m - 1] == pytest.approx(conv.beta2_tail, rel=1e-14)


def test_mode_sum_convergence_is_cauchy(cfg_half):
    conv = kg.mode_sum_convergence(L, 1, cfg_half,
                                   n_list=[1_000, 2_000, 4_000])
    inc_a = np.abs(np.diff(conv.alpha2_partial))
    inc_b = np.abs(np.diff(conv.beta2_partial))
    assert np.all(np.diff(inc_a) < 0)  # increments shrink: Cauchy behavior
    assert np.all(np.diff(inc_b) < 0)
    # the doubling step 4000 -> 8000 stays inside the integral-test tail
    # quoted at 4000 (tails attach to the last cutoff in n_list)
    fine = kg.mode_sum_convergence(L, 1, cfg_half, n_list=[8_000])
    assert abs(fine.alpha2_partial[-1] - conv.alpha2_partial[-1]) <= conv.alpha2_tail
    assert abs(fine.beta2_partial[-1] - conv.beta2_partial[-1]) <= conv.beta2_tail
    assert conv.alpha2_tail > fine.alpha2_tail > 0


# ── Wick moments ─────────────────────────────────────────────────────────────

def test_moment_report_basic_structure(blocks_half):
    left, right = blocks_half
    rep = kg.wick_moments(range(1, 6), range(1, 9), left, right)
    assert rep.cov.shape == (5, 8)
    assert np.all(rep.mean_left > 0)
    assert np.all(rep.var_left > 0)
    # cross-region covariance is a sum of two squares here (the cross
    # completeness identities pair the four Wick sums), hence nonnegative
    assert np.all(rep.cov >= 0)
    assert np.all(np.abs(rep.corr) <= 1.0 + 1e-12)


def test_wick_variance_identity(blocks_half):
    # var(n_m) = A B + C^2 with A = sum alpha^2, B = sum beta^2, C = sum ab
    left, right = blocks_half
    rep = kg.wick_moments([3], [1], left, right)
    p, q = left.alpha[2], left.beta[2]
    A, B, C = np.sum(p * p), np.sum(q * q), np.sum(p * q)
    assert rep.var_left[0] == pytest.approx(A * B + C * C, rel=1e-14)
    assert rep.mean_left[0] == pytest.approx(B, rel=1e-14)


def test_local_vacuum_substitute_has_zero_correlations(blocks_half):
    # beta == 0 is the product-state dictionary: cov and corr vanish
    # identically (and the 0/0 in corr's definition resolves to 0).
    left, right = blocks_half
    zl = kg.BogoliubovBlock(region=L, alpha=left.alpha, beta=np.zeros_like(left.beta),
                            cfg_hash="synthetic-left")
    zr = kg.BogoliubovBlock(region=RG, alpha=right.alpha, beta=np.zeros_like(right.beta),
                            cfg_hash="synthetic-right")
    rep = kg.wick_moments(range(1, 4), range(1, 4), zl, zr)
    assert np.all(rep.cov == 0.0)
    assert np.all(rep.corr == 0.0)
    assert np.all(rep.mean_left == 0.0)


def _fsum_moments(left, right, m_range, n_range):
    """Per-pair reference: every Wick sum accumulated exactly by math.fsum."""
    def s(x, y):
        return math.fsum(x * y)

    def side(block, rows):
        stats = []
        for m in rows:
            p, q = block.alpha[m - 1], block.beta[m - 1]
            stats.append((s(q, q), s(p, p) * s(q, q) + s(p, q) ** 2))
        return np.array(stats).T

    cov = np.empty((len(m_range), len(n_range)))
    for i, m in enumerate(m_range):
        p, q = left.alpha[m - 1], left.beta[m - 1]
        for j, n in enumerate(n_range):
            pb, qb = right.alpha[n - 1], right.beta[n - 1]
            cov[i, j] = s(q, pb) * s(p, qb) + s(q, qb) * s(p, pb)
    return side(left, m_range), side(right, n_range), cov


@pytest.mark.parametrize("r, mu, m_max, m_range, n_range, bound", [
    (0.5, 0.0, 60, range(1, 6), range(1, 9), 1e-13),
    (0.5, 0.0, 60, [4, 1, 3], [7, 2, 2, 5], 1e-13),      # rows copied, not sliced
    (0.21, 4.7619, 8, range(1, 6), range(1, 9), 1e-13),
    # criterion 8's heavily cancelling regime: the per-pair loop this
    # replaced was 1.9e-12 off the reference there, the Gram form 8.8e-13
    (1 / np.pi, 1000.0, 40, range(1, 11), range(1, 41), 5e-12),
], ids=["half", "half-scattered-rows", "narrow", "criterion8-mu1000"])
def test_wick_moments_match_fsum_reference(r, mu, m_max, m_range, n_range, bound):
    cfg = kg.validate_config(1.0, r, mu)
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=m_max)
    left = kg.build_block(L, cfg, None, trunc)
    right = kg.build_block(RG, cfg, None, trunc)
    rep = kg.wick_moments(m_range, n_range, left, right)
    (mean_l, var_l), (mean_r, var_r), cov = _fsum_moments(left, right, m_range, n_range)
    for got, want in ((rep.mean_left, mean_l), (rep.var_left, var_l),
                      (rep.mean_right, mean_r), (rep.var_right, var_r), (rep.cov, cov)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def test_paper_norm_variant_is_proportional_to_cov(blocks_half):
    left, right = blocks_half
    rep = kg.wick_moments(range(1, 5), range(1, 7), left, right, paper_norm=True)
    assert rep.corr_paper_norm is not None
    ratio = rep.corr_paper_norm / rep.cov
    assert np.allclose(ratio, ratio.flat[0], rtol=1e-12)  # constant denominator
    assert ratio.flat[0] > 0


def test_wick_moments_rejects_out_of_range_rows(blocks_half):
    left, right = blocks_half
    with pytest.raises(kg.DomainError):
        kg.wick_moments([0], [1], left, right)
    with pytest.raises(kg.DomainError):
        kg.wick_moments([1], [10_000], left, right)


# ── limit scans ──────────────────────────────────────────────────────────────

def test_mass_limit_scan_decays_quadratically():
    cfg = kg.validate_config(1.0, 0.5, 0.0)
    trunc = kg.Truncation(n_max_global=5_000, m_max_local=4)
    table = kg.limit_scan("mass", [10.0, 100.0, 1000.0], [(1, 1)], cfg, trunc)
    beta = table.beta_mag[:, 0]
    assert np.all(np.diff(beta) < 0)
    slope = np.polyfit(np.log(table.values), np.log(beta), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.3)
    # per-mode occupancy also dies with the mass
    assert np.all(np.diff(table.n_per_probe[:, 0]) < 0)


def test_partition_limit_scan_is_linear_in_r():
    cfg = kg.validate_config(1.0, 0.5, 0.0)
    trunc = kg.Truncation(n_max_global=5_000, m_max_local=4)
    table = kg.limit_scan("partition-size", [1e-1, 1e-2, 1e-3], [(1, 1)], cfg, trunc)
    for mags in (table.alpha_mag[:, 0], table.beta_mag[:, 0]):
        slope = np.polyfit(np.log(table.values), np.log(mags), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)
    assert np.all(table.sum_left > 0)
    assert np.all(table.sum_both > table.sum_left)


def test_limit_scan_rejects_unknown_kind(cfg_half, trunc_10k):
    with pytest.raises(ValueError):
        kg.limit_scan("volume", [0.1], [(1, 1)], cfg_half, trunc_10k)


def test_limit_scan_rejects_indices_below_one(cfg_half, trunc_10k):
    # m = 0 used to read the last summed row and N = 0 gave zeros
    for probes, M_fixed in (([(0, 1)], 100), ([(1, 0)], 100), ([(1, 1)], 0)):
        with pytest.raises(kg.DomainError):
            kg.limit_scan("mass", [1.0], probes, cfg_half, trunc_10k, M_fixed=M_fixed)


def test_limit_scan_occupations_match_spectrum():
    # probes inside and past M_fixed, against the spectrum at each scan point
    cfg = kg.validate_config(1.0, 0.37, 2.0)
    trunc = kg.Truncation(n_max_global=5_000, m_max_local=12)
    table = kg.limit_scan("mass", [0.5, 8.0], [(2, 1), (12, 3), (9, 2)], cfg, trunc, M_fixed=10)
    for k, mu_R in enumerate(table.values):
        cfg_k = kg.validate_config(1.0, 0.37, mu_R)
        spec = kg.vacuum_spectrum(L, cfg_k, trunc).values
        want = spec[[1, 11, 8]]
        assert np.all(np.abs(table.n_per_probe[k] - want) <= 1e-13 * want)
        right = kg.vacuum_spectrum(RG, cfg_k, dataclasses.replace(trunc, m_max_local=10)).values
        assert table.sum_left[k] == pytest.approx(np.sum(spec[:10]), rel=1e-13)
        assert table.sum_both[k] == pytest.approx(np.sum(spec[:10]) + np.sum(right), rel=1e-13)
