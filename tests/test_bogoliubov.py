"""Closed-form Bogoliubov coefficients: hand values, oracle agreement,
completeness identities, and the block memo.

alpha_mN = (Om_N + om_m) V_mN and beta_mN = (Om_N - om_m) V_mN are real for
this cavity. Hand values at R=1, r=1/2, mu=0:

    alpha_11 = 3 pi * 2/(3 pi^2) = 2/pi
    beta_11  = -pi * 2/(3 pi^2)  = -2/(3 pi)
    alpha_12 = 4 pi * (r/2)/sqrt(R r * 4 pi^2) = 1/sqrt(2)   (resonance)
    beta_12  = 0                                              (Om = om)

The completeness identities sum_N (alpha_mN alpha_lN - beta_mN beta_lN) =
delta_ml and sum_N (alpha_mN beta_lN - beta_mN alpha_lN) = 0 hold only in
the infinite sum; their truncation residuals decay like n_max^-3 and are
the unitary-inequivalence diagnostic, so the tests freeze their calibrated
sizes rather than asserting zero.
"""

import math
from collections import OrderedDict

import numpy as np
import pytest

import kgcavity as kg
from kgcavity import bogoliubov

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── frozen coefficient values ────────────────────────────────────────────────

def test_coeff_pair_hand_values(cfg_half, tables_half):
    a, b = kg.coeff_pair(L, 1, 1, cfg_half, tables_half)
    assert a == pytest.approx(2.0 / np.pi, rel=1e-14)
    assert b == pytest.approx(-2.0 / (3.0 * np.pi), rel=1e-14)


def test_coeff_pair_resonance(cfg_half, tables_half):
    a, b = kg.coeff_pair(L, 1, 2, cfg_half, tables_half)
    assert a == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
    assert b == 0.0


def test_kronecker_zeros_are_exact(cfg_half):
    # r = R/2 puts sin(N pi r/R) at an exact zero for every even N; the
    # closed form must return 0.0, not ~1e-16 * N.
    for m, N in [(3, 2), (1, 4), (5, 8)]:
        assert kg.closed_overlap(m, N, L, cfg_half) == 0.0
        assert kg.closed_overlap(m, N, RG, cfg_half) == 0.0


def test_right_region_sign_toggle(cfg_half, tables_half, quad):
    # (-1)^(N+m) relative to the left family, fixed by the direct integral.
    v = kg.closed_overlap(2, 1, RG, cfg_half)
    assert v == pytest.approx(4.0 / (15.0 * np.sqrt(2.0) * np.pi**2), rel=1e-12)
    assert v == pytest.approx(kg.overlap_V(2, 1, RG, cfg_half, quad), rel=1e-10)


def test_beta_strictly_smaller_than_alpha(blocks_half):
    # |Om - om| < Om + om whenever both frequencies are positive.
    left, right = blocks_half
    for blk in (left, right):
        nonzero = blk.alpha != 0.0
        assert np.all(np.abs(blk.beta[nonzero]) < np.abs(blk.alpha[nonzero]))
        # Kronecker-zero entries vanish in both families together
        assert np.all(blk.beta[~nonzero] == 0.0)


def test_coefficients_scale_invariant_overlap_carries_length(quad):
    # alpha, beta depend on (r/R, mu R) only; V itself carries one power of
    # the box size (the frequency prefactors cancel it).
    small = kg.validate_config(1.0, 0.3, 7.0)
    big = kg.validate_config(5.0, 1.5, 1.4)
    trunc = kg.Truncation(n_max_global=16, m_max_local=8)
    tab_s, tab_b = kg.frequencies(small, trunc), kg.frequencies(big, trunc)
    for m, N in [(1, 1), (2, 5), (4, 9)]:
        a_s, b_s = kg.coeff_pair(L, m, N, small, tab_s)
        a_b, b_b = kg.coeff_pair(L, m, N, big, tab_b)
        assert a_s == pytest.approx(a_b, rel=1e-13)
        assert b_s == pytest.approx(b_b, rel=1e-13)
        assert kg.closed_overlap(m, N, L, big) == pytest.approx(
            5.0 * kg.closed_overlap(m, N, L, small), rel=1e-13
        )


def test_r_to_R_limit_approaches_identity():
    # As r -> R the left modes become the global modes: alpha_mm -> 1,
    # everything else -> 0.
    cfg = kg.validate_config(1.0, 1.0 - 1e-9, 0.0)
    trunc = kg.Truncation(n_max_global=50, m_max_local=5)
    tabs = kg.frequencies(cfg, trunc)
    a33, b33 = kg.coeff_pair(L, 3, 3, cfg, tabs)
    a35, b35 = kg.coeff_pair(L, 3, 5, cfg, tabs)
    assert a33 == pytest.approx(1.0, abs=1e-6)
    assert abs(b33) < 1e-6
    assert abs(a35) < 1e-6


# ── closed form vs quadrature oracle (seeded property test) ──────────────────

def test_closed_form_matches_quadrature_on_random_samples(rng, quad):
    """100-sample mirror of the acceptance sweep, wider index ranges."""
    r_pool = [1 / np.pi, 0.21, 0.5, 0.9]
    mu_pool = [0.0, 1.0, 10.0]
    worst = 0.0
    for _ in range(100):
        cfg = kg.validate_config(1.0, r_pool[rng.integers(len(r_pool))],
                                 mu_pool[rng.integers(len(mu_pool))])
        region = L if rng.random() < 0.5 else RG
        m = int(rng.integers(1, 41))
        N = int(rng.integers(1, 301))
        vc = kg.closed_overlap(m, N, region, cfg)
        vq = kg.overlap_V(m, N, region, cfg, quad)
        if abs(vq) < 1e-13:
            assert abs(vc) < 1e-12
            continue
        worst = max(worst, abs(vc - vq) / abs(vq))
    assert worst < 1e-8
    print(f"worst closed-vs-quadrature rel err over 100 samples: {worst:.2e}")


def test_coeff_grid_matches_coeff_pair(cfg_half, tables_half):
    m_idx = np.arange(1, 7)
    N_idx = np.arange(1, 26)
    A, B = kg.coeff_grid(L, m_idx, N_idx, cfg_half, 1e-8)
    for i, m in enumerate(m_idx):
        for j, N in enumerate(N_idx):
            a, b = kg.coeff_pair(L, int(m), int(N), cfg_half, tables_half)
            assert A[i, j] == pytest.approx(a, rel=1e-14, abs=1e-300)
            assert B[i, j] == pytest.approx(b, rel=1e-14, abs=1e-300)


# ── completeness identities ──────────────────────────────────────────────────

def _residual_max(res):
    return max(
        float(np.max(np.abs(res.D1))),
        float(np.max(np.abs(res.D2))),
        float(np.max(np.abs(res.D1_cross))),
        float(np.max(np.abs(res.D2_cross))),
    )


def test_identity_residuals_decay_with_truncation(cfg_half):
    """Calibrated: 2.094e-7 (n_max=1e3) -> 2.094e-10 (1e4), ~n_max^-3."""
    maxima = []
    for n_max in (1_000, 10_000):
        trunc = kg.Truncation(n_max_global=n_max, m_max_local=10)
        tabs = kg.frequencies(cfg_half, trunc)
        left = kg.build_block(L, cfg_half, tabs, trunc)
        right = kg.build_block(RG, cfg_half, tabs, trunc)
        maxima.append(_residual_max(kg.identity_residuals(left, right, upto=10)))
    assert maxima[1] < maxima[0] / 100.0
    assert maxima[0] < 3e-7
    assert maxima[1] < 3e-10


def test_identity_residuals_match_fsum_reference(blocks_half):
    # per-pair reference: each identity summed exactly over N by math.fsum
    def fsum_diff(x, y, u, v):
        return math.fsum(np.concatenate([x * y, -(u * v)]))

    left, right = blocks_half
    upto = 6
    res = kg.identity_residuals(left, right, upto=upto)
    ref = {name: np.empty((upto, upto)) for name in ("D1", "D2", "D1_cross", "D2_cross")}
    for i in range(upto):
        am, bm = left.alpha[i], left.beta[i]
        for j in range(upto):
            al, bl = left.alpha[j], left.beta[j]
            ar, br = right.alpha[j], right.beta[j]
            ref["D1"][i, j] = abs(fsum_diff(am, al, bm, bl) - (1.0 if i == j else 0.0))
            ref["D2"][i, j] = abs(fsum_diff(am, bl, bm, al))
            ref["D1_cross"][i, j] = abs(fsum_diff(am, ar, bm, br))
            ref["D2_cross"][i, j] = abs(fsum_diff(am, br, bm, ar))
    # the summands are O(1) while the residuals are ~1e-10, so the bound is
    # absolute: rounding of O(1) sums over 1e4 terms
    for name, want in ref.items():
        assert np.max(np.abs(getattr(res, name) - want)) <= 1e-13, name


def test_diagonal_identity_converges_to_one(blocks_half):
    # sum_N alpha_1N^2 - beta_1N^2 = 1 - O(n_max^-3)
    left, _ = blocks_half
    s = np.sum(left.alpha[0] ** 2) - np.sum(left.beta[0] ** 2)
    assert s == pytest.approx(1.0, abs=1e-9)


# ── digest and block memo ────────────────────────────────────────────────────

def test_block_digest_is_stable_and_sensitive(cfg_half, trunc_10k):
    d1 = kg.block_digest(L, cfg_half, trunc_10k)
    assert d1 == kg.block_digest(L, cfg_half, trunc_10k)
    assert len(d1) == 16
    assert d1 != kg.block_digest(RG, cfg_half, trunc_10k)
    other = kg.validate_config(1.0, 0.3, 0.0)
    assert d1 != kg.block_digest(L, other, trunc_10k)
    # digest is dimensionless: a rescaled box hits the same memo entry
    scaled = kg.validate_config(2.0, 1.0, 0.0)
    assert d1 == kg.block_digest(L, scaled, trunc_10k)


def test_memo_is_a_byte_bounded_lru(cfg_half, monkeypatch):
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    monkeypatch.setattr(bogoliubov, "_MEMO_BYTES", 8_000)   # two 3.2 kB blocks
    trunc = kg.Truncation(n_max_global=100, m_max_local=2)

    def build(r):
        cfg = kg.validate_config(1.0, r, 0.0)
        return kg.build_block(L, cfg, kg.frequencies(cfg, trunc), trunc)

    first, second = build(0.3), build(0.4)
    assert build(0.3) is first                        # the hit makes 0.4 the oldest
    third = build(0.5)                                # evicts 0.4
    held = sum(b.alpha.nbytes + b.beta.nbytes for b in bogoliubov._BLOCK_MEMO.values())
    assert held <= bogoliubov._MEMO_BYTES
    assert build(0.5) is third
    assert build(0.3) is first
    again = build(0.4)
    assert again is not second
    assert np.array_equal(again.alpha, second.alpha)

    big = kg.Truncation(n_max_global=1000, m_max_local=2)   # 32 kB > cap
    tabs = kg.frequencies(cfg_half, big)
    block = kg.build_block(L, cfg_half, tabs, big)
    assert kg.build_block(L, cfg_half, tabs, big) is not block
    assert block.cfg_hash not in bogoliubov._BLOCK_MEMO


def test_blocks_are_read_only(blocks_half):
    left, _ = blocks_half
    with pytest.raises(ValueError):
        left.alpha[0, 0] = 1.0
