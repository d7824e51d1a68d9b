"""Closed-form Bogoliubov coefficients: hand values, oracle agreement, the
beta-only row sums, completeness identities, and the block memo.

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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kgcavity as kg
from kgcavity import bogoliubov

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── frozen coefficient values ────────────────────────────────────────────────

def test_coeff_pair_hand_values(cfg_half):
    a, b = kg.coeff_pair(L, 1, 1, cfg_half)
    assert a == pytest.approx(2.0 / np.pi, rel=1e-14)
    assert b == pytest.approx(-2.0 / (3.0 * np.pi), rel=1e-14)


def test_coeff_pair_resonance(cfg_half):
    a, b = kg.coeff_pair(L, 1, 2, cfg_half)
    assert a == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
    assert b == 0.0


def test_kronecker_zeros_are_exact(cfg_half):
    # r = R/2 puts sin(N pi r/R) at an exact zero for every even N; the
    # closed form must return 0.0, not ~1e-16 * N.
    for m, N in [(3, 2), (1, 4), (5, 8)]:
        assert kg.closed_overlap(m, N, L, cfg_half) == 0.0
        assert kg.closed_overlap(m, N, RG, cfg_half) == 0.0


def test_right_region_sign_toggle(cfg_half):
    # (-1)^(N+m) relative to the left family, fixed by the direct integral.
    v = kg.closed_overlap(2, 1, RG, cfg_half)
    assert v == pytest.approx(4.0 / (15.0 * np.sqrt(2.0) * np.pi**2), rel=1e-12)
    assert v == pytest.approx(kg.overlap_V(2, 1, RG, cfg_half), rel=1e-10)


def test_beta_strictly_smaller_than_alpha(blocks_half):
    # |Om - om| < Om + om whenever both frequencies are positive.
    left, right = blocks_half
    for blk in (left, right):
        nonzero = blk.alpha != 0.0
        assert np.all(np.abs(blk.beta[nonzero]) < np.abs(blk.alpha[nonzero]))
        # Kronecker-zero entries vanish in both families together
        assert np.all(blk.beta[~nonzero] == 0.0)


def test_coefficients_scale_invariant_overlap_carries_length():
    # alpha, beta depend on (r/R, mu R) only; V itself carries one power of
    # the box size (the frequency prefactors cancel it).
    small = kg.validate_config(1.0, 0.3, 7.0)
    big = kg.validate_config(5.0, 1.5, 1.4)
    for m, N in [(1, 1), (2, 5), (4, 9)]:
        a_s, b_s = kg.coeff_pair(L, m, N, small)
        a_b, b_b = kg.coeff_pair(L, m, N, big)
        assert a_s == pytest.approx(a_b, rel=1e-13)
        assert b_s == pytest.approx(b_b, rel=1e-13)
        assert kg.closed_overlap(m, N, L, big) == pytest.approx(
            5.0 * kg.closed_overlap(m, N, L, small), rel=1e-13
        )


def test_r_to_R_limit_approaches_identity():
    # As r -> R the left modes become the global modes: alpha_mm -> 1,
    # everything else -> 0.
    cfg = kg.validate_config(1.0, 1.0 - 1e-9, 0.0)
    a33, b33 = kg.coeff_pair(L, 3, 3, cfg)
    a35, b35 = kg.coeff_pair(L, 3, 5, cfg)
    assert a33 == pytest.approx(1.0, abs=1e-6)
    assert abs(b33) < 1e-6
    assert abs(a35) < 1e-6


# ── closed form vs quadrature oracle (seeded property test) ──────────────────

def test_closed_form_matches_quadrature_on_random_samples(rng):
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
        vq = kg.overlap_V(m, N, region, cfg)
        if abs(vq) < 1e-13:
            assert abs(vc) < 1e-12
            continue
        worst = max(worst, abs(vc - vq) / abs(vq))
    assert worst < 1e-8
    print(f"worst closed-vs-quadrature rel err over 100 samples: {worst:.2e}")


def test_coeff_grid_matches_coeff_pair(cfg_half):
    m_idx = np.arange(1, 7)
    N_idx = np.arange(1, 26)
    A, B = kg.coeff_grid(L, m_idx, N_idx, cfg_half, 1e-8)
    for i, m in enumerate(m_idx):
        for j, N in enumerate(N_idx):
            a, b = kg.coeff_pair(L, int(m), int(N), cfg_half)
            assert A[i, j] == pytest.approx(a, rel=1e-14, abs=1e-300)
            assert B[i, j] == pytest.approx(b, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("r, mu, m, N", [
    (0.5, 1e5, 1, 1), (0.5, 1e5, 1, 3), (0.5, 1e5, 2, 3), (0.5, 1e5, 3, 5),
    (0.5, 1e5, 5, 9),
    (0.6250056379050883, 1000.0, 5, 8),
    (1 / np.pi, 1e4, 113, 355), (1 / np.pi, 1e4, 226, 710),
])
def test_closed_form_matches_quadrature_near_resonances(r, mu, m, N):
    # entries a rel-gap window of 1e-8 would have given the eps = 0 limit:
    # half a mode away at mu R = 1e5, N w - m = 4.5e-5 at r = 0.6250056 and
    # 355/pi = 113.0000096; measured <= 6.2e-16
    cfg = kg.validate_config(1.0, r, mu)
    vq = kg.overlap_V(m, N, L, cfg)
    assert abs(kg.closed_overlap(m, N, L, cfg) - vq) <= 1e-12 * abs(vq)


# ── factored kernel vs the unfactored sinc closed form ──────────────────────

def _sinc_reference(region, m_idx, N_idx, cfg, dtype=np.float64):
    """(alpha, beta) from the unfactored sinc closed form on the full 2-D grid.

        V = s m w sinc(eps) / ((2m + eps) sqrt(w Omega omega)),  eps = N w - m,
        alpha = (Omega + omega) V,  beta = (Omega - omega) V,

    with the Kronecker zeros set where eps is a nonzero integer. At eps == 0
    sinc is 1, which is the resonance limit (w/2)/sqrt(w Omega omega); no
    other entry takes it. The zero test and N w are float64 as in the
    kernel; the values are computed in ``dtype``. With np.longdouble the
    sinc argument and the Omega - omega difference carry 11 more bits, so
    the reference is accurate where the float64 form is not (sin(pi eps) at
    |eps| ~ 1e5, Omega - omega at large mu R).
    """
    w = cfg.r_tilde if region is L else 1.0 - cfg.r_tilde
    m = np.asarray(m_idx, dtype=np.float64)[:, None]
    N = np.asarray(N_idx, dtype=np.float64)[None, :]
    x = N * w
    eps = x - m
    kronecker = (eps == np.round(eps)) & (eps != 0.0)

    if dtype is not np.float64:
        e = x.astype(dtype) - m.astype(dtype)
        m, N, w, mu = m.astype(dtype), N.astype(dtype), dtype(w), dtype(cfg.mu_tilde)
        pi = 4 * np.arctan(dtype(1))
    else:
        e, mu, pi = eps, cfg.mu_tilde, np.pi
    Om = np.sqrt((pi * N) ** 2 + mu**2)
    om = np.sqrt((pi * m / w) ** 2 + mu**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(e == 0, 1.0, np.sin(pi * e) / (pi * e))
    sinc = np.where(kronecker, 0.0, sinc)
    v = m * w * sinc / ((2 * m + e) * np.sqrt(w * Om * om))
    if region is RG:
        v = v * np.where((np.asarray(m_idx)[:, None] + np.asarray(N_idx)[None, :]) % 2, -1.0, 1.0)
    return ((om + Om) * v).astype(np.float64, copy=False), ((Om - om) * v).astype(np.float64, copy=False)


def _row_rel(got, want):
    """Largest |got - want| relative to the max |want| of its row."""
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    return float(np.max(np.abs(got - want) / np.where(scale > 0, scale, 1.0)))


@pytest.mark.parametrize("r", [1 / np.pi, 0.21, 0.5, 0.3, 0.5472])
@pytest.mark.parametrize("mu", [0.0, 4.7619, 1000.0, 1e5])
def test_coeff_grid_matches_sinc_reference(r, mu):
    # measured over all 40 cases: alpha 6.2e-16, and beta 1.0e-14 of the
    # row max below mu R = 1e5. At mu R = 1e5 only alpha is checked: the
    # reference's own Omega - omega cancellation puts its beta 1e-11 to
    # 9e-11 off, while the kernel's beta has no cancellation.
    cfg = kg.validate_config(1.0, r, mu)
    N_idx = np.arange(1, 1001)
    for region in (L, RG):
        for m_idx in (np.arange(1, 41), np.array([4, 1, 3])):
            A, B = kg.coeff_grid(region, m_idx, N_idx, cfg, 1e-8)
            A_ref, B_ref = _sinc_reference(region, m_idx, N_idx, cfg, dtype=np.longdouble)
            assert _row_rel(A, A_ref) <= 1e-12
            if mu < 1e5:
                assert _row_rel(B, B_ref) <= 1e-12
            assert np.array_equal(A == 0.0, A_ref == 0.0)
            assert np.all(B[A == 0.0] == 0.0)


def test_coeff_grid_matches_sinc_reference_wide():
    # the unfactored form in float64 on a default-size block; measured
    # alpha 3.3e-15, beta 3.5e-13 of the row max (the float64 reference's
    # own sinc-argument and Omega - omega rounding)
    cfg = kg.validate_config(1.0, 0.3, 4.7619)
    m_idx, N_idx = np.arange(1, 1001), np.arange(1, 10_001)
    A, B = kg.coeff_grid(RG, m_idx, N_idx, cfg, 1e-8)      # width 0.7
    A_ref, B_ref = _sinc_reference(RG, m_idx, N_idx, cfg)
    assert _row_rel(A, A_ref) <= 1e-12
    assert _row_rel(B, B_ref) <= 1e-12
    # Known difference: when m > 2 N w the 2-D difference N w - m rounds to
    # an integer although N w is not one, and the reference's zero test
    # fires. The kernel tests N w per column and keeps these entries, which
    # are rounding-sized (measured 1.9e-16 of the row max).
    differ = (A == 0.0) != (A_ref == 0.0)
    assert np.count_nonzero(differ) == 4489
    assert np.all(A_ref[differ] == 0.0)
    rows, cols = np.nonzero(differ)
    assert np.all(m_idx[rows] > 2 * N_idx[cols] * 0.7)
    row_max = np.max(np.abs(A_ref), axis=1)
    assert np.max(np.abs(A[differ]) / row_max[rows]) <= 1e-15


@pytest.mark.parametrize("r", [1 / np.pi, 0.3])
def test_coeff_grid_matches_sinc_reference_tall(r):
    # divergence_scan's shape: 1e5 rows, one column. Each row is a single
    # entry, so the bound is relative per entry; measured 1.4e-13, the
    # long-double reference's own sin(pi eps) at |eps| ~ 1e5. The float64
    # sinc form is 3e-10 off there.
    cfg = kg.validate_config(1.0, r, 0.0)
    m_idx, N_idx = np.arange(1, 100_001), np.array([3])
    for region in (L, RG):
        A, B = kg.coeff_grid(region, m_idx, N_idx, cfg, 1e-8)
        A_ref, B_ref = _sinc_reference(region, m_idx, N_idx, cfg, dtype=np.longdouble)
        assert _row_rel(A, A_ref) <= 1e-12
        assert _row_rel(B, B_ref) <= 1e-12


def test_exact_zeros_and_resonances_at_half(cfg_half):
    # w = 1/2: every even-N column is a Kronecker zero except its resonance
    # m = N/2, which takes the analytic limit; beta vanishes on the whole column
    m_idx, N_idx = np.arange(1, 61), np.arange(1, 1001)
    for region in (L, RG):
        A, B = kg.coeff_grid(region, m_idx, N_idx, cfg_half, 1e-8)
        even = N_idx % 2 == 0
        assert np.all(B[:, even] == 0.0)
        res_m, res_N = np.arange(1, 61), 2 * np.arange(1, 61)
        Om = np.sqrt((np.pi * res_N) ** 2)
        om = np.sqrt((np.pi * res_m / 0.5) ** 2)
        want = (om + Om) * ((0.5 / 2.0) / np.sqrt(0.5 * Om * om))
        if region is RG:
            want = want * np.where((res_m + res_N) % 2, -1.0, 1.0)
        assert np.array_equal(A[res_m - 1, res_N - 1], want)
        zeros = np.ones_like(A, dtype=bool)
        zeros[:, ~even] = False
        zeros[res_m - 1, res_N - 1] = False
        assert np.all(A[zeros] == 0.0)
        assert np.all(A[:, ~even] != 0.0)


@pytest.mark.parametrize("r, mu, gap", [
    (1 / np.pi, 1000.0, 1e-6),
    (0.5472, 1000.0, 1e-8),
    (0.5, 1e5, 1e-8),
    (0.3, 0.0, 1e-8),
    (0.6250056379050883, 1000.0, 1e-8),
])
def test_only_exact_resonances_take_the_limit(r, mu, gap):
    # The limit is for eps = N w - m == 0 alone, where the closed form is
    # 0/0. Entries inside the rel-gap window |Omega^2 - omega^2| /
    # (Omega^2 + omega^2) <= gap but off eps = 0 keep the closed form:
    # 355/pi = 113.0000096 (window 1e-6 at r = 1/pi), 8 * 0.6250056 - 5 =
    # 4.5e-5, x = N 0.7 a rounding away from an integer at r = 0.3, and
    # entries half a mode away at mu R = 1e5, where the window also reaches
    # Kronecker zeros next to the resonances of r = 1/2. r = 0.5472 has the
    # exact resonance 625 * 0.5472 = 342 at mu R = 1000. Measured near
    # entries against the long-double reference: <= 3.9e-16 relative.
    cfg = kg.validate_config(1.0, r, mu)
    m_idx, N_idx = np.arange(1, 401), np.arange(1, 1001)
    near_seen = 0
    for region in (L, RG):
        w = cfg.r_tilde if region is L else 1.0 - cfg.r_tilde
        A, B = kg.coeff_grid(region, m_idx, N_idx, cfg)
        # the ignored fifth argument, as the benchmark passes it
        A8, B8 = kg.coeff_grid(region, m_idx, N_idx, cfg, 1e-8)
        assert A8.tobytes() == A.tobytes() and B8.tobytes() == B.tobytes()
        m = m_idx[:, None].astype(float)
        N = N_idx[None, :].astype(float)
        Om = np.sqrt((np.pi * N) ** 2 + mu**2)
        om = np.sqrt((np.pi * m / w) ** 2 + mu**2)
        x = N * w
        exact = np.broadcast_to(x - m == 0.0, A.shape)
        kronecker = np.broadcast_to(x == np.rint(x), A.shape) & ~exact
        in_gap = np.abs(Om**2 - om**2) / (Om**2 + om**2) <= gap
        near = in_gap & ~exact & ~kronecker
        sign = np.where((m_idx[:, None] + N_idx[None, :]) % 2, -1.0, 1.0) if region is RG else 1.0
        limit = (om + Om) * ((w / 2.0) / np.sqrt(w * Om * om)) * sign
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
        assert np.array_equal(A[exact], np.broadcast_to(limit, A.shape)[exact])
        A_ref, _ = _sinc_reference(region, m_idx, N_idx, cfg, dtype=np.longdouble)
        assert np.all(np.abs(A[near] - A_ref[near]) <= 1e-12 * np.abs(A_ref[near]))
        assert np.all(A[kronecker] == 0.0) and np.all(B[kronecker] == 0.0)
        if mu == 1e5:
            assert np.count_nonzero(in_gap & kronecker) > 0
        near_seen += np.count_nonzero(near)
    assert near_seen > 0 or r == 0.5472


_fractions = st.floats(0.01, 0.99, allow_nan=False)
_masses = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.just(1000.0))


@settings(max_examples=40, deadline=None)
@given(r=_fractions, mu=_masses,
       lam=st.one_of(st.integers(-20, 20).map(lambda k: 2.0**k), st.floats(0.05, 20.0)),
       n_rows=st.integers(1, 30), n_cols=st.integers(1, 300))
def test_coeff_grid_scale_invariant_property(r, mu, lam, n_rows, n_cols):
    # alpha, beta depend on (r/R, mu R) only: R -> lam R, r -> lam r, mu -> mu/lam
    base = kg.validate_config(1.0, r, mu)
    scaled = kg.validate_config(lam, lam * r, mu / lam)
    m_idx, N_idx = np.arange(1, n_rows + 1), np.arange(1, n_cols + 1)
    for region in (L, RG):
        A, B = kg.coeff_grid(region, m_idx, N_idx, base, 1e-8)
        As, Bs = kg.coeff_grid(region, m_idx, N_idx, scaled, 1e-8)
        if (scaled.r_tilde, scaled.mu_tilde) == (base.r_tilde, base.mu_tilde):
            assert A.tobytes() == As.tobytes() and B.tobytes() == Bs.tobytes()
        assert _row_rel(As, A) <= 1e-12
        assert _row_rel(Bs, B) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_fractions, mu=_masses,
       n_rows=st.integers(1, 30), n_cols=st.integers(1, 300))
def test_left_right_mirror_property(R, r, mu, n_rows, n_cols):
    # the right family at r is the left family at R - r, up to (-1)^(N+m)
    left = kg.validate_config(R, r * R, mu)
    mirror = kg.validate_config(R, R - r * R, mu)
    m_idx, N_idx = np.arange(1, n_rows + 1), np.arange(1, n_cols + 1)
    A, B = kg.coeff_grid(L, m_idx, N_idx, left, 1e-8)
    Ar, Br = kg.coeff_grid(RG, m_idx, N_idx, mirror, 1e-8)
    sign = np.where((m_idx[:, None] + N_idx[None, :]) % 2, -1.0, 1.0)
    assert _row_rel(Ar * sign, A) <= 1e-12
    assert _row_rel(Br * sign, B) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(r=_fractions, mu=_masses, right=st.booleans(),
       m_list=st.lists(st.integers(1, 200), min_size=1, max_size=12),
       n_cols=st.integers(1, 300), chunk=st.integers(1, 2000))
def test_rows_are_independent_of_chunking_property(r, mu, right, m_list, n_cols, chunk):
    # every row of a multi-row call equals the single-row call bit for bit,
    # wherever the row chunk boundaries fall
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    m_idx, N_idx = np.array(m_list), np.arange(1, n_cols + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bogoliubov, "_CHUNK_ENTRIES", chunk)
        A, B = kg.coeff_grid(region, m_idx, N_idx, cfg, 1e-8)
    for i, m in enumerate(m_list):
        a, b = kg.coeff_grid(region, np.array([m]), N_idx, cfg, 1e-8)
        assert a[0].tobytes() == A[i].tobytes()
        assert b[0].tobytes() == B[i].tobytes()


# ── beta-only reduction ──────────────────────────────────────────────────────

def _coeff_grid_beta_sq(region, m_idx, N_idx, cfg):
    _, B = kg.coeff_grid(region, m_idx, N_idx, cfg, 1e-8)
    return np.einsum("ij,ij->i", B, B)


def _assert_rel(got, want, bound):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound * want)


@pytest.mark.parametrize("r", [1 / np.pi, 0.21, 0.5, 0.5472])
@pytest.mark.parametrize("mu", [0.0, 4.7619, 1000.0])
def test_beta_sq_sums_match_coeff_grid_rows(r, mu):
    # the kernel forms beta as coeff_grid does, so only the order of the
    # N-sum differs; r = 1/2 holds exact resonances and Kronecker zeros
    cfg = kg.validate_config(1.0, r, mu)
    N_idx = np.arange(1, 10_001)
    scattered = np.array([57, 3, 3, 100, 1, 57])
    for region in (L, RG):
        for m_idx in (np.arange(1, 101), scattered):
            got = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
            _assert_rel(got, _coeff_grid_beta_sq(region, m_idx, N_idx, cfg), 1e-13)
        assert got[1] == got[2] and got[0] == got[5]        # duplicated rows
        # divergence_scan's tall shape: one entry per row, so exact
        tall = np.arange(1, 100_001)
        got = kg.beta_sq_sums(region, tall, [3], cfg)
        _assert_rel(got, _coeff_grid_beta_sq(region, tall, [3], cfg), 1e-13)


@settings(max_examples=40, deadline=None)
@given(r=_fractions, mu=_masses, right=st.booleans(),
       m_list=st.lists(st.integers(1, 200), min_size=1, max_size=12),
       n_cols=st.integers(1, 300), chunk=st.integers(1, 2000))
def test_beta_sq_sums_independent_of_tiling_property(r, mu, right, m_list, n_cols, chunk):
    # tiles of 1..2000 entries split the rows, the columns or both
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    m_idx, N_idx = np.array(m_list), np.arange(1, n_cols + 1)
    want = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bogoliubov, "_CHUNK_ENTRIES", chunk)
        got = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
    _assert_rel(got, want, 1e-13)


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
        maxima.append(_residual_max(kg.identity_residuals(cfg_half, n_max, upto=10)))
    assert maxima[1] < maxima[0] / 100.0
    assert maxima[0] < 3e-7
    assert maxima[1] < 3e-10


def _max_residual(cfg, upto, n_max):
    return kg.identity_residuals(cfg, n_max, upto).max_residual


@settings(max_examples=30, deadline=None)
@given(r=_fractions, mu=st.floats(0.0, 1000.0), upto=st.integers(1, 10),
       n_max=st.integers(100, 2000))
def test_identity_residuals_do_not_grow_with_cutoff_property(r, mu, upto, n_max):
    # doubling the global cutoff never raises the largest residual once it
    # reaches the resonances N = m / w of every row in both families; below
    # that the residual is still rising (r = 0.99, upto = 7, n_max = 353:
    # 2.2049e-4, then 2.2270e-4, before N = 700). The absolute 1e-13 is the
    # rounding of O(1) sums over a few thousand terms.
    assume(n_max * min(r, 1 - r) >= upto)
    cfg = kg.validate_config(1.0, r, mu)
    assert _max_residual(cfg, upto, 2 * n_max) <= _max_residual(cfg, upto, n_max) + 1e-13


def test_identity_residuals_do_not_grow_with_cutoff_heavy_mass():
    cfg = kg.validate_config(1.0, 0.6250056379050883, 1000.0)
    maxima = [_max_residual(cfg, 10, n) for n in (1_000, 2_000, 4_000)]
    assert maxima[1] <= maxima[0] and maxima[2] <= maxima[1]


@pytest.mark.parametrize("n_max, upto", [(100, 0), (0, 3), (100, -1)])
def test_identity_residuals_refuse_cutoffs_below_one(cfg_half, monkeypatch, n_max, upto):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the range check")

    monkeypatch.setattr(bogoliubov, "coeff_grid", no_compute)
    with pytest.raises(kg.DomainError):
        kg.identity_residuals(cfg_half, n_max, upto)


def test_identity_residuals_match_fsum_reference(cfg_half, trunc_10k, blocks_half):
    # per-pair reference: each identity summed exactly over N by math.fsum
    def fsum_diff(x, y, u, v):
        return math.fsum(np.concatenate([x * y, -(u * v)]))

    left, right = blocks_half
    upto = 6
    res = kg.identity_residuals(cfg_half, trunc_10k.n_max_global, upto=upto)
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
        return kg.build_block(L, cfg, None, trunc)

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
    block = kg.build_block(L, cfg_half, None, big)
    assert kg.build_block(L, cfg_half, None, big) is not block
    assert block.cfg_hash not in bogoliubov._BLOCK_MEMO


def test_fewer_rows_are_a_view_and_more_rows_replace_the_entry(cfg_half, monkeypatch):
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())

    def trunc(rows):
        return kg.Truncation(n_max_global=100, m_max_local=rows)

    assert kg.block_digest(L, cfg_half, trunc(4)) == kg.block_digest(L, cfg_half, trunc(2))
    four = kg.build_block(L, cfg_half, None, trunc(4))
    two = kg.build_block(L, cfg_half, None, trunc(2))
    # the first two rows of the stored block, read-only, and no new entry
    assert two.alpha.shape == two.beta.shape == (2, 100)
    assert two.alpha.tobytes() == four.alpha[:2].tobytes()
    assert two.beta.tobytes() == four.beta[:2].tobytes()
    assert np.shares_memory(two.alpha, four.alpha)
    with pytest.raises(ValueError):
        two.beta[0, 0] = 1.0
    assert list(bogoliubov._BLOCK_MEMO.values()) == [four]
    assert kg.build_block(L, cfg_half, None, trunc(4)) is four
    # more rows than stored: computed afresh, replacing the entry
    six = kg.build_block(L, cfg_half, None, trunc(6))
    assert six.alpha.shape == (6, 100)
    assert len(bogoliubov._BLOCK_MEMO) == 1
    assert next(iter(bogoliubov._BLOCK_MEMO.values())) is six
    assert six.alpha[:4].tobytes() == four.alpha.tobytes()


def test_more_rows_compute_only_the_missing_rows(cfg_half, monkeypatch):
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    N_idx = np.arange(1, 101)
    four = kg.build_block(L, cfg_half, None, kg.Truncation(n_max_global=100, m_max_local=4))
    two = kg.build_block(L, cfg_half, None, kg.Truncation(n_max_global=100, m_max_local=2))
    coeff_grid = bogoliubov.coeff_grid
    asked = []

    def spy(region, m_indices, N_indices, cfg, *rest):
        asked.append(list(m_indices))
        return coeff_grid(region, m_indices, N_indices, cfg, *rest)

    monkeypatch.setattr(bogoliubov, "coeff_grid", spy)
    six = kg.build_block(L, cfg_half, None, kg.Truncation(n_max_global=100, m_max_local=6))
    assert asked == [[5, 6]]
    alpha, beta = coeff_grid(L, np.arange(1, 7), N_idx, cfg_half)
    assert six.alpha.tobytes() == alpha.tobytes()
    assert six.beta.tobytes() == beta.tobytes()
    assert not (six.alpha.flags.writeable or six.beta.flags.writeable)
    assert list(bogoliubov._BLOCK_MEMO.values()) == [six]
    # blocks and views handed out before the extension still hold their rows
    assert four.alpha.tobytes() == alpha[:4].tobytes()
    assert two.beta.tobytes() == beta[:2].tobytes()


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True), mu=st.floats(0.0, 50.0),
       right=st.booleans(), n_max=st.integers(1, 500),
       requests=st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_every_row_count_of_one_family_is_fresh_property(r, mu, right, n_max, requests):
    # one memo entry serves every row count of a family: whatever the order
    # of the requests, a block is never stale or short of rows
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    N_idx = np.arange(1, n_max + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
        for rows in requests:
            block = kg.build_block(region, cfg, None, kg.Truncation(n_max, rows))
            alpha, beta = kg.coeff_grid(region, np.arange(1, rows + 1), N_idx, cfg)
            assert block.alpha.tobytes() == alpha.tobytes()
            assert block.beta.tobytes() == beta.tobytes()
            assert len(bogoliubov._BLOCK_MEMO) == 1


def test_blocks_are_read_only(blocks_half):
    left, _ = blocks_half
    with pytest.raises(ValueError):
        left.alpha[0, 0] = 1.0
