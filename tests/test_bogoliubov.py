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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kgcavity as kg
from kgcavity import bogoliubov
from oracles import overlap_V

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── frozen coefficient values ────────────────────────────────────────────────

def test_coeff_pair_hand_values(cfg_half):
    a, b = (c.item() for c in kg.coeff_grid(L, [1], [1], cfg_half))
    assert a == pytest.approx(2.0 / np.pi, rel=1e-14, abs=0)
    assert b == pytest.approx(-2.0 / (3.0 * np.pi), rel=1e-14, abs=0)


def test_coeff_pair_resonance(cfg_half):
    a, b = (c.item() for c in kg.coeff_grid(L, [1], [2], cfg_half))
    assert a == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12, abs=0)
    assert b == 0.0


def test_kronecker_zeros_are_exact(cfg_half):
    # r = R/2 puts sin(N pi r/R) at an exact zero for every even N; the
    # closed form must return V = alpha / (om + Om) = 0.0, not ~1e-16 * N.
    for m, N in [(3, 2), (1, 4), (5, 8)]:
        for region in (L, RG):
            alpha, _ = kg.coeff_grid(region, [m], [N], cfg_half)
            assert alpha.item() == 0.0


def test_right_region_sign_toggle(cfg_half, tables_half):
    # (-1)^(N+m) relative to the left family, fixed by the direct integral.
    alpha, _ = kg.coeff_grid(RG, [2], [1], cfg_half)
    v = alpha.item() / (tables_half.omega_bar[1] + tables_half.Omega[0])
    assert v == pytest.approx(4.0 / (15.0 * np.sqrt(2.0) * np.pi**2), rel=1e-12, abs=0)
    assert v == pytest.approx(overlap_V(2, 1, RG, cfg_half), rel=1e-10, abs=0)


def test_beta_strictly_smaller_than_alpha(blocks_half):
    # |Om - om| < Om + om whenever both frequencies are positive.
    left, right = blocks_half
    for blk in (left, right):
        nonzero = blk.alpha != 0.0
        assert np.all(np.abs(blk.beta[nonzero]) < np.abs(blk.alpha[nonzero]))
        # Kronecker-zero entries vanish in both families together
        assert np.all(blk.beta[~nonzero] == 0.0)


def test_coefficients_scale_invariant_overlap_carries_length():
    # alpha, beta depend on (r/R, mu R) only; V = alpha / (om + Om) carries
    # one power of the box size (the frequency prefactors cancel it).
    small = kg.validate_config(1.0, 0.3, 7.0)
    big = kg.validate_config(5.0, 1.5, 1.4)
    for m, N in [(1, 1), (2, 5), (4, 9)]:
        (a_s, b_s), (a_b, b_b) = ((c.item() for c in kg.coeff_grid(L, [m], [N], cfg))
                                  for cfg in (small, big))
        assert a_s == pytest.approx(a_b, rel=1e-13, abs=0)
        assert b_s == pytest.approx(b_b, rel=1e-13, abs=0)
        v_s, v_b = (a / (L.omega(m, cfg) + kg.ladder(N, cfg.R, cfg.mu))
                    for a, cfg in ((a_s, small), (a_b, big)))
        assert v_b == pytest.approx(5.0 * v_s, rel=1e-13, abs=0)


def test_r_to_R_limit_approaches_identity():
    # As r -> R the left modes become the global modes: alpha_mm -> 1,
    # everything else -> 0.
    cfg = kg.validate_config(1.0, 1.0 - 1e-9, 0.0)
    alpha, beta = kg.coeff_grid(L, [3], [3, 5], cfg)
    (a33, a35), (b33, _) = alpha[0], beta[0]
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
        alpha, _ = kg.coeff_grid(region, [m], [N], cfg)
        vc = alpha.item() / (region.omega(m, cfg) + kg.ladder(N, cfg.R, cfg.mu))
        vq = overlap_V(m, N, region, cfg)
        if abs(vq) < 1e-13:
            assert abs(vc) < 1e-12
            continue
        worst = max(worst, abs(vc - vq) / abs(vq))
    assert worst < 1e-8
    print(f"worst closed-vs-quadrature rel err over 100 samples: {worst:.2e}")


def test_coeff_grid_matches_coeff_pair(cfg_half):
    # each entry of a grid has the value of its own one-entry grid
    m_idx = np.arange(1, 7)
    N_idx = np.arange(1, 26)
    A, B = kg.coeff_grid(L, m_idx, N_idx, cfg_half, 1e-8)
    for i, m in enumerate(m_idx):
        for j, N in enumerate(N_idx):
            a, b = (c.item() for c in kg.coeff_grid(L, [m], [N], cfg_half))
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
    alpha, _ = kg.coeff_grid(L, [m], [N], cfg)
    vq = overlap_V(m, N, L, cfg)
    assert abs(alpha.item() / (L.omega(m, cfg) + kg.ladder(N, cfg.R, cfg.mu)) - vq) <= 1e-12 * abs(vq)


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
    # a tall grid of 1e5 rows and one column: the rows of a fixed-N sum up
    # to a divergence scan's default largest M (the scan walks them in row
    # chunks). Each row is a single entry, so the bound is relative per
    # entry; measured 1.4e-13, the long-double reference's own sin(pi eps)
    # at |eps| ~ 1e5. The float64 sinc form is 3e-10 off there.
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
    # the kernel sums (b_N / (Om_N + om_m))^2 and applies the row factor
    # after the sum, so it differs from coeff_grid's beta rows by the
    # rounding of the factoring and the order of the N-sum; r = 1/2 holds
    # exact resonances and Kronecker zeros
    cfg = kg.validate_config(1.0, r, mu)
    N_idx = np.arange(1, 10_001)
    scattered = np.array([57, 3, 3, 100, 1, 57])
    for region in (L, RG):
        for m_idx in (np.arange(1, 101), scattered):
            got = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
            _assert_rel(got, _coeff_grid_beta_sq(region, m_idx, N_idx, cfg), 1e-13)
        assert got[1] == got[2] and got[0] == got[5]        # duplicated rows
        # a tall one-column request, 1e5 rows: one entry per row, so only the
        # factoring's rounding differs
        tall = np.arange(1, 100_001)
        got = kg.beta_sq_sums(region, tall, [3], cfg)
        _assert_rel(got, _coeff_grid_beta_sq(region, tall, [3], cfg), 1e-13)


@settings(max_examples=40, deadline=None)
@given(r=_fractions, mu=_masses, right=st.booleans(),
       m_list=st.lists(st.integers(1, 200), min_size=1, max_size=12),
       n_cols=st.integers(1, 300), chunk=st.integers(1, 2000))
def test_beta_sq_sums_independent_of_tiling_property(r, mu, right, m_list, n_cols, chunk):
    # chunks of 1..2000 entries hold one or more full rows, or a single row
    # longer than the chunk; each row is one vecdot either way, so the
    # sums keep their bits
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    m_idx, N_idx = np.array(m_list), np.arange(1, n_cols + 1)
    want = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bogoliubov, "_CHUNK_ENTRIES", chunk)
        got = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [1e-80, 1e-90, 1e-100])
def test_beta_sq_sums_survive_tiny_widths(r):
    # t = b_N / (Omega_N + omega_m) ~ w^2, so t^2 underflows from widths
    # near 1e-78 on while sum_N beta^2 ~ w^2 stays normal; the kernel
    # scales b by a power of two, so it still matches coeff_grid's rows
    cfg = kg.validate_config(1.0, r, 0.0)
    m_idx, N_idx = np.arange(1, 4), np.arange(1, 2001)
    want = _coeff_grid_beta_sq(L, m_idx, N_idx, cfg)
    assert np.all(want > 0)
    _assert_rel(kg.beta_sq_sums(L, m_idx, N_idx, cfg), want, 1e-13)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.05, 0.95), mu=st.floats(0.0, 50.0), right=st.booleans(),
       m_list=st.lists(st.integers(1, 300), min_size=1, max_size=8),
       n_cols=st.integers(8_000, 20_000))
def test_beta_sq_sums_rows_independent_of_the_call_property(r, mu, right, m_list, n_cols):
    # across numpy's 8192-element reduction buffer: a row's sum has the same
    # bits alone as among other rows, so <n_m> never depends on the request
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    N_idx = np.arange(1, n_cols + 1)
    together = kg.beta_sq_sums(region, np.array(m_list), N_idx, cfg)
    for i, m in enumerate(m_list):
        alone = kg.beta_sq_sums(region, np.array([m]), N_idx, cfg)
        assert alone[0].tobytes() == together[i].tobytes()
    # a one-column request, where each row is one square (a divergence
    # scan's summands at one N)
    one_col = np.array([n_cols])
    tall = kg.beta_sq_sums(region, np.arange(1, 301), one_col, cfg)
    for m in m_list:
        alone = kg.beta_sq_sums(region, np.array([m]), one_col, cfg)
        assert alone[0].tobytes() == tall[m - 1].tobytes()


@st.composite
def _total_requests(draw):
    """(kind, cfg, region, m_idx, n_max) for ``beta_sq_total``, one of:
    'split', a column exactly at Omega_N = 4 max omega_m (mu = 0 and a
    width 2^-j make the two products exact); 'near', no far column;
    'single', one row; 'wide', a long range that is mostly far."""
    kind = draw(st.sampled_from(["split", "near", "single", "wide"]))
    right = draw(st.booleans())
    region = RG if right else L
    if kind == "split":
        j, M = draw(st.integers(1, 3)), draw(st.integers(1, 40))
        cfg = kg.validate_config(1.0, 1.0 - 2.0**-j if right else 2.0**-j, 0.0)
        top = 2 ** (j + 2) * M                       # Omega_top = 4 omega_M
        return kind, cfg, region, np.arange(1, M + 1), top + draw(st.integers(1, 500)) - 1
    cfg = kg.validate_config(1.0, draw(_fractions), draw(_masses))
    M = 1 if kind == "single" else draw(st.integers(1, 60))
    if kind == "near":
        # Omega_N < 4 omega_1 <= 4 max omega_m for every N < 4 / w
        width = region.reduced_width(cfg)
        return kind, cfg, region, np.arange(1, M + 1), math.ceil(4.0 / width) - 1
    return kind, cfg, region, np.arange(1, M + 1), draw(st.integers(1, 4000))


@settings(max_examples=60, deadline=None)
@given(request=_total_requests())
def test_beta_sq_total_matches_fsum_property(request):
    # the near columns summed directly and the far ones by the 31-term
    # series agree with the exactly rounded sum of coeff_grid's beta^2
    kind, cfg, region, m_idx, n_max = request
    N_idx = np.arange(1, n_max + 1)
    om = bogoliubov._rows(region, m_idx, cfg).om
    Om = bogoliubov._columns(region, N_idx, cfg).Om
    far = Om >= bogoliubov._FAR_FACTOR * om.max()
    if kind == "split":
        assert np.any(Om == bogoliubov._FAR_FACTOR * om.max())
    if kind == "near":
        assert not far.any()
    _, B = kg.coeff_grid(region, m_idx, N_idx, cfg)
    want = math.fsum((B * B).ravel())
    got = kg.beta_sq_total(region, m_idx, cfg, n_max)
    assert abs(got - want) <= 1e-14 * want
    if not far.any():
        # with no far column the total is the sum of the row sums
        assert got == float(np.sum(kg.beta_sq_sums(region, m_idx, N_idx, cfg)))


@settings(max_examples=40, deadline=None)
@given(r=_fractions, mu=_masses, k=st.integers(-20, 20), right=st.booleans(),
       M=st.integers(1, 60), n_cols=st.integers(1, 3000))
def test_beta_sq_total_scale_covariant_property(r, mu, k, right, M, n_cols):
    # the total depends on (r/R, mu R) alone, which R -> 2^k R keeps exactly
    region = RG if right else L
    m_idx = np.arange(1, M + 1)
    base = kg.validate_config(1.0, r, mu)
    scaled = kg.validate_config(2.0**k, 2.0**k * r, mu / 2.0**k)
    # exact unless mu / 2^k leaves the normal range
    assume((scaled.r_tilde, scaled.mu_tilde) == (base.r_tilde, base.mu_tilde))
    want = kg.beta_sq_total(region, m_idx, base, n_cols)
    assert kg.beta_sq_total(region, m_idx, scaled, n_cols).hex() == want.hex()


@settings(max_examples=40, deadline=None)
@given(x=_fractions, mu=_masses, k=st.integers(-10, 10),
       M=st.integers(1, 60), n_cols=st.integers(1, 3000))
def test_beta_sq_total_left_right_mirror_property(x, mu, k, M, n_cols):
    # the right family at R - r is the left family at r up to signs, which
    # the squares drop; x = 1 - (1 - x) makes both widths the same double
    x = 1.0 - (1.0 - x)
    R = 2.0**k
    left = kg.validate_config(R, R * x, mu)
    mirror = kg.validate_config(R, R - R * x, mu)
    assert L.reduced_width(left) == RG.reduced_width(mirror)
    m_idx = np.arange(1, M + 1)
    want = kg.beta_sq_total(L, m_idx, left, n_cols)
    assert kg.beta_sq_total(RG, m_idx, mirror, n_cols).hex() == want.hex()


@settings(max_examples=30, deadline=None)
@given(r=st.sampled_from([1e-80, 1e-90, 1e-100]), M=st.integers(1, 5),
       far=st.lists(st.floats(1e82, 1e84).map(round).map(float), max_size=3))
def test_beta_sq_total_survives_tiny_widths_property(r, M, far):
    # the squares ~ (r/R)^4 would underflow without the power-of-two scaling
    # of b_N; columns N ~ 1e82 reach Omega_N >= 4 omega_M, so the far series
    # runs on scaled squares too (through the kernel: no cutoff N = 1..n_max
    # reaches them)
    cfg = kg.validate_config(1.0, r, 0.0)
    m_idx = np.arange(1, M + 1)
    N_idx = np.concatenate([np.arange(1, 2001), np.sort(far)])
    want = math.fsum(kg.beta_sq_sums(L, m_idx, N_idx, cfg))
    assert want > 0
    total = bogoliubov._beta_sq_total(bogoliubov._rows(L, m_idx, cfg),
                                      bogoliubov._columns(L, N_idx, cfg))
    assert abs(total - want) <= 1e-13 * want
    if not far:
        # the same columns as the public kernel's N = 1..2000
        assert kg.beta_sq_total(L, m_idx, cfg, 2000) == total


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([1e-80, 1e-90, 1e-100]), mu=st.sampled_from([0.0, 1e50, 1e100, 1e110]),
       M=st.integers(1, 5), far=st.lists(st.floats(1.1, 10.0), min_size=1, max_size=3))
@example(r=1e-100, mu=1e110, M=1, far=[1.3, 2.9, 9.7])
def test_beta_sq_total_far_series_keeps_its_digits_property(r, mu, M, far):
    # at tiny widths and huge masses g_N^2 = (b_N / Omega_N)^2 ~ w^4 / Omega^3
    # underflows (at r/R = 1e-100, mu R = 1e110 the far part would read 0),
    # so the far series scales g_N by a power of two of its own; the total
    # keeps the digits of the row sums over the same columns. The far
    # columns sit at 1.1-10 x 4 omega_M / pi, where Omega_N >= pi N >=
    # 4.4 omega_M. Past N w = 2^53 every sin(pi N w) is an exact 0 (and
    # from 2^63 the column parity's integer cast is out of range), so
    # those draws are dropped
    cfg = kg.validate_config(1.0, r, mu)
    base = 4.0 * bogoliubov._rows(L, [M], cfg).om[0] / math.pi
    N_idx = np.concatenate([np.arange(1, 2001), np.sort([float(round(k * base)) for k in far])])
    assume(N_idx[-1] * r < 2.0**53)
    m_idx = np.arange(1, M + 1)
    want = math.fsum(kg.beta_sq_sums(L, m_idx, N_idx, cfg))
    assert want > 0
    total = bogoliubov._beta_sq_total(bogoliubov._rows(L, m_idx, cfg),
                                      bogoliubov._columns(L, N_idx, cfg))
    assert abs(total - want) <= 1e-13 * want


@pytest.mark.parametrize("r, mu", [(0.5, 0.0), (0.37, 3.0), (1e-90, 0.0)])
def test_shared_tables_give_the_bits_of_fresh_ones(r, mu):
    # the kernels read one shared pair of tables in turn, twice over; none
    # writes into them (b_N's power-of-two scaling is a new array), so each
    # result has the bits of its public wrapper on fresh tables
    cfg = kg.validate_config(1.0, r, mu)
    m_idx, N_idx = np.arange(1, 41), np.arange(1, 3001)
    for region in (L, RG):
        rows = bogoliubov._rows(region, m_idx, cfg)
        cols = bogoliubov._columns(region, N_idx, cfg)
        want_sums = kg.beta_sq_sums(region, m_idx, N_idx, cfg)
        want_total = kg.beta_sq_total(region, m_idx, cfg, len(N_idx))
        want_grid = kg.coeff_grid(region, m_idx, N_idx, cfg)
        for _ in range(2):
            assert bogoliubov._beta_sq_sums(rows, cols).tobytes() == want_sums.tobytes()
            assert bogoliubov._beta_sq_total(rows, cols).hex() == want_total.hex()
            for got, want in zip(bogoliubov._grid(rows, cols), want_grid):
                assert got.tobytes() == want.tobytes()
        for table in (rows, cols):
            for name, x in table._asdict().items():
                if isinstance(x, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        x[0] = 1.0
    # a table holds its own copy of the indices: the caller's array stays
    # writable
    m_idx = np.arange(1.0, 4.0)
    bogoliubov._rows(L, m_idx, cfg)
    m_idx[0] = 1.0


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

    monkeypatch.setattr(bogoliubov, "_grid", no_compute)
    with pytest.raises(kg.DomainError):
        kg.identity_residuals(cfg_half, n_max, upto)


@pytest.mark.parametrize("r, mu, upto, n_max", [
    (0.5, 0.0, 6, 10_000),
    (0.05, 0.0, 50, 1_000),
    (0.95, 3.0, 10, 4_000),
    (1.0 / math.pi, 1000.0, 10, 10_000),
], ids=["half", "no-far-column", "right-sets-W", "criterion-8"])
def test_identity_residuals_match_fsum_reference(r, mu, upto, n_max):
    # per-pair reference: each identity summed exactly over N by math.fsum
    # from full coeff_grid rows; "no-far-column" sums every column directly,
    # "right-sets-W" takes the split from the narrow right family, and
    # "criterion-8" is the cancelling cross alpha Gram of the Wick moments
    def fsum_diff(x, y, u, v):
        return math.fsum(np.concatenate([x * y, -(u * v)]))

    cfg = kg.validate_config(1.0, r, mu)
    rows, cols = np.arange(1, upto + 1), np.arange(1, n_max + 1)
    P, Q = kg.coeff_grid(L, rows, cols, cfg)
    Pb, Qb = kg.coeff_grid(RG, rows, cols, cfg)
    res = kg.identity_residuals(cfg, n_max, upto=upto)
    assert (res.far_columns == 0) == (r == 0.05)
    ref = {name: np.empty((upto, upto)) for name in ("D1", "D2", "D1_cross", "D2_cross")}
    for i in range(upto):
        for j in range(upto):
            ref["D1"][i, j] = abs(fsum_diff(P[i], P[j], Q[i], Q[j]) - (1.0 if i == j else 0.0))
            ref["D2"][i, j] = abs(fsum_diff(P[i], Q[j], Q[i], P[j]))
            ref["D1_cross"][i, j] = abs(fsum_diff(P[i], Pb[j], Q[i], Qb[j]))
            ref["D2_cross"][i, j] = abs(fsum_diff(P[i], Qb[j], Q[i], Pb[j]))
    # the summands are O(1) while the residuals are ~1e-10, so the bound is
    # absolute: rounding of O(1) sums over 1e4 terms
    for name, want in ref.items():
        assert np.max(np.abs(getattr(res, name) - want)) <= 1e-13, name


def test_gram_cancelling_cross_grams_match_fsum():
    # criterion 8's configuration: the cross alpha Gram P P'^T of 10 left
    # rows against 40 right rows cancels from O(1) summands to 2.0e-6, and
    # most columns (8746 of 1e4) go by the far series. Against math.fsum
    # over coeff_grid rows, measured at the split factors 4 and 8 alike:
    # PP 2.3e-11 of its largest entry (the rounding of the cancelling near
    # terms, as on the full explicit rows), PQ 1.0e-14, QP 6.0e-15 and
    # QQ 6.3e-16; the bounds leave margins of 4 and 10
    cfg = kg.validate_config(1.0, 1.0 / math.pi, 1000.0)
    left, right, cols = np.arange(1, 11), np.arange(1, 41), np.arange(1, 10_001)
    P, Q = kg.coeff_grid(L, left, cols, cfg)
    Pb, Qb = kg.coeff_grid(RG, right, cols, cfg)
    g = bogoliubov.gram(((L, left),), ((RG, right),), cfg, 10_000)
    assert g.far > g.near > 0
    for name, X, Y, bound in (("PP", P, Pb, 1e-10), ("PQ", P, Qb, 1e-13),
                              ("QP", Q, Pb, 1e-13), ("QQ", Q, Qb, 1e-13)):
        want = np.array([[math.fsum(x * y) for y in Y] for x in X])
        assert np.max(np.abs(getattr(g, name) - want)) <= bound * np.max(np.abs(want)), name


@settings(max_examples=30, deadline=None)
@given(r=_fractions, mu=st.floats(0.0, 1000.0), upto=st.integers(1, 10),
       n_max=st.integers(100, 2000))
def test_identity_residuals_cross_mirror_property(r, mu, upto, n_max):
    # reflecting the box about its centre swaps the families: the left rows
    # at R - r are the right rows at r, so each cross residual is the
    # transpose of its value at r (the reflection's signs cancel in |.|)
    here = kg.identity_residuals(kg.validate_config(1.0, r, mu), n_max, upto)
    there = kg.identity_residuals(kg.validate_config(1.0, 1.0 - r, mu), n_max, upto)
    assert np.max(np.abs(there.D1_cross - here.D1_cross.T)) <= 1e-13
    assert np.max(np.abs(there.D2_cross - here.D2_cross.T)) <= 1e-13


def test_identity_residuals_read_near_rows_once_per_family(cfg_half, monkeypatch):
    # one Gram call: the near kernel fills each family's rows once per chunk
    # of at most 512 columns, chunks ending at multiples of 512 or at the
    # split (Omega_N = pi N < F omega_upto = 2 F pi upto: N < 80 for 10
    # rows and N < 640 for 80, across a chunk boundary, at F = 4), the left
    # and right rows stacked as one side serving both sides; the far
    # columns go by the series
    grid = bogoliubov._grid
    calls = []

    def spy(rows, cols, *rest, **kwargs):
        calls.append((rows.region, len(rows.m), int(cols.N[0]), int(cols.N[-1])))
        return grid(rows, cols, *rest, **kwargs)

    monkeypatch.setattr(bogoliubov, "_grid", spy)
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    chunks = []
    for upto in (10, 80):
        near = int(2 * bogoliubov._FAR_FACTOR * upto) - 1
        calls.clear()
        res = kg.identity_residuals(cfg_half, 4000, upto)
        chunks.append([(lo + 1, min(lo + 512, near)) for lo in range(0, near, 512)])
        assert calls == [(region, upto, lo, hi) for lo, hi in chunks[-1] for region in (L, RG)]
        assert (res.near_columns, res.far_columns) == (near, 4000 - near)
    assert [len(c) for c in chunks] == [1, 2]
    assert len(bogoliubov._BLOCK_MEMO) == 0


def test_identity_residuals_make_one_gram_call_on_one_side(cfg_half, monkeypatch):
    # the left and right rows 1..upto, stacked as one side and named twice
    real = bogoliubov.gram
    calls = []

    def spy(a, b, cfg, n_max):
        calls.append((a, b, n_max))
        return real(a, b, cfg, n_max)

    monkeypatch.setattr(bogoliubov, "gram", spy)
    kg.identity_residuals(cfg_half, 1000, 4)
    assert len(calls) == 1
    a, b, n_max = calls[0]
    assert b is a and n_max == 1000
    assert [(region, list(rows)) for region, rows in a] == [(L, [1, 2, 3, 4]), (RG, [1, 2, 3, 4])]


def test_a_side_named_twice_fills_each_pair_once_per_chunk(cfg_half, monkeypatch):
    # one stack: each (family, rows) pair is filled once a chunk, where the
    # same pairs as two sides are filled once a side. At r = R/2, mu = 0 the
    # split is pi N < F omega_80 = 2 F pi 80 (N < 640 at F = 4): two chunks
    grid = bogoliubov._grid
    calls = []

    def spy(rows, cols, *rest, **kwargs):
        calls.append((rows.region, len(rows.m), int(cols.N[0]), int(cols.N[-1])))
        return grid(rows, cols, *rest, **kwargs)

    monkeypatch.setattr(bogoliubov, "_grid", spy)
    side = ((L, np.arange(1, 81)), (RG, [3, 7]))
    near = int(2 * bogoliubov._FAR_FACTOR * 80) - 1
    chunks = [(1, 512), (513, near)]
    g = bogoliubov.gram(side, side, cfg_half, 4000)
    assert (g.near, g.far) == (near, 4000 - near)
    assert calls == [(region, k, lo, hi) for lo, hi in chunks for region, k in ((L, 80), (RG, 2))]
    calls.clear()
    bogoliubov.gram(side, list(side), cfg_half, 4000)
    assert calls == [(region, k, lo, hi) for lo, hi in chunks for _ in "ab"
                     for region, k in ((L, 80), (RG, 2))]


def test_gram_computes_the_global_ladder_once(cfg_half, monkeypatch):
    # one Omega_N over the n_max columns sets the split and serves both
    # families' near chunks and far columns
    ladder = bogoliubov._column_ladder
    lengths = []

    def spy(N, cfg):
        lengths.append(len(N))
        return ladder(N, cfg)

    monkeypatch.setattr(bogoliubov, "_column_ladder", spy)
    kg.identity_residuals(cfg_half, 4000, 10)
    assert lengths == [4000]
    lengths.clear()
    kg.vacuum.vacuum_moments(range(1, 11), range(1, 11), cfg_half, 4000)
    assert lengths == [4000]


@st.composite
def _gram_requests(draw):
    """(cfg, a, b, n_max): each side 1-3 (family, rows) pairs drawn from a
    pool of 1-3 pairs, so the families may interleave and a pair may
    repeat, within a side and across the two; up to 3000 columns, so that
    many columns are far."""
    r = draw(_fractions)
    mu = draw(st.floats(0.0, 10.0))
    pool = draw(st.lists(st.tuples(st.sampled_from([L, RG]),
                                   st.lists(st.integers(1, 30), min_size=1, max_size=5)),
                         min_size=1, max_size=3))
    sides = [draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)) for _ in "ab"]
    return kg.validate_config(1.0, r, mu), *sides, draw(st.integers(1, 3000))


@settings(max_examples=40, deadline=None)
@given(request=_gram_requests())
@example(request=(kg.validate_config(1.0, 0.37, 3.0), [(L, [1, 2, 3]), (RG, [2]), (L, [1, 2, 3])],
                  [(RG, [2]), (L, [5, 1])], 3000))
def test_gram_matches_explicit_rows_on_mixed_stacks_property(request):
    # near chunks and far series on stacks that mix the families and name
    # a pair again (the explicit example: interleaved, repeated, 2892 far
    # columns), against _row_grams on coeff_grid rows stacked the same way:
    # every field within 1e-13 of its largest entry
    cfg, a, b, n_max = request
    cols = np.arange(1, n_max + 1)

    def stacked(side):
        grids = [kg.coeff_grid(region, rows, cols, cfg) for region, rows in side]
        return np.concatenate([P for P, _ in grids]), np.concatenate([Q for _, Q in grids])

    got = bogoliubov.gram(a, b, cfg, n_max)
    want = bogoliubov._row_grams(*stacked(a), *stacked(b))
    assert got.near + got.far == n_max
    for field in ("a_dots", "b_dots", "QP", "PQ", "QQ", "PP"):
        ref = getattr(want, field)
        assert np.max(np.abs(getattr(got, field) - ref)) <= 1e-13 * np.max(np.abs(ref)), field


@st.composite
def _one_side_requests(draw):
    """(cfg, side, n_max): 1-40 left rows and 0-40 right rows (no right
    pair at 0), r/R and mu R <= 50, and n_max <= 4000 drawn either at or
    below gram's split, every column near, or past it, some far."""
    cfg = kg.validate_config(1.0, draw(_fractions), draw(st.floats(0.0, 50.0)))
    left = draw(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    right = draw(st.lists(st.integers(1, 60), max_size=40))
    side = ((L, left),) + (((RG, right),) if right else ())
    # the first N with Omega_N >= F W (at R = 1) is gram's split
    W = max(region.omega(max(rows), cfg) for region, rows in side)
    split = int(np.searchsorted(kg.ladder(np.arange(1, 4001), 1.0, cfg.mu_tilde),
                                bogoliubov._FAR_FACTOR * W))
    if split < 4000 and draw(st.booleans()):
        return cfg, side, draw(st.integers(split + 1, 4000))
    return cfg, side, draw(st.integers(1, min(split, 4000)))


@settings(max_examples=40, deadline=None)
@given(request=_one_side_requests())
@example(request=(kg.validate_config(1.0, 0.5, 0.0), ((L, range(1, 11)), (RG, range(1, 11))), 4000))
@example(request=(kg.validate_config(1.0, 0.5, 0.0), ((L, range(1, 11)), (RG, range(1, 11))), 79))
def test_a_side_named_twice_is_one_stack_property(request):
    # gram(side, side) sums S S^T over one stack; the same pairs as two
    # sides sum S_a S_b^T. The dots are the same row reductions, bit for
    # bit; the Grams may round differently where BLAS takes syrk for S S^T
    # and gemm for S_a S_b^T: over 1000 random draws over these ranges the
    # worst was 17 ulps of the Gram's max|.| (204 draws bit-identical),
    # bounded here at 64, a margin of about 4.
    # With every column near, S S^T is exactly symmetric. The examples:
    # identity_residuals' 10 rows a family at n_max 4000, and at 79, where
    # every column is near
    cfg, side, n_max = request
    one = bogoliubov.gram(side, side, cfg, n_max)
    two = bogoliubov.gram(side, list(side), cfg, n_max)
    assert (one.near, one.far) == (two.near, two.far) and one.near + one.far == n_max
    for field in ("a_dots", "b_dots"):
        assert getattr(one, field).tobytes() == getattr(two, field).tobytes(), field
    for field in ("QP", "PQ", "QQ", "PP"):
        got, want = getattr(one, field), getattr(two, field)
        assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(np.abs(want)), field
    if one.far == 0:
        assert np.array_equal(one.PP, one.PP.T) and np.array_equal(one.QQ, one.QQ.T)
        assert np.array_equal(one.PQ, one.QP.T)


@settings(max_examples=40, deadline=None)
@given(r=_fractions, mu=st.floats(0.0, 20.0), right=st.booleans(), M=st.integers(1, 100),
       extra=st.integers(1, 5000))
@example(r=0.3, mu=2.0, right=False, M=100, extra=10_000 - 1334)   # n_max = 1e4
def test_gram_far_beta_series_is_the_summed_spectrum_series_property(r, mu, right, M, extra):
    # one far-field series: a beta row against itself under gram's metric
    # is beta_sq_total's series term for term, so summed over the rows the
    # beta^2 dots of one family against itself give the summed spectrum;
    # both kernels split at F max omega
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    rows = np.arange(1, M + 1)
    top = bogoliubov._FAR_FACTOR * region.omega(M, cfg)
    # the first N with Omega_N >= F omega_M (at R = 1), then some far columns
    n_max = math.ceil(math.sqrt(top * top - mu * mu) / math.pi) + extra
    g = bogoliubov.gram(((region, rows),), ((region, rows),), cfg, n_max)
    assert g.far > 0
    total = kg.beta_sq_total(region, rows, cfg, n_max)
    assert abs(math.fsum(g.a_dots[2]) - total) <= 1e-15 * total


def test_each_split_takes_the_smallest_order_meeting_the_bound(cfg_half, monkeypatch):
    # the far series drops its orders p >= T, sum_{p>=T} (p + 1) z^p of the
    # leading term at z = 1/F; the split keeps the fewest orders that leave
    # at most 2^-56 (summed here term by term, not by the closed form)
    def dropped(T, z):
        return math.fsum((p + 1) * z**p for p in range(T, T + 400))

    F, T = bogoliubov._FAR_FACTOR, bogoliubov._FAR_ORDER
    assert T == bogoliubov._series_order(F) == 31
    assert dropped(T, 1.0 / F) <= 2.0**-56 < dropped(T - 1, 1.0 / F)
    # gram's far part reads the T column moments of each family pair,
    # beta_sq_total's those of its one family
    moments = bogoliubov._column_moments
    calls = []

    def spy(Om, g, W, n_terms):
        calls.append((g.shape[:-1], n_terms))
        return moments(Om, g, W, n_terms)

    monkeypatch.setattr(bogoliubov, "_column_moments", spy)
    kg.identity_residuals(cfg_half, 4000, 10)
    kg.beta_sq_total(L, np.arange(1, 11), cfg_half, 4000)
    assert calls == [((3,), T), ((), T)]


def test_diagonal_identity_converges_to_one(blocks_half):
    # sum_N alpha_1N^2 - beta_1N^2 = 1 - O(n_max^-3)
    left, _ = blocks_half
    s = np.sum(left.alpha[0] ** 2) - np.sum(left.beta[0] ** 2)
    assert s == pytest.approx(1.0, abs=1e-9)


# ── block memo ───────────────────────────────────────────────────────────────

def test_memo_key_is_the_family_configuration_and_cutoff(monkeypatch):
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    trunc = kg.Truncation(n_max_global=100, m_max_local=2)
    cfg = kg.validate_config(1.0, 0.5, 3.0)
    block = kg.build_block(L, cfg, None, trunc)
    assert block.cfg_hash == "left|0.5|3|100"
    assert kg.build_block(L, cfg, None, trunc) is block
    # the key is dimensionless: a box rescaled by 2^k hits the same entry
    for k in (-7, -1, 1, 6):
        s = 2.0 ** k
        assert kg.build_block(L, kg.validate_config(s, s * 0.5, 3.0 / s), None, trunc) is block
    # another family, r, mu or n_max is another entry
    others = [
        kg.build_block(RG, cfg, None, trunc),
        kg.build_block(L, kg.validate_config(1.0, 0.3, 3.0), None, trunc),
        kg.build_block(L, kg.validate_config(1.0, 0.5, 2.0), None, trunc),
        kg.build_block(L, cfg, None, kg.Truncation(n_max_global=101, m_max_local=2)),
    ]
    assert all(other is not block for other in others)
    assert len({other.cfg_hash for other in others} | {block.cfg_hash}) == 5
    assert list(bogoliubov._BLOCK_MEMO.values()) == [block, *others]


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


def test_fewer_rows_return_the_held_block_and_more_rows_replace_the_entry(cfg_half, monkeypatch):
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())

    def trunc(rows):
        return kg.Truncation(n_max_global=100, m_max_local=rows)

    four = kg.build_block(L, cfg_half, None, trunc(4))
    two = kg.build_block(L, cfg_half, None, trunc(2))
    # the stored block itself, read-only, holding at least the rows asked for;
    # no new entry
    assert two is four
    assert two.alpha.shape == two.beta.shape == (4, 100)
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
    assert kg.build_block(L, cfg_half, None, trunc(2)) is six


def test_more_rows_compute_only_the_missing_rows(cfg_half, monkeypatch):
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    N_idx = np.arange(1, 101)
    four = kg.build_block(L, cfg_half, None, kg.Truncation(n_max_global=100, m_max_local=4))
    two = kg.build_block(L, cfg_half, None, kg.Truncation(n_max_global=100, m_max_local=2))
    assert two is four
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
    # blocks handed out before the extension still hold their rows
    assert four.alpha.tobytes() == alpha[:4].tobytes()
    assert two.beta[:2].tobytes() == beta[:2].tobytes()


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True), mu=st.floats(0.0, 50.0),
       right=st.booleans(), n_max=st.integers(1, 500),
       requests=st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_every_row_count_of_one_family_is_fresh_property(r, mu, right, n_max, requests):
    # one memo entry serves every row count of a family: whatever the order
    # of the requests, a block is never stale or short of rows, only the
    # missing rows are computed, and a shorter request gets the held block
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    N_idx = np.arange(1, n_max + 1)
    coeff_grid = bogoliubov.coeff_grid
    asked = []

    def spy(family, m_indices, *rest):
        asked.append(list(m_indices))
        return coeff_grid(family, m_indices, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
        mp.setattr(bogoliubov, "coeff_grid", spy)
        held, block = 0, None
        for rows in requests:
            asked.clear()
            before = block
            block = kg.build_block(region, cfg, None, kg.Truncation(n_max, rows))
            if rows <= held:
                assert block is before
                assert asked == []
            else:
                assert asked == [list(range(held + 1, rows + 1))]
                held = rows
            assert block.alpha.shape == block.beta.shape == (held, n_max)
            alpha, beta = coeff_grid(region, np.arange(1, rows + 1), N_idx, cfg)
            assert block.alpha[:rows].tobytes() == alpha.tobytes()
            assert block.beta[:rows].tobytes() == beta.tobytes()
            assert not (block.alpha.flags.writeable or block.beta.flags.writeable)
            assert len(bogoliubov._BLOCK_MEMO) == 1


def test_blocks_are_read_only(blocks_half):
    left, _ = blocks_half
    with pytest.raises(ValueError):
        left.alpha[0, 0] = 1.0
