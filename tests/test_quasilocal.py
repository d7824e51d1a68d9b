"""Quasi-local one-particle states a_l^dagger|0_G> (normalized).

Frozen regressions (R = 1 throughout):
  r=1/2, mu=0, l=1, n_max=1e4: 1 - norm_captured = 5.1e-13 (pure N-tail)
  r=1/9, mu=0, l=20:           peak at Omega_180 = 180 pi = omega_20 exactly,
                               bandwidth (0.95) = 46 pi = 144.513
  r=1/2, mu=0, m=1, steering:  shifts ~ [0.00995, 0.00798, 0.00633, ...],
                               positive and decreasing in l.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgcavity as kg

L = kg.Region.LEFT


# ── overlap distribution ─────────────────────────────────────────────────────

def test_overlap_distribution_normalization(cfg_half, trunc_10k):
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    assert np.all(dist.p >= 0)
    deficit = 1.0 - dist.norm_captured
    # the state is pure one-particle: the deficit is the (alpha^2 - beta^2)
    # tail, O(N^-4) here, strictly positive
    assert 0 < deficit < 1e-11
    assert dist.mean_occupation == pytest.approx(0.05396354991407163, rel=1e-12)


def test_overlap_mean_matches_spectrum(cfg_half, trunc_10k):
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    spec = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    assert dist.mean_occupation == pytest.approx(spec.values[0], rel=1e-14)


def test_overlap_peaks_at_matching_global_frequency():
    # r = R/9 puts omega_20 = 180 pi exactly on the global ladder
    cfg = kg.validate_config(1.0, 1.0 / 9.0, 0.0)
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=20)
    dist = kg.overlap_distribution(20, cfg, trunc)
    assert int(np.argmax(dist.p)) == 179          # N = 180
    assert dist.peak_Omega == pytest.approx(180.0 * np.pi, rel=1e-12)
    assert dist.peak_Omega == pytest.approx(dist.omega_l, rel=1e-12)
    assert dist.norm_captured > 1.0 - 1e-6


# ── bandwidth ────────────────────────────────────────────────────────────────

def test_bandwidth_frozen_value_and_r_trend():
    # Delta Omega is quantized in global-ladder steps, so the frozen values
    # are exact pi multiples; it narrows as the sub-cavity grows.
    trunc = kg.Truncation(n_max_global=5_000, m_max_local=20)
    got = []
    for r, expected in [(1.0 / 9.0, 46 * np.pi), (1.0 / 3.0, 16 * np.pi),
                        (2.0 / 3.0, 8 * np.pi)]:
        cfg = kg.validate_config(1.0, r, 0.0)
        bw = kg.bandwidth(kg.overlap_distribution(20, cfg, trunc))
        assert bw == pytest.approx(expected, rel=1e-9)
        got.append(bw)
    assert got[0] > got[1] > got[2]


def test_bandwidth_grows_with_threshold(cfg_half, trunc_10k):
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    bws = [kg.bandwidth(dist, threshold=th) for th in (0.5, 0.9, 0.99)]
    assert bws[0] <= bws[1] <= bws[2]
    assert bws[0] > 0


def test_bandwidth_plateau_in_l_and_mass():
    trunc = kg.Truncation(n_max_global=5_000, m_max_local=60)
    plateaus = {}
    for mu in (0.0, 10.0):
        cfg = kg.validate_config(1.0, 1.0 / 9.0, mu)
        plateaus[mu] = [kg.bandwidth(kg.overlap_distribution(l, cfg, trunc)) for l in (50, 60)]
        # massive dispersion bends the level spacing by ~6e-6 relative; a real
        # plateau step would be one whole 2 pi / R quantum (~5e-2 relative)
        assert plateaus[mu][0] == pytest.approx(plateaus[mu][1], rel=1e-4)
    # the high-l asymptote barely notices the mass
    assert plateaus[0.0][1] == pytest.approx(plateaus[10.0][1], rel=0.05)


def test_bandwidth_threshold_validation(cfg_half, trunc_10k):
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(kg.DomainError):
            kg.bandwidth(dist, threshold=bad)


def test_bandwidth_threshold_unreachable_reports_captured(cfg_half):
    trunc = kg.Truncation(n_max_global=300, m_max_local=1)
    with pytest.raises(kg.ThresholdUnreachable) as exc:
        kg.bandwidth(kg.overlap_distribution(1, cfg_half, trunc), threshold=1.0 - 1e-12)
    assert 0.9 < exc.value.captured < 1.0


# ── wavepacket vs true local mode ────────────────────────────────────────────

def test_wavepacket_tails_dwarf_series_residue():
    # psi_m has genuine exponential tails outside [0, r]; the truncated u_m
    # leaves only reconstruction residue there. Nine decades apart at 1e4.
    cfg = kg.validate_config(1.0, 0.21, 1.0 / 0.21)
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=8)
    block = kg.build_block(L, cfg, None, trunc)
    grid = kg.uniform_grid(cfg, 4097)
    comp = kg.wavepacket_comparison(1, grid, 0.0, cfg, trunc, block)
    assert comp.cone_edge == pytest.approx(0.21)
    assert comp.psi_outside_fraction == pytest.approx(0.0267101, rel=5e-2)
    assert comp.u_outside_fraction < 1e-9
    assert comp.psi_outside_fraction / comp.u_outside_fraction > 1e6
    assert comp.abs_diff.shape == grid.shape


@pytest.mark.parametrize("points", [1, 2])
def test_wavepacket_comparison_refuses_grids_without_interior_points(
        cfg_half, trunc_10k, blocks_half, monkeypatch, points):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the grid check")

    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_compute)
    grid = kg.uniform_grid(cfg_half, points)
    with pytest.raises(kg.GridMismatch):
        kg.wavepacket_comparison(1, grid, 0.1, cfg_half, trunc_10k, blocks_half[0])


@pytest.mark.parametrize("call", [
    lambda cfg, trunc: kg.overlap_distribution(0, cfg, trunc),
    lambda cfg, trunc: kg.quasilocal_wavepacket(0, kg.uniform_grid(cfg, 9), 0.0, cfg, trunc),
    lambda cfg, trunc: kg.quasilocal_energy(0, cfg, trunc, region=kg.Region.RIGHT),
    lambda cfg, trunc: kg.steering_shift(0, [1, 2], cfg, trunc),
    lambda cfg, trunc: kg.steering_shift(1, [0, 2], cfg, trunc),
], ids=["overlap_distribution", "quasilocal_wavepacket", "quasilocal_energy",
        "steering_shift-m", "steering_shift-l"])
def test_local_indices_below_one_are_refused_before_any_compute(cfg_half, monkeypatch, call):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the index check")

    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_compute)
    trunc = kg.Truncation(n_max_global=50, m_max_local=4)
    with pytest.raises(kg.DomainError):
        call(cfg_half, trunc)


def test_wavepacket_norm_and_shape(cfg_half, trunc_10k):
    grid = kg.uniform_grid(cfg_half, 1025)
    psi = kg.quasilocal_wavepacket(1, grid, 0.0, cfg_half, trunc_10k)
    assert psi.value[0] == 0.0 and psi.value[-1] == 0.0
    # KG norm of the normalized state is 1 (up to truncation + quadrature)
    norm = kg.kg_inner(psi, psi)
    assert norm.real == pytest.approx(1.0, abs=5e-3)
    assert abs(norm.imag) < 1e-9


# ── energies ─────────────────────────────────────────────────────────────────

def test_quasilocal_energy_positive_and_ordered(cfg_half, tables_half, trunc_10k):
    for l in (1, 2, 3):
        e = kg.quasilocal_energy(l, cfg_half, trunc_10k)
        assert e.raw > 0 and e.annihilator_raw > 0
        assert e.normalized > 0 and e.annihilator_normalized > 0
        assert e.normalized < e.raw          # squared norm 1 + <n_l> > 1
        assert e.tail_bound > 0
        # the creator state costs at least the local quantum's own frequency
        om_l = tables_half.omega[l - 1]
        assert e.normalized > om_l * 0.9


def test_local_quantum_energy_is_the_positive_sum_of_both_states(cfg_half, trunc_10k):
    # epsilon_l = sum Omega (alpha^2 + beta^2): the creator plus the
    # annihilator state's raw energy
    e = kg.quasilocal_energy(1, cfg_half, trunc_10k)
    assert e.epsilon == e.raw + e.annihilator_raw
    assert e.epsilon > 0
    assert e.tail_bound > 0


def test_local_quantum_energy_doubling_within_tail(cfg_half):
    t1 = kg.Truncation(n_max_global=2_000, m_max_local=1)
    t2 = kg.Truncation(n_max_global=4_000, m_max_local=1)
    e1 = kg.quasilocal_energy(1, cfg_half, t1)
    e2 = kg.quasilocal_energy(1, cfg_half, t2)
    assert abs(e2.epsilon - e1.epsilon) <= e1.tail_bound


# ── steering shift ───────────────────────────────────────────────────────────

def test_steering_two_routes_agree(cfg_half, trunc_10k):
    lr = range(1, 6)
    wick, direct = kg.steering_shift(1, lr, cfg_half, trunc_10k)
    rel = np.max(np.abs(wick - direct) / np.abs(wick))
    assert rel <= 1e-9   # measured 5.7e-11 at this cutoff, 5.9e-14 at 1e5
    assert np.all(wick > 0)
    assert np.all(np.diff(wick) < 0)
    assert wick[0] == pytest.approx(0.012503323459694, rel=1e-9)


def test_steering_matches_covariance_route(cfg_half, trunc_10k, blocks_half):
    left, right = blocks_half
    lr = range(1, 11)
    shifts = kg.steering_shift(1, lr, cfg_half, trunc_10k).wick
    rep = kg.wick_moments([1], lr, left, right)
    expected = rep.cov[0] / (1.0 + rep.mean_left[0])
    assert np.allclose(shifts, expected, rtol=1e-12)
    # equivalently: shift = corr * sqrt(var var_bar) / (1 + <n_m>) — the
    # stated positive proportionality, exact per l
    factor = np.sqrt(rep.var_left[0] * rep.var_right) / (1.0 + rep.mean_left[0])
    assert np.allclose(shifts, rep.corr[0] * factor, rtol=1e-12)
    assert np.all(factor > 0)
    # for the single-excitation row the far maxima coincide
    assert int(np.argmax(shifts)) == int(np.argmax(rep.corr[0]))


def test_steering_vanishes_for_local_vacuum_analogue(cfg_half, monkeypatch):
    # beta == 0 with orthogonal alpha rows: the product-state dictionary.
    # Both evaluation routes must return exactly zero, not merely small.
    def one_hot_grid(region, m_idx, N_idx, cfg, eps=None):
        a = np.zeros((len(m_idx), len(N_idx)))
        for i, m in enumerate(np.asarray(m_idx)):
            col = 2 * int(m) if region is kg.Region.LEFT else 2 * int(m) + 1
            a[i, col - 1] = 1.0
        return a, np.zeros_like(a)

    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", one_hot_grid)
    trunc = kg.Truncation(n_max_global=64, m_max_local=8)
    for shifts in kg.steering_shift(1, range(1, 6), cfg_half, trunc):
        assert np.all(shifts == 0.0)


# ── invariances ──────────────────────────────────────────────────────────────

_REGIONS = st.sampled_from([kg.Region.LEFT, kg.Region.RIGHT])
_R_FRACTION = st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)


@settings(deadline=None)
@given(r=_R_FRACTION, muR=st.floats(0.0, 50.0), n_max=st.integers(50, 2_000),
       l=st.integers(1, 30), k=st.integers(-8, 8), region=_REGIONS)
def test_quasilocal_quantities_are_invariant_under_R_to_2k_R(r, muR, n_max, l, k, region):
    # R -> 2^k R with mu -> mu / 2^k rescales every length by a power of two,
    # which floating point does exactly: the dimensionless p and steering
    # shifts keep their bits, and R times each energy keeps its bits. The
    # tail quadrature squares with float ** (libm pow), which is not exactly
    # scale-covariant: about 1 draw in 600 moves tail_bound by <= 3.5e-16.
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=30)
    s = 2.0 ** k
    base = kg.validate_config(1.0, r, muR)
    scaled = kg.validate_config(s, s * r, muR / s)

    p = kg.overlap_distribution(l, base, trunc, region=region).p
    p_s = kg.overlap_distribution(l, scaled, trunc, region=region).p
    assert np.array_equal(p, p_s)

    for got, want in zip(kg.steering_shift(l, range(1, l + 1), scaled, trunc),
                         kg.steering_shift(l, range(1, l + 1), base, trunc)):
        assert np.array_equal(got, want)

    e = kg.quasilocal_energy(l, base, trunc, region=region)
    e_s = kg.quasilocal_energy(l, scaled, trunc, region=region)
    for name in ("raw", "annihilator_raw", "normalized"):
        assert s * getattr(e_s, name) == getattr(e, name), name
    assert s * e_s.tail_bound == pytest.approx(e.tail_bound, rel=1e-15, abs=0.0)


@settings(deadline=None)
@given(r=_R_FRACTION, muR=st.floats(0.0, 50.0), n_max=st.integers(50, 2_000),
       l=st.integers(1, 30), region=_REGIONS)
def test_quasilocal_quantities_mirror_under_r_to_R_minus_r(r, muR, n_max, l, region):
    # x -> R - x swaps the sub-boxes and flips only signs of the global
    # modes, so one family at r sees what the other sees at R - r
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=30)
    other = kg.Region.RIGHT if region is kg.Region.LEFT else kg.Region.LEFT
    cfg = kg.validate_config(1.0, r, muR)
    mirror = kg.validate_config(1.0, 1.0 - r, muR)

    p = kg.overlap_distribution(l, cfg, trunc, region=region).p
    p_m = kg.overlap_distribution(l, mirror, trunc, region=other).p
    assert np.max(np.abs(p - p_m)) <= 1e-12 * np.max(p)

    e = kg.quasilocal_energy(l, cfg, trunc, region=region)
    e_m = kg.quasilocal_energy(l, mirror, trunc, region=other)
    for name in ("raw", "annihilator_raw", "normalized", "annihilator_normalized",
                 "tail_bound"):
        assert getattr(e_m, name) == pytest.approx(getattr(e, name), rel=1e-12), name
