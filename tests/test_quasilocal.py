"""Quasi-local one-particle states a_l^dagger|0_G> (normalized).

Frozen regressions (R = 1 throughout):
  r=1/2, mu=0, l=1, n_max=1e4: 1 - norm_captured = 5.1e-13 (pure N-tail)
  r=1/9, mu=0, l=20:           peak at Omega_180 = 180 pi = omega_20 exactly,
                               bandwidth (0.95) = 46 pi = 144.513
  r=1/2, mu=0, m=1, steering:  shifts ~ [0.00995, 0.00798, 0.00633, ...],
                               positive and decreasing in l.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgcavity as kg
from kgcavity import bogoliubov
from oracles import steering_rows

L = kg.Region.LEFT
_REGIONS = st.sampled_from([kg.Region.LEFT, kg.Region.RIGHT])
_R_FRACTION = st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)


# ── overlap distribution ─────────────────────────────────────────────────────

def test_overlap_distribution_normalization(cfg_half, trunc_10k):
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    assert np.all(dist.p >= 0)
    deficit = 1.0 - dist.norm_captured
    # the state is pure one-particle: the deficit is the (alpha^2 - beta^2)
    # tail, O(N^-4) here, strictly positive
    assert 0 < deficit < 1e-11
    assert dist.mean_occupation == pytest.approx(0.05396354991407163, rel=1e-12, abs=0)


def test_overlap_mean_matches_spectrum(cfg_half, trunc_10k):
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    spec = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    assert dist.mean_occupation == pytest.approx(spec.values[0], rel=1e-14, abs=0)


def test_overlap_peaks_at_matching_global_frequency():
    # r = R/9 puts omega_20 = 180 pi exactly on the global ladder
    cfg = kg.validate_config(1.0, 1.0 / 9.0, 0.0)
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=20)
    dist = kg.overlap_distribution(20, cfg, trunc)
    assert int(np.argmax(dist.p)) == 179          # N = 180
    assert dist.peak_Omega == pytest.approx(180.0 * np.pi, rel=1e-12, abs=0)
    assert dist.peak_Omega == pytest.approx(dist.omega_l, rel=1e-12, abs=0)
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
        assert bw == pytest.approx(expected, rel=1e-9, abs=0)
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
        assert plateaus[mu][0] == pytest.approx(plateaus[mu][1], rel=1e-4, abs=0)
    # the high-l asymptote barely notices the mass
    assert plateaus[0.0][1] == pytest.approx(plateaus[10.0][1], rel=0.05, abs=0)


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
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=8, grid_points=4097)
    comp = kg.wavepacket_comparison(kg.overlap_distribution(1, cfg, trunc), 0.0, cfg, trunc)
    assert comp.leak.cone[1] == pytest.approx(0.21)
    assert comp.psi_outside_fraction == pytest.approx(0.0267101, rel=5e-2, abs=0)
    assert comp.leak.fraction < 1e-9
    assert comp.psi_outside_fraction / comp.leak.fraction > 1e6
    assert comp.psi.grid is comp.leak.mode.grid
    assert comp.psi.grid.shape == (4097,)


def test_wavepacket_fractions_are_finite_in_a_tiny_box():
    # both out-of-cone fractions divide the time derivative by omega
    # before squaring, so they survive R = 1e-200 and keep their bits
    # under R -> 2^k R
    trunc = kg.Truncation(n_max_global=50, m_max_local=4, grid_points=9)

    def fractions(R):
        cfg = kg.validate_config(R, 0.5 * R, 0.0)
        comp = kg.wavepacket_comparison(kg.overlap_distribution(1, cfg, trunc), 0.1 * R, cfg, trunc)
        return comp.psi_outside_fraction, comp.leak.fraction

    tiny, base = fractions(1e-200), fractions(1.0)
    assert np.all(np.isfinite(tiny))
    assert tiny == pytest.approx(base, rel=1e-13, abs=0)
    assert fractions(2.0**-600) == base


def test_wavepacket_carries_its_own_tail_estimate(cfg_half):
    # psi and u share one series evaluator; psi keeps alpha's tail and drops
    # beta's, so its c / n_max envelope sits below u's
    trunc = kg.Truncation(n_max_global=1_000, m_max_local=4)
    grid = kg.uniform_grid(cfg_half, 257)
    psi = kg.quasilocal_wavepacket(kg.overlap_distribution(1, cfg_half, trunc), grid, 0.1,
                                   cfg_half, trunc)
    u = kg.evolve_local_mode(L, 1, grid, 0.1, cfg_half, trunc)
    assert np.isfinite(psi.tail_estimate)
    assert 0 < psi.tail_estimate < u.tail_estimate


@pytest.mark.parametrize("points", [1, 2])
def test_wavepacket_comparison_refuses_grids_without_interior_points(
        cfg_half, trunc_10k, monkeypatch, points):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the grid check")

    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_compute)
    monkeypatch.setattr("kgcavity.modes.build_block", no_compute)
    trunc = dataclasses.replace(trunc_10k, grid_points=points)
    with pytest.raises(kg.GridMismatch):
        kg.wavepacket_comparison(dist, 0.1, cfg_half, trunc)


def test_wavepacket_reads_the_distributions_row(cfg_half, monkeypatch):
    # psi is the held alpha row over sqrt(1 + the held <n>), to the bit of
    # the row coeff_grid gives, and no row is fetched again
    trunc = kg.Truncation(n_max_global=500, m_max_local=4)
    grid = kg.uniform_grid(cfg_half, 65)
    alpha, beta = kg.coeff_grid(L, [2], np.arange(1, 501), cfg_half)
    a_row = alpha[0] / np.sqrt(1.0 + float(np.sum(beta[0] ** 2)))
    want = kg.modes._row_series(a_row, np.zeros_like(a_row), grid, 0.2, cfg_half)
    dist = kg.overlap_distribution(2, cfg_half, trunc)

    def no_compute(*args, **kwargs):
        raise AssertionError("fetched a row the distribution holds")

    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_compute)
    psi = kg.quasilocal_wavepacket(dist, grid, 0.2, cfg_half, trunc)
    assert psi.value.tobytes() == want.value.tobytes()
    assert psi.tderiv.tobytes() == want.tderiv.tobytes()
    assert psi.tail_estimate == want.tail_estimate


@pytest.mark.parametrize("call", [
    lambda dist, trunc, cfg: kg.quasilocal_wavepacket(dist, kg.uniform_grid(cfg, 9), 0.1, cfg,
                                                      trunc),
    lambda dist, trunc, cfg: kg.wavepacket_comparison(dist, 0.1, cfg, trunc),
], ids=["quasilocal_wavepacket", "wavepacket_comparison"])
@pytest.mark.parametrize("n_max", [100, 300])
def test_wavepacket_refuses_a_row_of_another_truncation(cfg_half, monkeypatch, call, n_max):
    # psi and u are compared at equal truncation: a row of 200 columns
    # against n_max 100 or 300 is refused before psi's series is summed
    dist = kg.overlap_distribution(1, cfg_half, kg.Truncation(n_max_global=200, m_max_local=4))

    def no_compute(*args, **kwargs):
        raise AssertionError("summed psi before the row check")

    monkeypatch.setattr("kgcavity.quasilocal._row_series", no_compute)
    with pytest.raises(kg.GridMismatch, match="columns"):
        call(dist, kg.Truncation(n_max_global=n_max, m_max_local=4, grid_points=9), cfg_half)


# a wavepacket takes the distribution of its state, whose index
# overlap_distribution checks (the first case)
@pytest.mark.parametrize("call", [
    lambda cfg, trunc, dist: kg.overlap_distribution(0, cfg, trunc),
    lambda cfg, trunc, dist: kg.steering_shift(dist, [0, 2], cfg),
], ids=["overlap_distribution", "steering_shift-l"])
def test_local_indices_below_one_are_refused_before_any_compute(cfg_half, monkeypatch, call):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the index check")

    trunc = kg.Truncation(n_max_global=50, m_max_local=4)
    dist = kg.overlap_distribution(1, cfg_half, trunc)
    # the kernel's index check comes before its first computation
    monkeypatch.setattr("kgcavity.bogoliubov.ladder", no_compute)
    with pytest.raises(kg.DomainError):
        call(cfg_half, trunc, dist)


def test_wavepacket_norm_and_shape(cfg_half, trunc_10k):
    grid = kg.uniform_grid(cfg_half, 1025)
    psi = kg.quasilocal_wavepacket(kg.overlap_distribution(1, cfg_half, trunc_10k), grid, 0.0,
                                   cfg_half, trunc_10k)
    assert psi.value[0] == 0.0 and psi.value[-1] == 0.0
    # KG norm of the normalized state is 1 (up to truncation + quadrature)
    norm = kg.kg_inner(psi, psi)
    assert norm.real == pytest.approx(1.0, abs=5e-3)
    assert abs(norm.imag) < 1e-9


# ── energies ─────────────────────────────────────────────────────────────────

def test_quasilocal_energy_positive_and_ordered(cfg_half, tables_half, trunc_10k):
    for l in (1, 2, 3):
        e = kg.quasilocal_energy(kg.overlap_distribution(l, cfg_half, trunc_10k), cfg_half)
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
    e = kg.quasilocal_energy(kg.overlap_distribution(1, cfg_half, trunc_10k), cfg_half)
    assert e.epsilon == e.raw + e.annihilator_raw
    assert e.epsilon > 0
    assert e.tail_bound > 0


def test_local_quantum_energy_doubling_within_tail(cfg_half):
    t1 = kg.Truncation(n_max_global=2_000, m_max_local=1)
    t2 = kg.Truncation(n_max_global=4_000, m_max_local=1)
    e1 = kg.quasilocal_energy(kg.overlap_distribution(1, cfg_half, t1), cfg_half)
    e2 = kg.quasilocal_energy(kg.overlap_distribution(1, cfg_half, t2), cfg_half)
    assert abs(e2.epsilon - e1.epsilon) <= e1.tail_bound


# ── steering shift ───────────────────────────────────────────────────────────

def test_steering_two_routes_agree(cfg_half, trunc_10k):
    lr = range(1, 6)
    wick, direct = kg.steering_shift(kg.overlap_distribution(1, cfg_half, trunc_10k), lr, cfg_half)
    rel = np.max(np.abs(wick - direct) / np.abs(wick))
    assert rel <= 1e-9   # measured 5.7e-11 at this cutoff, 5.9e-14 at 1e5
    assert np.all(wick > 0)
    assert np.all(np.diff(wick) < 0)
    assert wick[0] == pytest.approx(0.012503323459694, rel=1e-9, abs=0)


def test_steering_matches_covariance_route(cfg_half, trunc_10k, blocks_half):
    left, right = blocks_half
    lr = range(1, 11)
    shifts = kg.steering_shift(kg.overlap_distribution(1, cfg_half, trunc_10k), lr, cfg_half).wick
    rep = kg.wick_moments([1], lr, left, right)
    expected = rep.cov[0] / (1.0 + rep.mean_left[0])
    assert np.allclose(shifts, expected, rtol=1e-12)
    # the same gram call as vacuum_moments' row 1 against lr, so its
    # covariance row over 1 + <n_1>, bit for bit
    rep_g = kg.vacuum_moments([1], lr, cfg_half, trunc_10k.n_max_global)
    assert np.array_equal(shifts, rep_g.cov[0] / (1.0 + rep_g.mean_left[0]))
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

    def one_hot_gram(a, b, cfg, n_max):
        # the Grams of the same one-hot rows, summed as gram sums rows
        N = np.arange(1, n_max + 1)
        (ra, ma), = a
        (rb, mb), = b
        return bogoliubov._row_grams(*one_hot_grid(ra, ma, N, cfg),
                                     *one_hot_grid(rb, mb, N, cfg))

    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", one_hot_grid)
    monkeypatch.setattr("kgcavity.quasilocal.gram", one_hot_gram)
    trunc = kg.Truncation(n_max_global=64, m_max_local=8)
    for shifts in kg.steering_shift(kg.overlap_distribution(1, cfg_half, trunc), range(1, 6),
                                    cfg_half):
        assert np.all(shifts == 0.0)


def test_steering_reads_one_gram_call_and_no_row(cfg_half, monkeypatch):
    dist = kg.overlap_distribution(2, cfg_half, kg.Truncation(n_max_global=3_000, m_max_local=4))
    calls = []

    def spy(*args):
        calls.append(args)
        return bogoliubov.gram(*args)

    def no_row(*args, **kwargs):
        raise AssertionError("steering read a coefficient row")

    monkeypatch.setattr("kgcavity.quasilocal.gram", spy)
    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_row)
    monkeypatch.setattr("kgcavity.bogoliubov.coeff_grid", no_row)
    kg.steering_shift(dist, range(1, 8), cfg_half)
    assert len(calls) == 1
    (a, b, cfg, n_max), = calls
    assert [(region, list(m)) for region, m in a] == [(L, [2])]
    assert [(region, list(m)) for region, m in b] == [(kg.Region.RIGHT, list(range(1, 8)))]
    assert cfg is cfg_half and n_max == 3_000


@settings(max_examples=50, deadline=None)
@given(r=_R_FRACTION, muR=st.floats(0.0, 50.0), n_max=st.integers(50, 2_000),
       m=st.integers(1, 30), region=_REGIONS,
       l_range=st.lists(st.integers(1, 40), min_size=1, max_size=12))
def test_steering_gram_route_matches_the_explicit_rows(r, muR, n_max, m, region, l_range):
    # one gram call against the far rows read in full and dotted with the
    # held row. wick adds two products; direct subtracts <n_bar_l> from a
    # term of its size, so its rounding scales with the larger of the shift
    # and <n_bar_l>. Worst of 2800 random draws: 1.6e-13 (wick) and 3.3e-15
    # (direct) of that scale
    cfg = kg.validate_config(1.0, r, muR)
    dist = kg.overlap_distribution(m, cfg, kg.Truncation(n_max_global=n_max, m_max_local=30),
                                   region=region)
    got = kg.steering_shift(dist, l_range, cfg)
    want = steering_rows(dist, l_range, cfg)
    scale = np.max(np.abs(want.wick))
    far_n = bogoliubov.beta_sq_sums(region.other, l_range, np.arange(1, n_max + 1), cfg)
    assert np.max(np.abs(got.wick - want.wick)) <= 1e-12 * scale
    assert np.max(np.abs(got.direct - want.direct)) <= 1e-12 * max(scale, np.max(far_n))


@pytest.mark.parametrize("r, muR, n_max, m, l_max, region", [
    (0.5, 0.0, 2_000, 1, 5, L),
    (0.5, 0.0, 10_000, 1, 5, L),
    (0.5, 0.0, 2_000, 3, 40, L),
    (0.3, 2.0, 10_000, 2, 12, L),
    (0.42, 1.0, 40_000, 1, 50, L),
    (0.7, 5.0, 4_000, 3, 8, kg.Region.RIGHT),
    (1.0 / np.pi, 10.0, 20_000, 2, 10, L),
])
def test_steering_route_gap_is_within_the_completeness_residual(r, muR, n_max, m, l_max,
                                                                 region):
    # the routes agree only through the completeness identities, so their
    # gap is bounded by those identities' residual on the same rows and
    # cutoff (measured: at most 0.019 of it)
    cfg = kg.validate_config(1.0, r, muR)
    dist = kg.overlap_distribution(m, cfg, kg.Truncation(n_max_global=n_max, m_max_local=m),
                                   region=region)
    shift = kg.steering_shift(dist, range(1, l_max + 1), cfg)
    residual = kg.identity_residuals(cfg, n_max, max(m, l_max)).max_residual
    assert 0 < np.max(np.abs(shift.wick - shift.direct)) <= residual


def test_steering_holds_column_chunks_not_far_rows():
    # 50 far rows at n_max 4e4: the explicit rows alone are 32 MB (measured
    # peak 36.5 MB through them); gram's chunks and tables peak at 7.0 MB
    cfg = kg.validate_config(1.0, 0.42, 1.0)
    dist = kg.overlap_distribution(1, cfg, kg.Truncation(n_max_global=40_000, m_max_local=1))
    tracemalloc.start()
    try:
        kg.steering_shift(dist, range(1, 51), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6

# ── invariances ──────────────────────────────────────────────────────────────


@settings(deadline=None)
@given(r=_R_FRACTION, muR=st.floats(0.0, 50.0), n_max=st.integers(50, 2_000),
       l=st.integers(1, 30), k=st.integers(-8, 8), region=_REGIONS)
def test_quasilocal_quantities_are_invariant_under_R_to_2k_R(r, muR, n_max, l, k, region):
    # R -> 2^k R with mu -> mu / 2^k rescales every length by a power of two,
    # which floating point does exactly: the dimensionless p and steering
    # shifts keep their bits, and R times each energy and its tail bound
    # keeps its bits (the tail integrand squares by products, not libm pow).
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=30)
    s = 2.0 ** k
    base = kg.validate_config(1.0, r, muR)
    scaled = kg.validate_config(s, s * r, muR / s)

    dist = kg.overlap_distribution(l, base, trunc, region=region)
    dist_s = kg.overlap_distribution(l, scaled, trunc, region=region)
    assert np.array_equal(dist.p, dist_s.p)

    for got, want in zip(kg.steering_shift(kg.overlap_distribution(l, scaled, trunc),
                                           range(1, l + 1), scaled),
                         kg.steering_shift(kg.overlap_distribution(l, base, trunc),
                                           range(1, l + 1), base)):
        assert np.array_equal(got, want)

    e = kg.quasilocal_energy(dist, base)
    e_s = kg.quasilocal_energy(dist_s, scaled)
    for name in ("raw", "annihilator_raw", "normalized", "tail_bound"):
        assert s * getattr(e_s, name) == getattr(e, name), name


@settings(deadline=None)
@given(r=_R_FRACTION, muR=st.floats(0.0, 50.0), n_max=st.integers(50, 2_000),
       l=st.integers(1, 30), region=_REGIONS)
# n_max on the energy tail's cutoff 2 omega_l R / pi = 180, which the
# mirror's widths move by an ulp on either side
@example(r=1.0 / 3.0, muR=0.0, n_max=180, l=30, region=kg.Region.LEFT)
def test_quasilocal_quantities_mirror_under_r_to_R_minus_r(r, muR, n_max, l, region):
    # x -> R - x swaps the sub-boxes and flips only signs of the global
    # modes, so one family at r sees what the other sees at R - r
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=30)
    other = kg.Region.RIGHT if region is kg.Region.LEFT else kg.Region.LEFT
    cfg = kg.validate_config(1.0, r, muR)
    mirror = kg.validate_config(1.0, 1.0 - r, muR)

    dist = kg.overlap_distribution(l, cfg, trunc, region=region)
    dist_m = kg.overlap_distribution(l, mirror, trunc, region=other)
    assert np.max(np.abs(dist.p - dist_m.p)) <= 1e-12 * np.max(dist.p)

    # the far rows follow the state's family to the other side. The wick
    # route adds two positive terms; the direct route subtracts <n_bar_l>
    # from a term of its size, so the ulps the mirror moves r by reach it
    # scaled by <n_bar_l>. Worst of 3000 random draws: 5.3e-13 of the
    # largest wick shift, 4.4e-15 of the largest <n_bar_l> (1.5e-12 of the
    # largest direct shift)
    shift = kg.steering_shift(dist, range(1, l + 1), cfg)
    shift_m = kg.steering_shift(dist_m, range(1, l + 1), mirror)
    far_n = kg.vacuum_spectrum(other, cfg, dataclasses.replace(trunc, m_max_local=l)).values
    assert np.max(np.abs(shift_m.wick - shift.wick)) <= 1e-12 * np.max(np.abs(shift.wick))
    assert np.max(np.abs(shift_m.direct - shift.direct)) <= 1e-12 * np.max(far_n)

    e = kg.quasilocal_energy(dist, cfg)
    e_m = kg.quasilocal_energy(dist_m, mirror)
    for name in ("raw", "annihilator_raw", "normalized", "annihilator_normalized",
                 "tail_bound"):
        assert getattr(e_m, name) == pytest.approx(getattr(e, name), rel=1e-12, abs=0), name


@settings(deadline=None)
@given(r=_R_FRACTION, muR=st.floats(0.0, 50.0), n_max=st.integers(50, 1_000),
       l=st.integers(1, 8), t=st.floats(0.0, 1.0))
def test_wavepacket_mirrors_under_r_to_R_minus_r(r, muR, n_max, l, t):
    # the right state l at r is the left state l at R - r seen through
    # x -> R - x: |psi| reverses on the grid, and the out-of-cone fraction
    # of psi, measured against its own family's cone, is the same
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=8, grid_points=65)
    cfg = kg.validate_config(1.0, r, muR)
    mirror = kg.validate_config(1.0, 1.0 - r, muR)
    right = kg.wavepacket_comparison(
        kg.overlap_distribution(l, cfg, trunc, region=kg.Region.RIGHT), t, cfg, trunc)
    left = kg.wavepacket_comparison(kg.overlap_distribution(l, mirror, trunc), t, mirror, trunc)
    abs_right, abs_left = np.abs(right.psi.value), np.abs(left.psi.value)[::-1]
    assert np.max(np.abs(abs_right - abs_left)) <= 1e-12 * np.max(abs_left)
    assert right.psi_outside_fraction == pytest.approx(left.psi_outside_fraction,
                                                       rel=1e-12, abs=0)
