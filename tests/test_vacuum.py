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
import decimal
import functools
import math
import pickle
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import kgcavity as kg
from kgcavity.vacuum import _coeff_sq_tail, _resonance_cutoff

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── spectrum ─────────────────────────────────────────────────────────────────

def test_spectrum_frozen_regression_value(cfg_half, trunc_10k):
    res = kg.vacuum_spectrum(L, cfg_half, trunc_10k)
    assert res.values[0] == pytest.approx(0.05396354991407163, rel=1e-12, abs=0)
    big = kg.Truncation(n_max_global=1_000_000, m_max_local=1)
    res_big = kg.vacuum_spectrum(L, cfg_half, big)
    assert res_big.values[0] == pytest.approx(0.053963550926912032, rel=1e-12, abs=0)
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
    # a block holds at least the rows asked for
    direct = np.sum(left.beta[:trunc_10k.m_max_local] ** 2, axis=1)
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
    (scan,) = kg.divergence_scan([1], cfg, M_list=[100, 1_000, 10_000, 100_000])
    assert np.all(np.diff(scan.partial_sums) > 0)  # growing without bound
    assert scan.fit_slope > 0
    assert scan.fit_r2 > 0.99


def test_divergence_scan_rejects_indices_below_one(cfg_half):
    for N, M_list in ((1, [0, 10]), (0, [10, 100]), (1, [])):
        with pytest.raises(kg.DomainError):
            kg.divergence_scan([N], cfg_half, M_list)
    for m, n_list in ((0, [100]), (1, [0, 100]), (1, [])):
        with pytest.raises(kg.DomainError):
            kg.mode_sum_convergence(L, m, cfg_half, n_list)


def test_divergence_scan_refuses_a_fit_through_one_point(cfg_half, monkeypatch):
    # a line through one M is no fit; refused before any sum is formed
    def refuse(*_args):
        raise AssertionError("summed before the request was refused")

    monkeypatch.setattr(kg.vacuum, "_rows", refuse)
    monkeypatch.setattr(kg.vacuum, "_beta_sq_sums", refuse)
    for M_list in ([100], [100, 100]):
        with pytest.raises(kg.DomainError, match="two distinct M"):
            kg.divergence_scan([1], cfg_half, M_list)
    # and a bad N anywhere in the list, ahead of the first chunk's sums
    for N_list in ([1, 2, 0], [1, 2.5]):
        with pytest.raises(kg.DomainError, match="integers >= 1"):
            kg.divergence_scan(N_list, cfg_half, [100, 1_000])


_C = kg.vacuum._SCAN_ROWS


@settings(max_examples=40, deadline=None)
@given(log_r=st.floats(-100.0, math.log10(0.999)),
       muR=st.one_of(st.just(0.0), st.floats(-10.0, 150.0).map(lambda e: 10.0**e)),
       N_list=st.lists(st.integers(1, 50), min_size=1, max_size=3),
       k=st.integers(1, 2), small=st.integers(1, _C - 2))
@example(log_r=-100.0, muR=0.0, N_list=[1, 7], k=1, small=1)
@example(log_r=math.log10(0.5), muR=1e150, N_list=[1, 2], k=2, small=100)
def test_divergence_scan_has_the_bits_of_one_cumsum(log_r, muR, N_list, k, small):
    # the chunked scan against one cumsum over all rows, at M one below, on
    # and one above a chunk edge
    cfg = kg.validate_config(1.0, 10.0**log_r, muR)
    M_list = [small, k * _C - 1, k * _C, k * _C + 1]
    m = np.arange(1, M_list[-1] + 1)
    scans = kg.divergence_scan(N_list, cfg, M_list)
    assert [scan.N for scan in scans] == N_list
    for N, scan in zip(N_list, scans):
        whole = np.cumsum(kg.beta_sq_sums(L, m, [N], cfg) + kg.beta_sq_sums(RG, m, [N], cfg))
        assert scan.partial_sums.tobytes() == whole[np.array(M_list) - 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.05, 0.95), muR=st.floats(0.0, 50.0), N=st.integers(1, 5))
@example(r=0.5, muR=0.0, N=1)
def test_last_interval_slope_approaches_the_exact_slope_like_one_over_M(r, muR, N):
    # for m >> N w the summand is (s_N / 2m)(1 - 2 Omega_N w / (pi m)) per
    # family, and the sum over M1 < m <= M2 lags s_N ln(M2/M1) by
    # (1/M1 - 1/M2)/2 against the log, so the interval's slope is off s_N by
    # -s_N (1/2 + R Omega_N / pi) (1/M1 - 1/M2) / ln(M2/M1) + O(1/M^2):
    # measured within 0.25 % of that over 200 random draws, bounded here
    # within 2 %. Since R Omega_N >= pi N, the error is below
    # 3/pi^2 (1/M1 - 1/M2) / ln(M2/M1)
    cfg = kg.validate_config(1.0, r, muR)
    M1, M2 = 3000, 10000
    (scan,) = kg.divergence_scan([N], cfg, [M1, M2])
    S1, S2 = scan.partial_sums
    s_N = scan.slope_exact
    assert s_N == pytest.approx(2.0 * math.sin(math.pi * N * r) ** 2
                                / (math.pi * kg.ladder(N, 1.0, muR)), rel=1e-10, abs=1e-15)
    lead = -s_N * (0.5 + kg.ladder(N, 1.0, muR) / math.pi) * (1 / M1 - 1 / M2) / math.log(M2 / M1)
    assert abs((S2 - S1) / math.log(M2 / M1) - s_N - lead) <= 0.02 * abs(lead)


@pytest.mark.parametrize("r, N", [(0.5, 2), (0.5, 4), (0.25, 4), (0.75, 8), (0.3, 10)])
def test_divergence_scan_on_a_node_is_exactly_zero(r, N):
    # sin(pi N r/R) = 0 makes U_N a local mode of each side: no beta, no slope
    (scan,) = kg.divergence_scan([N], kg.validate_config(1.0, r, 3.0), [10, 1000])
    assert np.all(scan.partial_sums == 0.0)
    assert scan.slope_exact == 0.0


def test_divergence_scan_memory_does_not_grow_with_M(cfg_half):
    # a full-length summand table alone is 8 MB per family at M = 1e6
    tracemalloc.start()
    try:
        kg.divergence_scan([1, 2, 3], cfg_half, [100, 10**6])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_tails_match_direct_quadrature(cfg_half):
    # the one tail integrand, pref / (Om (Om +- om)^2), against quad on
    # [n_from, inf). alpha's is a bound only from 2 om R / pi = 12 on, past
    # its resonance pole at N = 6: below that it would skip the peak (at
    # n_from = 8 it read 0.00518 against a true remainder of 0.0245), so it
    # is inf there
    m, w = 3, 0.5
    om = math.sqrt((math.pi * m / w) ** 2)
    pref = m**2 * math.pi**2 / (2.0 * w**3 * om)
    below = kg.mode_sum_convergence(L, m, cfg_half, n_list=[8])
    past = kg.mode_sum_convergence(L, m, cfg_half, n_list=[12])
    assert below.alpha2_tail == math.inf
    for got, sign, start in ((below.beta2_tail, 1.0, 8), (past.beta2_tail, 1.0, 12),
                             (past.alpha2_tail, -1.0, 12)):
        want, _ = integrate.quad(lambda N: pref / (math.pi * N * (math.pi * N + sign * om) ** 2),
                                 start, math.inf)
        assert got == pytest.approx(want, rel=1e-8, abs=0)
    spec = kg.vacuum_spectrum(L, cfg_half, kg.Truncation(n_max_global=8, m_max_local=m))
    assert spec.tail_bound[m - 1] == pytest.approx(below.beta2_tail, rel=1e-14, abs=0)


_REGIONS = st.sampled_from([L, RG])
_SIGNS = st.sampled_from([1.0, -1.0])


@settings(deadline=None)
@given(r=st.floats(0.02, 0.98), region=_REGIONS, l=st.integers(1, 80),
       n_from=st.integers(1, 10**7), sign=_SIGNS, energy=st.booleans())
# l^2 past the int64 range
@example(r=0.5, region=L, l=4_000_000_000, n_from=10**7, sign=1.0, energy=False)
def test_tails_match_the_massless_closed_form(r, region, l, n_from, sign, energy):
    # at mu = 0 and R = 1 (k = pi N, om = pi l / w) the tails are elementary:
    #   pref/pi int_k0^inf dk / (k (k + s om)^2)
    #     = pref / (pi om^2) [log(1 + s om / k0) - s om / (k0 + s om)],
    #   pref/pi int_k0^inf dk / (k + s om)^2 = pref / (pi (k0 + s om)),
    # the second with the energy weight; evaluated in 60-digit decimals
    # with pi the double math.pi, which the tails use
    cfg = kg.validate_config(1.0, r, 0.0)
    if sign < 0:
        n_from = max(n_from, _resonance_cutoff(region, l, cfg))
    got = _coeff_sq_tail(region, l, cfg, n_from, sign, energy)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        pi, w, s = Decimal(math.pi), Decimal(region.interval(cfg)[2]), Decimal(int(sign))
        om = pi * l / w
        k0 = pi * n_from
        pref = l * l * pi * pi / (2 * w * w * w * om)
        if energy:
            want = pref / (pi * (k0 + s * om))
        else:
            want = pref / (pi * om * om) * ((1 + s * om / k0).ln() - s * om / (k0 + s * om))
    assert abs(got - float(want)) <= 1e-13 * float(want)


# 30-digit references of <n_1>'s tail at r = R/2, rounded to 16 digits:
#   python -c "import mpmath as mp; mp.mp.dps = 30
#   def tail(mu, n, w=0.5, l=1):
#       om = mp.sqrt((mp.pi * l / w) ** 2 + mu ** 2)
#       Om = lambda N: mp.sqrt((mp.pi * N) ** 2 + mu ** 2)
#       f = lambda N: l**2 * mp.pi**2 / (2 * w**3 * om) / (Om(N) * (Om(N) + om) ** 2)
#       return mp.quad(f, [n, mu / mp.pi, om / mp.pi, mp.inf])
#   print([mp.nstr(tail(mu, n), 16) for mu, n in ((10**4, 10), (10**4, 200), (10**5, 10))])"
# scipy's adaptive quad on the tail mapped onto (0, 1] read 4.269968e-12,
# 3.991651e-12 and 2.528075e-15 for these, and raised no error
@pytest.mark.parametrize("muR, n_max, want", [
    (1e4, 10, 4.178919148450410e-12),
    (1e4, 200, 3.991655888532380e-12),
    (1e5, 10, 4.187803229499635e-15),
])
def test_heavy_mass_tails_match_30_digit_references(muR, n_max, want):
    # row 1 alone, and among 400 rows whose omega_l R / pi passes n_max from
    # l = 5 on (mu R = 1e4) or l = 28 on (1e5), so that each has panels of its own
    cfg = kg.validate_config(1.0, 0.5, muR)
    for rows in (1, 400):
        trunc = kg.Truncation(n_max_global=n_max, m_max_local=rows)
        got = kg.vacuum_spectrum(L, cfg, trunc).tail_bound[0]
        assert abs(got - want) <= 1e-13 * want


_ROWS = st.lists(st.integers(1, 3000), min_size=1, max_size=40)


@settings(deadline=None)
@given(r=st.floats(0.02, 0.98), muR=st.floats(0.0, 1e6), region=_REGIONS,
       l=st.integers(1, 80), rows=_ROWS, n_from=st.integers(1, 10**6), k=st.integers(-8, 8),
       sign=_SIGNS, energy=st.booleans())
def test_tails_are_exactly_covariant_under_R_to_2k_R(r, muR, region, l, rows, n_from, k, sign,
                                                     energy):
    # R -> 2^k R with mu -> mu / 2^k: the rule's cuts mu R / pi and
    # omega_l R / pi keep their bits and the integrand scales by a power of
    # two, so the tail keeps its bits (times R with the energy weight), one
    # row or many
    s = 2.0 ** k
    base = kg.validate_config(1.0, r, muR)
    scaled = kg.validate_config(s, s * r, muR / s)
    for ls in (l, np.array(rows)):
        want = _coeff_sq_tail(region, ls, base, n_from, sign, energy)
        got = _coeff_sq_tail(region, ls, scaled, n_from, sign, energy)
        assert np.array(s * got if energy else got).tobytes() == np.array(want).tobytes()


@settings(deadline=None)
@given(r=st.floats(0.02, 0.98), muR=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
       region=_REGIONS, l=st.integers(1, 3000), others=_ROWS, at=st.integers(0, 40),
       n_from=st.integers(1, 10**5), sign=_SIGNS, energy=st.booleans())
# rows whose omega_l R / pi lies above n_from have panels of their own
@example(r=0.5, muR=0.0, l=1, others=[3000, 2, 700], at=1, region=L, n_from=10, sign=1.0,
         energy=False)
@example(r=0.3, muR=4e4, l=40, others=[1, 2000], at=2, region=RG, n_from=10**4, sign=-1.0,
         energy=True)
def test_a_rows_tail_has_the_same_bits_alone_and_among_others(r, muR, region, l, others, at,
                                                             n_from, sign, energy):
    # a row's nodes and weights depend on n_from and its own scales only,
    # and its panel sums are added in one order whatever other rows share
    # the call; an inf (an alpha tail below the resonance cutoff) stays inf
    cfg = kg.validate_config(1.0, r, muR)
    rows = np.array(others[:at] + [l] + others[at:])
    alone = _coeff_sq_tail(region, l, cfg, n_from, sign, energy)
    among = _coeff_sq_tail(region, rows, cfg, n_from, sign, energy)
    assert type(alone) is float and among.shape == rows.shape
    assert np.array([alone]).tobytes() == among[rows == l][:1].tobytes()
    assert _coeff_sq_tail(region, rows[:0], cfg, n_from, sign, energy).shape == (0,)


def test_one_tail_quadrature_per_spectrum_and_scan_value(tmp_path, monkeypatch):
    # every row of a request shares one _tail_quad call: one per mass of
    # `spectrum --mu-list`, and one per limit scan, holding per value the
    # left probe rows and rows 1..M_fixed and the right rows 1..M_fixed
    from kgcavity.cli import main

    calls = []
    quad = kg.vacuum._tail_quad

    def spy(f, start, scales):
        calls.append(len(scales))
        return quad(f, start, scales)

    monkeypatch.setattr(kg.vacuum, "_tail_quad", spy)
    assert main(["spectrum", "--nmax", "200", "--lmax", "20", "--mu-list", "0,5,10",
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert calls == [20, 20, 20]
    calls.clear()
    kg.limit_scan("mass", [0.5, 2.0, 8.0], [(1, 1), (2, 3)], kg.validate_config(1.0, 0.4, 0.0),
                  kg.Truncation(n_max_global=500), M_fixed=30)
    assert calls == [3 * (2 + 30 + 30)]


_FRACTIONS = st.floats(0.01, 0.99)
_MASSES = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.just(1000.0))


@settings(max_examples=60, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_FRACTIONS, mu=_MASSES, n_max=st.integers(1, 2000),
       m_max=st.integers(1, 30))
def test_spectrum_left_right_mirror_property(R, r, mu, n_max, m_max):
    # the right family at R - r is the left family at r up to the signs
    # (-1)^(N+m), which the squares drop; R - (R - r) moves r by ulps. The
    # worst of 6000 random draws over these ranges was 3.4e-14 of <n_l> and
    # 2.7e-14 of its tail bound: the bound 1e-13 leaves a margin of about 3
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=m_max)
    left = kg.vacuum_spectrum(L, kg.validate_config(R, r * R, mu), trunc)
    right = kg.vacuum_spectrum(RG, kg.validate_config(R, R - r * R, mu), trunc)
    assert np.all(np.abs(right.values - left.values) <= 1e-13 * left.values)
    assert np.all(np.abs(right.tail_bound - left.tail_bound) <= 1e-13 * left.tail_bound)


@settings(max_examples=60, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_FRACTIONS, mu=_MASSES, k=st.integers(-8, 8),
       n_max=st.integers(1, 2000), m_max=st.integers(1, 30))
# a mass whose square pow() rounds off by one ulp at mu / 32
@example(R=3.9418435527046074, r=0.6012882912805753, mu=18.194643438444384, k=5,
         n_max=1231, m_max=22)
def test_spectrum_is_bit_identical_under_R_to_2k_R(R, r, mu, k, n_max, m_max):
    # R -> 2^k R, r -> 2^k r, mu -> mu / 2^k scales every width and
    # frequency by a power of two, exactly, so the sums and tails keep
    # their bits
    s = 2.0**k
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=m_max)
    base = kg.validate_config(R, r * R, mu)
    scaled = kg.validate_config(s * R, s * (r * R), mu / s)
    for region in (L, RG):
        want, got = (kg.vacuum_spectrum(region, cfg, trunc) for cfg in (base, scaled))
        assert got.values.tobytes() == want.values.tobytes()
        assert got.tail_bound.tobytes() == want.tail_bound.tobytes()


def _scaled_pair(R, r, mu, k):
    """The configuration (R, r R, mu) and its image under R -> 2^k R,
    r -> 2^k r, mu -> mu / 2^k, which scales every width and frequency by
    a power of two, exactly."""
    s = 2.0**k
    return kg.validate_config(R, r * R, mu), kg.validate_config(s * R, s * (r * R), mu / s)


@settings(max_examples=40, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_FRACTIONS, mu=_MASSES, k=st.integers(-8, 8),
       n_max=st.integers(1, 1500), rows=st.integers(1, 8),
       N_list=st.lists(st.integers(1, 40), min_size=1, max_size=3),
       M_list=st.lists(st.integers(1, 3000), min_size=2, max_size=4, unique=True))
def test_moments_residuals_and_divergence_are_bit_identical_under_R_to_2k_R(
        R, r, mu, k, n_max, rows, N_list, M_list):
    # each is a function of r/R and mu R alone, computed at R = 1; the
    # divergence scans with their exact slopes s_N
    want, got = ((kg.vacuum_moments(range(1, rows + 1), range(1, rows + 2), cfg, n_max),
                  kg.identity_residuals(cfg, n_max, rows),
                  kg.divergence_scan(N_list, cfg, M_list))
                 for cfg in _scaled_pair(R, r, mu, k))
    assert pickle.dumps(got) == pickle.dumps(want)


@settings(max_examples=30, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_FRACTIONS, mu=_MASSES, k=st.integers(-8, 8),
       n_max=st.integers(1, 1500), M_fixed=st.integers(1, 60), m=st.integers(1, 30),
       n_list=st.lists(st.integers(1, 1500), min_size=1, max_size=3),
       masses=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3),
       widths=st.lists(_FRACTIONS, min_size=1, max_size=3))
def test_limit_scans_and_mode_sums_are_bit_identical_under_R_to_2k_R(
        R, r, mu, k, n_max, M_fixed, m, n_list, masses, widths):
    # a scan value is mu R or r/R, so both boxes scan the same reduced
    # configurations
    trunc = kg.Truncation(n_max_global=n_max)
    probes = [(1, 1), (m, 2), (2, m)]
    want, got = ((kg.limit_scan("mass", masses, probes, cfg, trunc, M_fixed=M_fixed),
                  kg.limit_scan("partition-size", widths, probes, cfg, trunc, M_fixed=M_fixed),
                  kg.mode_sum_convergence(L, m, cfg, n_list),
                  kg.mode_sum_convergence(RG, m, cfg, n_list))
                 for cfg in _scaled_pair(R, r, mu, k))
    assert pickle.dumps(got) == pickle.dumps(want)


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
    assert rep.var_left[0] == pytest.approx(A * B + C * C, rel=1e-14, abs=0)
    assert rep.mean_left[0] == pytest.approx(B, rel=1e-14, abs=0)


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


def test_correlations_survive_large_mass():
    # each variance is of order (mu R)^-4, so the product of a left and a
    # right one underflows from mu R ~ 1e42; the correlation's standard
    # deviations square nothing, so it keeps its 1e30 value until the beta
    # dots leave the normal range (mu R ~ 1e78), and from there reads 0, as
    # the underflowed moments do
    trunc = kg.Truncation(n_max_global=200, m_max_local=3)

    def moments(muR):
        cfg = kg.validate_config(1.0, 0.5, muR)
        return kg.wick_moments(range(1, 4), range(1, 4), kg.build_block(L, cfg, None, trunc),
                               kg.build_block(RG, cfg, None, trunc))

    near = moments(1e30)
    assert np.all(near.corr != 0.0)
    for muR in (1e60, 1e75):
        np.testing.assert_allclose(moments(muR).corr, near.corr, rtol=1e-6, atol=0)
    far = moments(1e100)
    for zero in (far.corr, far.mean_left, far.var_left, far.var_right, far.cov):
        assert np.all(zero == 0.0)


def test_correlation_needs_normal_row_dots():
    # two pairs of correlation 1: in the first the right variance is
    # subnormal but every dot is normal, so corr is 1; in the second the
    # right beta dot underflows to 0, its digits are gone, and corr reads 0
    left = kg.BogoliubovBlock(L, np.array([[1.0, 1.0], [1.0, 1.0]]),
                              np.array([[1.0, 0.0], [1.0, 1.0]]), "rows")
    right = kg.BogoliubovBlock(RG, np.array([[5.03697256e-105, 5.03697256e-105], [1.0, 1.0]]),
                               np.array([[3.63016198e-55, 0.0], [4.40549769e-182, 4.40549769e-182]]),
                               "rows")
    corr = kg.wick_moments([1, 2], [1, 2], left, right).corr
    assert corr[0, 0] == pytest.approx(1.0, rel=1e-12, abs=0)
    assert corr[1, 1] == 0.0


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


_FSUM_CASES = pytest.mark.parametrize("r, mu, m_max, m_range, n_range, bound", [
    (0.5, 0.0, 60, range(1, 6), range(1, 9), 1e-13),
    (0.5, 0.0, 60, [4, 1, 3], [7, 2, 2, 5], 1e-13),      # rows copied, not sliced
    (0.21, 4.7619, 8, range(1, 6), range(1, 9), 1e-13),
    # criterion 8's heavily cancelling regime: the per-pair loop this
    # replaced was 1.9e-12 off the reference there, the Gram form 8.8e-13
    (1 / np.pi, 1000.0, 40, range(1, 11), range(1, 41), 5e-12),
], ids=["half", "half-scattered-rows", "narrow", "criterion8-mu1000"])


@functools.cache
def _fsum_reference(r, mu, m_max, m_range: tuple, n_range: tuple):
    """``_fsum_moments`` on the rows of one fsum case, computed once for
    both entries."""
    cfg = kg.validate_config(1.0, r, mu)
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=m_max)
    left = kg.build_block(L, cfg, None, trunc)
    right = kg.build_block(RG, cfg, None, trunc)
    return _fsum_moments(left, right, m_range, n_range)


def _assert_fsum_moments(rep, case, bound):
    (mean_l, var_l), (mean_r, var_r), cov = _fsum_reference(*case)
    for got, want in ((rep.mean_left, mean_l), (rep.var_left, var_l),
                      (rep.mean_right, mean_r), (rep.var_right, var_r), (rep.cov, cov)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


@_FSUM_CASES
def test_wick_moments_match_fsum_reference(r, mu, m_max, m_range, n_range, bound):
    cfg = kg.validate_config(1.0, r, mu)
    trunc = kg.Truncation(n_max_global=10_000, m_max_local=m_max)
    left = kg.build_block(L, cfg, None, trunc)
    right = kg.build_block(RG, cfg, None, trunc)
    rep = kg.wick_moments(m_range, n_range, left, right)
    _assert_fsum_moments(rep, (r, mu, m_max, tuple(m_range), tuple(n_range)), bound)


@_FSUM_CASES
def test_vacuum_moments_match_fsum_reference(r, mu, m_max, m_range, n_range, bound):
    # the far columns summed by the Hankel series meet the bounds the
    # explicit rows meet; every case has far columns
    rep = kg.vacuum_moments(m_range, n_range, kg.validate_config(1.0, r, mu), 10_000)
    assert rep.far_columns > 0
    _assert_fsum_moments(rep, (r, mu, m_max, tuple(m_range), tuple(n_range)), bound)


def test_wick_moments_rows_independent_of_the_request(blocks_half):
    # n_max = 10^4 lies above numpy's 8192-element reduction buffer, where
    # a reduction shared by the rows makes a row's sum depend on its
    # neighbours; each row's moments must have the same bits in any request
    left, right = blocks_half
    alone = kg.wick_moments([1], [2], left, right)
    for m_range, n_range in (((1, 2, 3), (1, 2)), ((3, 1), (2, 5, 4))):
        rep = kg.wick_moments(m_range, n_range, left, right)
        i, j = m_range.index(1), n_range.index(2)
        assert rep.mean_left[i] == alone.mean_left[0]
        assert rep.var_left[i] == alone.var_left[0]
        assert rep.mean_right[j] == alone.mean_right[0]
        assert rep.var_right[j] == alone.var_right[0]


def test_wick_moments_rejects_out_of_range_rows(blocks_half):
    left, right = blocks_half
    with pytest.raises(kg.DomainError):
        kg.wick_moments([0], [1], left, right)
    with pytest.raises(kg.DomainError):
        kg.wick_moments([1], [10_000], left, right)


def test_vacuum_moments_refuses_bad_requests(cfg_half):
    # the kernel refuses a row index below 1 or not an integer, and a
    # global cutoff below 1, before any sum
    for m_range, n_range, n_max in (([0], [1], 100), ([1], [1.5], 100), ([1], [1], 0)):
        with pytest.raises(kg.DomainError):
            kg.vacuum_moments(m_range, n_range, cfg_half, n_max)


@settings(max_examples=40, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_FRACTIONS, mu=_MASSES, n_max=st.integers(1, 2000),
       m_rows=st.integers(1, 12), n_rows=st.integers(1, 12))
def test_wick_moments_left_right_mirror_property(R, r, mu, n_max, m_rows, n_rows):
    # swapping the families with r -> R - r transposes cov and corr: each
    # cross Gram picks up (-1)^(m+n) from the mirror signs, and every cov
    # term is a product of two of them. cov is held to sqrt(var_m var_n),
    # the Cauchy-Schwarz scale of |cov| (at mu R = 1000, cov itself cancels
    # to 1e-15 of it). The worst of 6000 random draws over these ranges was
    # 2.1e-14 of that scale for cov and 1.9e-15 for corr: the bounds 1e-13
    # and 1e-14 leave a margin of about 5
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=max(m_rows, n_rows))
    cfg = kg.validate_config(R, r * R, mu)
    mirror = kg.validate_config(R, R - r * R, mu)
    rep = kg.wick_moments(range(1, m_rows + 1), range(1, n_rows + 1),
                          kg.build_block(L, cfg, None, trunc), kg.build_block(RG, cfg, None, trunc))
    swapped = kg.wick_moments(range(1, n_rows + 1), range(1, m_rows + 1),
                              kg.build_block(L, mirror, None, trunc),
                              kg.build_block(RG, mirror, None, trunc))
    scale = np.sqrt(np.outer(rep.var_left, rep.var_right))
    assert np.all(np.abs(swapped.cov.T - rep.cov) <= 1e-13 * scale)
    assert np.all(np.abs(swapped.corr.T - rep.corr) <= 1e-14)


_MOMENTS = ("mean_left", "var_left", "mean_right", "var_right", "cov", "corr")


def _assert_moments_close(got, want, bound):
    """Means and variances within ``bound`` of their largest value, cov
    within ``bound`` of its Cauchy-Schwarz scale sqrt(var_m var_n) (at
    mu R = 1000 cov itself cancels to 1e-15 of it), corr within ``bound``."""
    for field in ("mean_left", "var_left", "mean_right", "var_right"):
        ref = getattr(want, field)
        assert np.max(np.abs(getattr(got, field) - ref), initial=0.0) <= \
            bound * np.max(np.abs(ref), initial=0.0)
    scale = np.sqrt(np.outer(want.var_left, want.var_right))
    assert np.all(np.abs(got.cov - want.cov) <= bound * scale)
    assert np.all(np.abs(got.corr - want.corr) <= bound)


@st.composite
def _moment_requests(draw):
    """(kind, cfg, m_rows, n_rows, n_max): "near" has no far column; "split"
    (r = R/2, mu = 0) has a column exactly at Omega_N = 8 W, N = 16 M with M
    the larger row count; "half" puts r at R/2, where the left and right
    frequencies coincide; "single" has one left row."""
    kind = draw(st.sampled_from(["general", "near", "split", "half", "single"]))
    R = draw(st.floats(0.5, 4.0))
    r = 0.5 if kind in ("split", "half") else draw(_FRACTIONS)
    mu = 0.0 if kind == "split" else draw(_MASSES)
    m_rows = 1 if kind == "single" else draw(st.integers(1, 40))
    n_rows = draw(st.integers(1, 40))
    n_max = draw(st.integers(1, 3000))
    if kind == "near":
        # Omega_N < 8 omega_M for every N <= 7.9 M / w
        n_max = max(1, min(n_max, int(7.9 * m_rows / r)))
    if kind == "split":
        n_max = max(n_max, 16 * max(m_rows, n_rows))
    return kind, kg.validate_config(R, r * R, mu), m_rows, n_rows, n_max


@settings(max_examples=60, deadline=None)
@given(request=_moment_requests())
def test_vacuum_moments_match_the_explicit_rows_property(request):
    # the Hankel series over the far columns against wick_moments on full
    # build_block rows. Worst of 3000 random draws over these ranges: 1.7e-15
    # for means and variances, 2.3e-15 for cov (of sqrt(var_m var_n)) and
    # corr; the bound 1e-14 leaves a margin of 4
    kind, cfg, m_rows, n_rows, n_max = request
    rows_m, rows_n = range(1, m_rows + 1), range(1, n_rows + 1)
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=max(m_rows, n_rows))
    want = kg.wick_moments(rows_m, rows_n, kg.build_block(L, cfg, None, trunc),
                           kg.build_block(RG, cfg, None, trunc))
    got = kg.vacuum_moments(rows_m, rows_n, cfg, n_max)
    assert got.near_columns + got.far_columns == n_max
    if kind == "near":
        assert got.far_columns == 0
    if kind == "split":
        W = float(kg.config.ladder(max(m_rows, n_rows), 0.5, 0.0))
        assert kg.config.ladder(got.near_columns + 1, 1.0, 0.0) == 8.0 * W
    if got.far_columns == 0:
        for field in _MOMENTS:
            assert np.array_equal(getattr(got, field), getattr(want, field))
    else:
        _assert_moments_close(got, want, 1e-14)


@settings(max_examples=40, deadline=None)
@given(R=st.floats(0.5, 4.0), r=_FRACTIONS, mu=_MASSES, n_max=st.integers(1, 2000),
       m_rows=st.integers(1, 12), n_rows=st.integers(1, 12))
def test_vacuum_moments_left_right_mirror_property(R, r, mu, n_max, m_rows, n_rows):
    # the mirror property of wick_moments, on the factored entry: the split
    # and the series see the same frequencies after the swap. Worst of 6000
    # random draws over these ranges: 5.2e-15 for cov and 1.8e-15 for corr,
    # inside the bounds of the explicit rows' property (margins 19 and 5)
    cfg = kg.validate_config(R, r * R, mu)
    mirror = kg.validate_config(R, R - r * R, mu)
    rep = kg.vacuum_moments(range(1, m_rows + 1), range(1, n_rows + 1), cfg, n_max)
    swapped = kg.vacuum_moments(range(1, n_rows + 1), range(1, m_rows + 1), mirror, n_max)
    scale = np.sqrt(np.outer(rep.var_left, rep.var_right))
    assert np.all(np.abs(swapped.cov.T - rep.cov) <= 1e-13 * scale)
    assert np.all(np.abs(swapped.corr.T - rep.corr) <= 1e-14)


def test_vacuum_moments_survive_large_mass_with_the_block_bits():
    # at r = R/2 and n_max = 200 every Omega_N lies below 8 omega_1 from
    # mu R ~ 79 on, so the large-mass moments have no far column and keep
    # the block path's bits, up to the mu R ~ 1e77 of README and beyond
    trunc = kg.Truncation(n_max_global=200, m_max_local=3)
    for muR in (1e30, 1e60, 1e75, 1e100):
        cfg = kg.validate_config(1.0, 0.5, muR)
        want = kg.wick_moments(range(1, 4), range(1, 4), kg.build_block(L, cfg, None, trunc),
                               kg.build_block(RG, cfg, None, trunc))
        got = kg.vacuum_moments(range(1, 4), range(1, 4), cfg, 200)
        assert (got.near_columns, got.far_columns) == (200, 0)
        for field in _MOMENTS:
            assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("r, mu", [(0.5, 0.0), (0.3, 2.0), (0.42, 1.0), (1 / np.pi, 1000.0)])
def test_vacuum_moments_row_one_alone_and_among_125(r, mu):
    # a row's bits depend on the request through W, the largest requested
    # frequency, which sets the split (15 near columns for row 1 alone at
    # r = R/2, 1999 among 125 rows). Measured over these configurations and
    # (0.21, 4.7619), (0.05, 0), (0.95, 30): at most 1.0e-15, so 1e-14
    cfg = kg.validate_config(1.0, r, mu)
    alone = kg.vacuum_moments([1], [1], cfg, 10_000)
    among = kg.vacuum_moments(range(1, 126), range(1, 126), cfg, 10_000)
    assert alone.near_columns < among.near_columns
    for field in ("mean_left", "var_left", "mean_right", "var_right"):
        got, want = getattr(alone, field)[0], getattr(among, field)[0]
        assert abs(got - want) <= 1e-14 * want
    scale = math.sqrt(among.var_left[0] * among.var_right[0])
    assert abs(alone.cov[0, 0] - among.cov[0, 0]) <= 1e-14 * scale
    assert abs(alone.corr[0, 0] - among.corr[0, 0]) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(r=_FRACTIONS, log_mu=st.floats(30.0, 60.0), n_max=st.integers(1, 1500),
       m_rows=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       n_rows=st.lists(st.integers(1, 40), min_size=1, max_size=8))
@example(r=0.5, log_mu=30.0, n_max=200, m_rows=[3, 1, 2], n_rows=[2, 2])
def test_vacuum_moments_rows_keep_their_bits_in_any_request_property(
        r, log_mu, n_max, m_rows, n_rows):
    # from mu R ~ 1e30 on every Omega_N up to n_max lies below 8 omega_1,
    # so no column is far and the split is n_max whatever the request: the
    # near chunks fall at the same global indices, and each row's dots are
    # reduced one row at a time, so a row alone and among others (in any
    # order, repeated) has the same mean and var, bit for bit
    cfg = kg.validate_config(1.0, r, 10.0**log_mu)
    among = kg.vacuum_moments(m_rows, n_rows, cfg, n_max)
    assert among.far_columns == 0
    for i, m in enumerate(m_rows):
        alone = kg.vacuum_moments([m], n_rows[:1], cfg, n_max)
        assert alone.mean_left[0].hex() == among.mean_left[i].hex()
        assert alone.var_left[0].hex() == among.var_left[i].hex()
    for j, n in enumerate(n_rows):
        alone = kg.vacuum_moments(m_rows[:1], [n], cfg, n_max)
        assert alone.mean_right[0].hex() == among.mean_right[j].hex()
        assert alone.var_right[0].hex() == among.var_right[j].hex()


def test_vacuum_moments_hold_column_chunks_not_near_rows():
    # the near pass holds each side's rows on one chunk of 512 columns at a
    # time, never on all 4160 near columns at once: the traced peak stays
    # below half of the rows x near-columns payload of alpha and beta
    # (17.0 MB); with the full near rows it was 19.9 MB, in chunks 5.6 MB
    cfg = kg.validate_config(1, 0.3, 2)
    tracemalloc.start()
    try:
        rep = kg.vacuum_moments(range(1, 157), range(1, 101), cfg, 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.near_columns == 4160
    assert peak < (156 + 100) * rep.near_columns * 2 * 8 / 2


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


_SCAN_VALUES = {
    "mass": st.lists(st.one_of(st.floats(0.0, 50.0), st.just(1000.0)), min_size=1, max_size=5),
    "partition-size": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5),
}


@st.composite
def _scans(draw):
    """(kind, values, probes, cfg, n_max, M_fixed) for ``limit_scan``."""
    kind = draw(st.sampled_from(sorted(_SCAN_VALUES)))
    cfg = kg.validate_config(1.0, draw(st.floats(0.01, 0.99)), draw(st.floats(0.0, 50.0)))
    probes = draw(st.lists(st.tuples(st.integers(1, 200), st.integers(1, 3000)),
                           min_size=1, max_size=4))
    return (kind, draw(_SCAN_VALUES[kind]), probes, cfg, draw(st.integers(1, 3000)),
            draw(st.integers(1, 120)))


@settings(max_examples=40, deadline=None)
@given(scan=_scans())
@example(scan=("mass", [0.5, 1.0, 2.0, 4.0, 8.0], [(1, 1), (150, 3)],
               kg.validate_config(1.0, 0.37, 1.0), 3000, 100))
@example(scan=("partition-size", [0.1, 0.5, 0.9], [(2, 3), (2, 3)],
               kg.validate_config(1.0, 0.5, 0.0), 2000, 100))
def test_limit_scan_matches_the_public_kernels_property(scan):
    # the scan shares one Omega_N between both families' column tables and,
    # in a mass scan, each family's geometry between the values; every
    # column has the bits of the public kernels on fresh tables, per value
    kind, values, probes, cfg, n_max, M = scan
    table = kg.limit_scan(kind, values, probes, cfg,
                          kg.Truncation(n_max_global=n_max, m_max_local=1), M_fixed=M)
    ms, Ns = (np.array(x) for x in zip(*probes))
    rows, cols = np.arange(1, M + 1), np.arange(1, n_max + 1)
    for k, v in enumerate(values):
        cfg_k = (kg.validate_config(cfg.R, cfg.r, v / cfg.R) if kind == "mass"
                 else kg.validate_config(cfg.R, v * cfg.R, cfg.mu))
        left = kg.beta_sq_total(L, rows, cfg_k, n_max)
        both = left + kg.beta_sq_total(RG, rows, cfg_k, n_max)
        assert (table.sum_left[k].hex(), table.sum_both[k].hex()) == (left.hex(), both.hex())
        assert table.n_per_probe[k].tobytes() == kg.beta_sq_sums(L, ms, cols, cfg_k).tobytes()
        a, b = kg.coeff_grid(L, ms, Ns, cfg_k)
        assert table.alpha_mag[k].tobytes() == np.abs(np.diagonal(a)).tobytes()
        assert table.beta_mag[k].tobytes() == np.abs(np.diagonal(b)).tobytes()
        probe, left, right = (_coeff_sq_tail(region, m, cfg_k, n_max, 1.0)
                              for region, m in ((L, ms), (L, rows), (RG, rows)))
        assert table.tail_per_probe[k].tobytes() == probe.tobytes()
        assert table.tail_sum_left[k].hex() == np.sum(left).hex()
        assert table.tail_sum_both[k].hex() == (np.sum(left) + np.sum(right)).hex()


def test_limit_scan_bounds_sum_the_one_row_tails():
    # each summed column's bound is the sum of its rows' tails beyond
    # n_max, each row's tail as a one-row call computes it
    cfg, trunc = kg.validate_config(1.0, 0.5, 0.0), kg.Truncation()
    table = kg.limit_scan("mass", [1.0, 1e3, 1e5], [(1, 1), (2, 3)], cfg, trunc)
    for k, v in enumerate(table.values):
        cfg_k = kg.validate_config(1.0, 0.5, v)
        left, right = (np.array([_coeff_sq_tail(region, m, cfg_k, 10_000, 1.0)
                                 for m in range(1, 101)]) for region in (L, RG))
        assert table.tail_sum_left[k] == np.sum(left)
        assert table.tail_sum_both[k] == np.sum(left) + np.sum(right)


def test_limit_scans_build_the_column_vectors_once(monkeypatch):
    # a mass scan keeps r/R, so each family's n_max-column geometry, and the
    # left family's on the probes' two columns, is built once for all five
    # values; a partition-size scan builds them per value; either computes
    # Omega_N once per value for both families
    geometry, ladder = kg.vacuum._geometry, kg.vacuum._column_ladder
    built, ladders = [], []

    def geometry_spy(region, N_indices, cfg):
        built.append((region, cfg.r_tilde, len(N_indices)))
        return geometry(region, N_indices, cfg)

    def ladder_spy(N, cfg):
        ladders.append((cfg.mu_tilde, len(N)))
        return ladder(N, cfg)

    monkeypatch.setattr(kg.vacuum, "_geometry", geometry_spy)
    monkeypatch.setattr(kg.vacuum, "_column_ladder", ladder_spy)
    cfg = kg.validate_config(1.0, 0.37, 1.0)
    trunc = kg.Truncation(n_max_global=2000, m_max_local=1)
    probes = [(1, 1), (150, 3)]

    masses = [0.5, 1.0, 2.0, 4.0, 8.0]
    kg.limit_scan("mass", masses, probes, cfg, trunc)
    assert [b for b in built if b[2] == 2000] == [(L, 0.37, 2000), (RG, 0.37, 2000)]
    assert [b for b in built if b[2] != 2000] == [(L, 0.37, 2)]
    assert [x for x in ladders if x[1] == 2000] == [(mu, 2000) for mu in masses]

    built.clear()
    ladders.clear()
    widths = [0.1, 0.5, 0.9]
    kg.limit_scan("partition-size", widths, probes, cfg, trunc)
    assert [b for b in built if b[2] == 2000] == [(region, r, 2000) for r in widths
                                                  for region in (L, RG)]
    assert [b for b in built if b[2] != 2000] == [(L, r, 2) for r in widths]
    assert [x for x in ladders if x[1] == 2000] == [(1.0, 2000)] * 3


def test_limit_scan_rejects_unknown_kind(cfg_half, trunc_10k):
    with pytest.raises(ValueError):
        kg.limit_scan("volume", [0.1], [(1, 1)], cfg_half, trunc_10k)


def test_limit_scan_rejects_indices_below_one(cfg_half, trunc_10k):
    # m = 0 used to read the last summed row and N = 0 gave zeros
    for probes, M_fixed in (([(0, 1)], 100), ([(1, 0)], 100), ([(1, 1)], 0)):
        with pytest.raises(kg.DomainError):
            kg.limit_scan("mass", [1.0], probes, cfg_half, trunc_10k, M_fixed=M_fixed)


def test_limit_scan_occupations_match_spectrum():
    # probes inside and past M_fixed, one m twice, against the spectrum at
    # each scan point; |alpha| and |beta| are each probe's own 1 x 1 entry
    cfg = kg.validate_config(1.0, 0.37, 2.0)
    trunc = kg.Truncation(n_max_global=5_000, m_max_local=12)
    probes = [(2, 1), (12, 3), (9, 2), (12, 7)]
    table = kg.limit_scan("mass", [0.5, 8.0], probes, cfg, trunc, M_fixed=10)
    for k, mu_R in enumerate(table.values):
        cfg_k = kg.validate_config(1.0, 0.37, mu_R)
        spec = kg.vacuum_spectrum(L, cfg_k, trunc).values
        want = spec[[1, 11, 8, 11]]
        assert np.all(np.abs(table.n_per_probe[k] - want) <= 1e-13 * want)
        for ip, (m, N) in enumerate(probes):
            a, b = kg.coeff_grid(L, np.array([m]), np.array([N]), cfg_k)
            assert table.alpha_mag[k, ip] == abs(a[0, 0])
            assert table.beta_mag[k, ip] == abs(b[0, 0])
        right = kg.vacuum_spectrum(RG, cfg_k, dataclasses.replace(trunc, m_max_local=10)).values
        assert table.sum_left[k] == pytest.approx(np.sum(spec[:10]), rel=1e-13, abs=0)
        assert table.sum_both[k] == pytest.approx(np.sum(spec[:10]) + np.sum(right),
                                                  rel=1e-13, abs=0)



# ── reduced scales at the bounds of validate_config ──────────────────────────

@settings(max_examples=150, deadline=None)
@given(log_r=st.floats(-100.0, math.log10(0.999)), region=st.sampled_from([L, RG]),
       muR=st.one_of(st.just(0.0), st.floats(-10.0, 150.0).map(lambda e: 10.0**e)),
       n_max=st.integers(1, 50), l=st.integers(1, 5))
# every beta_lN^2 underflows: <n_l> = 0 normalizes nothing
@example(log_r=math.log10(0.5), region=L, muR=1e100, n_max=50, l=1)
# the tail's nodes pass 1e102, where Omega (Omega + omega)^2 leaves double range
@example(log_r=math.log10(0.5), region=L, muR=1e150, n_max=50, l=1)
@example(log_r=-100.0, region=L, muR=0.0, n_max=50, l=5)
def test_reduced_scales_give_an_error_or_no_nan(log_r, region, muR, n_max, l):
    # every configuration validate_config accepts either raises the
    # library's own error or returns numbers; an inf tail means "no bound"
    cfg = kg.validate_config(1.0, 10.0**log_r, muR)
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=l)
    calls = [
        lambda: kg.vacuum_spectrum(region, cfg, trunc),
        lambda: kg.divergence_scan([n_max], cfg, [1, 10])[0],
        lambda: kg.mode_sum_convergence(region, l, cfg, [n_max]),
        lambda: kg.quasilocal_energy(kg.overlap_distribution(l, cfg, trunc, region=region), cfg),
    ]
    for call in calls:
        try:
            result = call()
        except kg.KgCavityError:
            continue
        numbers = [v for v in dataclasses.astuple(result) if not isinstance(v, kg.Region)]
        assert not any(np.isnan(np.asarray(v, dtype=float)).any() for v in numbers)
