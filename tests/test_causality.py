"""Light-cone and commutator diagnostics.

The workhorse here is a narrow sub-cavity (R=1, r=0.21, mu = 1/r) whose
first local mode is evolved through the truncated global series. Frozen
floor at n_max = 1e4, grid 4097: out-of-cone fraction 4.1e-13 at t = 0
(pure reconstruction residue). A probe family on [0.6, 1] leaves a
spacelike gap of 0.39 to the left region, so commutators at tau < 0.39
must sit on that floor while tau > 0.39 gives O(0.1) overlap.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kgcavity as kg

L = kg.Region.LEFT
RG = kg.Region.RIGHT


@pytest.fixture(scope="module")
def cfg_narrow():
    return kg.validate_config(1.0, 0.21, 1.0 / 0.21)


@pytest.fixture(scope="module")
def trunc_narrow():
    return kg.Truncation(n_max_global=10_000, m_max_local=8, grid_points=4097)


# ── probe construction ───────────────────────────────────────────────────────

def test_make_probe_validates_geometry(cfg_narrow):
    probe = kg.make_probe(0.6, 0.2, 1, cfg_narrow)
    # its Cauchy data oscillate at right mode 1's frequency in the box split at 0.6
    mode = kg.eval_probe_initial(probe, kg.uniform_grid(cfg_narrow, 65), cfg_narrow)
    inside = mode.value != 0
    assert mode.tderiv[inside] / mode.value[inside] == pytest.approx(
        -1j * np.hypot(np.pi / 0.4, 1.0 / 0.21), rel=1e-14, abs=0)
    with pytest.raises(kg.DomainError):
        kg.make_probe(0.21, 0.2, 1, cfg_narrow)   # touches the partition
    with pytest.raises(kg.DomainError):
        kg.make_probe(0.1, 0.2, 1, cfg_narrow)    # inside the left region
    with pytest.raises(kg.DomainError):
        kg.make_probe(1.0, 0.2, 1, cfg_narrow)    # zero width
    with pytest.raises(kg.DomainError):
        kg.make_probe(0.6, -0.1, 1, cfg_narrow)   # negative time
    with pytest.raises(kg.DomainError):
        kg.make_probe(0.6, 0.2, 0, cfg_narrow)    # probe index below 1


@pytest.mark.parametrize("r, mu, r_tilde", [(0.21, 4.7619, 0.6), (0.5, 0.0, 0.7),
                                         (0.35, 3.0, 0.61)])
def test_probe_is_the_right_family_of_the_split_box(r, mu, r_tilde):
    cfg = kg.validate_config(1.0, r, mu)
    split = kg.validate_config(1.0, r_tilde, mu)
    grid = kg.uniform_grid(cfg, 1025)
    for n in (1, 3):
        probe = kg.make_probe(r_tilde, 0.25, n, cfg)
        mode = kg.eval_probe_initial(probe, grid, cfg)
        local = kg.eval_local_initial(RG, n, grid, split)
        assert mode.time == 0.25
        assert mode.value.tobytes() == local.value.tobytes()
        assert mode.tderiv.tobytes() == local.tderiv.tobytes()


def test_probe_is_kg_normalized(cfg_narrow):
    probe = kg.make_probe(0.6, 0.0, 2, cfg_narrow)
    grid = kg.uniform_grid(cfg_narrow, 4097)
    mode = kg.eval_probe_initial(probe, grid, cfg_narrow)
    assert np.all(mode.value[grid <= 0.6] == 0.0)
    norm = kg.kg_inner(mode, mode)
    assert norm.real == pytest.approx(1.0, abs=5e-7)


# ── out-of-cone mass bookkeeping ─────────────────────────────────────────────

def test_outside_cone_mass_on_exact_initial_data(cfg_half, tables_half):
    grid = kg.uniform_grid(cfg_half, 2049)
    u0 = kg.eval_local_initial(L, 1, grid, cfg_half)
    om = tables_half.omega[0]
    out_at_edge, total = kg.outside_cone_mass(u0, (0.0, cfg_half.r), om)
    assert total > 0
    assert out_at_edge == 0.0                     # exact zeros beyond r
    out_half, _ = kg.outside_cone_mass(u0, (0.0, cfg_half.r / 2), om)
    assert out_half > 0
    # widening the cone can only shed mass
    assert out_half >= out_at_edge
    below, _ = kg.outside_cone_mass(u0, (cfg_half.r, cfg_half.R), om)
    assert below == pytest.approx(total, rel=1e-12, abs=0)
    empty, tot2 = kg.outside_cone_mass(u0, (0.0, 2.0), om)
    assert empty == 0.0 and tot2 == total


@functools.cache
def _evolved(region, t):
    """An evolved mode of a small truncation and its frequency."""
    cfg = kg.validate_config(1.0, 0.35, 3.0)
    trunc = kg.Truncation(n_max_global=500, m_max_local=2, grid_points=257)
    mode = kg.evolve_local_mode(region, 2, kg.uniform_grid(cfg, 257), t, cfg, trunc)
    return mode, region.omega(2, cfg)


@settings(deadline=None, max_examples=200)
@given(ends=st.lists(st.floats(-0.1, 1.1), min_size=4, max_size=4),
       region=st.sampled_from([L, RG]), t=st.sampled_from([0.0, 0.2, 0.45]))
def test_wider_cone_never_holds_more_outside_mass(ends, region, t):
    # each side is a nested sub-grid of non-negative trapezoid panels
    lo, lo_in, hi_in, hi = sorted(ends)
    mode, om = _evolved(region, t)
    wide, _ = kg.outside_cone_mass(mode, (lo, hi), om)
    narrow, _ = kg.outside_cone_mass(mode, (lo_in, hi_in), om)
    assert 0.0 <= wide <= narrow


# ── cone leakage of the evolved mode ─────────────────────────────────────────

def test_leakage_floor_at_t0(cfg_narrow, trunc_narrow):
    leak = kg.lightcone_leakage(L, 1, 0.0, cfg_narrow, trunc_narrow).fraction
    assert leak <= 5e-11   # measured 4.1e-13: reconstruction residue only


def test_leakage_shrinks_with_cutoff(cfg_narrow):
    # the Gibbs skirt at the cone edge narrows as the cutoff grows; measured
    # at t = 0.3: 4.7e-5, 1.8e-5, 8.7e-7 (criterion 10a stays xfail)
    leaks = []
    for n_max in (1_000, 10_000, 100_000):
        trunc = kg.Truncation(n_max_global=n_max, m_max_local=8, grid_points=4097)
        leaks.append(kg.lightcone_leakage(L, 1, 0.3, cfg_narrow, trunc).fraction)
    print("leakage at t=0.3 for n_max 1e3, 1e4, 1e5: "
          + ", ".join(f"{x:.2e}" for x in leaks))
    assert leaks[0] > leaks[1] > leaks[2]
    assert leaks[1] < 1e-4


def test_leakage_with_edge_margin_reaches_residue_scale(cfg_narrow, trunc_narrow):
    # an O(R/n_max) margin steps over the Gibbs skirt at the cone edge
    leak = kg.lightcone_leakage(L, 1, 0.3, cfg_narrow, trunc_narrow, edge_margin=1e-3).fraction
    assert leak <= 1e-7     # measured 3.5e-8 vs 1.8e-5 without the margin


def test_leakage_mirror_symmetry_at_half(cfg_half, trunc_10k):
    lhs = kg.lightcone_leakage(L, 2, 0.15, cfg_half, trunc_10k).fraction
    rhs = kg.lightcone_leakage(RG, 2, 0.15, cfg_half, trunc_10k).fraction
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=0)


def test_leakage_rejects_negative_time(cfg_half, trunc_10k):
    with pytest.raises(kg.DomainError):
        kg.lightcone_leakage(L, 1, -0.1, cfg_half, trunc_10k)


@pytest.mark.parametrize("call", [
    lambda cfg, trunc, bad, dist: kg.lightcone_leakage(L, 1, bad, cfg, trunc),
    lambda cfg, trunc, bad, dist: kg.lightcone_leakage(L, 1, 0.1, cfg, trunc, edge_margin=bad),
    lambda cfg, trunc, bad, dist: kg.evolve_local_mode(L, 1, kg.uniform_grid(cfg, 9), bad, cfg,
                                                       trunc),
    lambda cfg, trunc, bad, dist: kg.quasilocal_wavepacket(dist, kg.uniform_grid(cfg, 9), bad,
                                                           cfg, trunc),
    lambda cfg, trunc, bad, dist: kg.make_probe(0.7, bad, 1, cfg),
], ids=["leakage-t", "leakage-margin", "evolve", "wavepacket", "probe-tau"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_refused_before_any_coefficient(cfg_half, trunc_10k, monkeypatch,
                                                           call, bad):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the time check")

    # the wavepacket's state is read before the refusal it is checked for
    dist = kg.overlap_distribution(1, cfg_half, trunc_10k)
    monkeypatch.setattr("kgcavity.modes.build_block", no_compute)
    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_compute)
    monkeypatch.setattr("kgcavity.quasilocal._row_series", no_compute)
    with pytest.raises(kg.DomainError):
        call(cfg_half, trunc_10k, bad, dist)


@pytest.mark.parametrize("region", [L, RG])
def test_negative_edge_margin_is_refused_before_any_coefficient(cfg_half, trunc_10k, monkeypatch,
                                                                region):
    # a negative margin narrows the cone: on the right family its edge
    # r - t - margin lands beyond R
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the margin check")

    monkeypatch.setattr("kgcavity.modes.build_block", no_compute)
    with pytest.raises(kg.DomainError, match="edge margin"):
        kg.lightcone_leakage(region, 1, 0.1, cfg_half, trunc_10k, edge_margin=-5.0)


@pytest.mark.parametrize("region, t, margin, edge", [
    (L, 0.1, 0.0, 0.6), (L, 0.3, 0.05, 0.85), (L, 0.7, 0.0, 1.0),
    (RG, 0.1, 0.0, 0.4), (RG, 0.3, 0.05, 0.15), (RG, 0.7, 0.0, 0.0),
])
def test_leakage_reports_its_cone_edge(cfg_half, region, t, margin, edge):
    # the cone [0, r + t + margin] or [r - t - margin, R], clipped to the box
    trunc = kg.Truncation(n_max_global=200, m_max_local=2, grid_points=65)
    leak = kg.lightcone_leakage(region, 1, t, cfg_half, trunc, edge_margin=margin)
    assert leak.cone[1 if region is L else 0] == pytest.approx(edge, abs=1e-15)


@settings(deadline=None)
@given(R=st.floats(0.5, 4.0), r_over_R=st.floats(0.02, 0.98), t=st.floats(0.0, 2.0),
       margin=st.floats(0.0, 0.5))
def test_right_cone_mirrors_the_left_cone(R, r_over_R, t, margin):
    # the right family at r is the left family at R - r seen from the far
    # wall; each side rounds R - r, the time and the margin (measured: 1.5 ulps)
    trunc = kg.Truncation(n_max_global=50, m_max_local=1, grid_points=17)
    r = r_over_R * R
    right = kg.lightcone_leakage(RG, 1, t, kg.validate_config(R, r, 0.0), trunc,
                                 edge_margin=margin).cone
    left = kg.lightcone_leakage(L, 1, t, kg.validate_config(R, R - r, 0.0), trunc,
                                edge_margin=margin).cone
    ulps = 4 * np.spacing(R + t + margin)
    assert right[0] == pytest.approx(R - left[1], rel=0, abs=ulps)
    assert right[1] == pytest.approx(R - left[0], rel=0, abs=ulps)


@pytest.mark.parametrize("region", [L, RG])
def test_leakage_fraction_is_finite_in_a_tiny_box(region):
    # f_dot and omega both scale as 1/R, so squared apart they overflow at
    # R = 1e-200; their ratio keeps the R = 1 fraction (to the rounding of
    # mu = 3 / R), and its bits under R -> 2^k R
    trunc = kg.Truncation(n_max_global=50, m_max_local=4, grid_points=9)

    def fraction(R):
        cfg = kg.validate_config(R, 0.5 * R, 3.0 / R)
        return kg.lightcone_leakage(region, 1, 0.1 * R, cfg, trunc).fraction

    tiny = fraction(1e-200)
    assert np.isfinite(tiny)
    assert tiny == pytest.approx(fraction(1.0), rel=1e-13, abs=0)
    assert fraction(2.0**-600) == fraction(1.0)


@pytest.mark.parametrize("points", [1, 2])
def test_leakage_refuses_grids_without_interior_points(cfg_half, trunc_10k,
                                                       monkeypatch, points):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the grid check")

    monkeypatch.setattr("kgcavity.modes.build_block", no_compute)
    trunc = dataclasses.replace(trunc_10k, grid_points=points)
    with pytest.raises(kg.GridMismatch):
        kg.lightcone_leakage(L, 1, 0.1, cfg_half, trunc)


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_results_carry_the_evolved_mode(cfg_narrow, t):
    trunc = kg.Truncation(n_max_global=2_000, m_max_local=4, grid_points=513)
    want = kg.evolve_local_mode(L, 2, kg.uniform_grid(cfg_narrow, 513), t, cfg_narrow, trunc)
    leak = kg.lightcone_leakage(L, 2, t, cfg_narrow, trunc)
    comm = kg.commutator_pair(kg.make_probe(0.6, t, 1, cfg_narrow), 2, cfg_narrow, trunc)
    for got in (leak.mode, comm.mode):
        assert got.time == want.time
        assert got.value.tobytes() == want.value.tobytes()
        assert got.tderiv.tobytes() == want.tderiv.tobytes()
        assert got.tail_estimate == want.tail_estimate
        assert got.truncation_warning == want.truncation_warning
        assert got.gibbs_overshoot == want.gibbs_overshoot
    assert (want.gibbs_overshoot is None) == (t > 0)


# ── commutators against the later probe ──────────────────────────────────────

def test_commutators_silent_at_spacelike_separation(cfg_narrow, trunc_narrow):
    # gap = r_tilde - r = 0.39; both commutators stay on the numerical
    # floor until the cone arrives
    floor = kg.commutator_pair(kg.make_probe(0.6, 0.0, 1, cfg_narrow), 1,
                               cfg_narrow, trunc_narrow)
    assert max(floor.c1, floor.c2) <= 1e-12          # measured 1.5e-14
    c1, c2, *_ = kg.commutator_pair(kg.make_probe(0.6, 0.2, 1, cfg_narrow), 1,
                                    cfg_narrow, trunc_narrow)
    assert c1 <= 1e-8 and c2 <= 1e-8    # measured 3.0e-10


@pytest.mark.parametrize("r_tilde, points", [(0.9999, 2048), (0.7, 3)])
def test_commutators_refuse_a_grid_that_misses_the_probe(cfg_half, monkeypatch, r_tilde,
                                                         points):
    # with no grid point inside (r_tilde, R) the sampled probe is 0
    # everywhere and both commutators would read an exact 0, timelike or not
    def no_compute(*args, **kwargs):
        raise AssertionError("evolved before the grid check")

    monkeypatch.setattr("kgcavity.causality.evolve_local_mode", no_compute)
    trunc = kg.Truncation(n_max_global=2_000, m_max_local=4, grid_points=points)
    with pytest.raises(kg.GridMismatch):
        kg.commutator_pair(kg.make_probe(r_tilde, 0.6, 1, cfg_half), 1, cfg_half, trunc)


@pytest.mark.parametrize("n, refused", [(19, False), (20, True), (5000, True)])
def test_commutators_refuse_a_grid_that_aliases_the_probe(cfg_half, monkeypatch, n, refused):
    # 19 of the 65 grid points lie inside (0.7, 1): probe n has n half-waves
    # there, so from n = 20 on the grid cannot resolve it and the KG
    # quadrature would read noise (6.8e-6 for both commutators at n = 5000);
    # refused before any evolution
    class Evolved(Exception):
        pass

    def evolve(*_args):
        raise Evolved

    monkeypatch.setattr("kgcavity.causality.evolve_local_mode", evolve)
    trunc = kg.Truncation(n_max_global=200, m_max_local=4, grid_points=65)
    grid = kg.uniform_grid(cfg_half, 65)
    assert np.count_nonzero((grid > 0.7) & (grid < 1.0)) == 19
    with pytest.raises(kg.GridMismatch if refused else Evolved):
        kg.commutator_pair(kg.make_probe(0.7, 0.1, n, cfg_half), 1, cfg_half, trunc)


@pytest.mark.parametrize("probe, words", [
    (kg.ProbeSpec(0.3, 0.1, 1), "r_tilde"),     # overlaps the left box [0, 0.5]
    (kg.ProbeSpec(0.7, -0.2, 1), "probe time"),
    (kg.ProbeSpec(0.7, 0.1, 0), "got n=0"),     # named as the probe's index
], ids=["inside-left-box", "negative-tau", "n0"])
@pytest.mark.parametrize("entry", ["commutator_pair", "eval_probe_initial"])
def test_probe_entries_refuse_a_probe_make_probe_refuses(cfg_half, monkeypatch, probe, words,
                                                          entry):
    # a ProbeSpec built by hand passes through make_probe, before any
    # evolution or sampling
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the probe was refused")

    monkeypatch.setattr("kgcavity.causality.evolve_local_mode", no_compute)
    monkeypatch.setattr("kgcavity.causality.eval_local_initial", no_compute)
    trunc = kg.Truncation(n_max_global=200, m_max_local=4, grid_points=65)
    call = {"commutator_pair": lambda: kg.commutator_pair(probe, 1, cfg_half, trunc),
            "eval_probe_initial": lambda: kg.eval_probe_initial(
                probe, kg.uniform_grid(cfg_half, 65), cfg_half)}[entry]
    with pytest.raises(kg.DomainError, match=words):
        call()


def test_commutators_carry_the_coefficient_sums(cfg_narrow):
    # (c1, c2) are the KG quadratures on the grid; the sums have no grid,
    # so two grids give them the same bits
    probe = kg.make_probe(0.6, 0.6, 1, cfg_narrow)
    coarse, fine = (kg.commutator_pair(probe, 1, cfg_narrow,
                                       kg.Truncation(n_max_global=2_000, m_max_local=4,
                                                     grid_points=G))
                    for G in (513, 2049))
    probe_mode = kg.eval_probe_initial(probe, coarse.mode.grid, cfg_narrow)
    inner = [kg.kg_inner(probe_mode, coarse.mode),
             kg.kg_inner(probe_mode, kg.conjugate_mode(coarse.mode))]
    assert (coarse.c1, coarse.c2) == (abs(inner[0]), abs(inner[1]))
    assert coarse.sums == fine.sums
    assert all(type(c) is float for c in coarse.sums)
    # the coarse grid is off the sums by 1.9e-3, the finer one by 3.4e-7
    distance = [max(abs(comm.c1 - comm.sums[0]), abs(comm.c2 - comm.sums[1]))
                for comm in (coarse, fine)]
    assert distance[1] < 1e-6 < distance[0] < 1e-2


@pytest.mark.parametrize("tau", [0.05, 0.6], ids=["spacelike", "timelike"])
def test_fine_grid_commutators_meet_the_sums(tau):
    # once the grid resolves the series, the quadrature converges to the
    # sums (measured 4.4e-9 at tau = 0.6 on 8193 points)
    cfg = kg.validate_config(1.0, 0.21, 4.7619)
    trunc = kg.Truncation(n_max_global=2_000, m_max_local=4, grid_points=8193)
    comm = kg.commutator_pair(kg.make_probe(0.605, tau, 1, cfg), 1, cfg, trunc)
    assert abs(comm.c1 - comm.sums[0]) < 1e-8
    assert abs(comm.c2 - comm.sums[1]) < 1e-8


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.05, 0.8), mu=st.floats(0.0, 20.0), probe_at=st.floats(0.0, 1.0),
       tau_at=st.floats(0.0, 2.0), m=st.integers(1, 3), n=st.integers(1, 3),
       k=st.integers(-20, 20))
def test_sums_are_exactly_covariant_under_R_to_2k_R(r, mu, probe_at, tau_at, m, n, k):
    # the rows depend on r/R and mu R only, and Omega_N tau is unchanged
    # when R and tau scale by the same power of two
    trunc = kg.Truncation(n_max_global=300, m_max_local=4, grid_points=65)
    r_tilde = r + probe_at * (0.9 - r)
    assume(r < r_tilde)
    scale = 2.0**k

    def sums(R):
        cfg = kg.validate_config(R, r * R, mu / R)
        return kg.commutator_pair(kg.make_probe(r_tilde * R, tau_at * R, n, cfg), m, cfg,
                                  trunc).sums

    assert sums(scale) == sums(1.0)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.1, 0.8), mu=st.floats(0.0, 20.0), probe_at=st.floats(0.0, 1.0),
       tau_at=st.floats(0.0, 1.0), m=st.integers(1, 3), n=st.integers(1, 3),
       n_max=st.integers(500, 8000))
def test_spacelike_sums_sit_on_the_completeness_floor(r, mu, probe_at, tau_at, m, n, n_max):
    # before the cone reaches the probe the exact commutators vanish, and
    # the truncated sums sit on the completeness residual of the two
    # families they pair: the left family at r and the probe's, the right
    # family at r_tilde. The series resolves lengths down to about
    # R / n_max, so the separation left, r_tilde - r - tau, spans at least
    # 100 of them. Over 5300 scratch draws the worst ratio was 2.3.
    sep = 100.0 / n_max
    assume(r + sep < 0.9)
    span = 0.9 - r - sep
    r_tilde, tau = r + sep + probe_at * span, tau_at * probe_at * span
    cfg = kg.validate_config(1.0, r, mu)
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=4, grid_points=65)
    sums = kg.commutator_pair(kg.make_probe(r_tilde, tau, n, cfg), m, cfg, trunc).sums
    floor = max(kg.identity_residuals(c, n_max, 4).max_residual
                for c in (cfg, kg.validate_config(1.0, r_tilde, mu)))
    assert max(sums) <= 10.0 * floor


def test_commutators_wake_up_inside_the_cone(cfg_narrow, trunc_narrow):
    c1_in, c2_in, *_ = kg.commutator_pair(kg.make_probe(0.6, 0.6, 1, cfg_narrow), 1,
                                          cfg_narrow, trunc_narrow)
    assert c1_in >= 0.1 and c2_in >= 0.1    # measured 0.334 / 0.245
    c1_out = kg.commutator_pair(kg.make_probe(0.6, 0.2, 1, cfg_narrow), 1,
                                cfg_narrow, trunc_narrow).c1
    assert c1_in / c1_out >= 1e3            # measured contrast ~1.1e9
