"""Mode evaluation and the truncated evolution series.

A local mode chi_m lives on [0, r] (or [r, R]), vanishes at its own
endpoints, and is exactly zero outside its support at t = 0. Evolving it
through the global dictionary, u(t) = sum_N [alpha U_N(t) + beta U_N*(t)],
reconstructs chi at t = 0 up to the truncation tail; the calibrated
interior error at n_max = 1e4 is 5.4e-8 (r = 0.21, m = 1), frozen below
at 5e-7.
"""

from collections import OrderedDict

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgcavity as kg
from kgcavity import bogoliubov
from kgcavity.modes import _sine_series
from oracles import eval_global_mode

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── snapshots at t = 0 ───────────────────────────────────────────────────────

def test_local_mode_peak_value(cfg_half):
    # chi_1(r/2) = sin(pi/2)/sqrt(r om_1) = 1/sqrt(pi) for r = 1/2, mu = 0
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    u = kg.eval_local_initial(L, 1, grid, cfg_half)
    assert u.value[1] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-14, abs=0)
    assert u.time == 0.0


def test_local_mode_vanishes_at_endpoints_and_outside(cfg_half):
    grid = kg.uniform_grid(cfg_half, 1025)
    u = kg.eval_local_initial(L, 3, grid, cfg_half)
    outside = grid > cfg_half.r
    assert np.all(u.value[outside] == 0.0)
    assert np.all(u.tderiv[outside] == 0.0)
    assert u.value[0] == 0.0
    ub = kg.eval_local_initial(RG, 2, grid, cfg_half)
    assert np.all(ub.value[grid < cfg_half.r] == 0.0)
    assert ub.value[-1] == pytest.approx(0.0, abs=1e-12)


def test_initial_tderiv_is_minus_i_omega_value(cfg_half, tables_half):
    grid = kg.uniform_grid(cfg_half, 257)
    u = kg.eval_local_initial(L, 2, grid, cfg_half)
    om = tables_half.omega[1]
    assert np.allclose(u.tderiv, -1j * om * u.value, rtol=1e-14, atol=0)


def test_global_mode_phase_evolution(cfg_half, tables_half):
    grid = kg.uniform_grid(cfg_half, 257)
    t = 0.37
    f0 = eval_global_mode(4, grid, 0.0, cfg_half)
    ft = eval_global_mode(4, grid, t, cfg_half)
    phase = np.exp(-1j * tables_half.Omega[3] * t)
    assert np.allclose(ft.value, phase * f0.value, rtol=1e-13, atol=1e-16)


def test_global_mode_beyond_any_table_matches_closed_form():
    cfg = kg.validate_config(2.0, 0.7, 3.0)
    grid = kg.uniform_grid(cfg, 257)
    N, t = 20_001, 0.05
    f = eval_global_mode(N, grid, t, cfg)
    Om = np.sqrt((np.pi * N / cfg.R) ** 2 + cfg.mu**2)
    want = np.sin(np.pi * N * grid / cfg.R) / np.sqrt(cfg.R * Om) * np.exp(-1j * Om * t)
    want[[0, -1]] = 0.0
    assert np.allclose(f.value, want, rtol=1e-12, atol=1e-15)
    assert np.allclose(f.tderiv, -1j * Om * want, rtol=1e-12, atol=1e-12)


def test_conjugate_mode_conjugates_both_fields(cfg_half):
    grid = kg.uniform_grid(cfg_half, 129)
    f = eval_global_mode(2, grid, 0.11, cfg_half)
    g = kg.conjugate_mode(f)
    assert np.array_equal(g.value, np.conj(f.value))
    assert np.array_equal(g.tderiv, np.conj(f.tderiv))
    assert g.time == f.time


def test_uniform_grid_spans_the_box(cfg_half):
    grid = kg.uniform_grid(cfg_half, 101)
    assert grid[0] == 0.0
    assert grid[-1] == cfg_half.R
    assert np.allclose(np.diff(grid), cfg_half.R / 100)


# ── truncated evolution series ───────────────────────────────────────────────

@pytest.fixture(scope="module")
def narrow():
    cfg = kg.validate_config(1.0, 0.21, 0.0)
    out = {}
    for n_max in (1_000, 10_000):
        trunc = kg.Truncation(n_max_global=n_max, m_max_local=8, grid_points=4097)
        out[n_max] = (cfg, trunc)
    return out


def test_reconstruction_error_frozen_and_decreasing(narrow):
    """Series at t=0 vs the exact chi_1, away from the kink at x=r.

    Calibrated interior errors: 4.2e-6 (n_max=1e3), 5.4e-8 (1e4).
    """
    errs = {}
    for n_max, (cfg, trunc) in narrow.items():
        grid = kg.uniform_grid(cfg, trunc.grid_points)
        exact = kg.eval_local_initial(L, 1, grid, cfg)
        series = kg.evolve_local_mode(L, 1, grid, 0.0, cfg, trunc)
        interior = np.abs(grid - cfg.r) > 0.02
        errs[n_max] = float(np.max(np.abs(series.value - exact.value)[interior]))
    assert errs[10_000] < errs[1_000]
    assert errs[10_000] < 5e-7


def test_evolution_preserves_kg_norm(narrow):
    # The evolved tderiv has a genuine jump at the cone edge x = r + t, so the
    # sampled norm integral converges only ~O(h) there: 1.2e-4 at 4097 points.
    cfg, trunc = narrow[10_000]
    grid = kg.uniform_grid(cfg, trunc.grid_points)
    u = kg.evolve_local_mode(L, 1, grid, 0.15, cfg, trunc)
    norm = kg.kg_inner(u, u)
    assert norm.real == pytest.approx(1.0, abs=1e-3)
    assert abs(norm.imag) < 1e-10
    fine = kg.uniform_grid(cfg, 2 * (len(grid) - 1) + 1)
    uf = kg.evolve_local_mode(L, 1, fine, 0.15, cfg, trunc)
    assert abs(kg.kg_inner(uf, uf).real - 1.0) < abs(norm.real - 1.0)


# ── residue-folded FFT against the dense sum ─────────────────────────────────

def _dense_reference(grid, R, rows):
    # the reversed grid is not the output of uniform_grid, so the same points
    # go through the dense O(G N) fallback
    return _sine_series(grid[::-1], R, rows)[:, ::-1]


def _complex_rows(cv, cd):
    # a value and a derivative row as the kernel's stack of real rows
    return np.array([cv.real, cv.imag, cd.real, cd.imag])


def _as_complex(out):
    return out[::2] + 1j * out[1::2]


def _assert_matches_dense(fast, dense, rel=1e-12):
    for got, want in zip(fast, dense):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("G, n_max", [
    (65, 40),         # N < G - 1
    (65, 64),         # N = K: last term sits on residue K, zero on the grid
    (65, 128),        # N = 2K: wraps onto residue 0, zero on the grid
    (257, 10_000),    # N >> G: every residue collects ~20 terms
])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_fast_series_matches_dense_fallback(G, n_max, t):
    cfg = kg.validate_config(1.0, 0.21, 0.0)
    trunc = kg.Truncation(n_max_global=n_max, m_max_local=2, grid_points=G)
    grid = kg.uniform_grid(cfg, G)
    fast = kg.evolve_local_mode(L, 1, grid, t, cfg, trunc)
    dense = kg.evolve_local_mode(L, 1, grid[::-1], t, cfg, trunc)
    _assert_matches_dense((fast.value, fast.tderiv),
                          (dense.value[::-1], dense.tderiv[::-1]))
    assert fast.value[0] == fast.value[-1] == 0.0
    assert fast.tderiv[0] == fast.tderiv[-1] == 0.0


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    G=st.integers(3, 40),
    R=st.floats(0.1, 10.0, **_finite),
    coeffs=st.integers(1, 200).flatmap(lambda n: st.tuples(
        *(hnp.arrays(np.complex128, n, elements=st.complex_numbers(max_magnitude=1e3, **_finite))
          for _ in range(2))
    )),
)
# subnormal coefficients: the routes differ by 5e-324, below any relative bound
@example(G=4, R=1.0, coeffs=(np.full(1, 2.2e-313 + 2.2e-313j), np.full(1, 2.2e-313 + 2.2e-313j)))
def test_fast_series_equals_dense_sum_property(G, R, coeffs):
    cv, cd = coeffs
    grid = np.linspace(0.0, R, G)
    fast = _as_complex(_sine_series(grid, R, _complex_rows(cv, cd)))
    dense = _as_complex(_dense_reference(grid, R, _complex_rows(cv, cd)))
    # rounding in either route is bounded by the coefficients' l1 norm, and
    # by one subnormal per term in each of the real and imaginary parts
    for got, want, c in zip(fast, dense, (cv, cd)):
        floor = 2 * len(c) * np.finfo(float).smallest_subnormal
        assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(c)) + floor
        assert got[0] == got[-1] == 0.0


def test_non_uniform_grid_takes_the_dense_path(monkeypatch):
    rng = np.random.default_rng(7)
    cv = rng.normal(size=300) + 1j * rng.normal(size=300)
    cd = rng.normal(size=300) + 1j * rng.normal(size=300)
    rows = _complex_rows(cv, cd)
    grid = np.linspace(0.0, 1.0, 129)
    fast = _as_complex(_sine_series(grid, 1.0, rows))
    nudged = grid.copy()
    nudged[40] += 1e-3

    def no_fft(*args, **kwargs):
        raise AssertionError("np.fft.rfft of the residue fold called")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    with pytest.raises(AssertionError, match="residue fold called"):
        _sine_series(grid, 1.0, rows)           # the uniform grid does take it
    dense = _as_complex(_sine_series(nudged, 1.0, rows))
    keep = np.arange(len(grid)) != 40
    _assert_matches_dense((fast[0][keep], fast[1][keep]), (dense[0][keep], dense[1][keep]))


def test_tail_estimate_and_truncation_warning(narrow, monkeypatch):
    cfg, trunc = narrow[1_000]
    grid = kg.uniform_grid(cfg, 513)
    monkeypatch.setattr("kgcavity.modes._TAIL_TOL", 1e-2)
    relaxed = kg.evolve_local_mode(L, 1, grid, 0.0, cfg, trunc)
    monkeypatch.setattr("kgcavity.modes._TAIL_TOL", 1e-14)
    strict = kg.evolve_local_mode(L, 1, grid, 0.0, cfg, trunc)
    assert relaxed.tail_estimate == strict.tail_estimate
    assert relaxed.tail_estimate > 0
    assert not relaxed.truncation_warning
    assert strict.truncation_warning


def test_evolve_rejects_rows_outside_the_block(narrow, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("built a block before the index check")

    monkeypatch.setattr("kgcavity.modes.build_block", no_compute)
    cfg, trunc = narrow[1_000]
    grid = kg.uniform_grid(cfg, 65)
    for m in (0, trunc.m_max_local + 1):
        with pytest.raises(kg.DomainError, match="outside block"):
            kg.evolve_local_mode(L, m, grid, 0.0, cfg, trunc)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_time_past_the_phase_resolution_is_refused(monkeypatch, sign):
    # from Omega_{n_max} |t| = 2^52 on, one ulp of the largest phase is a
    # radian or more: the series is refused before any block is built
    cfg = kg.validate_config(1.0, 0.5, 3.0)
    trunc = kg.Truncation(n_max_global=200, m_max_local=2, grid_points=9)
    grid = kg.uniform_grid(cfg, 9)
    t_max = 2.0**52 / np.sqrt((200 * np.pi) ** 2 + 9.0)
    u = kg.evolve_local_mode(L, 1, grid, sign * t_max * (1 - 1e-9), cfg, trunc)
    assert np.all(np.isfinite(u.value))
    dist = kg.overlap_distribution(1, cfg, trunc)

    def no_compute(*args, **kwargs):
        raise AssertionError("built a block before the time check")

    monkeypatch.setattr("kgcavity.modes.build_block", no_compute)
    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", no_compute)
    for t in (sign * t_max * (1 + 1e-9), sign * 1e306, sign * 1.7e308):
        with pytest.raises(kg.DomainError, match=r"2\^52"):
            kg.evolve_local_mode(L, 1, grid, t, cfg, trunc)
        with pytest.raises(kg.DomainError, match=r"2\^52"):
            kg.quasilocal_wavepacket(dist, grid, t, cfg, trunc)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True), mu=st.floats(0.0, 50.0),
       right=st.booleans(), n_max=st.integers(1, 400), t=st.floats(0.0, 2.0),
       m=st.integers(1, 8), fewer=st.integers(0, 7), more=st.integers(1, 4))
def test_evolution_does_not_depend_on_the_memo_state_property(r, mu, right, n_max, t, m,
                                                              fewer, more):
    # u_m has the same bits from a cold memo (held = 0) and from one holding
    # fewer or more rows of its family than the m rows it asks for
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    grid = kg.uniform_grid(cfg, 65)
    modes = []
    with pytest.MonkeyPatch.context() as mp:
        for held in (0, fewer % m, m + more):
            mp.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
            if held:
                kg.build_block(region, cfg, None, kg.Truncation(n_max, held))
            modes.append(kg.evolve_local_mode(region, m, grid, t, cfg, kg.Truncation(n_max, 12)))
    cold = modes[0]
    for warm in modes[1:]:
        assert warm.value.tobytes() == cold.value.tobytes()
        assert warm.tderiv.tobytes() == cold.tderiv.tobytes()
        assert warm.tail_estimate == cold.tail_estimate


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True), mu=st.floats(0.0, 50.0),
       right=st.booleans(), n_max=st.integers(1, 400), t=st.floats(0.0, 2.0),
       m=st.integers(1, 8),
       grid=st.one_of(st.integers(3, 65).map(lambda G: np.linspace(0.0, 1.0, G)),
                      hnp.arrays(np.float64, st.integers(1, 65), elements=st.floats(0.0, 1.0))))
def test_time_reversal_conjugates_the_mode_property(r, mu, right, n_max, t, m, grid):
    # u(x, -t) = u(x, t)* and u_dot(x, -t) = -u_dot(x, t)*, bit for bit on
    # the uniform grid's FFT and on the dense sum of any other grid: the real
    # coefficient rows carrying sin(Omega t) change sign exactly, those
    # carrying cos(Omega t) keep their bits, and both sums are linear
    cfg = kg.validate_config(1.0, r, mu)
    region = RG if right else L
    trunc = kg.Truncation(n_max, 12)
    fwd = kg.evolve_local_mode(region, m, grid, t, cfg, trunc)
    back = kg.evolve_local_mode(region, m, grid, -t, cfg, trunc)
    assert np.all(back.value == np.conj(fwd.value))
    assert np.all(back.tderiv == -np.conj(fwd.tderiv))


def test_gibbs_overshoot_is_reported(narrow):
    # Reported, not thresholded: at t=0 the series is kink-class, so the
    # edge ripple is tiny and can sit on either side of the exact sup.
    cfg, trunc = narrow[10_000]
    grid = kg.uniform_grid(cfg, trunc.grid_points)
    u = kg.evolve_local_mode(L, 1, grid, 0.0, cfg, trunc)
    assert u.gibbs_overshoot is not None
    assert np.isfinite(u.gibbs_overshoot)
    assert abs(u.gibbs_overshoot) < 1e-3
    print(f"gibbs overshoot at support edge (t=0, n_max=1e4): {u.gibbs_overshoot:.3e}")


def test_right_region_evolution_mirror(cfg_half, trunc_10k):
    # At r = R/2 the two regions are congruent: the right-region series at
    # t=0 is the left one reflected through x = 1/2.
    grid = kg.uniform_grid(cfg_half, 2049)
    ul = kg.evolve_local_mode(L, 1, grid, 0.0, cfg_half, trunc_10k)
    ur = kg.evolve_local_mode(RG, 1, grid, 0.0, cfg_half, trunc_10k)
    assert np.max(np.abs(ul.value - ur.value[::-1])) < 1e-7
