r"""The quadrature oracle and the Klein-Gordon inner product.

`overlap_V` is the ground truth for the closed-form coefficients: it
integrates sin(pi N x/R) * chi_m(x) over the region support with refined
composite Simpson + Richardson, nothing shared with the sinc closed form.
Hand-checkable values used below (R=1, r=1/2, mu=0):

    V_11 (left)   = 2/(3 pi^2) / 1       with norm 1/sqrt(R r Om om) = 1/pi
                  -> integral \int_0^{1/2} sin(pi x) sin(2 pi x) dx = 2/(3 pi)
    V_21 (right)  = +4/(15 pi) * 1/(pi sqrt 2)   (sign from the integral)
    V_12 (left)   = (r/2)/sqrt(R r Om om)        (resonance Om_2 = om_1)
    V_32 (left)   = 0 exactly                      (sin(2 pi r/R) = 0)
"""

import dataclasses

import numpy as np
import pytest

import kgcavity as kg

L = kg.Region.LEFT
RG = kg.Region.RIGHT


# ── overlap oracle: frozen hand values ───────────────────────────────────────

def test_overlap_left_11_hand_value(cfg_half):
    v = kg.overlap_V(1, 1, L, cfg_half)
    assert v == pytest.approx(2.0 / (3.0 * np.pi**2), rel=1e-12, abs=0)


def test_overlap_right_21_hand_value_and_sign(cfg_half):
    # The raw integral over [1/2, 1] is positive; recording the sign here is
    # the point of the test, not just the magnitude.
    v = kg.overlap_V(2, 1, RG, cfg_half)
    expect = 4.0 / (15.0 * np.sqrt(2.0) * np.pi**2)
    assert v == pytest.approx(+expect, rel=1e-12, abs=0)


def test_resonant_overlap_matches_analytic_limit(cfg_half):
    # Om_2 = om_1 = 2 pi at r = R/2: the generic closed form is 0/0 here and
    # the analytic limit is sigma * (r/2)/sqrt(R r Om om) -- this run fixes
    # sigma = +1.
    v = kg.overlap_V(1, 2, L, cfg_half)
    limit = (cfg_half.r / 2.0) / np.sqrt(
        cfg_half.R * cfg_half.r * (2 * np.pi) * (2 * np.pi)
    )
    assert limit == pytest.approx(0.05626976975981913, rel=1e-15, abs=0)
    assert v == pytest.approx(limit, rel=1e-10, abs=0)


def test_kronecker_overlap_is_numerically_zero(cfg_half):
    # sin(N pi r / R) = 0 with Om_3 != om_2: the integral vanishes exactly.
    v = kg.overlap_V(3, 2, L, cfg_half)
    assert abs(v) < 1e-13


def test_overlap_rejects_nonpositive_indices(cfg_half):
    with pytest.raises(kg.DomainError):
        kg.overlap_V(0, 1, L, cfg_half)


@pytest.mark.parametrize("call", [
    lambda cfg: kg.overlap_V(1, 0, RG, cfg),
    lambda cfg: kg.coeff_pair(L, 0, 1, cfg),
    lambda cfg: kg.coeff_pair(RG, 1, 0, cfg),
    lambda cfg: kg.eval_global_mode(0, kg.uniform_grid(cfg, 9), 0.0, cfg),
    lambda cfg: kg.eval_local_initial(L, 0, kg.uniform_grid(cfg, 9), cfg),
    lambda cfg: kg.eval_local_initial(RG, -1, kg.uniform_grid(cfg, 9), cfg),
    # the kernels themselves refuse, where they used to return NaN or a
    # number for a non-index
    lambda cfg: kg.coeff_grid(L, [0], [1], cfg),
    lambda cfg: kg.coeff_grid(L, [1], [0], cfg),
    lambda cfg: kg.beta_sq_sums(L, [0, 1], np.arange(1, 101), cfg),
    lambda cfg: kg.coeff_grid(L, [1.5], [2], cfg),
    lambda cfg: kg.beta_sq_sums(L, [1], [-3], cfg),
], ids=["overlap_V-N", "coeff_pair-m", "coeff_pair-N", "eval_global_mode",
        "eval_local_initial-left", "eval_local_initial-right", "coeff_grid-m0",
        "coeff_grid-N0", "beta_sq_sums-m0", "coeff_grid-m1.5", "beta_sq_sums-N-3"])
def test_mode_indices_below_one_are_domain_errors(cfg_half, call):
    with pytest.raises(kg.DomainError):
        call(cfg_half)


# ── KG inner product on sampled modes ────────────────────────────────────────

def _snapshot(N, cfg, n_pts=4097, t=0.0):
    grid = kg.uniform_grid(cfg, n_pts)
    return kg.eval_global_mode(N, grid, t, cfg)


def test_global_modes_are_kg_orthonormal(cfg_half):
    f1 = _snapshot(1, cfg_half)
    f2 = _snapshot(2, cfg_half)
    assert type(kg.kg_inner(f1, f2)) is complex
    assert kg.kg_inner(f1, f1) == pytest.approx(1.0, abs=5e-10)
    assert kg.kg_inner(f2, f2) == pytest.approx(1.0, abs=5e-10)
    assert abs(kg.kg_inner(f1, f2)) < 5e-10


def test_local_modes_are_kg_orthonormal(cfg_half):
    grid = kg.uniform_grid(cfg_half, 4097)
    u1 = kg.eval_local_initial(L, 1, grid, cfg_half)
    u2 = kg.eval_local_initial(L, 2, grid, cfg_half)
    ub1 = kg.eval_local_initial(RG, 1, grid, cfg_half)
    assert kg.kg_inner(u1, u1) == pytest.approx(1.0, abs=5e-9)
    assert abs(kg.kg_inner(u1, u2)) < 5e-9
    # disjoint supports: exactly orthogonal up to quadrature noise
    assert abs(kg.kg_inner(u1, ub1)) < 5e-9


def test_kg_inner_conjugate_symmetry_and_antisymmetry(cfg_half):
    f = _snapshot(1, cfg_half, t=0.13)
    g = _snapshot(3, cfg_half, t=0.13)
    fg = kg.kg_inner(f, g)
    gf = kg.kg_inner(g, f)
    assert complex(gf) == pytest.approx(np.conj(complex(fg)), abs=1e-12)
    # (f*|g*) = -(f|g)*
    fs = kg.conjugate_mode(f)
    gs = kg.conjugate_mode(g)
    fsgs = kg.kg_inner(fs, gs)
    assert complex(fsgs) == pytest.approx(-np.conj(complex(fg)), abs=1e-12)
    # conjugate pairs have negative norm
    assert kg.kg_inner(fs, fs).real == pytest.approx(-1.0, abs=5e-10)


def test_kg_inner_requires_shared_grid_and_time(cfg_half):
    f = _snapshot(1, cfg_half, n_pts=513)
    g = _snapshot(1, cfg_half, n_pts=1025)
    with pytest.raises(kg.GridMismatch):
        kg.kg_inner(f, g)
    h = _snapshot(1, cfg_half, n_pts=513, t=0.2)
    with pytest.raises(kg.GridMismatch):
        kg.kg_inner(f, h)


def test_kg_inner_refuses_a_grid_that_is_not_uniform_and_increasing(cfg_half):
    # Simpson with h = x[1] - x[0] on a stretched grid gave (u|u) = 0.167
    trunc = kg.Truncation(2000, 4)
    uniform = kg.uniform_grid(cfg_half, 513)
    u = kg.evolve_local_mode(L, 1, uniform, 0.0, cfg_half, trunc)
    assert kg.kg_inner(u, u).real == pytest.approx(1.0, abs=1e-6)
    for grid in (uniform**1.3, uniform[::-1], np.zeros(5)):
        u = kg.evolve_local_mode(L, 1, grid, 0.0, cfg_half, trunc)
        with pytest.raises(kg.GridMismatch, match="uniform, increasing"):
            kg.kg_inner(u, u)
    # np.linspace steps agree far inside the tolerance
    f = _snapshot(1, cfg_half, n_pts=65537)
    assert kg.kg_inner(f, f) == pytest.approx(1.0, abs=5e-10)


def _exponential_mode(cfg, n_pts):
    # Pure sines are integrated *exactly* on uniform grids (the aliasing sums
    # vanish for both rules), so rate tests need non-trig data. With
    # value = e^x and tderiv = i e^{2x} the KG product is -2 (e^3 - 1)/3.
    f = _snapshot(1, cfg, n_pts=n_pts)
    x = f.grid
    return dataclasses.replace(f, value=np.exp(x) + 0j, tderiv=1j * np.exp(2 * x))


def test_simpson_converges_at_fourth_order(cfg_half):
    # halving h should cut the error by ~16; demand at least 8. Even
    # interval counts, then odd ones, which take the three-point end
    # correction on the last interval (64 -> 128 points: 3.1e-6 -> 1.9e-7)
    exact = -2.0 * (np.exp(3.0) - 1.0) / 3.0
    for pair in ((65, 129), (64, 128)):
        errs = []
        for n_pts in pair:
            f = _exponential_mode(cfg_half, n_pts)
            errs.append(abs(kg.kg_inner(f, f) - exact))
        assert errs[1] < errs[0] / 8.0
