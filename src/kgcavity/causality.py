"""Causal-propagation diagnostics: probe-region commutators and cone leakage.

The probe modes are the right family of the box split at r_tilde, pinned
to [r_tilde, R] at a *later* time tau. Their KG products against the
evolved left modes,

    c1 = |(u_tilde_n | u_m)| = |[a_tilde_n, a_m^dagger]| ,
    c2 = |(u_tilde_n | u_m*)| = |[a_tilde_n, a_m]| ,

vanish identically whenever tau < r_tilde - r (the regions are still
spacelike), so any probe-region observable commutes with the left-mode
ladder operators there. With truncated series "zero" is a floor set by the
t = 0 reconstruction residue; the criteria compare against that floor
rather than absolute zero.

The truncated series' commutators are also sums over the coefficient rows,
with no grid: with (P~, Q~) the probe's row and (P, Q) that of u_m,

    c1 = |sum_N (P~_N P_N e^{-i Omega_N tau} - Q~_N Q_N e^{+i Omega_N tau})| ,

and c2 the same with P and Q swapped on u_m's row. ``commutator_pair``
returns both routes; the distance between them measures the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bogoliubov import coeff_grid
from .config import (CavityConfig, DomainError, GridMismatch, Region, Truncation, _global_omega,
                     _index, validate_config)
from .modes import SampledMode, conjugate_mode, eval_local_initial, evolve_local_mode, uniform_grid
from .quadrature import kg_inner

__all__ = [
    "ProbeSpec",
    "Leakage",
    "Commutators",
    "make_probe",
    "eval_probe_initial",
    "commutator_pair",
    "outside_cone_mass",
    "lightcone_leakage",
]


@dataclass(frozen=True)
class ProbeSpec:
    """A probe mode: index n on [r_tilde, R], localized there at time tau."""

    r_tilde: float
    tau: float
    n: int


class Leakage(NamedTuple):
    """Out-of-cone fraction, the cone (lo, hi) it was measured against, and
    the evolved mode it was measured on, which carries its own series
    diagnostics (see ``SampledMode``)."""

    fraction: float
    cone: tuple[float, float]
    mode: SampledMode


class Commutators(NamedTuple):
    """(c1, c2) by KG quadrature, the evolved mode u_m they pair with the
    probe, and ``sums``, the same (c1, c2) as grid-free coefficient sums."""

    c1: float
    c2: float
    mode: SampledMode
    sums: tuple[float, float]


def _probe_config(r_tilde: float, cfg: CavityConfig) -> CavityConfig:
    """The box split at r_tilde: its right family are the probe modes."""
    return validate_config(cfg.R, r_tilde, cfg.mu)


def _finite_nonnegative(name: str, value: float) -> None:
    """DomainError unless ``value`` (a time, a probe time or an edge
    margin) is finite and >= 0."""
    if not 0 <= value < np.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


def make_probe(r_tilde: float, tau: float, n: int, cfg: CavityConfig) -> ProbeSpec:
    """Validated ProbeSpec, refused before any evolution runs: the one
    check of a probe, which ``eval_probe_initial`` and ``commutator_pair``
    also pass theirs through."""
    if not cfg.r < r_tilde < cfg.R:
        raise DomainError(f"probe needs r < r_tilde < R, got r_tilde={r_tilde}")
    _finite_nonnegative("probe time", tau)
    n = _index("n", n)
    _probe_config(r_tilde, cfg)   # the split box must be a valid configuration
    return ProbeSpec(r_tilde=float(r_tilde), tau=float(tau), n=n)


def eval_probe_initial(probe: ProbeSpec, grid: np.ndarray, cfg: CavityConfig) -> SampledMode:
    """Probe Cauchy data at its own localization time tau: the t = 0 data of
    right mode n of the box split at r_tilde, stamped with time tau."""
    probe = make_probe(probe.r_tilde, probe.tau, probe.n, cfg)
    mode = eval_local_initial(Region.RIGHT, probe.n, grid, _probe_config(probe.r_tilde, cfg))
    mode.time = probe.tau
    return mode


def commutator_pair(
    probe: ProbeSpec,
    m: int,
    cfg: CavityConfig,
    trunc: Truncation,
) -> Commutators:
    """(c1, c2) = (|(u_tilde_n|u_m)|, |(u_tilde_n|u_m*)|) at t = tau.

    u_m is evolved to tau through the truncated global series and paired
    with the probe's Cauchy data by KG quadrature on a shared grid. Before
    u_m is evolved, ``eval_probe_initial`` refuses a probe ``make_probe``
    refuses, and GridMismatch a grid with fewer points inside
    (r_tilde, R) than the probe has half-waves. ``sums`` are the module
    docstring's coefficient sums over N = 1..n_max.
    """
    grid = uniform_grid(cfg, trunc.grid_points)
    probe_mode = eval_probe_initial(probe, grid, cfg)
    _check_probe_grid(probe.r_tilde, probe.n, grid, cfg)
    u_m = evolve_local_mode(Region.LEFT, m, grid, probe.tau, cfg, trunc)
    p1 = kg_inner(probe_mode, u_m)
    p2 = kg_inner(probe_mode, conjugate_mode(u_m))

    N = np.arange(1, trunc.n_max_global + 1)
    (Pt,), (Qt,) = coeff_grid(Region.RIGHT, [probe.n], N, _probe_config(probe.r_tilde, cfg))
    (P,), (Q,) = coeff_grid(Region.LEFT, [m], N, cfg)
    phase = np.exp(-1j * _global_omega(N, cfg) * probe.tau)
    sums = tuple(float(abs(np.sum(Pt * a * phase - Qt * b * np.conj(phase))))
                 for a, b in ((P, Q), (Q, P)))
    return Commutators(c1=abs(p1), c2=abs(p2), mode=u_m, sums=sums)


def outside_cone_mass(mode: SampledMode, cone: tuple[float, float],
                      om: float) -> tuple[float, float]:
    """(mass outside the cone, total mass) of |f|^2 + |f_dot / om|^2.

    Plain trapezoid on the grid points at or below lo plus that on the points
    at or above hi, each side counting only with at least 2 points: nested
    sub-grids, so widening the cone can only shrink the outside mass.
    f_dot is divided by om before squaring: both scale as 1/R, so their
    squares overflow in a tiny box where the ratio does not.
    """
    x = mode.grid
    rho = np.abs(mode.value) ** 2 + (np.abs(mode.tderiv) / om) ** 2
    total = float(np.trapezoid(rho, x))
    lo, hi = cone
    outside = 0.0
    for side in (x <= lo, x >= hi):
        if np.count_nonzero(side) >= 2:
            outside += float(np.trapezoid(rho[side], x[side]))
    return outside, total


def _check_probe_grid(r_tilde: float, n: int, grid: np.ndarray, cfg: CavityConfig) -> None:
    """GridMismatch unless the grid has at least n points inside the
    support (r_tilde, R) of probe n, one per half-wave: the probe vanishes
    on every other point, so with none inside both commutators would read
    an exact 0 whatever the evolved mode, and with fewer than its half-waves
    the grid aliases the probe and the KG quadrature reads noise."""
    inside = np.count_nonzero((grid > r_tilde) & (grid < cfg.R))
    if inside < n:
        raise GridMismatch(f"{inside} points of the {len(grid)}-point grid lie inside the "
                           f"support ({r_tilde:.17g}, {cfg.R:.17g}) of probe {n}, fewer than "
                           f"its {n} half-waves")


def _check_cone_grid(n_points: int) -> None:
    """GridMismatch unless the grid has an interior point: every mode
    vanishes on the walls, so on 1 or 2 points the mass of an out-of-cone
    fraction is 0/0."""
    if n_points < 3:
        raise GridMismatch(f"an out-of-cone fraction needs at least 3 grid points, got {n_points}")


def lightcone_leakage(
    region: Region,
    m: int,
    t: float,
    cfg: CavityConfig,
    trunc: Truncation,
    edge_margin: float = 0.0,
) -> Leakage:
    """Fraction of the mode's energy-like density outside its light cone.

    The cone of the family on [lo, hi] after time t is [lo - t, hi + t]
    clipped to the box: [0, r + t] on the left, [r - t, R] on the right. At
    t = 0 the fraction is exactly the truncation reconstruction residue.
    ``edge_margin`` >= 0 widens the cone: the truncated series rings in an
    O(R/n_max) skirt around the propagating edge, and a small margin
    separates that ringing from genuine (absent) leakage.
    This is the one place a cone is computed: every other out-of-cone
    measurement reads ``Leakage.cone``.
    """
    _finite_nonnegative("time", t)
    _finite_nonnegative("edge margin", edge_margin)
    _check_cone_grid(trunc.grid_points)
    grid = uniform_grid(cfg, trunc.grid_points)
    u = evolve_local_mode(region, m, grid, t, cfg, trunc)
    lo, hi, _ = region.interval(cfg)
    cone = (max(lo - t - edge_margin, 0.0), min(hi + t + edge_margin, cfg.R))
    outside, total = outside_cone_mass(u, cone, region.omega(m, cfg))
    return Leakage(fraction=outside / total, cone=cone, mode=u)
