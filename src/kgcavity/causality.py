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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (CavityConfig, DomainError, GridMismatch, Region, Truncation, _index,
                     validate_config)
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
    """(c1, c2), the evolved mode u_m they pair with the probe, and the
    larger of the two KG quadratures' error estimates: an estimate, not a
    bound (on the default grid a Simpson-vs-trapezoid bracket, which can
    understate the error)."""

    c1: float
    c2: float
    mode: SampledMode
    error_estimate: float


def _probe_config(r_tilde: float, cfg: CavityConfig) -> CavityConfig:
    """The box split at r_tilde: its right family are the probe modes."""
    return validate_config(cfg.R, r_tilde, cfg.mu)


def make_probe(r_tilde: float, tau: float, n: int, cfg: CavityConfig) -> ProbeSpec:
    """Validated ProbeSpec, refused before any evolution runs."""
    if not cfg.r < r_tilde < cfg.R:
        raise DomainError(f"probe needs r < r_tilde < R, got r_tilde={r_tilde}")
    if not 0 <= tau < np.inf:
        raise DomainError(f"probe time must be finite and >= 0, got {tau}")
    n = _index("n", n)
    _probe_config(r_tilde, cfg)   # the split box must be a valid configuration
    return ProbeSpec(r_tilde=float(r_tilde), tau=float(tau), n=n)


def eval_probe_initial(probe: ProbeSpec, grid: np.ndarray, cfg: CavityConfig) -> SampledMode:
    """Probe Cauchy data at its own localization time tau: the t = 0 data of
    right mode n of the box split at r_tilde, stamped with time tau."""
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
    with the probe's Cauchy data by KG quadrature on a shared grid;
    GridMismatch first unless that grid has a point inside (r_tilde, R).
    """
    grid = uniform_grid(cfg, trunc.grid_points)
    _check_probe_grid(probe.r_tilde, grid, cfg)
    u_m = evolve_local_mode(Region.LEFT, m, grid, probe.tau, cfg, trunc)
    probe_mode = eval_probe_initial(probe, grid, cfg)
    p1 = kg_inner(probe_mode, u_m)
    p2 = kg_inner(probe_mode, conjugate_mode(u_m))
    return Commutators(c1=abs(p1), c2=abs(p2), mode=u_m,
                       error_estimate=max(p1.error_estimate, p2.error_estimate))


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


def _check_edge_margin(edge_margin: float) -> None:
    """DomainError unless the margin is finite and >= 0."""
    if not 0 <= edge_margin < np.inf:
        raise DomainError(f"edge margin must be finite and >= 0, got {edge_margin}")


def _check_probe_grid(r_tilde: float, grid: np.ndarray, cfg: CavityConfig) -> None:
    """GridMismatch unless a grid point lies inside the probe's support
    (r_tilde, R): the probe vanishes on every other point, so both
    commutators would read an exact 0 whatever the evolved mode."""
    if not np.any((grid > r_tilde) & (grid < cfg.R)):
        raise GridMismatch(f"no point of the {len(grid)}-point grid lies inside the probe's "
                           f"support ({r_tilde:.17g}, {cfg.R:.17g})")


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
    if not 0 <= t < np.inf:
        raise DomainError(f"time must be finite and >= 0, got {t}")
    _check_edge_margin(edge_margin)
    _check_cone_grid(trunc.grid_points)
    grid = uniform_grid(cfg, trunc.grid_points)
    u = evolve_local_mode(region, m, grid, t, cfg, trunc)
    lo, hi, _ = region.interval(cfg)
    cone = (max(lo - t - edge_margin, 0.0), min(hi + t + edge_margin, cfg.R))
    outside, total = outside_cone_mass(u, cone, region.omega(m, cfg))
    return Leakage(fraction=outside / total, cone=cone, mode=u)
