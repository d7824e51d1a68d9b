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

from .config import CavityConfig, DomainError, GridMismatch, Truncation, validate_config
from .modes import Region, SampledMode, conjugate_mode, eval_local_initial, evolve_local_mode, uniform_grid
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
    omega_tilde: float


class Leakage(NamedTuple):
    """Out-of-cone fraction and the evolved mode it was measured on, which
    carries its own series diagnostics (see ``SampledMode``)."""

    fraction: float
    mode: SampledMode


class Commutators(NamedTuple):
    """(c1, c2) and the evolved mode u_m they pair with the probe."""

    c1: float
    c2: float
    mode: SampledMode


def _probe_config(r_tilde: float, cfg: CavityConfig) -> CavityConfig:
    """The box split at r_tilde: its right family are the probe modes."""
    return validate_config(cfg.R, r_tilde, cfg.mu)


def make_probe(r_tilde: float, tau: float, n: int, cfg: CavityConfig) -> ProbeSpec:
    """Validated ProbeSpec; omega_tilde is right mode n's frequency in the box split at r_tilde."""
    if not cfg.r < r_tilde < cfg.R:
        raise DomainError(f"probe needs r < r_tilde < R, got r_tilde={r_tilde}")
    if tau < 0:
        raise DomainError(f"probe time must be >= 0, got {tau}")
    if n < 1:
        raise DomainError(f"probe index must be >= 1, got {n}")
    omega_tilde = float(Region.RIGHT.omega(n, _probe_config(r_tilde, cfg)))
    return ProbeSpec(r_tilde=float(r_tilde), tau=float(tau), n=int(n), omega_tilde=omega_tilde)


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
    with the probe's Cauchy data by KG quadrature on a shared grid.
    """
    grid = uniform_grid(cfg, trunc.grid_points)
    u_m = evolve_local_mode(Region.LEFT, m, grid, probe.tau, cfg, trunc)
    probe_mode = eval_probe_initial(probe, grid, cfg)
    return Commutators(
        c1=abs(kg_inner(probe_mode, u_m)),
        c2=abs(kg_inner(probe_mode, conjugate_mode(u_m))),
        mode=u_m,
    )


def outside_cone_mass(mode: SampledMode, edge: float, om: float, side: str) -> tuple[float, float]:
    """(mass outside the cone, total mass) of |f|^2 + |f_dot|^2 / om^2.

    ``side`` is "above" when the causal region is [0, edge] (left family) and
    "below" when it is [edge, R]. Plain trapezoid on the nested sub-grid, so
    enlarging the cone can only shrink the outside mass.
    """
    x = mode.grid
    rho = np.abs(mode.value) ** 2 + np.abs(mode.tderiv) ** 2 / om**2
    total = float(np.trapezoid(rho, x))
    mask = x >= edge if side == "above" else x <= edge
    if np.count_nonzero(mask) < 2:
        return 0.0, total
    outside = float(np.trapezoid(rho[mask], x[mask]))
    return outside, total


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

    The cone of the left family after time t is [0, r + t]; of the right
    family, [r - t, R]. At t = 0 the fraction is exactly the truncation
    reconstruction residue. ``edge_margin`` widens the cone: the truncated
    series rings in an O(R/n_max) skirt around the propagating edge, and a
    small margin separates that ringing from genuine (absent) leakage.
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    _check_cone_grid(trunc.grid_points)
    grid = uniform_grid(cfg, trunc.grid_points)
    u = evolve_local_mode(region, m, grid, t, cfg, trunc)
    om = region.omega(m, cfg)
    if region is Region.LEFT:
        edge = min(cfg.r + t + edge_margin, cfg.R)
        outside, total = outside_cone_mass(u, edge, om, side="above")
    else:
        edge = max(cfg.r - t - edge_margin, 0.0)
        outside, total = outside_cone_mass(u, edge, om, side="below")
    return Leakage(fraction=outside / total, mode=u)
