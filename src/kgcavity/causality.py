"""Causal-propagation diagnostics: probe-region commutators and cone leakage.

A third mode family is pinned to [r_tilde, R] at a *later* time tau. Its
KG products against the evolved left modes,

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

from .config import CavityConfig, DomainError, GridMismatch, Truncation, ladder
from .modes import Region, SampledMode, conjugate_mode, evolve_local_mode, uniform_grid
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
    """Out-of-cone fraction plus the evolved mode's own series diagnostics
    (see ``SampledMode``)."""

    fraction: float
    tail_estimate: float
    truncation_warning: bool
    gibbs_overshoot: float | None


class Commutators(NamedTuple):
    """(c1, c2) plus the evolved mode's own series diagnostics."""

    c1: float
    c2: float
    tail_estimate: float
    truncation_warning: bool
    gibbs_overshoot: float | None


def make_probe(r_tilde: float, tau: float, n: int, cfg: CavityConfig) -> ProbeSpec:
    """Validated ProbeSpec with omega_tilde = sqrt(pi^2 n^2/(R-r_tilde)^2 + mu^2)."""
    if not cfg.r < r_tilde < cfg.R:
        raise DomainError(f"probe needs r < r_tilde < R, got r_tilde={r_tilde}")
    if tau < 0:
        raise DomainError(f"probe time must be >= 0, got {tau}")
    if n < 1:
        raise DomainError(f"probe index must be >= 1, got {n}")
    omega_tilde = float(ladder(n, cfg.R - r_tilde, cfg.mu))
    return ProbeSpec(r_tilde=float(r_tilde), tau=float(tau), n=int(n), omega_tilde=omega_tilde)


def eval_probe_initial(probe: ProbeSpec, grid: np.ndarray, cfg: CavityConfig) -> SampledMode:
    """Probe Cauchy data at its own localization time tau.

    value = theta(x - r_tilde) sin(n pi (x - r_tilde)/(R - r_tilde))
            / sqrt((R - r_tilde) omega_tilde),   tderiv = -i omega_tilde value.

    The 1/sqrt(width * omega) factor makes (u_tilde|u_tilde) = 1, exactly as
    for the other confined families.
    """
    grid = np.asarray(grid, dtype=np.float64)
    width = cfg.R - probe.r_tilde
    support = (grid > probe.r_tilde) & (grid < cfg.R)
    value = np.where(
        support,
        np.sin(np.pi * probe.n * (grid - probe.r_tilde) / width)
        / np.sqrt(width * probe.omega_tilde),
        0.0,
    ).astype(np.complex128)
    return SampledMode(grid=grid, value=value, tderiv=-1j * probe.omega_tilde * value, time=probe.tau)


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
        tail_estimate=u_m.tail_estimate,
        truncation_warning=u_m.truncation_warning,
        gibbs_overshoot=u_m.gibbs_overshoot,
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
    return Leakage(
        fraction=outside / total,
        tail_estimate=u.tail_estimate,
        truncation_warning=u.truncation_warning,
        gibbs_overshoot=u.gibbs_overshoot,
    )
