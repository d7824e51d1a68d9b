"""Quasi-local one-particle states: a_l^dagger |0_G>, normalized.

Acting on the *global* vacuum, the local creator lands entirely in the
one-particle sector: a_l^dagger|0_G> = sum_N alpha_lN |1_N> (the creator
part annihilates nothing and the annihilator part kills the vacuum), with
squared norm sum_N alpha^2 = 1 + <n_l>. The normalized state

    psi_l = a_l^dagger |0_G> / sqrt(1 + <0_G|n_l|0_G>)

is therefore a bandwidth-limited superposition of global quanta: its
overlap distribution p[N] = alpha_lN^2 / (1 + <n_l>) sums to one (up to
the truncation deficit), peaks at the global frequency nearest omega_l,
and carries exponential tails outside [0, r] — the state is quasi-local,
not strictly local, and the steering shift quantifies exactly how the
right region notices it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bogoliubov import BogoliubovBlock, coeff_grid
from .causality import _check_cone_grid, outside_cone_mass
from .config import CavityConfig, DomainError, ThresholdUnreachable, Truncation, ladder
from .modes import Region, SampledMode, _sine_series, evolve_local_mode
from .vacuum import _energy_tail, _row_dots

__all__ = [
    "OverlapDistribution",
    "QuasilocalEnergy",
    "Steering",
    "WavepacketComparison",
    "overlap_distribution",
    "bandwidth",
    "quasilocal_wavepacket",
    "wavepacket_comparison",
    "quasilocal_energy",
    "steering_shift",
]


@dataclass(frozen=True)
class OverlapDistribution:
    """|<1_N|psi_l>|^2 over the global index N.

    norm_captured = sum of p over the truncation; its deficit from 1 is the
    N-tail of the one-particle amplitudes (the state has no other sector).
    """

    l: int
    p: np.ndarray
    norm_captured: float
    peak_Omega: float
    omega_l: float
    Omega: np.ndarray
    mean_occupation: float


@dataclass(frozen=True)
class QuasilocalEnergy:
    """Energies (relative to the global vacuum) of the two jittered states.

    creator state  a_l^dagger|0>/sqrt(1+<n_l>):  raw = sum Omega alpha^2,
    annihilator state  a_l|0>/sqrt(<n_l>):       raw = sum Omega beta^2;
    ``normalized`` divides by the respective squared norms. All positive.
    ``tail_bound`` bounds the N-tail of their sum ``epsilon``.
    """

    raw: float
    normalized: float
    annihilator_raw: float
    annihilator_normalized: float
    tail_bound: float

    @property
    def epsilon(self) -> float:
        """epsilon_l = sum_N Omega_N (alpha_lN^2 + beta_lN^2): the average
        global energy carried by one local quantum. Positive term by term;
        finite because the summand falls off like sin^2(x)/x^2."""
        return self.raw + self.annihilator_raw


class Steering(NamedTuple):
    """The steering shift per far index l by its two routes (see
    ``steering_shift``)."""

    wick: np.ndarray
    direct: np.ndarray


@dataclass(frozen=True)
class WavepacketComparison:
    """psi_m vs the true local mode u_m on a shared grid at one time."""

    psi: SampledMode
    u: SampledMode
    abs_diff: np.ndarray          # |psi| - |u| per grid point
    cone_edge: float
    psi_outside_fraction: float   # out-of-cone mass fraction of psi
    u_outside_fraction: float     # same for the truncated u (pure series residue)


# ── operations ──────────────────────────────────────────────────────────────

def overlap_distribution(
    l: int,
    cfg: CavityConfig,
    trunc: Truncation,
    region: Region = Region.LEFT,
) -> OverlapDistribution:
    """Distribution of psi_l over global one-particle states, and its peak."""
    if l < 1:
        raise DomainError(f"local index l must be >= 1, got {l}")
    N_idx = np.arange(1, trunc.n_max_global + 1)
    alpha, beta = coeff_grid(region, np.array([l]), N_idx, cfg)
    mean_occ = float(np.sum(beta[0] ** 2))
    p = alpha[0] ** 2 / (1.0 + mean_occ)
    Omega = ladder(N_idx, cfg.R, cfg.mu)
    peak = float(Omega[int(np.argmax(p))])
    om_l = float(region.omega(l, cfg))
    return OverlapDistribution(
        l=l,
        p=p,
        norm_captured=float(np.sum(p)),
        peak_Omega=peak,
        omega_l=om_l,
        Omega=Omega,
        mean_occupation=mean_occ,
    )


def bandwidth(dist: OverlapDistribution, threshold: float = 0.95) -> float:
    """Smallest symmetric window around omega_l capturing > threshold p-mass.

    The window (omega_l - dO/2, omega_l + dO/2) grows over the discrete
    ladder of distances |Omega_N - omega_l|; returns dO. Raises
    ThresholdUnreachable (carrying the captured mass) when the truncated
    distribution cannot reach the threshold at all.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    d = np.abs(dist.Omega - dist.omega_l)
    order = np.argsort(d, kind="stable")
    cum = np.cumsum(dist.p[order])
    hit = np.nonzero(cum > threshold)[0]
    if len(hit) == 0:
        raise ThresholdUnreachable(
            f"truncation captures only {cum[-1]:.6g} of the overlap mass for l={dist.l}, "
            f"threshold {threshold} unreachable",
            captured=float(cum[-1]),
        )
    k = int(hit[0])
    # all modes at the same discrete distance enter together
    return 2.0 * float(d[order[k]])


def quasilocal_wavepacket(
    m: int,
    grid: np.ndarray,
    t: float,
    cfg: CavityConfig,
    trunc: Truncation,
    region: Region = Region.LEFT,
) -> SampledMode:
    """psi_m(x, t) = sum_N alpha_mN U_N(x, t) / sqrt(1 + <n_m>).

    The positive-frequency content of u_m: same alpha amplitudes, no
    conjugate branch, renormalized, summed by the same ``_sine_series`` as
    ``evolve_local_mode``.
    """
    if m < 1:
        raise DomainError(f"local index m must be >= 1, got {m}")
    grid = np.asarray(grid, dtype=np.float64)
    N_idx = np.arange(1, trunc.n_max_global + 1)
    alpha, beta = coeff_grid(region, np.array([m]), N_idx, cfg)
    mean_occ = float(np.sum(beta[0] ** 2))
    norm = np.sqrt(1.0 + mean_occ)
    Om = ladder(N_idx, cfg.R, cfg.mu)

    cv = alpha[0] * np.exp(-1j * Om * t) / np.sqrt(cfg.R * Om) / norm
    cd = -1j * Om * cv
    value, tderiv = _sine_series(grid, cfg.R, cv, cd)
    return SampledMode(grid=grid, value=value, tderiv=tderiv, time=float(t))


def wavepacket_comparison(
    m: int,
    grid: np.ndarray,
    t: float,
    cfg: CavityConfig,
    trunc: Truncation,
    block: BogoliubovBlock,
) -> WavepacketComparison:
    """psi_m against the evolved u_m: pointwise |psi| - |u| and the
    out-of-light-cone mass of each at equal truncation.

    u_m is exactly zero outside [0, r + t]; whatever the truncated series
    leaves there is pure reconstruction residue. psi_m's out-of-cone mass is
    physical (exponential tails) and sits far above that residue.
    """
    _check_cone_grid(len(grid))
    psi = quasilocal_wavepacket(m, grid, t, cfg, trunc)
    u = evolve_local_mode(Region.LEFT, m, grid, t, cfg, trunc, block)
    om = Region.LEFT.omega(m, cfg)
    edge = min(cfg.r + t, cfg.R)
    psi_out, psi_tot = outside_cone_mass(psi, edge, om, side="above")
    u_out, u_tot = outside_cone_mass(u, edge, om, side="above")
    return WavepacketComparison(
        psi=psi,
        u=u,
        abs_diff=np.abs(psi.value) - np.abs(u.value),
        cone_edge=edge,
        psi_outside_fraction=psi_out / psi_tot,
        u_outside_fraction=u_out / u_tot,
    )


def quasilocal_energy(
    l: int,
    cfg: CavityConfig,
    trunc: Truncation,
    region: Region = Region.LEFT,
) -> QuasilocalEnergy:
    """Vacuum-relative energies of the creator and annihilator states on l."""
    if l < 1:
        raise DomainError(f"local index l must be >= 1, got {l}")
    N_idx = np.arange(1, trunc.n_max_global + 1)
    alpha, beta = coeff_grid(region, np.array([l]), N_idx, cfg)
    Om = ladder(N_idx, cfg.R, cfg.mu)
    raw = float(np.sum(Om * alpha[0] ** 2))
    ann_raw = float(np.sum(Om * beta[0] ** 2))
    mean_occ = float(np.sum(beta[0] ** 2))
    return QuasilocalEnergy(
        raw=raw,
        normalized=raw / (1.0 + mean_occ),
        annihilator_raw=ann_raw,
        annihilator_normalized=ann_raw / mean_occ,
        tail_bound=_energy_tail(region, l, cfg, trunc.n_max_global),
    )


def steering_shift(m: int, l_range, cfg: CavityConfig, trunc: Truncation) -> Steering:
    """Expectation shift of the far number operators caused by psi_m:

        shift[l] = <psi_m| n_bar_l |psi_m> - <0_G| n_bar_l |0_G>
                 = cov(n_m, n_bar_l) / (1 + <n_m>) .

    ``wick`` evaluates the covariance route; ``direct`` expands the
    four-operator expectation <0|a_m n_bar_l a_m^dagger|0> explicitly. Both
    read the same rows. They coincide exactly in the untruncated theory and
    only through the completeness identities, so their gap is a live check
    that the truncated dictionary behaves.
    """
    l_idx = np.array([int(l) for l in l_range], dtype=np.int64)
    if m < 1 or np.any(l_idx < 1):
        raise DomainError(f"local indices must be >= 1, got m={m}, l={l_idx.tolist()}")
    N_idx = np.arange(1, trunc.n_max_global + 1)
    a_m, b_m = coeff_grid(Region.LEFT, np.array([m]), N_idx, cfg)
    a_m, b_m = a_m[0], b_m[0]
    B_m = float(np.dot(b_m, b_m))
    a_l, b_l = coeff_grid(Region.RIGHT, l_idx, N_idx, cfg)

    X1 = a_l @ a_m
    X2 = b_l @ a_m
    cov = (a_l @ b_m) * X2 + (b_l @ b_m) * X1
    B_l = _row_dots(b_l, b_l)
    A_m = float(np.dot(a_m, a_m))
    return Steering(
        wick=cov / (1.0 + B_m),
        direct=(X1 * X1 + X2 * X2 + B_l * A_m) / (1.0 + B_m) - B_l,
    )
