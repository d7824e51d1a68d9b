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

from .bogoliubov import coeff_grid
from .causality import Leakage, lightcone_leakage, outside_cone_mass
from .config import CavityConfig, DomainError, Region, ThresholdUnreachable, Truncation, _global_omega
from .modes import SampledMode, _check_time, _row_series
from .vacuum import _coeff_sq_tail

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
    """|<1_N|psi_l>|^2 over the global index N, and the coefficient row
    (``alpha``, ``beta`` at N = 1..n_max) of ``region``'s mode l that fixes
    the state; every other quasi-local quantity reads that row here.

    norm_captured = sum of p over the truncation; its deficit from 1 is the
    N-tail of the one-particle amplitudes (the state has no other sector).
    """

    l: int
    region: Region
    alpha: np.ndarray
    beta: np.ndarray
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
    ``tail_bound`` bounds the N-tail of their sum ``epsilon``; it is inf
    when the cutoff lies below l's resonance side.
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
    """psi_m against the true local mode u_m at one time, both measured
    against the left light cone: ``leak`` is u_m's ``Leakage`` (the evolved
    mode, its out-of-cone fraction and the cone), and psi is sampled on
    ``leak.mode.grid``."""

    psi: SampledMode
    leak: Leakage
    psi_outside_fraction: float   # out-of-cone mass fraction of psi outside leak.cone


# ── operations ──────────────────────────────────────────────────────────────

def overlap_distribution(
    l: int,
    cfg: CavityConfig,
    trunc: Truncation,
    region: Region = Region.LEFT,
) -> OverlapDistribution:
    """Distribution of psi_l over global one-particle states, and its peak:
    the one reader of the state's coefficient row."""
    N_idx = np.arange(1, trunc.n_max_global + 1)
    alpha, beta = coeff_grid(region, np.array([l]), N_idx, cfg)
    mean_occ = float(np.sum(beta[0] ** 2))
    p = alpha[0] ** 2 / (1.0 + mean_occ)
    Omega = _global_omega(N_idx, cfg)
    peak = float(Omega[int(np.argmax(p))])
    om_l = float(region.omega(l, cfg))
    return OverlapDistribution(
        l=l,
        region=region,
        alpha=alpha[0],
        beta=beta[0],
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
) -> SampledMode:
    """psi_m(x, t) = sum_N alpha_mN U_N(x, t) / sqrt(1 + <n_m>).

    The positive-frequency content of the left mode u_m: same alpha
    amplitudes, no conjugate branch, renormalized, summed by the same
    ``_row_series`` as ``evolve_local_mode``, which also gives its tail
    estimate.
    """
    _check_time(t, cfg, trunc.n_max_global)
    N_idx = np.arange(1, trunc.n_max_global + 1)
    alpha, beta = coeff_grid(Region.LEFT, np.array([m]), N_idx, cfg)
    a_row = alpha[0] / np.sqrt(1.0 + float(np.sum(beta[0] ** 2)))
    return _row_series(a_row, np.zeros_like(a_row), grid, t, cfg)


def wavepacket_comparison(
    m: int,
    t: float,
    cfg: CavityConfig,
    trunc: Truncation,
) -> WavepacketComparison:
    """psi_m against the evolved u_m: the out-of-light-cone mass of each at
    equal truncation, on the ``trunc.grid_points`` grid.

    u_m is exactly zero outside [0, r + t]; whatever the truncated series
    leaves there is pure reconstruction residue. psi_m's out-of-cone mass is
    physical (exponential tails) and sits far above that residue.
    """
    leak = lightcone_leakage(Region.LEFT, m, t, cfg, trunc)
    psi = quasilocal_wavepacket(m, leak.mode.grid, t, cfg, trunc)
    psi_out, psi_tot = outside_cone_mass(psi, leak.cone, Region.LEFT.omega(m, cfg))
    return WavepacketComparison(psi=psi, leak=leak, psi_outside_fraction=psi_out / psi_tot)


def quasilocal_energy(dist: OverlapDistribution, cfg: CavityConfig) -> QuasilocalEnergy:
    """Vacuum-relative energies of the creator and annihilator states on
    ``dist``'s mode, from its row. A DomainError names a zero normalization:
    <n_l> = 0, which happens when every beta_lN^2 underflows (mu R above
    about 1e81), leaves the annihilator state without a norm."""
    Om, alpha, beta = dist.Omega, dist.alpha, dist.beta
    mean_occ = dist.mean_occupation
    if mean_occ == 0.0:
        raise DomainError(
            f"the annihilator state of l={dist.l} has zero normalization <n_l> = 0 "
            f"(every beta_lN^2 underflows at mu R = {cfg.mu_tilde:g})")
    raw = float(np.sum(Om * alpha ** 2))
    ann_raw = float(np.sum(Om * beta ** 2))
    return QuasilocalEnergy(
        raw=raw,
        normalized=raw / (1.0 + mean_occ),
        annihilator_raw=ann_raw,
        annihilator_normalized=ann_raw / mean_occ,
        tail_bound=sum(_coeff_sq_tail(dist.region, dist.l, cfg, len(Om), sign, energy=True)
                       for sign in (-1.0, 1.0)),
    )


def steering_shift(dist: OverlapDistribution, l_range, cfg: CavityConfig) -> Steering:
    """Expectation shift of the far number operators caused by psi_m, the
    state of ``dist`` (m = dist.l), on the far rows l of the other family:

        shift[l] = <psi_m| n_bar_l |psi_m> - <0_G| n_bar_l |0_G>
                 = cov(n_m, n_bar_l) / (1 + <n_m>) .

    ``wick`` evaluates the covariance route; ``direct`` expands the
    four-operator expectation <0|a_m n_bar_l a_m^dagger|0> explicitly. Both
    read the same rows. They coincide exactly in the untruncated theory and
    only through the completeness identities, so their gap is a live check
    that the truncated dictionary behaves.
    """
    a_m, b_m = dist.alpha, dist.beta
    a_l, b_l = coeff_grid(dist.region.other, list(l_range), np.arange(1, len(a_m) + 1), cfg)
    B_m = float(np.dot(b_m, b_m))

    X1 = a_l @ a_m
    X2 = b_l @ a_m
    cov = (a_l @ b_m) * X2 + (b_l @ b_m) * X1
    B_l = np.vecdot(b_l, b_l)
    A_m = float(np.dot(a_m, a_m))
    return Steering(
        wick=cov / (1.0 + B_m),
        direct=(X1 * X1 + X2 * X2 + B_l * A_m) / (1.0 + B_m) - B_l,
    )
