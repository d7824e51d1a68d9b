"""Mode evaluation: global stationary modes, local Cauchy data, evolved local modes.

Global modes of the box [0, R] (Dirichlet at both walls):

    U_N(x, t) = sin(pi N x / R) e^{-i Omega_N t} / sqrt(R Omega_N)

Local modes are the Klein-Gordon solutions picked out by sine Cauchy data
confined to one side of the partition at t = 0:

    u_m(x, 0)     = chi_m(x) = theta(r - x) sin(pi m x / r) / sqrt(r omega_m)
    u_m_dot(x, 0) = -i omega_m chi_m(x)

(and mirrored data on [r, R] for the right family). At later times the local
modes delocalize; they are reconstructed from the truncated global series

    u_m(x, t) = sum_N [ alpha_mN e^{-i Omega_N t} + beta_mN e^{+i Omega_N t} ] U_N(x) ,

with U_N(x) = sin(pi N x / R)/sqrt(R Omega_N) and (alpha, beta) the
Bogoliubov rows of ``kgcavity.bogoliubov``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.fft

from .config import CavityConfig, DomainError, Truncation, ladder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .bogoliubov import BogoliubovBlock

__all__ = [
    "Region",
    "SampledMode",
    "uniform_grid",
    "conjugate_mode",
    "eval_global_mode",
    "eval_local_initial",
    "evolve_local_mode",
]


class Region(enum.Enum):
    """Which sub-interval a local mode family lives on."""

    LEFT = "left"      # [0, r]
    RIGHT = "right"    # [r, R]

    def interval(self, cfg: CavityConfig) -> tuple[float, float, float]:
        """(lo, hi, width) of the family's interval: (0, r, r) or (r, R, r_bar)."""
        if self is Region.LEFT:
            return 0.0, cfg.r, cfg.r
        return cfg.r, cfg.R, cfg.r_bar

    def omega(self, m, cfg: CavityConfig):
        """omega_m (left) or omega_bar_m (right) for a scalar or an array of m."""
        return ladder(m, self.interval(cfg)[2], cfg.mu)


@dataclass
class SampledMode:
    """A complex mode and its time derivative sampled on a spatial grid at one time.

    The (value, tderiv) pair is the Cauchy data of the solution at ``time``.
    ``tail_estimate`` / ``truncation_warning`` are populated by the series
    evaluator when the neglected global-mode tail is estimated to matter;
    ``gibbs_overshoot`` reports the truncated series' overshoot near the
    support edge at t = 0 (reported, never thresholded).
    """

    grid: np.ndarray
    value: np.ndarray
    tderiv: np.ndarray
    time: float
    tail_estimate: float = 0.0
    truncation_warning: bool = False
    gibbs_overshoot: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.value) != len(self.grid) or len(self.tderiv) != len(self.grid):
            raise ValueError(
                "value/tderiv must match the grid length: "
                f"{len(self.grid)} vs {len(self.value)}/{len(self.tderiv)}"
            )


def uniform_grid(cfg: CavityConfig, n_points: int) -> np.ndarray:
    """Uniform grid on [0, R] including both endpoints."""
    return np.linspace(0.0, cfg.R, n_points)


def conjugate_mode(mode: SampledMode) -> SampledMode:
    """The conjugate solution u*: Cauchy data (u*, (u_dot)*) at the same time."""
    return SampledMode(
        grid=mode.grid,
        value=np.conj(mode.value),
        tderiv=np.conj(mode.tderiv),
        time=mode.time,
    )


# ── evaluation ──────────────────────────────────────────────────────────────

def eval_global_mode(
    N: int,
    grid: np.ndarray,
    t: float,
    cfg: CavityConfig,
) -> SampledMode:
    """U_N sampled on ``grid`` at time ``t``; endpoints exactly zero."""
    if N < 1:
        raise DomainError(f"global index N must be >= 1, got {N}")
    grid = np.asarray(grid, dtype=np.float64)
    Om = ladder(N, cfg.R, cfg.mu)
    s = np.sin(np.pi * N * grid / cfg.R) / np.sqrt(cfg.R * Om)
    # sin(pi N) in floats is ~1e-16, not 0; Dirichlet walls are exact by construction
    s[grid <= 0.0] = 0.0
    s[grid >= cfg.R] = 0.0
    value = s * np.exp(-1j * Om * t)
    return SampledMode(grid=grid, value=value, tderiv=-1j * Om * value, time=float(t))


def eval_local_initial(
    region: Region,
    m: int,
    grid: np.ndarray,
    cfg: CavityConfig,
) -> SampledMode:
    """Local-mode Cauchy data at t = 0: value = chi_m, tderiv = -i omega_m chi_m.

    Zero outside the open region, including at the partition point x = r
    itself (measure-zero convention; the series does not converge there).
    """
    if m < 1:
        raise DomainError(f"local index m must be >= 1, got {m}")
    grid = np.asarray(grid, dtype=np.float64)
    lo, hi, width = region.interval(cfg)
    support = (grid > lo) & (grid < hi)
    om = region.omega(m, cfg)
    value = np.where(
        support,
        np.sin(np.pi * m * (grid - lo) / width) / np.sqrt(width * om),
        0.0,
    ).astype(np.complex128)
    return SampledMode(grid=grid, value=value, tderiv=-1j * om * value, time=0.0)


# grid points per block of the dense fallback's (points, N) sine table
_DENSE_CHUNK = 256

# series tail estimate above which an evolved mode carries a truncation warning
_TAIL_TOL = 1e-6


def _sine_series(
    grid: np.ndarray,
    R: float,
    cv: np.ndarray,
    cd: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """sum_N c_N sin(pi N x / R) on ``grid`` for the coefficient rows cv and
    cd (N = 1..len(cv)), exactly zero on the walls.

    On the uniform grid x_j = j R / K (K = G - 1, the exact output of
    ``uniform_grid``) sin(pi N j / K) has period 2K in N and is odd under
    N -> 2K - N, so the coefficients fold into the bins n = 1..K-1 (bins 0
    and K vanish on every grid point) and one DST-I gives every interior
    value: O(N + G log G). Any other grid takes the dense O(G N) sum.
    """
    G = len(grid)
    value = np.zeros(G, dtype=np.complex128)
    tderiv = np.zeros(G, dtype=np.complex128)
    if G >= 3 and np.array_equal(grid, np.linspace(0.0, R, G)):
        K = G - 1
        n = np.arange(1, len(cv) + 1) % (2 * K)
        upper = n > K
        bins = np.where(upper, 2 * K - n, n)
        sign = np.where(upper, -1.0, 1.0)
        folded = np.array([
            np.bincount(bins, weights=w, minlength=K + 1)[1:K]
            for c in (cv, cd)
            for w in (sign * c.real, sign * c.imag)
        ])
        # DST-I: y_j = 2 sum_n b_n sin(pi n j / K), j = 1..K-1
        interior = scipy.fft.dst(folded, type=1, axis=1) / 2.0
        value[1:K] = interior[0] + 1j * interior[1]
        tderiv[1:K] = interior[2] + 1j * interior[3]
        return value, tderiv

    n_idx = np.arange(1, len(cv) + 1, dtype=np.float64)
    for lo in range(0, G, _DENSE_CHUNK):
        hi = min(lo + _DENSE_CHUNK, G)
        # (points, N) layout keeps the N-reduction on the contiguous axis
        sines = np.sin(np.outer(grid[lo:hi], n_idx) * (np.pi / R))
        value[lo:hi] = np.sum(sines * cv, axis=1)
        tderiv[lo:hi] = np.sum(sines * cd, axis=1)
    wall = (grid <= 0.0) | (grid >= R)
    value[wall] = 0.0
    tderiv[wall] = 0.0
    return value, tderiv


def evolve_local_mode(
    region: Region,
    m: int,
    grid: np.ndarray,
    t: float,
    cfg: CavityConfig,
    trunc: Truncation,
    block: "BogoliubovBlock",
) -> SampledMode:
    """Local mode u_m at time t from the truncated global series.

    value(x) = sum_N (alpha_mN e^{-i Omega_N t} + beta_mN e^{+i Omega_N t}) U_N(x),
    tderiv the termwise time derivative, both summed by ``_sine_series``.
    A tail estimate above _TAIL_TOL sets ``truncation_warning``.
    """
    if block.region is not region:
        raise ValueError(f"block was built for {block.region}, asked to evolve {region}")
    if block.alpha.shape[1] != trunc.n_max_global:
        raise ValueError(
            f"block holds {block.alpha.shape[1]} global terms, truncation wants "
            f"{trunc.n_max_global}"
        )
    if not 1 <= m <= block.alpha.shape[0]:
        raise DomainError(f"local index m={m} outside block with {block.alpha.shape[0]} rows")

    grid = np.asarray(grid, dtype=np.float64)
    n_idx = np.arange(1, trunc.n_max_global + 1, dtype=np.float64)
    Om = ladder(n_idx, cfg.R, cfg.mu)
    a_row = block.alpha[m - 1]
    b_row = block.beta[m - 1]

    phase_neg = np.exp(-1j * Om * t)
    norm = 1.0 / np.sqrt(cfg.R * Om)
    cv = (a_row * phase_neg + b_row * np.conj(phase_neg)) * norm
    cd = (-1j * Om) * (a_row * phase_neg - b_row * np.conj(phase_neg)) * norm

    value, tderiv = _sine_series(grid, cfg.R, cv, cd)

    # Tail envelope: |term| <= (|alpha|+|beta|)/sqrt(R Omega) ~ c/N^2; the
    # neglected sum is then ~ c/n_max by the integral test.
    t_env = (np.abs(a_row[-50:]) + np.abs(b_row[-50:])) * norm[-50:]
    c_env = float(np.max(t_env * n_idx[-50:] ** 2))
    tail_estimate = c_env / trunc.n_max_global

    gibbs = None
    if t == 0.0:
        exact_sup = 1.0 / np.sqrt(region.interval(cfg)[2] * region.omega(m, cfg))
        gibbs = float(np.max(np.abs(value)) / exact_sup - 1.0)

    return SampledMode(
        grid=grid,
        value=value,
        tderiv=tderiv,
        time=float(t),
        tail_estimate=tail_estimate,
        truncation_warning=bool(tail_estimate > _TAIL_TOL),
        gibbs_overshoot=gibbs,
    )
