"""Mode evaluation: local Cauchy data and evolved local modes.

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

from dataclasses import dataclass, field, replace

import numpy as np

from .bogoliubov import build_block
from .config import (CavityConfig, DomainError, GridMismatch, Region, Truncation, _global_omega,
                     _index, _local_index)

__all__ = [
    "SampledMode",
    "uniform_grid",
    "conjugate_mode",
    "eval_local_initial",
    "evolve_local_mode",
]


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
            raise GridMismatch(
                "value/tderiv must match the grid length: "
                f"{len(self.grid)} vs {len(self.value)}/{len(self.tderiv)}"
            )


def uniform_grid(cfg: CavityConfig, n_points: int) -> np.ndarray:
    """Uniform grid on [0, R] including both endpoints."""
    return np.linspace(0.0, cfg.R, _index("n_points", n_points))


def conjugate_mode(mode: SampledMode) -> SampledMode:
    """The conjugate solution u*: Cauchy data (u*, (u_dot)*) at the same time."""
    return SampledMode(
        grid=mode.grid,
        value=np.conj(mode.value),
        tderiv=np.conj(mode.tderiv),
        time=mode.time,
    )


# ── evaluation ──────────────────────────────────────────────────────────────

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
    m = _index("m", m)
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


def _sine_series(grid: np.ndarray, R: float, rows: np.ndarray) -> np.ndarray:
    """sum_N rows[:, N-1] sin(pi N x / R) on ``grid`` for a stack of real
    coefficient rows (N = 1..rows.shape[1]), one output row each, exactly
    zero on the walls.

    On the uniform grid x_j = j R / K (K = G - 1, the exact output of
    ``uniform_grid``) sin(pi N j / K) has period 2K in N, so each row sums
    into its residues C_n = sum_{N = n mod 2K} c_N by one reshape, and every
    interior value is sum_n C_n sin(pi n j / K) = -Im rfft(C)_j:
    O(N + G log G). Any other grid takes the dense O(G N) sum, one matrix
    product per block of points.
    """
    G = len(grid)
    k, n_max = rows.shape
    out = np.zeros((k, G))
    if G >= 3 and np.array_equal(grid, np.linspace(0.0, R, G)):
        K = G - 1
        # column N holds c_N: a zero column for N = 0, zeros to whole periods
        padded = np.pad(rows, ((0, 0), (1, -(n_max + 1) % (2 * K))))
        residues = padded.reshape(k, -1, 2 * K).sum(axis=1)
        out[:, 1:K] = -np.fft.rfft(residues, axis=1).imag[:, 1:K]
        return out

    n_idx = np.arange(1, n_max + 1, dtype=np.float64)
    for lo in range(0, G, _DENSE_CHUNK):
        out[:, lo:lo + _DENSE_CHUNK] = rows @ np.sin(
            np.outer(n_idx, grid[lo:lo + _DENSE_CHUNK]) * (np.pi / R))
    out[:, (grid <= 0.0) | (grid >= R)] = 0.0
    return out


def _check_time(t: float, cfg: CavityConfig, n_max: int) -> None:
    """DomainError unless the series on N = 1..n_max resolves its phases at
    time t: t must be finite (at t = +-inf or NaN every phase is NaN), and
    the largest phase Omega_{n_max} |t| below 2^52, from where one ulp of it
    is a radian or more, so that even a finite cell is noise (and past
    double range the phases are NaN)."""
    if not np.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    # a Python float product: past double range it is inf, with no warning
    phase = float(_global_omega(n_max, cfg)) * abs(t)
    if phase >= 2.0**52:
        raise DomainError(f"time t={t:g} is unresolved at n_max={n_max}: the largest phase "
                          f"Omega_N |t| is {phase:.3g}, at least 2^52, where one ulp of it is a "
                          f"radian or more")


def _row_series(a_row: np.ndarray, b_row: np.ndarray, grid: np.ndarray, t: float,
                cfg: CavityConfig) -> SampledMode:
    """The solution sum_N (a_N e^{-i Omega_N t} + b_N e^{+i Omega_N t}) U_N(x)
    of one real coefficient row (N = 1..len(a_row)) at time t, with its
    termwise time derivative. With s_N = (a_N + b_N) / sqrt(R Omega_N) and
    d_N = (a_N - b_N) / sqrt(R Omega_N) the value's coefficients are
    s cos(Omega t) - i d sin(Omega t) and the derivative's
    -Omega [s sin(Omega t) + i d cos(Omega t)]: four real rows, summed by
    ``_sine_series``.

    The tail estimate is the c/n_max envelope of the last terms; above
    _TAIL_TOL it sets ``truncation_warning``.
    """
    grid = np.asarray(grid, dtype=np.float64)
    n_idx = np.arange(1, len(a_row) + 1, dtype=np.float64)
    Om = _global_omega(n_idx, cfg)
    norm = 1.0 / np.sqrt(cfg.R * Om)
    s, d = (a_row + b_row) * norm, (a_row - b_row) * norm
    cos, sin = np.cos(Om * t), np.sin(Om * t)
    out = _sine_series(grid, cfg.R, np.array([s * cos, -d * sin, -Om * s * sin, -Om * d * cos]))
    value, tderiv = out[::2] + 1j * out[1::2]

    # Tail envelope: |term| <= (|a|+|b|)/sqrt(R Omega) ~ c/N^2; the
    # neglected sum is then ~ c/n_max by the integral test.
    t_env = (np.abs(a_row[-50:]) + np.abs(b_row[-50:])) * norm[-50:]
    tail_estimate = float(np.max(t_env * n_idx[-50:] ** 2)) / len(a_row)
    return SampledMode(grid=grid, value=value, tderiv=tderiv, time=float(t),
                       tail_estimate=tail_estimate,
                       truncation_warning=bool(tail_estimate > _TAIL_TOL))


def evolve_local_mode(
    region: Region,
    m: int,
    grid: np.ndarray,
    t: float,
    cfg: CavityConfig,
    trunc: Truncation,
) -> SampledMode:
    """Local mode u_m at time t from the truncated global series.

    value(x) = sum_N (alpha_mN e^{-i Omega_N t} + beta_mN e^{+i Omega_N t}) U_N(x),
    tderiv the termwise time derivative, both from ``_row_series`` on row m
    of the family's coefficients. At t = 0 the snapshot also reports its
    Gibbs overshoot against the exact sup of chi_m.
    """
    m = _local_index("m", m, trunc)
    _check_time(t, cfg, trunc.n_max_global)
    block = build_block(region, cfg, None, replace(trunc, m_max_local=m))
    mode = _row_series(block.alpha[m - 1], block.beta[m - 1], grid, t, cfg)
    if t == 0.0:
        exact_sup = 1.0 / np.sqrt(region.interval(cfg)[2] * region.omega(m, cfg))
        mode.gibbs_overshoot = float(np.max(np.abs(mode.value)) / exact_sup - 1.0)
    return mode
