"""Global-vacuum observables seen through the local number operators.

The global vacuum |0_G> is not the local vacuum: each local annihilator
a_m = sum_N p_N A_N + q_N A_N^dagger (rows p = alpha_m, q from beta_m)
mixes creators in, so local number expectations, inter-region covariances
and the unitary-inequivalence diagnostics are all plain coefficient sums:

    <n_m>        = sum_N beta_mN^2
    var(n_m)     = (sum p^2)(sum q^2) + (sum p q)^2          (Wick)
    cov(n_m,n_n) = (sum q p')(sum p q') + (sum q q')(sum p p')

with primes the other region's rows. Over a set of rows these sums are
Gram matrices, so the moments are BLAS matrix products, deterministic for
a fixed BLAS thread count; tail bounds use the integral test with sin^2
replaced by its mean 1/2, and are reported, never silently applied.

The spectrum, the fixed-N divergence scan and the limit scans read beta
only: they take their sums from ``bogoliubov.beta_sq_sums``, which streams
N and never forms alpha. The Wick moments and fixed-m convergence sums
read alpha too and take coefficient rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .bogoliubov import BogoliubovBlock, beta_sq_sums, coeff_grid
from .config import CavityConfig, DomainError, Truncation, validate_config
from .modes import Region

__all__ = [
    "SpectrumResult",
    "DivergenceScan",
    "ModeSumConvergence",
    "MomentReport",
    "TrendTable",
    "vacuum_spectrum",
    "divergence_scan",
    "mode_sum_convergence",
    "wick_moments",
    "limit_scan",
]


# ── result types ────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class SpectrumResult:
    """<0_G| n_l |0_G> per local mode l, with per-l tail estimates."""

    region: Region
    values: np.ndarray
    tail_bound: np.ndarray


@dataclass(frozen=True)
class DivergenceScan:
    """Partial sums S(M) = sum_{m<=M} (beta_mN^2 + beta_bar_mN^2) at fixed N.

    A log-divergent S(M) (b > 0 with a good a + b log M fit) certifies that
    the two quantizations cannot be unitarily connected.
    """

    N: int
    M_list: np.ndarray
    partial_sums: np.ndarray
    fit_slope: float
    fit_intercept: float
    fit_r2: float


@dataclass(frozen=True)
class ModeSumConvergence:
    """The opposite (convergent) direction: N-sums at fixed local index m."""

    region: Region
    m: int
    n_list: np.ndarray
    alpha2_partial: np.ndarray
    beta2_partial: np.ndarray
    alpha2_tail: float
    beta2_tail: float


@dataclass(frozen=True)
class MomentReport:
    """Wick-computed number-operator moments across the partition."""

    m_range: tuple
    n_range: tuple
    mean_left: np.ndarray
    mean_right: np.ndarray
    var_left: np.ndarray
    var_right: np.ndarray
    cov: np.ndarray
    corr: np.ndarray
    corr_paper_norm: np.ndarray | None = None


@dataclass(frozen=True)
class TrendTable:
    """Per-probe trends along a mass or partition-size scan."""

    kind: str
    values: np.ndarray
    probe_indices: tuple
    M_fixed: int
    n_per_probe: np.ndarray      # <n_m> per (scan value, probe)
    alpha_mag: np.ndarray        # |alpha_mN| per (scan value, probe)
    beta_mag: np.ndarray         # |beta_mN| per (scan value, probe)
    sum_left: np.ndarray         # sum_{m<=M} <n_m>
    sum_both: np.ndarray         # sum_{m<=M} (<n_m> + <n_bar_m>)


# ── helpers ─────────────────────────────────────────────────────────────────

def _tail_quad(f, start: float) -> float:
    """quad of f over [start, inf) via N = start/x, which maps the tail onto
    (0, 1] and keeps the quadrature away from the slow-decay regime."""
    val, _ = integrate.quad(lambda x: f(start / x) * start / (x * x), 0.0, 1.0)
    return float(val)


def _coeff_sq_tail(region: Region, l: int, cfg: CavityConfig, n_from: int,
                   sign: float) -> float:
    """Integral-test tail beyond N = n_from of sum_N beta_lN^2 (sign = +1) or
    sum_N alpha_lN^2 (sign = -1), sin^2 -> 1/2: the summand is
    pref / (Om (Om + sign om)^2). The alpha tail starts past its resonance
    pole, on the monotone side."""
    w = region.interval(cfg)[2]
    om_l = float(region.omega(l, cfg))
    pref = l**2 * np.pi**2 / (2.0 * cfg.R * w**3 * om_l)

    def integrand(N: float) -> float:
        Om = math.sqrt((math.pi * N / cfg.R) ** 2 + cfg.mu**2)
        return pref / (Om * (Om + sign * om_l) ** 2)

    start = float(n_from)
    if sign < 0:
        start = max(start, 2.0 * om_l * cfg.R / np.pi)
    return _tail_quad(integrand, start)


def _energy_tail(region: Region, l: int, cfg: CavityConfig, n_from: int) -> float:
    """Integral-test tail of sum_N Omega_N (alpha_lN^2 + beta_lN^2) beyond
    N = n_from, sin^2 -> 1/2: the 1/Omega inside |V|^2 cancels the energy
    weight, leaving 2 pref (Om^2 + om^2)/(Om^2 - om^2)^2."""
    w = region.interval(cfg)[2]
    om_l = float(region.omega(l, cfg))
    pref = l**2 * np.pi**2 / (2.0 * cfg.R * w**3 * om_l)

    def integrand(N: float) -> float:
        Om_c = (math.pi * N / cfg.R) ** 2 + cfg.mu**2
        return pref * 2.0 * (Om_c + om_l**2) / (Om_c - om_l**2) ** 2

    # keep the integral test on the monotone side of the resonance pole
    start = max(float(n_from), 2.0 * om_l * cfg.R / np.pi)
    return _tail_quad(integrand, start)


# ── operations ──────────────────────────────────────────────────────────────

def vacuum_spectrum(
    region: Region,
    cfg: CavityConfig,
    trunc: Truncation,
) -> SpectrumResult:
    """<n_l> = sum_N beta_lN^2 for l = 1..m_max_local, plus tail estimates."""
    l_idx = np.arange(1, trunc.m_max_local + 1)
    values = beta_sq_sums(region, l_idx, np.arange(1, trunc.n_max_global + 1), cfg)
    tails = np.array(
        [_coeff_sq_tail(region, l, cfg, trunc.n_max_global, 1.0)
         for l in range(1, trunc.m_max_local + 1)]
    )
    return SpectrumResult(region=region, values=values, tail_bound=tails)


def divergence_scan(N: int, cfg: CavityConfig, M_list) -> DivergenceScan:
    """Partial sums over m <= M of |beta_mN|^2 + |beta_bar_mN|^2, fixed N,
    fitted against a + b log M.

    The summand falls off like 1/m for large m, so S(M) grows
    logarithmically whenever sin(N pi r / R) != 0 — the numerical face of
    the inequivalence argument. The summands are ``beta_sq_sums`` over the
    single column N.
    """
    M_arr = np.asarray(sorted(int(M) for M in M_list))
    if N < 1:
        raise DomainError(f"global index N must be >= 1, got {N}")
    if M_arr.size == 0 or M_arr[0] < 1:
        raise DomainError(f"M_list needs values >= 1, got {M_arr.tolist()}")
    m_idx = np.arange(1, M_arr[-1] + 1)
    N_idx = np.array([N])
    summand = (beta_sq_sums(Region.LEFT, m_idx, N_idx, cfg)
               + beta_sq_sums(Region.RIGHT, m_idx, N_idx, cfg))
    running = np.cumsum(summand)
    partial = running[M_arr - 1]

    logM = np.log(M_arr.astype(np.float64))
    slope, intercept = np.polyfit(logM, partial, 1)
    fitted = slope * logM + intercept
    ss_res = float(np.sum((partial - fitted) ** 2))
    ss_tot = float(np.sum((partial - partial.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DivergenceScan(
        N=N,
        M_list=M_arr,
        partial_sums=partial,
        fit_slope=float(slope),
        fit_intercept=float(intercept),
        fit_r2=r2,
    )


def mode_sum_convergence(region: Region, m: int, cfg: CavityConfig, n_list) -> ModeSumConvergence:
    """Fixed local index m, growing global cutoff: sum_N alpha^2 and
    sum_N beta^2 both converge (the asymmetry opposite the m-scan)."""
    n_arr = np.asarray(sorted(int(n) for n in n_list))
    if m < 1 or n_arr.size == 0 or n_arr[0] < 1:
        raise DomainError(f"m and the cutoffs must be >= 1, got m={m}, n_list={n_arr.tolist()}")
    N_idx = np.arange(1, n_arr[-1] + 1)
    alpha, beta = coeff_grid(region, np.array([m]), N_idx, cfg)
    a2 = np.cumsum(alpha[0] ** 2)[n_arr - 1]
    b2 = np.cumsum(beta[0] ** 2)[n_arr - 1]

    alpha2_tail = _coeff_sq_tail(region, m, cfg, int(n_arr[-1]), -1.0)
    beta2_tail = _coeff_sq_tail(region, m, cfg, int(n_arr[-1]), 1.0)
    return ModeSumConvergence(
        region=region,
        m=m,
        n_list=n_arr,
        alpha2_partial=a2,
        beta2_partial=b2,
        alpha2_tail=alpha2_tail,
        beta2_tail=beta2_tail,
    )


def _rows(block: BogoliubovBlock, rows: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) rows m-1 for m in ``rows``: a view when the rows are
    consecutive, otherwise a copy of the requested rows only."""
    first = rows[0] if rows else 1
    if rows == tuple(range(first, first + len(rows))):
        sel = slice(first - 1, first - 1 + len(rows))
    else:
        sel = np.asarray(rows) - 1
    return block.alpha[sel], block.beta[sel]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_N x[i, N] y[i, N] per row i, without an x*y temporary."""
    return np.einsum("ij,ij->i", x, y)


def wick_moments(
    m_range,
    n_range,
    left_block: BogoliubovBlock,
    right_block: BogoliubovBlock,
    paper_norm: bool = False,
) -> MomentReport:
    """Means, variances, covariances and correlations of (n_m, n_bar_n).

    With P, Q the selected alpha, beta rows of the left block and P', Q'
    those of the right block, Wick's theorem turns every moment into a
    single sum over global modes:

        mean = sum q^2,  var = (sum p^2)(sum q^2) + (sum p q)^2  (row-wise)
        cov  = (Q P'^T) o (P Q'^T) + (Q Q'^T) o (P P'^T)          (o: entrywise)

    ``paper_norm`` adds a second correlation matrix whose denominator is the
    *summed* spectrum over all block rows on each side (a normalization some
    presentations use; it grows with the local cutoff, so it is not the
    statistical correlation coefficient — both are reported).
    """
    if left_block.alpha.shape[1] != right_block.alpha.shape[1]:
        raise ValueError("left/right blocks disagree on the global cutoff")
    m_range = tuple(int(m) for m in m_range)
    n_range = tuple(int(n) for n in n_range)
    for m in m_range:
        if not 1 <= m <= left_block.alpha.shape[0]:
            raise DomainError(f"m={m} outside the left block")
    for n in n_range:
        if not 1 <= n <= right_block.alpha.shape[0]:
            raise DomainError(f"n={n} outside the right block")

    P, Q = _rows(left_block, m_range)
    Pb, Qb = _rows(right_block, n_range)

    mean_left = _row_dots(Q, Q)
    var_left = _row_dots(P, P) * mean_left + _row_dots(P, Q) ** 2
    mean_right = _row_dots(Qb, Qb)
    var_right = _row_dots(Pb, Pb) * mean_right + _row_dots(Pb, Qb) ** 2
    cov = (Q @ Pb.T) * (P @ Qb.T) + (Q @ Qb.T) * (P @ Pb.T)

    # A vanishing variance forces a vanishing covariance (Cauchy-Schwarz),
    # so the 0/0 rows of a beta-free block are genuinely uncorrelated.
    denom = np.sqrt(np.outer(var_left, var_right))
    corr = np.where(denom > 0.0, cov / np.where(denom > 0.0, denom, 1.0), 0.0)
    if np.any(np.abs(corr) > 1.0 + 1e-9):
        raise AssertionError("correlation coefficient left (-1, 1) beyond numerical slack")

    corr_paper = None
    if paper_norm:
        total_left = float(np.sum(_row_dots(left_block.beta, left_block.beta)))
        total_right = float(np.sum(_row_dots(right_block.beta, right_block.beta)))
        corr_paper = cov / math.sqrt(total_left * total_right)

    return MomentReport(
        m_range=m_range,
        n_range=n_range,
        mean_left=mean_left,
        mean_right=mean_right,
        var_left=var_left,
        var_right=var_right,
        cov=cov,
        corr=corr,
        corr_paper_norm=corr_paper,
    )


def limit_scan(
    kind: str,
    values,
    probe_indices,
    cfg: CavityConfig,
    trunc: Truncation,
    M_fixed: int = 100,
) -> TrendTable:
    """Trends of <n_m>, |alpha_mN|, |beta_mN| and sum_{m<=M} <n_m> along a scan.

    kind = "mass": values are mu*R, partition fixed at cfg.r.
    kind = "partition-size": values are r/R, mass fixed at cfg.mu.

    The per-mode and summed columns move in opposite directions near r -> R:
    each <n_m> dies while the M-sum hangs on — the scan makes the
    non-commuting pair of limits visible.
    """
    if kind not in ("mass", "partition-size"):
        raise ValueError(f"unknown scan kind {kind!r}")
    values = np.asarray(list(values), dtype=np.float64)
    probes = tuple((int(m), int(N)) for m, N in probe_indices)
    for m, N in probes:
        if m < 1 or N < 1:
            raise DomainError(f"probe (m, N) = ({m}, {N}) needs m >= 1 and N >= 1")
    if M_fixed < 1:
        raise DomainError(f"M_fixed must be >= 1, got {M_fixed}")
    n_idx = np.arange(1, trunc.n_max_global + 1)
    m_sum = np.arange(1, M_fixed + 1)
    # probes past M_fixed need their own row sums
    far = sorted({m for m, _ in probes if m > M_fixed})

    n_per = np.empty((len(values), len(probes)))
    a_mag = np.empty_like(n_per)
    b_mag = np.empty_like(n_per)
    s_left = np.empty(len(values))
    s_both = np.empty(len(values))

    for k, v in enumerate(values):
        if kind == "mass":
            cfg_k = validate_config(cfg.R, cfg.r, v / cfg.R)
        else:
            cfg_k = validate_config(cfg.R, v * cfg.R, cfg.mu)
        left_modes = beta_sq_sums(Region.LEFT, m_sum, n_idx, cfg_k)
        s_left[k] = float(np.sum(left_modes))
        s_both[k] = s_left[k] + float(np.sum(beta_sq_sums(Region.RIGHT, m_sum, n_idx, cfg_k)))
        far_modes = dict(zip(far, beta_sq_sums(Region.LEFT, far, n_idx, cfg_k))) if far else {}
        for ip, (m, N) in enumerate(probes):
            n_per[k, ip] = left_modes[m - 1] if m <= M_fixed else far_modes[m]
            a, b = coeff_grid(Region.LEFT, np.array([m]), np.array([N]), cfg_k)
            a_mag[k, ip] = abs(float(a[0, 0]))
            b_mag[k, ip] = abs(float(b[0, 0]))

    return TrendTable(
        kind=kind,
        values=values,
        probe_indices=probes,
        M_fixed=M_fixed,
        n_per_probe=n_per,
        alpha_mag=a_mag,
        beta_mag=b_mag,
        sum_left=s_left,
        sum_both=s_both,
    )
