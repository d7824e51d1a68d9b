"""Global-vacuum observables seen through the local number operators.

The global vacuum |0_G> is not the local vacuum: each local annihilator
a_m = sum_N p_N A_N + q_N A_N^dagger (rows p = alpha_m, q from beta_m)
mixes creators in, so local number expectations, inter-region covariances
and the unitary-inequivalence diagnostics are all plain coefficient sums:

    <n_m>        = sum_N beta_mN^2
    var(n_m)     = (sum p^2)(sum q^2) + (sum p q)^2          (Wick)
    cov(n_m,n_n) = (sum q p')(sum p q') + (sum q q')(sum p p')

with primes the other region's rows. Over a set of rows the covariances
are Gram matrices, so they are BLAS matrix products, deterministic for a
fixed BLAS thread count. Tail bounds use the integral test with sin^2
replaced by its mean 1/2, and are reported, never silently applied.

The spectrum, the fixed-N divergence scan and the limit scans read beta
only and never form alpha: the per-row sums come from
``bogoliubov.beta_sq_sums`` and a limit scan's summed columns
sum_{m<=M} <n_m> from ``bogoliubov.beta_sq_total``, which never builds
the rows. A limit scan calls their table kernels directly, so that per
scan value one Omega_N serves both families and one column table per
family serves both of its kernels; a divergence scan walks its rows in
fixed chunks, one row table per family and chunk for all its N, so its
memory does not grow with M. ``vacuum_moments`` takes the Wick
sums from one ``bogoliubov.gram`` call of the left rows against the right
rows, which fills coefficient rows on the near columns one 512-column
chunk at a time and sums the far ones by a series; ``wick_moments``
computes the same moments from explicit rows (the reference of the
Fock-oracle tests), walked in the same chunks and reducing each row dot
one row at a time. The fixed-m convergence sums take a full coefficient
row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import (BogoliubovBlock, Grams, _beta_sq_sums, _beta_sq_total, _column_ladder,
                         _column_slice, _columns, _geometry, _grid, _on_ladder, _row_grams, _rows,
                         beta_sq_sums, coeff_grid, gram)
from .config import (CavityConfig, DomainError, GridMismatch, Region, Truncation, _index, _indices,
                     ladder, validate_config)

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
    "vacuum_moments",
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

    ``slope_exact`` is the exact slope of S against ln M,
    s_N = 2 sin^2(pi N r/R) / (pi R Omega_N): for m >> N w each family's
    summand is sin^2(pi N r/R) / (pi R Omega_N m) (1 + O(1/m)), whatever its
    width w, so S(M) = s_N ln M + c_N + O(1/M). On a node, sin(pi N r/R) = 0,
    the global mode is a local mode of each side: every summand, and s_N,
    is exactly 0.
    """

    N: int
    M_list: np.ndarray
    partial_sums: np.ndarray
    fit_slope: float
    fit_intercept: float
    fit_r2: float
    slope_exact: float


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
    """Wick-computed number-operator moments across the partition, and how
    many global columns were summed directly (``near_columns``) and by the
    far-field series (``far_columns``)."""

    m_range: tuple
    n_range: tuple
    mean_left: np.ndarray
    mean_right: np.ndarray
    var_left: np.ndarray
    var_right: np.ndarray
    cov: np.ndarray
    corr: np.ndarray
    near_columns: int
    far_columns: int


@dataclass(frozen=True)
class TrendTable:
    """Per-probe trends along a mass or partition-size scan."""

    kind: str
    values: np.ndarray
    probe_indices: tuple
    M_fixed: int
    n_per_probe: np.ndarray      # <n_m> per (scan value, probe)
    tail_per_probe: np.ndarray   # integral-test tail of <n_m> beyond n_max, same shape
    alpha_mag: np.ndarray        # |alpha_mN| per (scan value, probe)
    beta_mag: np.ndarray         # |beta_mN| per (scan value, probe)
    sum_left: np.ndarray         # sum_{m<=M} <n_m>
    sum_both: np.ndarray         # sum_{m<=M} (<n_m> + <n_bar_m>)
    tail_sum_left: np.ndarray    # the sum of the tails of the rows of sum_left
    tail_sum_both: np.ndarray    # the sum of the tails of the rows of sum_both


# ── helpers ─────────────────────────────────────────────────────────────────

# Rows per chunk of a divergence scan: each chunk's row tables and summands
# hold 2^13 entries a family and a column whatever the largest M, so the
# scan's memory does not grow with M.
_SCAN_ROWS = 2**13

# the smallest normal float64: a correlation's dots below it have lost digits
_TINY = np.finfo(np.float64).tiny

# 48-point Gauss-Legendre nodes and weights on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0


def _tail_quad(f, start: float, scales: np.ndarray) -> np.ndarray:
    """Integral of the vectorised f over [start, inf) by one fixed rule, for
    every row at once. Row i of ``scales`` holds, in increasing order, the
    points where row i's integrand changes its power law; f maps an array
    of nodes whose first axis is the row (of length 1 where every row
    shares them) to the summands of every row there.

    Each scale, clipped at ``start``, ends one panel: [start, s_1],
    [s_1, s_2] and so on, so a scale at or below ``start`` gives an empty
    panel of zero weight, and a panel empty in every row is left out. Each
    finite panel [a, b] gets 48-point Gauss-Legendre in log N
    (N = a (b/a)^x, dN = N log(b/a) dx), over which the summands vary
    smoothly however long the panel is; the last panel [c, inf) is mapped
    onto (0, 1] by N = c / x and gets the same 48 nodes, where its
    integrand is smooth down to x = 0 for every summand decaying like N^-2
    or faster. A row's nodes and weights depend on ``start`` and its own
    scales only, and its panel sums are added in panel order, where a
    panel left out would have added an exact 0: its integral has the same
    bits alone or among other rows, and a dimensionless f gives
    dimensionless bits.

    Against 30-digit mpmath on mu R in {0, 4.7, 1e3, 1e4, 1e5, 1e6},
    start in {1, 10, 200, 1e4, 1e5}, widths {0.05, 0.5, 0.95} R and l in
    {1, 50}, for both tails with and without the energy weight, the worst
    relative error is 6.5e-15, each row alone or among the others.
    """
    cuts = np.maximum(start, np.concatenate((np.full((len(scales), 1), start), scales), axis=1))
    # rows whose panels agree share one set of nodes and weights
    cuts = cuts[:1] if (cuts == cuts[:1]).all() else cuts
    log_c = np.log(cuts)
    span = log_c[:, 1:] - log_c[:, :-1]
    live = span.any(axis=0)
    lo, span = log_c[:, :-1][:, live, None], span[:, live, None]
    N = np.exp(lo + span * _GL_X)
    last = cuts[:, -1:, None]
    nodes = np.concatenate([N, last / _GL_X], axis=1)
    weights = np.concatenate([span * _GL_W * N, _GL_W * last / (_GL_X * _GL_X)], axis=1)
    return np.vecdot(weights, f(nodes)).sum(axis=1)


def _resonance_cutoff(region: Region, l, cfg: CavityConfig):
    """The index nearest 2 omega_l R / pi, twice the resonance pole Omega_N =
    omega_l at mu = 0: from it on the alpha^2 summands fall monotonically.
    Computed at R = 1, where omega_l R is omega_l, for one l (an int) or an
    array of them. Rounding, half to even, keeps it fixed under r -> R - r,
    which moves omega_l by ulps."""
    cut = np.rint(2.0 * ladder(l, region.reduced_width(cfg), cfg.mu_tilde) / np.pi)
    return cut if np.ndim(cut) else int(cut)


def _divergence_request(N_list, M_list) -> tuple[np.ndarray, np.ndarray]:
    """The N values, in order, and the sorted M values of a divergence scan;
    DomainError unless every N is an integer >= 1 and M_list holds two
    distinct values, all >= 1 (a log M fit needs two points)."""
    N_arr = _indices("N", list(N_list))
    M_arr = np.asarray(sorted(_index("M", M) for M in M_list))
    if M_arr.size == 0 or M_arr[0] == M_arr[-1]:
        raise DomainError(f"the log M fit needs two distinct M values, got {M_arr.tolist()}")
    return N_arr, M_arr


def _coeff_sq_tail(region: Region, l, cfg: CavityConfig, n_from: int,
                   sign: float, energy: bool = False):
    """Integral-test tail beyond N = n_from of sum_N beta_lN^2 (sign = +1) or
    sum_N alpha_lN^2 (sign = -1), each term weighted by Omega_N with
    ``energy``, of ``region``'s rows at cfg: for one local index l a float,
    for an array of them an array, each row with the bits it has alone. The
    alpha tail is inf below ``_resonance_cutoff``, where it would skip the
    resonance peak.

    The sum runs at R = 1 (``_row_tails``), so no dimensional prefactor can
    underflow, and the energy tail is divided by R at the end: a tail is a
    function of r/R and mu R alone (times 1/R for energy)."""
    ls = np.atleast_1d(l)
    # the rows whose tail is a bound; the others never reach the integrand,
    # whose alpha denominator can vanish below the resonance cutoff
    bound = slice(None) if sign > 0 else n_from >= _resonance_cutoff(region, ls, cfg)
    tails = np.full(ls.shape, np.inf)
    tails[bound] = _row_tails(ls[bound], region.reduced_width(cfg), cfg.mu_tilde, n_from, sign,
                              energy) / (cfg.R if energy else 1.0)
    return tails if np.ndim(l) else float(tails[0])


def _row_tails(l: np.ndarray, w, mu, n_from: int, sign: float,
               energy: bool = False) -> np.ndarray:
    """The tails of ``_coeff_sq_tail`` at R = 1 of rows l, each of reduced
    width w (r/R or 1 - r/R) and mass mu (mu R), each given once for every
    row or once per row, from one ``_tail_quad`` call.

    sin^2 -> 1/2 makes the summand pref / (Om (Om + sign om)^2), times Om
    with ``energy``. Squares are products, never ``pow``, so R -> 2^k R
    keeps every bit. The summand divides factor by factor and forms no
    product of frequencies, which would leave double range at the nodes
    past Omega ~ 1e102 that widths below about 1e-98 and mu R above about
    1e99 reach."""
    om_l = ladder(l, w, mu)
    # l^2 in doubles: an int64 square wraps from l ~ 3e9 on
    pref = (np.square(l, dtype=np.float64) * np.pi**2 / (2.0 * w * w * w * om_l))[:, None, None]
    s_om, mu_row = sign * om_l[:, None, None], np.reshape(mu, (-1, 1, 1))

    def integrand(N: np.ndarray) -> np.ndarray:
        Om = ladder(N, 1.0, mu_row)
        d = Om + s_om
        return (pref / d if energy else pref / Om / d) / d

    scales = np.column_stack((np.broadcast_to(mu, om_l.shape), om_l)) / np.pi
    return _tail_quad(integrand, float(n_from), scales)


# ── operations ──────────────────────────────────────────────────────────────

def vacuum_spectrum(
    region: Region,
    cfg: CavityConfig,
    trunc: Truncation,
) -> SpectrumResult:
    """<n_l> = sum_N beta_lN^2 for l = 1..m_max_local, plus tail estimates."""
    l_idx = np.arange(1, trunc.m_max_local + 1)
    values = beta_sq_sums(region, l_idx, np.arange(1, trunc.n_max_global + 1), cfg)
    tails = _coeff_sq_tail(region, l_idx, cfg, trunc.n_max_global, 1.0)
    return SpectrumResult(region=region, values=values, tail_bound=tails)


def divergence_scan(N_list, cfg: CavityConfig, M_list) -> tuple[DivergenceScan, ...]:
    """Partial sums over m <= M of |beta_mN|^2 + |beta_bar_mN|^2, one scan
    per N in N_list (in order), each fitted against a + b log M.

    The summand falls off like 1/m for large m, so S(M) grows
    logarithmically whenever sin(N pi r / R) != 0 — the numerical face of
    the inequivalence argument.

    The rows m = 1..max M are walked in chunks of _SCAN_ROWS: per chunk,
    one row table per family, and per N ``_beta_sq_sums`` on that N's
    column of a column table built once per family. The running sum of the
    chunks before is added into a chunk's first summand before its
    ``np.cumsum``, so every partial sum has the bits of one cumsum over
    1..M, and only the requested M are kept: memory does not grow with M.
    """
    N_arr, M_arr = _divergence_request(N_list, M_list)
    left, right = (_columns(region, N_arr, cfg) for region in (Region.LEFT, Region.RIGHT))
    partial = np.empty((len(N_arr), len(M_arr)))
    running = np.zeros(len(N_arr))
    stop = int(M_arr[-1]) if len(N_arr) else 0
    for lo in range(0, stop, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, stop)
        m = np.arange(lo + 1, hi + 1)
        rows_l, rows_r = _rows(Region.LEFT, m, cfg), _rows(Region.RIGHT, m, cfg)
        # the requested M in (lo, hi], as offsets into this chunk's sums
        first, last = np.searchsorted(M_arr, (lo, hi), side="right")
        offsets = M_arr[first:last] - lo - 1
        for j in range(len(N_arr)):
            summand = (_beta_sq_sums(rows_l, _column_slice(left, j, j + 1))
                       + _beta_sq_sums(rows_r, _column_slice(right, j, j + 1)))
            summand[0] += running[j]
            sums = np.cumsum(summand)
            running[j] = sums[-1]
            partial[j, first:last] = sums[offsets]
    # s_N at R = 1 from the left column table, whose sin(pi N r/R) is an
    # exact 0 on a node
    slopes = 2.0 * left.s * left.s / (np.pi * left.Om)
    return tuple(_fit(int(N), M_arr, S, float(s_N)) for N, S, s_N in zip(N_arr, partial, slopes))


def _fit(N: int, M_arr: np.ndarray, partial: np.ndarray, slope_exact: float) -> DivergenceScan:
    """The scan at N with its a + b log M least-squares fit and its exact
    slope."""
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
        slope_exact=slope_exact,
    )


def mode_sum_convergence(region: Region, m: int, cfg: CavityConfig, n_list) -> ModeSumConvergence:
    """Fixed local index m, growing global cutoff: sum_N alpha^2 and
    sum_N beta^2 both converge (the asymmetry opposite the m-scan)."""
    n_arr = np.asarray(sorted(_index("n", n) for n in n_list))
    if n_arr.size == 0:
        raise DomainError("the cutoff list n_list is empty")
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


def _block_rows(block: BogoliubovBlock, rows: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) rows m-1 for m in ``rows``, copies of those rows only."""
    sel = np.asarray(rows, dtype=np.intp) - 1
    return block.alpha[sel], block.beta[sel]


def _sd(pp: np.ndarray, pq: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """sqrt(var) = sqrt(pp qq + pq^2) of each row with nothing squared; 0
    where pp or qq is below the normal range and has lost its digits."""
    return np.where(np.minimum(pp, qq) >= _TINY, np.hypot(np.sqrt(pp) * np.sqrt(qq), pq), 0.0)


def _moment_report(m_range: tuple, n_range: tuple, sums: Grams) -> MomentReport:
    """Means, variances, covariances and correlations from the Wick sums
    of the left rows (side a) against the right rows (side b)."""
    (pp, pq, mean_left), (ppb, pqb, mean_right) = sums.a_dots, sums.b_dots
    QPb, PQb, QQb, PPb = sums.QP, sums.PQ, sums.QQ, sums.PP
    var_left = pp * mean_left + pq**2
    var_right = ppb * mean_right + pqb**2
    cov = QPb * PQb + QQb * PPb

    # The standard deviations square nothing, so corr keeps its digits
    # where var_left * var_right underflows (mu R ~ 1e42 on). Where a row's
    # dots or the product of two standard deviations fall below the normal
    # range (mu R ~ 1e77 on), the digits are gone and corr reads 0, as for
    # a vanishing variance, which forces a vanishing covariance
    # (Cauchy-Schwarz): the 0/0 rows of a beta-free block are genuinely
    # uncorrelated.
    denom = np.outer(_sd(pp, pq, mean_left), _sd(ppb, pqb, mean_right))
    corr = np.where(denom >= _TINY, cov / np.where(denom >= _TINY, denom, 1.0), 0.0)
    if np.any(np.abs(corr) > 1.0 + 1e-9):
        raise AssertionError("correlation coefficient left (-1, 1) beyond numerical slack")

    return MomentReport(
        m_range=m_range,
        n_range=n_range,
        mean_left=mean_left,
        mean_right=mean_right,
        var_left=var_left,
        var_right=var_right,
        cov=cov,
        corr=corr,
        near_columns=sums.near,
        far_columns=sums.far,
    )


def wick_moments(
    m_range,
    n_range,
    left_block: BogoliubovBlock,
    right_block: BogoliubovBlock,
) -> MomentReport:
    """Means, variances, covariances and correlations of (n_m, n_bar_n)
    from explicit coefficient rows.

    With P, Q the selected alpha, beta rows of the left block and P', Q'
    those of the right block, Wick's theorem turns every moment into a
    single sum over global modes:

        mean = sum q^2,  var = (sum p^2)(sum q^2) + (sum p q)^2  (row-wise)
        cov  = (Q P'^T) o (P Q'^T) + (Q Q'^T) o (P P'^T)          (o: entrywise)

    Rows are 1-based: m_range indexes the left block's rows and n_range the
    right block's, so each block needs only the rows up to the largest index
    asked for. A row's mean and variance have the same bits whichever rows
    share the request. This is the reference ``vacuum_moments`` reproduces
    without building full rows; every column is near.
    """
    if left_block.alpha.shape[1] != right_block.alpha.shape[1]:
        raise GridMismatch("left/right blocks disagree on the global cutoff")
    m_range = tuple(map(int, _indices("m", list(m_range))))
    n_range = tuple(map(int, _indices("n", list(n_range))))
    for m in m_range:
        if m > left_block.alpha.shape[0]:
            raise DomainError(f"m={m} outside the left block")
    for n in n_range:
        if n > right_block.alpha.shape[0]:
            raise DomainError(f"n={n} outside the right block")

    sums = _row_grams(*_block_rows(left_block, m_range), *_block_rows(right_block, n_range))
    return _moment_report(m_range, n_range, sums)


def vacuum_moments(m_range, n_range, cfg: CavityConfig, n_max: int) -> MomentReport:
    """``wick_moments`` of left rows m_range and right rows n_range over the
    global modes N = 1..n_max, from one ``bogoliubov.gram`` call: no full
    row is built, and the columns far above the requested frequencies are
    summed by a series.

    With no far column the report has the bits of ``wick_moments`` on full
    rows. Otherwise a row's values depend, in their last bits, on the rows
    requested with it (through the largest requested frequency, which sets
    the split): row 1 alone and among rows 1..125 differ by at most 1.0e-15
    of each moment (cov: of sqrt(var_m var_n)) at the benchmark's
    configurations. DomainError unless n_max >= 1 and every index is an
    integer >= 1.
    """
    m_range, n_range = tuple(m_range), tuple(n_range)
    sums = gram(((Region.LEFT, m_range),), ((Region.RIGHT, n_range),), cfg, n_max)
    return _moment_report(tuple(int(m) for m in m_range), tuple(int(n) for n in n_range), sums)


def limit_scan(
    kind: str,
    values,
    probe_indices,
    cfg: CavityConfig,
    trunc: Truncation,
    M_fixed: int = 100,
) -> TrendTable:
    """Trends of <n_m>, |alpha_mN|, |beta_mN| and sum_{m<=M} <n_m> along a
    scan, with the tail bound beyond n_max of each probe's <n_m> and of
    each summed column, the sum of its rows' tails.

    kind = "mass": values are mu*R, partition fixed at cfg.r.
    kind = "partition-size": values are r/R, mass fixed at cfg.mu.

    The per-mode and summed columns move in opposite directions near r -> R:
    each <n_m> dies while the M-sum hangs on — the scan makes the
    non-commuting pair of limits visible.

    Each value's columns have the bits of the public kernels at that
    value (``beta_sq_total`` per family, ``beta_sq_sums`` on the probe
    rows, ``coeff_grid`` on the probe diagonal), but the column vectors are
    built once and shared: each family's geometry on the n_max columns,
    and the left family's on the probes' columns, once per scan for a mass
    scan (r/R is fixed) and once per value for a partition-size scan, and
    Omega_N once per value for both families. The probe rows' table serves
    both their sums and their diagonal. One ``_row_tails`` call gives
    every tail of the scan, each row with the bits ``_coeff_sq_tail`` gives
    it at its value.
    """
    if kind not in ("mass", "partition-size"):
        raise DomainError(f"unknown scan kind {kind!r}")
    values = np.asarray(list(values), dtype=np.float64)
    probes = tuple((_index("m", m), _index("N", N)) for m, N in probe_indices)
    M_fixed = _index("M_fixed", M_fixed)
    n_idx = np.arange(1, trunc.n_max_global + 1)
    m_sum = np.arange(1, M_fixed + 1)
    probe_ms = np.array([m for m, _ in probes], dtype=np.int64)
    probe_Ns = np.array([N for _, N in probes], dtype=np.int64)

    n_per = np.empty((len(values), len(probes)))
    a_mag = np.empty_like(n_per)
    b_mag = np.empty_like(n_per)
    s_left = np.empty(len(values))
    s_both = np.empty(len(values))

    if kind == "mass":
        cfgs = [validate_config(cfg.R, cfg.r, v / cfg.R) for v in values]
    else:
        cfgs = [validate_config(cfg.R, v * cfg.R, cfg.mu) for v in values]
    for k, cfg_k in enumerate(cfgs):
        if k == 0 or kind == "partition-size":
            # a mass scan keeps r/R, and with it every column geometry
            geometry = [_geometry(region, N, cfg_k) for region, N in
                        ((Region.LEFT, n_idx), (Region.RIGHT, n_idx), (Region.LEFT, probe_Ns))]
        Om = _column_ladder(n_idx, cfg_k)
        left, right = (_on_ladder(geo, Om) for geo in geometry[:2])
        probe_cols = _on_ladder(geometry[2], _column_ladder(probe_Ns, cfg_k))
        s_left[k] = _beta_sq_total(_rows(Region.LEFT, m_sum, cfg_k), left)
        s_both[k] = s_left[k] + _beta_sq_total(_rows(Region.RIGHT, m_sum, cfg_k), right)
        probe_rows = _rows(Region.LEFT, probe_ms, cfg_k)
        n_per[k] = _beta_sq_sums(probe_rows, left)
        # probe ip's (m, N) entry is the diagonal of the probes' m x N grid
        a, b = _grid(probe_rows, probe_cols)
        a_mag[k] = np.abs(np.diagonal(a))
        b_mag[k] = np.abs(np.diagonal(b))

    # per value, the tails of the left probe rows and rows 1..M_fixed, then
    # of the right rows 1..M_fixed, at that value's widths and mass
    P = len(probes)
    widths = np.array([[Region.LEFT.reduced_width(c), Region.RIGHT.reduced_width(c)]
                       for c in cfgs]).reshape(-1, 2)
    widths = np.repeat(widths, [P + M_fixed, M_fixed], axis=1)
    rows = np.broadcast_to(np.concatenate([probe_ms, m_sum, m_sum]), widths.shape)
    masses = np.broadcast_to(np.array([c.mu_tilde for c in cfgs])[:, None], widths.shape)
    row_tails = _row_tails(rows.ravel(), widths.ravel(), masses.ravel(), trunc.n_max_global,
                           1.0).reshape(widths.shape)
    t_left = np.sum(row_tails[:, P:P + M_fixed], axis=1)
    return TrendTable(
        kind=kind,
        values=values,
        probe_indices=probes,
        M_fixed=M_fixed,
        n_per_probe=n_per,
        tail_per_probe=row_tails[:, :P],
        alpha_mag=a_mag,
        beta_mag=b_mag,
        sum_left=s_left,
        sum_both=s_both,
        tail_sum_left=t_left,
        tail_sum_both=t_left + np.sum(row_tails[:, P + M_fixed:], axis=1),
    )
