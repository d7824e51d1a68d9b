"""Closed-form Bogoliubov coefficients between local and global mode families.

With V_mN = integral U_N chi_m dx (see ``kgcavity.quadrature.overlap_V``),
the dictionary between the family of local modes u_m and the global modes
U_N is

    alpha_mN = (U_N | u_m)  = (omega_m + Omega_N) V_mN ,
    beta_mN  = -(U_N*| u_m) = (Omega_N - omega_m) V_mN ,

all real for this geometry. Everything is evaluated in the dimensionless
reduction (R = 1, width w = r/R or 1 - r/R, mass mu*R), which is exact
because the coefficients depend on (r/R, mu*R) only. Writing
eps = N w - m, three exact identities split the closed form into a row
vector a_m and a column vector b_N:

    sin(pi (N w - m))     = (-1)^m sin(pi N w)
    Omega_N^2 - omega_m^2 = (pi/w)^2 (N w - m)(N w + m) = (pi/w)^2 eps (2m + eps)
    sqrt(w Omega omega)   = sqrt(w) sqrt(Omega) sqrt(omega)

With a_m = (-1)^m m sqrt(w) / (pi sqrt(omega_m)) and
b_N = sin(pi N w) / sqrt(Omega_N),

    V     = a_m b_N / (eps (2m + eps))
    alpha = (Omega_N + omega_m) V
    beta  = (pi/w)^2 a_m b_N / (Omega_N + omega_m)

so the 2-D work is one rational pass; the trig, roots and signs live in
O(m + N) vectors. This beta has no cancellation, where (Omega - omega) V
loses digits once mu R makes both frequencies large. The right family's
sign (-1)^(N+m) is folded into a_m and b_N; nothing after ``_factors``
tells the families apart. sin(pi N w) is evaluated on the reduced argument
sin(pi f) (-1)^k, k = round(N w), f = N w - k, so it is an exact 0 in
every column where N w is an integer: the Kronecker zeros.

V is a 0/0 at the exact resonances Omega_N = omega_m, eps = 0, which
happen only where N w is an integer k (f == 0) and m == k (possible
whenever r/R is rational). There, and only there, alpha takes the analytic
limit V = (w/2)/sqrt(w Omega omega) times the sign of a_m and the column
parity folded into b_N, +1 on the left family and (-1)^(m+N) on the right
(pinned by the quadrature oracle); beta needs no such branch. Every other
entry keeps the closed form, however near a resonance: eps = x - m and
f = x - k are exact float differences, and sin(pi f) has no cancellation,
so V is accurate to rounding even where eps is tiny.

The paper's two beta-only results are row sums: the local occupations
<n_m> = sum_N beta_mN^2 and, one column at a time, the log-divergent
sum_m beta_mN^2 of the inequivalence argument. ``beta_sq_sums`` computes
them from the same row and column vectors as ``coeff_grid``. It walks
chunks of full rows, about _CHUNK_ENTRIES entries each as in
``coeff_grid``, forms t = b_N / (Omega_N + omega_m) in each and reduces
each row with one ``np.vecdot``; the row factor ((pi/w)^2 a_m)^2 is
applied after the sum. b_N is scaled by a power of two so that the
largest t is about 1, and the scaling is undone after the row factor:
exact, and t^2 does not underflow at widths below about 1e-78, where
t ~ w^2. A row's sum thus has the same bits whichever rows share the
call, and the kernel never builds alpha, never runs the resonance search
and never holds a len(m) x len(N) array.

The paper's summed local occupation sum_{m<=M} <n_m> = sum_N b_N^2 G(Omega_N),
G(Omega) = sum_m c_m / (Omega + omega_m)^2 with c_m = a_beta_m^2, comes
from ``beta_sq_total`` without the per-row sums. With W = max omega_m, the
near columns, Omega_N < 4 W, are summed directly by the same row-chunk
pass. In the far columns z = W / Omega_N <= 1/4, and with s_m = omega_m / W

    G(Omega) = Omega^-2 sum_k (k + 1) (-z)^k mu_k,   mu_k = sum_m c_m s_m^k,

a series in the row moments mu_k whose terms alternate and at least halve
from one to the next (s_m <= 1). Kept to k <= 30 (31 terms), its error is
below the first omitted term, 32 z^31 mu_31 / Omega^2 <= 32 4^-31 (1 + 1/4)^2
G < 1.1e-17 G. The far columns then enter only through their column
moments h_k = sum_N (b_N / Omega_N)^2 z_N^k, and the far part is
sum_k (k + 1) (-1)^k mu_k h_k: 31 multiply-adds a column instead of one
division per row; rounding costs a few ulps (measured: within 4.1e-16 of
the exactly rounded sum of ``coeff_grid``'s beta^2).

The Wick moments of the cross-partition number correlations read alpha
too. With A_m = a_beta_m, alpha_mN = A_m b_N / (Omega_N - omega_m) and
beta_mN = A_m b_N / (Omega_N + omega_m), so every Wick sum is a Gram of
one or both families' rows (P, Q = alpha, beta; primed: right),

    row dots  sum p^2, sum p q, sum q^2          (each family)
    Grams     Q P'^T, P Q'^T, Q Q'^T, P P'^T     (left rows x right rows)

``wick_sums`` splits the columns as ``beta_sq_total`` does, now with W the
largest omega over both families' requested rows. The near columns,
Omega_N < _WICK_FAR_FACTOR W (every resonance, Omega_N = omega_m <= W,
among them), take ``coeff_grid`` rows on those columns, four GEMMs and six
row dots. In the far columns z = W / Omega_N <= 1/8, and with s = omega / W

    1 / (Omega -+ omega) = Omega^-1 sum_{j<T} (+-s)^j z^j,

so a far Gram is A_m A'_n (V H V'^T): V is the T-column Vandermonde of
+-s_m (+ for alpha, - for beta), and H the Hankel matrix H_jk = h_{j+k} of
the 2T - 1 column moments h_p = sum_N b_N b'_N z_N^p / Omega_N^2; a row
dot takes the same series with b_N^2 of its family. T = 20 terms leave
each factor within (1/8)^20 / (1 - 1/8) < 1e-18 of itself. The far columns
thus cost O(T) each instead of O(rows), and no full row is ever built.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import CavityConfig, DomainError, FrequencyTables, Region, Truncation, ladder

__all__ = [
    "BogoliubovBlock",
    "IdentityResiduals",
    "coeff_pair",
    "closed_overlap",
    "coeff_grid",
    "beta_sq_sums",
    "beta_sq_total",
    "WickSums",
    "wick_sums",
    "build_block",
    "identity_residuals",
    "clear_memo",
]

# Bound on the alpha + beta bytes the block memo keeps. Commands ask only
# for the rows they read (at most a few hundred at n_max 10^4, 160 kB a
# row), so the bound is met only by a caller that loops over configurations.
_MEMO_BYTES = 2**30

_BLOCK_MEMO: OrderedDict[str, BogoliubovBlock] = OrderedDict()

# Entries per row chunk of ``coeff_grid`` and ``_row_sq_sums``: the few
# chunk-sized temporaries (1 MB each) stay in cache; a row longer than
# this is a chunk of its own.
_CHUNK_ENTRIES = 2**17

# ``beta_sq_total`` sums the columns with Omega_N >= _FAR_FACTOR max omega_m
# by the far-field series, truncated after _FAR_TERMS terms: the first
# omitted term bounds the error by 32 (1/4)^31 (1 + 1/4)^2 < 1.1e-17 of
# the column's weight (module docstring).
_FAR_FACTOR = 4.0
_FAR_TERMS = 31

# ``wick_sums`` splits at a wider factor: its cross alpha Grams cancel
# (from O(1) to 2e-6 at r/R = 1/pi, mu R = 1000), and at a factor of 4 the
# rounding of the near GEMM's partial sum alone left 1.1e-11 of the
# cancelled value, against 8.4e-13 at 8. Each far factor 1/(Omega -+ omega)
# keeps _WICK_FAR_TERMS terms, within 8^-20 * 8/7 < 1e-18 of itself.
_WICK_FAR_FACTOR = 8.0
_WICK_FAR_TERMS = 20


@dataclass(frozen=True)
class BogoliubovBlock:
    """Truncated alpha/beta matrices for one local family vs the global basis.

    alpha[m-1][N-1] = (U_N|u_m), beta[m-1][N-1] = -(U_N*|u_m). Entries are
    real (phases are +-1).
    """

    region: Region
    alpha: np.ndarray
    beta: np.ndarray
    cfg_hash: str


@dataclass(frozen=True)
class IdentityResiduals:
    """Truncation residuals of the completeness/orthonormality identities.

    D1[m-1,l-1] = |sum_N (alpha_m alpha_l - beta_m beta_l) - delta_ml|   ((u_m|u_l))
    D2[m-1,l-1] = |sum_N (alpha_m beta_l - beta_m alpha_l)|              ((u_m|u_l*))
    and the cross-region versions pairing a left row with a right row,
    whose exact values are 0 (disjoint supports at t = 0).
    """

    D1: np.ndarray
    D2: np.ndarray
    D1_cross: np.ndarray
    D2_cross: np.ndarray

    @property
    def max_same(self) -> float:
        return float(max(self.D1.max(), self.D2.max()))

    @property
    def max_cross(self) -> float:
        return float(max(self.D1_cross.max(), self.D2_cross.max()))

    @property
    def max_residual(self) -> float:
        return max(self.max_same, self.max_cross)


class WickSums(NamedTuple):
    """The Wick sums over the global modes of left rows (P, Q = alpha, beta)
    and right rows (P', Q')."""

    left: tuple     # (sum p^2, sum p q, sum q^2), one value per left row
    right: tuple    # the same per right row
    grams: tuple    # (Q P'^T, P Q'^T, Q Q'^T, P P'^T), left rows x right rows
    near: int       # columns summed directly
    far: int        # columns summed by the far-field series


# ── closed forms ────────────────────────────────────────────────────────────

def _parity(k: np.ndarray) -> np.ndarray:
    """(-1)^k for integer-valued float k."""
    return 1.0 - 2.0 * (k.astype(np.int64) & 1)


def _resonances(m: np.ndarray, x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the exact resonances eps = N w - m = 0.

    eps is 0 only where N w is an integer k (f == 0) and m == k, so the
    columns with f == 0 each look up the rows equal to their x; repeated
    rows are all found. The Kronecker zeros (f == 0, m != k) are never hit.
    """
    cols = np.flatnonzero(f == 0.0)
    order = np.argsort(m, kind="stable")
    m_sorted = m[order]
    first = np.searchsorted(m_sorted, x[cols], side="left")
    count = np.searchsorted(m_sorted, x[cols], side="right") - first
    offset = np.repeat(first - (np.cumsum(count) - count), count)
    rows = order[np.arange(len(offset)) + offset]
    return rows, np.repeat(cols, count)


class _Factors(NamedTuple):
    """The O(m + N) vectors of the factored closed form on one outer grid."""

    w: float              # dimensionless width of the family's sub-box
    m: np.ndarray
    N: np.ndarray
    x: np.ndarray         # N w
    f: np.ndarray         # N w - round(N w), the reduced sine argument
    Om: np.ndarray        # Omega_N
    om: np.ndarray        # omega_m
    a: np.ndarray         # row factor a_m
    a_beta: np.ndarray    # (pi/w)^2 a_m, beta's row factor
    b: np.ndarray         # column factor b_N
    parity: np.ndarray    # the column sign folded into b_N, kept where sin(pi f) is 0


def _factors(region: Region, m_indices, N_indices, cfg: CavityConfig) -> _Factors:
    """Row and column vectors of the module docstring's factored closed form;
    DomainError first unless every index is a finite integer >= 1."""
    m = np.asarray(m_indices, dtype=np.float64)
    N = np.asarray(N_indices, dtype=np.float64)
    for name, idx in (("m", m), ("N", N)):
        bad = idx[~(np.isfinite(idx) & (idx >= 1) & (idx == np.rint(idx)))]
        if bad.size:
            raise DomainError(f"mode indices must be integers >= 1, got {name}={bad[0]:g}")
    w = region.reduced_width(cfg)
    right = region is Region.RIGHT
    mu = cfg.mu_tilde

    Om = ladder(N, 1.0, mu)
    om = ladder(m, w, mu)
    x = N * w
    k = np.rint(x)
    f = x - k
    # sin(pi N w) = (-1)^k sin(pi f); a_m carries (-1)^m, which the right
    # family's (-1)^(N+m) turns into (-1)^N on the columns
    parity = _parity(k + N if right else k)
    a = m * np.sqrt(w) / (np.pi * np.sqrt(om))
    b = np.sin(np.pi * f) * parity / np.sqrt(Om)
    if not right:
        a *= _parity(m)
    return _Factors(w=w, m=m, N=N, x=x, f=f, Om=Om, om=om,
                    a=a, a_beta=(np.pi / w) ** 2 * a, b=b, parity=parity)


def coeff_grid(
    region: Region,
    m_indices: np.ndarray,
    N_indices: np.ndarray,
    cfg: CavityConfig,
    resonance_eps: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) on the outer grid m_indices x N_indices.

    The factored closed form of the module docstring, written into the
    result row chunk by row chunk (about _CHUNK_ENTRIES entries each, so
    the temporaries stay cache-sized whatever the grid's shape).

    ``resonance_eps`` is ignored (pass None): only the exact resonances
    take the limit. It stays because ``perfbench/run.py`` passes it
    positionally.
    """
    fac = _factors(region, m_indices, N_indices, cfg)
    m, N, x, Om, om, a, b = fac.m, fac.N, fac.x, fac.Om, fac.om, fac.a, fac.b
    two_m = 2.0 * m

    alpha = np.empty((len(m), len(N)))
    beta = np.empty_like(alpha)
    step = max(1, _CHUNK_ENTRIES // max(len(N), 1))
    eps_buf = np.empty((min(step, len(m)), len(N)))
    den_buf = np.empty_like(eps_buf)
    # the resonance entries (eps = 0) divide 0 by 0; they are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(m), step):
            rows = slice(lo, lo + step)
            n = min(step, len(m) - lo)
            eps = np.subtract(x, m[rows, None], out=eps_buf[:n])
            den = np.add(two_m[rows, None], eps, out=den_buf[:n])
            den *= eps
            freq_sum = np.add(om[rows, None], Om, out=eps)   # eps is spent
            v = np.multiply(a[rows, None], b, out=alpha[rows])
            v /= den
            v *= freq_sum
            beta_rows = np.multiply(fac.a_beta[rows, None], b, out=beta[rows])
            beta_rows /= freq_sum

    w = fac.w
    r_idx, c_idx = _resonances(m, x, fac.f)
    Om_c, om_r = Om[c_idx], om[r_idx]
    # the sign of a_m times the column parity: +1 on the left family,
    # (-1)^(m+N) on the right
    limit = np.sign(a[r_idx]) * fac.parity[c_idx] * ((w / 2.0) / np.sqrt(w * Om_c * om_r))
    alpha[r_idx, c_idx] = (om_r + Om_c) * limit
    return alpha, beta


def _scaled_factors(region: Region, m_indices, N_indices, cfg: CavityConfig) -> tuple[_Factors, int]:
    """``_factors`` with b_N scaled in place by 2^-e, and e.

    max t <= max|b_N| / (min omega_m + min Omega_N) ~ 2^e, so the scaled t
    is at most about 1 and t^2 does not underflow where t ~ w^2 (widths
    below ~1e-78); powers of two are exact, so a sum keeps its bits
    wherever t^2 is normal, and the caller undoes the scaling with
    ``ldexp(..., 2 e)`` after the row factor.
    """
    fac = _factors(region, m_indices, N_indices, cfg)
    b = fac.b
    _, e_b = np.frexp(max(b.max(initial=0.0), -b.min(initial=0.0)))
    _, e_d = np.frexp(np.min(fac.om, initial=np.inf) + np.min(fac.Om, initial=np.inf))
    e = int(e_b - e_d)
    np.ldexp(b, -e, out=b)
    return fac, e


def _row_sq_sums(om: np.ndarray, Om: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_N t_mN^2, t_mN = b_N / (Omega_N + omega_m), one value per row.

    Walks chunks of full rows, max(1, _CHUNK_ENTRIES // len(Om)) rows each,
    as ``coeff_grid`` does: each chunk forms t in one reused buffer and
    takes each row's sum as one ``np.vecdot(t, t)``, which reduces every
    row in its own call (a one-column row is squared directly: the same
    bits), so a row's sum has the same bits whichever other rows share the
    call and wherever the chunks fall.
    """
    n_rows, n_cols = len(om), len(Om)
    sums = np.empty(n_rows)
    step = max(1, _CHUNK_ENTRIES // max(n_cols, 1))
    buf = np.empty((min(step, n_rows), n_cols))
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        t = np.add(om[rows, None], Om, out=buf[:min(step, n_rows - lo)])
        np.divide(b, t, out=t)
        # a length-1 vecdot per row costs more than the square it computes
        sums[rows] = t[:, 0] * t[:, 0] if n_cols == 1 else np.vecdot(t, t)
    return sums


def beta_sq_sums(
    region: Region,
    m_indices: np.ndarray,
    N_indices: np.ndarray,
    cfg: CavityConfig,
) -> np.ndarray:
    """sum over N in N_indices of beta_mN^2, one value per m in m_indices.

    With beta_mN = a_beta_m t_mN, t_mN = b_N / (Omega_N + omega_m), the
    row sums of t^2 come from ``_row_sq_sums`` on the power-of-two scaled
    b_N of ``_scaled_factors``; the row factor a_beta_m^2 multiplies each
    sum after it. A row's sum therefore has the same bits whichever rows
    share the call. Neither alpha, nor the resonance search (beta has no
    resonance branch), nor a len(m) x len(N) array is ever built.
    """
    fac, e = _scaled_factors(region, m_indices, N_indices, cfg)
    sums = _row_sq_sums(fac.om, fac.Om, fac.b)
    return np.ldexp(sums * (fac.a_beta * fac.a_beta), 2 * e)


def beta_sq_total(
    region: Region,
    m_indices: np.ndarray,
    N_indices: np.ndarray,
    cfg: CavityConfig,
) -> float:
    """sum over m in m_indices and N in N_indices of beta_mN^2, without the
    per-row sums.

    The columns are put in ascending Omega_N (callers pass ascending N,
    which already is). With W = max omega_m, the near columns,
    Omega_N < _FAR_FACTOR W, go through ``_row_sq_sums`` and the row
    factors c_m = a_beta_m^2. The far columns, a suffix, take the module
    docstring's series: sum_k d_k h_k, with d_k from the row moments and
    h_k the column moments of ``_column_moments``. The power-of-two
    scaling of b_N is shared by both parts and undone at the end. A call
    with ascending columns and no far column costs and returns what
    ``np.sum(beta_sq_sums(...))`` does.
    """
    fac, e = _scaled_factors(region, m_indices, N_indices, cfg)
    c = fac.a_beta * fac.a_beta
    Om, b = fac.Om, fac.b
    if np.any(Om[1:] < Om[:-1]):
        order = np.argsort(Om, kind="stable")
        Om, b = Om[order], b[order]
    W = np.max(fac.om, initial=0.0)
    split = int(np.searchsorted(Om, _FAR_FACTOR * W))
    total = np.sum(_row_sq_sums(fac.om, Om[:split], b[:split]) * c)
    if split < len(Om):
        k = np.arange(_FAR_TERMS)
        # d_k = (k + 1) (-1)^k mu_k, mu_k = sum_m c_m (omega_m / W)^k
        d = (c @ np.vander(fac.om / W, _FAR_TERMS, increasing=True)) * ((k + 1) * _parity(k))
        g = b[split:] / Om[split:]
        total += np.dot(d, _column_moments(Om[split:], g * g, W, _FAR_TERMS))
    return float(np.ldexp(total, 2 * e))


def _column_moments(Om: np.ndarray, g: np.ndarray, W: float, n_terms: int) -> np.ndarray:
    """h[..., p] = sum_N g[..., N] z_N^p, z_N = W / Omega_N, for p < n_terms:
    the column moments through which the far columns enter the far-field
    series, one row per row of ``g``.

    The powers are formed one at a time in one column-sized vector: a table
    of all of them is a temporary of megabytes, which in a long-running
    process cost up to 0.2 s a call on fresh pages (measured on a 2-vCPU
    VM in the ``correlations`` ops of the ``sweep`` benchmark).
    """
    z = W / Om
    z_p = np.ones_like(z)
    h = np.empty(g.shape[:-1] + (n_terms,))
    for p in range(n_terms):
        h[..., p] = g @ z_p
        z_p *= z
    return h


def _wick_dots(P: np.ndarray, Q: np.ndarray, Pb: np.ndarray, Qb: np.ndarray) -> tuple:
    """(left row dots, right row dots, cross Grams) of ``WickSums`` over the
    columns the rows hold. Each row dot reduces one row in its own call, so
    it has the same bits whichever rows share the call; the Grams are BLAS
    matrix products, deterministic for a fixed BLAS thread count."""
    left = (np.vecdot(P, P), np.vecdot(P, Q), np.vecdot(Q, Q))
    right = (np.vecdot(Pb, Pb), np.vecdot(Pb, Qb), np.vecdot(Qb, Qb))
    return left, right, (Q @ Pb.T, P @ Qb.T, Q @ Qb.T, P @ Pb.T)


def _far_wick_sums(fac_l: _Factors, fac_r: _Factors, split: int, W: float) -> tuple:
    """(left row dots, right row dots, cross Grams) of the columns from
    ``split`` on, all with Omega_N >= _WICK_FAR_FACTOR W, by the module
    docstring's Hankel series."""
    Om = fac_l.Om[split:]
    g_l, g_r = fac_l.b[split:] / Om, fac_r.b[split:] / Om
    h = _column_moments(Om, np.stack((g_l * g_l, g_r * g_r, g_l * g_r)), W, 2 * _WICK_FAR_TERMS - 1)
    j = np.arange(_WICK_FAR_TERMS)
    H_l, H_r, H_x = h[:, np.add.outer(j, j)]
    # the Vandermonde rows of +-omega / W: the series of 1 / (Omega - omega)
    # (alpha: V) and of 1 / (Omega + omega) (beta: Vm)
    V = np.vander(fac_l.om / W, _WICK_FAR_TERMS, increasing=True)
    Vb = np.vander(fac_r.om / W, _WICK_FAR_TERMS, increasing=True)
    Vm, Vbm = V * _parity(j), Vb * _parity(j)

    def row_dots(V, Vm, H, a):
        VH, VmH = V @ H, Vm @ H
        return tuple(a * a * np.vecdot(x, y) for x, y in ((VH, V), (VH, Vm), (VmH, Vm)))

    VH, VmH = V @ H_x, Vm @ H_x
    c = np.outer(fac_l.a_beta, fac_r.a_beta)
    grams = tuple(c * x for x in (VmH @ Vb.T, VH @ Vbm.T, VmH @ Vbm.T, VH @ Vb.T))
    return row_dots(V, Vm, H_l, fac_l.a_beta), row_dots(Vb, Vbm, H_r, fac_r.a_beta), grams


def wick_sums(m_indices, n_indices, cfg: CavityConfig, n_max: int) -> WickSums:
    """The Wick sums of left rows m_indices and right rows n_indices over the
    global modes N = 1..n_max, without building a full row.

    The near columns, Omega_N < _WICK_FAR_FACTOR W with W the largest omega
    of the requested rows of both families, are ``coeff_grid`` rows summed
    by ``_wick_dots``; the far columns add the module docstring's Hankel
    series. With no far column the sums are those of ``_wick_dots`` on the
    full rows, bit for bit. Otherwise a row's sums depend, in their last
    bits, on the rows requested with it, through W and the split it sets.
    DomainError unless n_max >= 1 and every index is an integer >= 1.
    """
    if n_max < 1:
        raise DomainError(f"the global cutoff must be >= 1, got n_max={n_max}")
    N = np.arange(1, n_max + 1)
    fac_l = _factors(Region.LEFT, m_indices, N, cfg)
    fac_r = _factors(Region.RIGHT, n_indices, N, cfg)
    W = max(np.max(fac_l.om, initial=0.0), np.max(fac_r.om, initial=0.0))
    split = int(np.searchsorted(fac_l.Om, _WICK_FAR_FACTOR * W))
    P, Q = coeff_grid(Region.LEFT, fac_l.m, N[:split], cfg)
    Pb, Qb = coeff_grid(Region.RIGHT, fac_r.m, N[:split], cfg)
    sums = _wick_dots(P, Q, Pb, Qb)
    if split < n_max:
        # with no far column the near sums stand as they are, bit for bit
        # those of the explicit rows
        sums = [tuple(near + far for near, far in zip(*parts))
                for parts in zip(sums, _far_wick_sums(fac_l, fac_r, split, W))]
    left, right, grams = sums
    return WickSums(left=left, right=right, grams=grams, near=split, far=n_max - split)


def coeff_pair(region: Region, m: int, N: int, cfg: CavityConfig) -> tuple[float, float]:
    """(alpha_mN, beta_mN) for one index pair (both real)."""
    alpha, beta = coeff_grid(region, np.array([m]), np.array([N]), cfg)
    return float(alpha[0, 0]), float(beta[0, 0])


def closed_overlap(m: int, N: int, region: Region, cfg: CavityConfig) -> float:
    """Closed-form V_mN in the caller's units (scales as R), for oracle checks."""
    alpha, _ = coeff_grid(region, np.array([m]), np.array([N]), cfg)
    fac = _factors(region, [m], [N], cfg)
    return float(alpha[0, 0] / (fac.om[0] + fac.Om[0])) * cfg.R


# ── block construction and memo ──────────────────────────────────────────────

def _nbytes(block: BogoliubovBlock) -> int:
    return block.alpha.nbytes + block.beta.nbytes


def clear_memo() -> None:
    """Drop the in-process block memo."""
    _BLOCK_MEMO.clear()


def build_block(
    region: Region,
    cfg: CavityConfig,
    tables: FrequencyTables | None,
    trunc: Truncation,
) -> BogoliubovBlock:
    """One family's block against N = 1..n_max_global, holding at least rows
    1..m_max_local: callers read the rows they need by index.

    Memoized in process, one entry per family, r/R, mu R and n_max, keyed by
    the text ``family|r/R|mu R|n_max`` (also the block's ``cfg_hash``): a row
    does not depend on the row count, so one entry serves every row count. A
    stored block with at least these rows is returned as is; one with fewer
    rows gains only the missing rows, and the longer block replaces the entry.
    The memo is a least-recently-used map bounded by _MEMO_BYTES of alpha +
    beta payload; a block larger than the bound is returned without being kept.

    ``tables`` is ignored (pass None): the coefficients take their
    frequencies from ``cfg``. It stays because ``perfbench/tests`` passes it
    positionally.
    """
    key = f"{region.value}|{cfg.r_tilde:.17g}|{cfg.mu_tilde:.17g}|{trunc.n_max_global}"
    rows = trunc.m_max_local
    block = _BLOCK_MEMO.pop(key, None)
    held_rows = 0 if block is None else block.alpha.shape[0]
    if held_rows >= rows:
        _BLOCK_MEMO[key] = block
        return block

    alpha, beta = coeff_grid(region, np.arange(held_rows + 1, rows + 1),
                             np.arange(1, trunc.n_max_global + 1), cfg)
    if block is not None:
        # new arrays: blocks handed out earlier keep their rows
        alpha = np.concatenate((block.alpha, alpha))
        beta = np.concatenate((block.beta, beta))
    alpha.setflags(write=False)
    beta.setflags(write=False)
    block = BogoliubovBlock(region=region, alpha=alpha, beta=beta, cfg_hash=key)

    size = _nbytes(block)
    if size <= _MEMO_BYTES:
        held = sum(_nbytes(b) for b in _BLOCK_MEMO.values())
        while held + size > _MEMO_BYTES:
            _, oldest = _BLOCK_MEMO.popitem(last=False)
            held -= _nbytes(oldest)
        _BLOCK_MEMO[key] = block
    return block


# ── identity residuals ──────────────────────────────────────────────────────

def identity_residuals(cfg: CavityConfig, n_max: int, upto: int) -> IdentityResiduals:
    """Residuals of (u_m|u_l) = delta, (u_m|u_l*) = 0, and the cross-region
    pairings (u_m|u_bar_l) = (u_m|u_bar_l*) = 0, for all m, l <= upto,
    truncated at the global modes N = 1..n_max.

    Expanded in the (truncated) global basis these are Gram matrices of the
    coefficient rows 1..upto of both families, P = alpha and Q = beta
    (primed: right):

        D1 = |P P^T - Q Q^T - I|     D1_cross = |P P'^T - Q Q'^T|
        D2 = |P Q^T - Q P^T|         D2_cross = |P Q'^T - Q P'^T|

    D2 reads Q P^T as the transpose of G = P Q^T, so the four take seven GEMMs.
    """
    if upto < 1 or n_max < 1:
        raise DomainError(
            f"identity residuals need upto >= 1 and n_max >= 1, got upto={upto}, n_max={n_max}")
    rows, cols = np.arange(1, upto + 1), np.arange(1, n_max + 1)
    P, Q = coeff_grid(Region.LEFT, rows, cols, cfg)
    Pb, Qb = coeff_grid(Region.RIGHT, rows, cols, cfg)
    D1 = np.abs(P @ P.T - Q @ Q.T - np.eye(upto))
    G = P @ Q.T
    D2 = np.abs(G - G.T)
    D1x = np.abs(P @ Pb.T - Q @ Qb.T)
    D2x = np.abs(P @ Qb.T - Q @ Pb.T)
    return IdentityResiduals(D1=D1, D2=D2, D1_cross=D1x, D2_cross=D2x)
