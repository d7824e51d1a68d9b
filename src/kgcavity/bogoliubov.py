"""Closed-form Bogoliubov coefficients between local and global mode families.

With the mode overlap V_mN = integral U_N chi_m dx (the test suite
integrates it by quadrature, independently of this module), the dictionary
between the family of local modes u_m and the global modes U_N is

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
sign (-1)^(N+m) is folded into a_m and b_N; nothing after the tables
below tells the families apart. sin(pi N w) is evaluated on the reduced
argument sin(pi f) (-1)^k, k = round(N w), f = N w - k, so it is an exact
0 in every column where N w is an integer: the Kronecker zeros.

V is a 0/0 at the exact resonances Omega_N = omega_m, eps = 0, which
happen only where N w is an integer k (f == 0) and m == k (possible
whenever r/R is rational). There, and only there, alpha takes the analytic
limit V = (w/2)/sqrt(w Omega omega) times the sign of a_m and the column
parity folded into b_N, +1 on the left family and (-1)^(m+N) on the right
(pinned by the quadrature oracle); beta needs no such branch. Every other
entry keeps the closed form, however near a resonance: eps = x - m and
f = x - k are exact float differences, and sin(pi f) has no cancellation,
so V is accurate to rounding even where eps is tiny.

The vectors live in two read-only tables, built once and shared by every
kernel that reads them:

    rows     ``_rows(region, m, cfg)``: m, omega_m, a_m, a_beta_m
    columns  ``_columns(region, N, cfg)``: the geometry x = N w,
             f, the parity and s = sin(pi f) parity, which depend on
             (family, r/R, N) only (``_geometry``), and Omega_N with
             b_N = s / sqrt(Omega_N)

Omega_N = ladder(N, 1, mu R) is the same for both families
(``_column_ladder``), and the geometry does not depend on the mass, so a
table is built where it is used: ``gram`` builds Omega_N once per call and
each family's table on it (``_on_ladder``), and a mass scan
(``vacuum.limit_scan``) builds each family's geometry once for all its
values. Both tables refuse a bad index through ``config._indices``, the
one check of every mode index and cutoff.
``coeff_grid``, ``beta_sq_sums``, ``beta_sq_total`` and ``gram`` are
public wrappers over the table kernels ``_grid``, ``_beta_sq_sums``,
``_beta_sq_total`` and ``_add_grams``; no kernel writes into a table.

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

The two kernels that sum over the global modes N = 1..n_max read the
columns far above the requested rows by one series. With
A_m = a_beta_m, alpha_mN = A_m b_N / (Omega_N - omega_m) and
beta_mN = A_m b_N / (Omega_N + omega_m). Let W be the largest requested
omega and F a split factor. The near columns, Omega_N < F W (every
resonance, Omega_N = omega_m <= W, among them), are summed directly. In
the far ones z_N = W / Omega_N <= 1/F, and with s_m = omega_m / W <= 1
and g_N = b_N / Omega_N

    1 / (Omega_N -+ omega_m) = Omega_N^-1 sum_j (+-s_m z_N)^j,

so alpha_mN = sum_j X_mj g_N z_N^j with X_mj = A_m s_m^j, and beta_mN the
same with X_mj = A_m (-s_m)^j. A product of two rows x, y (of families f,
f'), summed over the far columns, is then

    sum_N x_mN y_nN = sum_{j,k} X_mj Y_nk h_{j+k},   h_p = sum_N g_N g'_N z_N^p,

a series in the column moments h_p, kept to total order j + k < T. Order
p holds p + 1 terms, each within z^p of the leading one (|s| <= 1), so
the dropped orders are within

    tau_T = sum_{p>=T} (p + 1) z^p = z^T (T + 1 - T z) / (1 - z)^2,   z = 1/F,

of |X_m0 Y_n0| sum_N |g_N g'_N|, itself within (1 + 1/F)^2 of a beta
product's value. Each split takes the smallest T with tau_T <= 2^-56
(``_series_order``): T = 31 at F = 4 (tau 9.3e-18), T = 21 at F = 8
(2.7e-18). The far columns thus cost O(T) each instead of O(rows), and
no full row is ever built.

The paper's summed local occupation sum_{m<=M} <n_m> comes from
``beta_sq_total`` without the per-row sums, split at F = _FAR_FACTOR = 4:
the near columns go through the same row-chunk pass as ``beta_sq_sums``,
and in the far ones the rows are one family's beta rows, each against
itself. Its terms of order p are X_mj X_mk = A_m^2 (-s_m)^p, p + 1 of
them, so summed over m the far part is

    sum_{p<T} (p + 1) (-1)^p mu_p h_p,   mu_p = sum_m A_m^2 s_m^p,

T multiply-adds a column (the moments h_p) instead of one division per
row; rounding costs a few ulps (measured: within 4.1e-16 of the exactly
rounded sum of ``coeff_grid``'s beta^2).

The cross-row sums over N = 1..n_max of the Wick moments and of the
completeness residuals are Gram matrices, and ``gram`` is their kernel.
Four readers sum products of rows they hold and do not go through it:
``quasilocal.overlap_distribution`` is the one read of a quasi-local
state's row, and ``quasilocal.quasilocal_energy`` sums that held row
(as ``quasilocal_wavepacket`` evolves it, with no row read of its own),
and ``quasilocal.steering_shift`` dots it with the other family's
``coeff_grid`` rows on the same columns; ``vacuum.wick_moments`` sums
explicit rows, as the reference ``gram`` is tested against; and
``vacuum.mode_sum_convergence`` takes the partial sums of one full row at
each of its cutoffs.

Each of the two sides a and b of ``gram`` is a stack of (family, rows)
pairs, and with P, Q = alpha, beta rows (primed: side b) the kernel
returns

    row dots  sum p^2, sum p q, sum q^2          (each row of each side)
    Grams     P P'^T, P Q'^T, Q P'^T, Q Q'^T     (a rows x b rows)

Its two callers are the Wick moments of the cross-partition number
correlations (``vacuum.vacuum_moments``: left rows against right rows)
and the completeness residuals (``identity_residuals``: left rows against
[left; right] rows). ``gram`` reads one column table per family on
N = 1..n_max and splits them at F = _WICK_FAR_FACTOR = 8, with W the
largest omega over every requested row. Both parts go through one
accumulator, ``_add_grams``: given each side's stack S = [P; Q] on some
columns and a metric M, it adds G += S_a M S_b^T, whose four blocks are
the Grams, and each row's p M p, p M q and q M q (one ``np.vecdot`` per
row), and the Grams are cut from G once, at the end.

The near columns are walked in chunks of _GRAM_COLUMNS global indices,
cut at its multiples and at the split, so the chunks do not depend on
which rows are requested. In each chunk ``_grid`` fills each side's
stacked rows into one reused buffer, each distinct (family, rows) pair
once, on a slice of its family's table, and M is the identity, never
multiplied. The buffers hold 2 x rows x _GRAM_COLUMNS entries a side,
whatever the number of near columns. The far columns, slices of the same
tables, enter as T virtual columns (f, j) per family f: a row of family f
holds X_mj in its family's T columns and zeros elsewhere, and the metric

    M[(f, j), (f', k)] = h^ff'_{j+k} for j + k < T, 0 otherwise,

takes the T column moments of each family pair present (at most three:
left-left, left-right, right-right) in one pass. A beta row against
itself under M is the series of ``beta_sq_total``, term for term.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import CavityConfig, FrequencyTables, Region, Truncation, _index, _indices, ladder

__all__ = [
    "BogoliubovBlock",
    "IdentityResiduals",
    "coeff_grid",
    "beta_sq_sums",
    "beta_sq_total",
    "Grams",
    "gram",
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
# by the far-field series of the module docstring.
_FAR_FACTOR = 4.0

# ``gram`` splits at a wider factor: the cross alpha Grams cancel
# (from O(1) to 2e-6 at r/R = 1/pi, mu R = 1000), and at a factor of 4 the
# rounding of the near GEMM's partial sum alone left 1.1e-11 of the
# cancelled value, against 8.4e-13 at 8.
_WICK_FAR_FACTOR = 8.0

# ``gram`` walks its near columns in chunks of this many global indices, so
# its buffers hold 2 x rows x _GRAM_COLUMNS entries a side, not the full
# near rows (17 MB at 156 + 100 rows and 4160 near columns).
_GRAM_COLUMNS = 512


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
    whose exact values are 0 (disjoint supports at t = 0); and how many
    global columns were summed directly (``near_columns``) and by the
    far-field series (``far_columns``).
    """

    D1: np.ndarray
    D2: np.ndarray
    D1_cross: np.ndarray
    D2_cross: np.ndarray
    near_columns: int
    far_columns: int

    @property
    def max_residual(self) -> float:
        return float(max(self.D1.max(), self.D2.max(), self.D1_cross.max(), self.D2_cross.max()))


class Grams(NamedTuple):
    """Sums over the global modes of products of the rows of side a
    (P, Q = alpha, beta) and side b (P', Q')."""

    a_dots: np.ndarray  # rows sum p^2, sum p q, sum q^2; one column per a row
    b_dots: np.ndarray  # the same per b row
    QP: np.ndarray      # Q P'^T, a rows x b rows
    PQ: np.ndarray      # P Q'^T
    QQ: np.ndarray      # Q Q'^T
    PP: np.ndarray      # P P'^T
    near: int           # columns summed directly
    far: int            # columns summed by the far-field series


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


class _Rows(NamedTuple):
    """The row vectors of the factored closed form: one family's rows m at
    one mass."""

    region: Region
    m: np.ndarray
    om: np.ndarray        # omega_m
    a: np.ndarray         # row factor a_m
    a_beta: np.ndarray    # (pi/w)^2 a_m, beta's row factor


class _Geometry(NamedTuple):
    """A family's column vectors that do not depend on the mass: functions
    of (family, r/R, N) alone."""

    region: Region
    w: float              # dimensionless width of the family's sub-box
    N: np.ndarray
    x: np.ndarray         # N w
    f: np.ndarray         # N w - round(N w), the reduced sine argument
    parity: np.ndarray    # the column sign folded into b_N, kept where sin(pi f) is 0
    s: np.ndarray         # sin(pi f) parity: sin(pi N w) with the family's sign


class _Columns(NamedTuple):
    """The column vectors of the factored closed form: a family's geometry
    and, at one mass, Omega_N and b_N = s_N / sqrt(Omega_N)."""

    region: Region
    w: float
    N: np.ndarray
    x: np.ndarray
    f: np.ndarray
    parity: np.ndarray
    s: np.ndarray
    Om: np.ndarray        # Omega_N
    b: np.ndarray         # column factor b_N


def _frozen(*arrays: np.ndarray) -> None:
    """Make table arrays read-only: a table is shared by every kernel that
    reads it, so none may write into it."""
    for x in arrays:
        x.setflags(write=False)


def _rows(region: Region, m_indices, cfg: CavityConfig) -> _Rows:
    """The row table of rows m_indices of ``region`` at cfg's mass."""
    m = _indices("m", m_indices)
    w = region.reduced_width(cfg)
    om = ladder(m, w, cfg.mu_tilde)
    a = m * np.sqrt(w) / (np.pi * np.sqrt(om))
    if region is Region.LEFT:
        # a_m carries (-1)^m, which the right family's (-1)^(N+m) turns into
        # (-1)^N on the columns
        a *= _parity(m)
    a_beta = (np.pi / w) ** 2 * a
    _frozen(m, om, a, a_beta)
    return _Rows(region=region, m=m, om=om, a=a, a_beta=a_beta)


def _geometry(region: Region, N_indices, cfg: CavityConfig) -> _Geometry:
    """The mass-independent column vectors of ``region`` on N_indices."""
    N = _indices("N", N_indices)
    w = region.reduced_width(cfg)
    x = N * w
    k = np.rint(x)
    f = x - k
    # sin(pi N w) = (-1)^k sin(pi f)
    parity = _parity(k + N if region is Region.RIGHT else k)
    s = np.sin(np.pi * f) * parity
    _frozen(N, x, f, parity, s)
    return _Geometry(region=region, w=w, N=N, x=x, f=f, parity=parity, s=s)


def _column_ladder(N: np.ndarray, cfg: CavityConfig) -> np.ndarray:
    """Omega_N = ladder(N, 1, mu R), the same for both families."""
    Om = ladder(N, 1.0, cfg.mu_tilde)
    _frozen(Om)
    return Om


def _on_ladder(geo: _Geometry, Om: np.ndarray) -> _Columns:
    """The column table of ``geo`` at the mass whose Omega_N is ``Om``."""
    b = geo.s / np.sqrt(Om)
    _frozen(b)
    return _Columns(*geo, Om=Om, b=b)


def _columns(region: Region, N_indices, cfg: CavityConfig) -> _Columns:
    """The column table of ``region`` on N_indices at cfg's mass."""
    geo = _geometry(region, N_indices, cfg)
    return _on_ladder(geo, _column_ladder(geo.N, cfg))


def _column_slice(cols: _Columns, lo: int, hi: int) -> _Columns:
    """Columns lo:hi of a column table, as read-only views."""
    return _Columns(cols.region, cols.w, *(v[lo:hi] for v in cols[2:]))


def coeff_grid(
    region: Region,
    m_indices: np.ndarray,
    N_indices: np.ndarray,
    cfg: CavityConfig,
    resonance_eps: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) on the outer grid m_indices x N_indices: ``_grid`` on
    fresh row and column tables.

    ``resonance_eps`` is ignored (pass None): only the exact resonances
    take the limit. It stays because ``perfbench/run.py`` passes it
    positionally.
    """
    return _grid(_rows(region, m_indices, cfg), _columns(region, N_indices, cfg))


def _grid(rows: _Rows, cols: _Columns, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) on rows x cols by the factored closed form of the module
    docstring, written row chunk by row chunk (about _CHUNK_ENTRIES entries
    each, so the temporaries stay cache-sized whatever the grid's shape)
    into ``out``, a pair of len(m) x len(N) arrays such as rows of a
    caller's reused buffer, or into new arrays. Every entry is a function
    of its own row and column alone: ``gram`` reads a table's column chunks
    and gets the bits of the whole grid."""
    m, om, a = rows.m, rows.om, rows.a
    x, Om, b = cols.x, cols.Om, cols.b
    two_m = 2.0 * m

    if out is None:
        out = np.empty((len(m), len(x))), np.empty((len(m), len(x)))
    alpha, beta = out
    step = max(1, _CHUNK_ENTRIES // max(len(x), 1))
    eps_buf = np.empty((min(step, len(m)), len(x)))
    den_buf = np.empty_like(eps_buf)
    # the resonance entries (eps = 0) divide 0 by 0; they are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(m), step):
            chunk = slice(lo, lo + step)
            n = min(step, len(m) - lo)
            eps = np.subtract(x, m[chunk, None], out=eps_buf[:n])
            den = np.add(two_m[chunk, None], eps, out=den_buf[:n])
            den *= eps
            freq_sum = np.add(om[chunk, None], Om, out=eps)   # eps is spent
            v = np.multiply(a[chunk, None], b, out=alpha[chunk])
            v /= den
            v *= freq_sum
            beta_rows = np.multiply(rows.a_beta[chunk, None], b, out=beta[chunk])
            beta_rows /= freq_sum

    w = cols.w
    r_idx, c_idx = _resonances(m, x, cols.f)
    Om_c, om_r = Om[c_idx], om[r_idx]
    # the sign of a_m times the column parity: +1 on the left family,
    # (-1)^(m+N) on the right
    limit = np.sign(a[r_idx]) * cols.parity[c_idx] * ((w / 2.0) / np.sqrt(w * Om_c * om_r))
    alpha[r_idx, c_idx] = (om_r + Om_c) * limit
    return alpha, beta


def _scaled_b(rows: _Rows, cols: _Columns) -> tuple[np.ndarray, int]:
    """b_N scaled by 2^-e, as a new array, and e.

    max t <= max|b_N| / (min omega_m + min Omega_N) ~ 2^e, so the scaled t
    is at most about 1 and t^2 does not underflow where t ~ w^2 (widths
    below ~1e-78); powers of two are exact, so a sum keeps its bits
    wherever t^2 is normal, and the caller undoes the scaling with
    ``ldexp(..., 2 e)`` after the row factor.
    """
    b = cols.b
    _, e_b = np.frexp(max(b.max(initial=0.0), -b.min(initial=0.0)))
    _, e_d = np.frexp(np.min(rows.om, initial=np.inf) + np.min(cols.Om, initial=np.inf))
    e = int(e_b - e_d)
    return np.ldexp(b, -e), e


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
    """sum over N in N_indices of beta_mN^2, one value per m in m_indices:
    ``_beta_sq_sums`` on fresh row and column tables."""
    return _beta_sq_sums(_rows(region, m_indices, cfg), _columns(region, N_indices, cfg))


def _beta_sq_sums(rows: _Rows, cols: _Columns) -> np.ndarray:
    """sum_N beta_mN^2 over the columns of ``cols``, one value per row.

    With beta_mN = a_beta_m t_mN, t_mN = b_N / (Omega_N + omega_m), the
    row sums of t^2 come from ``_row_sq_sums`` on the power-of-two scaled
    b_N of ``_scaled_b``; the row factor a_beta_m^2 multiplies each sum
    after it. A row's sum therefore has the same bits whichever rows share
    the call. Neither alpha, nor the resonance search (beta has no
    resonance branch), nor a len(m) x len(N) array is ever built.
    """
    b, e = _scaled_b(rows, cols)
    sums = _row_sq_sums(rows.om, cols.Om, b)
    return np.ldexp(sums * (rows.a_beta * rows.a_beta), 2 * e)


def beta_sq_total(region: Region, m_indices: np.ndarray, cfg: CavityConfig, n_max: int) -> float:
    """sum over m in m_indices and N = 1..n_max of beta_mN^2, without the
    per-row sums: ``_beta_sq_total`` on fresh row and column tables."""
    N = np.arange(1, _index("n_max", n_max) + 1)
    return _beta_sq_total(_rows(region, m_indices, cfg), _columns(region, N, cfg))


def _series_order(factor: float) -> int:
    """The order T of the far-field series on the columns with
    Omega_N >= factor W: the smallest whose dropped orders,
    tau_T = z^T (T + 1 - T z) / (1 - z)^2 at z = 1 / factor, are at most
    2^-56 of the leading term (module docstring)."""
    z = 1.0 / factor
    return next(T for T in range(1, 1000) if z**T * (T + 1 - T * z) / (1.0 - z) ** 2 <= 2.0**-56)


def _beta_sq_total(rows: _Rows, cols: _Columns) -> float:
    """sum_m sum_N beta_mN^2 over the rows and columns of the tables, the
    columns in ascending Omega_N (as ascending N are).

    With W = max omega_m, the near columns, Omega_N < _FAR_FACTOR W, go
    through ``_row_sq_sums`` and the row factors c_m = a_beta_m^2. The far
    columns, a suffix, take the module docstring's series to order
    T = ``_series_order(_FAR_FACTOR)``: sum_p d_p h_p, with d_p from the row
    moments and h_p the column moments of ``_column_moments``. The
    power-of-two scaling of b_N is shared by both parts and undone at the
    end. A call with no far column costs and returns what
    ``np.sum(_beta_sq_sums(...))`` does.
    """
    b, e = _scaled_b(rows, cols)
    om, c, Om = rows.om, rows.a_beta * rows.a_beta, cols.Om
    W = np.max(om, initial=0.0)
    split = int(np.searchsorted(Om, _FAR_FACTOR * W))
    total = np.sum(_row_sq_sums(om, Om[:split], b[:split]) * c)
    if split < len(Om):
        T = _series_order(_FAR_FACTOR)
        p = np.arange(T)
        # d_p = (p + 1) (-1)^p mu_p, mu_p = sum_m c_m (omega_m / W)^p
        d = (c @ np.vander(om / W, T, increasing=True)) * ((p + 1) * _parity(p))
        g = b[split:] / Om[split:]
        total += np.dot(d, _column_moments(Om[split:], g * g, W, T))
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


def _stack_rows(S: np.ndarray, side: list):
    """(rows, P, Q) for each row table of ``side`` in turn: views of its
    alpha and beta rows in the side's stack S = [P; Q]."""
    cuts = np.cumsum([len(rows.m) for rows in side])[:-1]
    k = len(S) // 2
    return zip(side, np.split(S[:k], cuts), np.split(S[k:], cuts))


def _add_grams(sums: list, stacks: list, metric: np.ndarray | None = None) -> None:
    """Add one set of columns to ``sums`` = [a dots, b dots, G, GEMM buffer].

    Each side's stack S = [P; Q] holds its rows on the columns, and with M
    the metric, G += S_a M S_b^T (whose blocks are P M P'^T, P M Q'^T,
    Q M P'^T and Q M Q'^T) and each row's dots p M p, p M q and q M q. A
    row's dots each come from one ``np.vecdot`` call reducing that row
    alone, so they have the same bits whichever rows share the call. With
    no metric M is the identity and is never multiplied: the near chunks.
    """
    *dots, G, prod = sums
    weighted = [S if metric is None else S @ metric for S in stacks]
    for d, S, SM in zip(dots, stacks, weighted):
        k = len(S) // 2
        d += np.vecdot(SM[:k], S[:k]), np.vecdot(SM[:k], S[k:]), np.vecdot(SM[k:], S[k:])
    G += np.matmul(weighted[0], stacks[1].T, out=prod)


def _chunk_grams(sizes: tuple[int, int], n_cols: int, fill) -> list:
    """The sums of ``_add_grams`` over the columns 0..n_cols-1, walked in
    chunks of _GRAM_COLUMNS columns whose boundaries fall at its multiples.

    ``sizes`` holds each side's row count k, and fill(lo, hi, stacks) writes
    each side's rows on columns lo:hi into its stack [P; Q] (2k rows, one
    buffer per side, reused from chunk to chunk, as is the GEMM's output).
    The GEMMs are BLAS matrix products, deterministic for a fixed BLAS
    thread count.
    """
    ka, kb = sizes
    sums = [np.zeros((3, ka)), np.zeros((3, kb)), np.zeros((2 * ka, 2 * kb)),
            np.empty((2 * ka, 2 * kb))]
    bufs = [np.empty((2 * k, min(_GRAM_COLUMNS, n_cols))) for k in sizes]
    for lo in range(0, n_cols, _GRAM_COLUMNS):
        hi = min(lo + _GRAM_COLUMNS, n_cols)
        stacks = [buf[:, :hi - lo] for buf in bufs]
        fill(lo, hi, stacks)
        _add_grams(sums, stacks)
    return sums


def _grams(sums: list, near: int, far: int) -> Grams:
    """``Grams`` cut from the sums of ``_add_grams``."""
    a_dots, b_dots, G, _ = sums
    ka, kb = len(a_dots[0]), len(b_dots[0])
    return Grams(a_dots, b_dots, G[ka:, :kb], G[:ka, kb:], G[ka:, kb:], G[:ka, :kb], near, far)


def _row_grams(P: np.ndarray, Q: np.ndarray, Pb: np.ndarray, Qb: np.ndarray) -> Grams:
    """``Grams`` of the explicit rows over every column they hold:
    ``_chunk_grams`` copies each chunk of the rows into its stacks, so
    ``gram`` with no far column returns these bits."""
    def fill(lo, hi, stacks):
        for S, X, Y in zip(stacks, (P, Pb), (Q, Qb)):
            S[:len(X)] = X[:, lo:hi]
            S[len(X):] = Y[:, lo:hi]

    n_cols = P.shape[1]
    return _grams(_chunk_grams((len(P), len(Pb)), n_cols, fill), n_cols, 0)


def _far_grams(sums: list, sides: list, cols: list, W: float) -> None:
    """Add the far columns, all with Omega_N >= _WICK_FAR_FACTOR W, to
    ``sums`` by the module docstring's series: ``sides`` holds each side's
    row tables and ``cols`` each family's column table on the far columns.

    Each side's far stack has T = ``_series_order(_WICK_FAR_FACTOR)``
    virtual columns per family, holding A_m (+-omega_m / W)^j (alpha: +,
    beta: -) in its family's columns and zeros elsewhere; the metric
    M[(f, j), (f', k)] = h^ff'_{j+k}, 0 from total order T on, takes one
    pass of T column moments over the family pairs.
    """
    T = _series_order(_WICK_FAR_FACTOR)
    regions = [c.region for c in cols]
    g = [c.b / c.Om for c in cols]
    pairs = [(f, e) for f in range(len(g)) for e in range(f, len(g))]
    h = _column_moments(cols[0].Om, np.stack([g[f] * g[e] for f, e in pairs]), W, T)
    # zero moments of the orders T..2T-2, which the series drops
    h = np.pad(h, ((0, 0), (0, T - 1)))
    j = np.arange(T)
    M = np.empty((len(g), T, len(g), T))
    for (f, e), h_fe in zip(pairs, h):
        # a Hankel block is symmetric, and h^fe = h^ef
        M[f, :, e] = M[e, :, f] = h_fe[np.add.outer(j, j)]
    stacks = []
    for side in sides:
        S = np.zeros((2 * sum(len(rows.m) for rows in side), len(g) * T))
        for rows, P, Q in _stack_rows(S, side):
            lo = regions.index(rows.region) * T
            P[:, lo:lo + T] = rows.a_beta[:, None] * np.vander(rows.om / W, T, increasing=True)
            Q[:, lo:lo + T] = P[:, lo:lo + T] * _parity(j)
        stacks.append(S)
    _add_grams(sums, stacks, M.reshape(len(g) * T, len(g) * T))


def gram(a, b, cfg: CavityConfig, n_max: int) -> Grams:
    """Row dots and Grams of the rows of side ``a`` against those of side
    ``b`` over the global modes N = 1..n_max, without building a full row.

    Each side is a sequence of (region, rows) pairs, its rows stacked in
    order; each distinct pair gets one row table, and each family one
    column table on N = 1..n_max, both on one Omega_N. The near columns,
    Omega_N < _WICK_FAR_FACTOR W with W the largest omega of every
    requested row, are walked by ``_chunk_grams`` in chunks of
    _GRAM_COLUMNS columns, cut at multiples of it and at the split, so they
    do not depend on which rows are requested: per chunk ``_grid`` fills
    each row table once, on that chunk of its family's table, into the
    side's stack (a table named again is copied). ``_far_grams`` adds the
    far columns through the same accumulator, ``_add_grams``, as T virtual
    columns per family under the moment metric; the sums are cut into
    ``Grams`` once, at the end. With no far column the sums are those of
    ``_row_grams`` on the full rows, bit for bit. Otherwise a row's sums
    depend, in their last bits, on the rows requested with it, through W
    and the split it sets. DomainError unless n_max and every index is an
    integer >= 1.
    """
    n_max = _index("n_max", n_max)
    tables = {}

    def table(region, m):
        m = np.asarray(m, dtype=np.float64)
        key = (region, m.tobytes())
        if key not in tables:
            tables[key] = _rows(region, m, cfg)
        return tables[key]

    sides = [[table(region, m) for region, m in side] for side in (a, b)]
    N = np.arange(1, n_max + 1)
    Om = _column_ladder(N, cfg)
    cols = {region: _on_ladder(_geometry(region, N, cfg), Om)
            for region in dict.fromkeys(rows.region for rows in tables.values())}
    W = max(np.max(rows.om, initial=0.0) for rows in tables.values())
    split = int(np.searchsorted(Om, _WICK_FAR_FACTOR * W))

    def fill(lo, hi, stacks):
        filled = {}
        for S, side in zip(stacks, sides):
            for rows, P, Q in _stack_rows(S, side):
                if id(rows) in filled:
                    P[...], Q[...] = filled[id(rows)]
                else:
                    chunk = _column_slice(cols[rows.region], lo, hi)
                    filled[id(rows)] = _grid(rows, chunk, out=(P, Q))

    sums = _chunk_grams(tuple(sum(len(rows.m) for rows in side) for side in sides), split, fill)
    if split < n_max:
        # with no far column the near sums stand as they are, bit for bit
        # those of the explicit rows
        _far_grams(sums, sides, [_column_slice(c, split, n_max) for c in cols.values()], W)
    return _grams(sums, split, n_max - split)


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

    all from one ``gram`` call of the left rows against the stacked left and
    right rows: the left block of its Grams gives D1 and D2, the right block
    D1_cross and D2_cross.
    """
    upto = _index("upto", upto)   # gram checks n_max
    rows = np.arange(1, upto + 1)
    g = gram(((Region.LEFT, rows),), ((Region.LEFT, rows), (Region.RIGHT, rows)), cfg, n_max)
    same, cross = slice(None, upto), slice(upto, None)
    return IdentityResiduals(
        D1=np.abs(g.PP[:, same] - g.QQ[:, same] - np.eye(upto)),
        D2=np.abs(g.PQ[:, same] - g.QP[:, same]),
        D1_cross=np.abs(g.PP[:, cross] - g.QQ[:, cross]),
        D2_cross=np.abs(g.PQ[:, cross] - g.QP[:, cross]),
        near_columns=g.near,
        far_columns=g.far,
    )
