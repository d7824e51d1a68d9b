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
sign (-1)^(N+m) is folded into a_m and b_N. sin(pi N w) is evaluated on the
reduced argument sin(pi f) (-1)^k, k = round(N w), f = N w - k, so it is an
exact 0 in every column where N w is an integer: the Kronecker zeros.

V is a 0/0 at the exact resonances Omega_N = omega_m, eps = 0, which
happen only where N w is an integer k (f == 0) and m == k (possible
whenever r/R is rational). There, and only there, alpha takes the analytic
limit V = (w/2)/sqrt(w Omega omega), whose sign is pinned by the quadrature
oracle; beta needs no such branch. Every other entry keeps the closed form,
however near a resonance: eps = x - m and f = x - k are exact float
differences, and sin(pi f) has no cancellation, so V is accurate to
rounding even where eps is tiny.

The paper's two beta-only results are row sums: the local occupations
<n_m> = sum_N beta_mN^2 and, one column at a time, the log-divergent
sum_m beta_mN^2 of the inequivalence argument. ``beta_sq_sums`` computes
them from the same row and column vectors as ``coeff_grid``. It walks tiles
of at most _CHUNK_ENTRIES entries over both m and N, forms beta in each and
adds the row dots, so it never builds alpha, never runs the resonance
search and never holds a len(m) x len(N) array.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
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
    "build_block",
    "block_digest",
    "identity_residuals",
    "clear_memo",
]

# Bound on the alpha + beta bytes the block memo keeps: three default
# left/right pairs (m_max 1000 x n_max 10^4, 320 MB a pair) fit without
# eviction.
_MEMO_BYTES = 2**30

_BLOCK_MEMO: OrderedDict[str, BogoliubovBlock] = OrderedDict()

# Entries per row chunk of ``coeff_grid`` and per tile of ``beta_sq_sums``:
# the few chunk-sized temporaries (1 MB each) stay in cache.
_CHUNK_ENTRIES = 2**17


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


# ── closed forms ────────────────────────────────────────────────────────────

def _family_params(region: Region, cfg: CavityConfig) -> tuple[float, float]:
    """(dimensionless width, right-family sign toggle) for a local family."""
    if region is Region.LEFT:
        return cfg.r_tilde, 0.0
    if region is Region.RIGHT:
        return 1.0 - cfg.r_tilde, 1.0
    raise ValueError("coefficients exist for Region.LEFT or Region.RIGHT")


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
    right: bool           # right family: (-1)^(N+m) folded into a and b
    m: np.ndarray
    N: np.ndarray
    x: np.ndarray         # N w
    f: np.ndarray         # N w - round(N w), the reduced sine argument
    Om: np.ndarray        # Omega_N
    om: np.ndarray        # omega_m
    a: np.ndarray         # row factor a_m
    a_beta: np.ndarray    # (pi/w)^2 a_m, beta's row factor
    b: np.ndarray         # column factor b_N


def _factors(region: Region, m_indices, N_indices, cfg: CavityConfig) -> _Factors:
    """Row and column vectors of the module docstring's factored closed form;
    DomainError first unless every index is a finite integer >= 1."""
    m = np.asarray(m_indices, dtype=np.float64)
    N = np.asarray(N_indices, dtype=np.float64)
    for name, idx in (("m", m), ("N", N)):
        bad = idx[~(np.isfinite(idx) & (idx >= 1) & (idx == np.rint(idx)))]
        if bad.size:
            raise DomainError(f"mode indices must be integers >= 1, got {name}={bad[0]:g}")
    w, sign_toggle = _family_params(region, cfg)
    mu = cfg.mu_tilde

    Om = ladder(N, 1.0, mu)
    om = ladder(m, w, mu)
    x = N * w
    k = np.rint(x)
    f = x - k
    # sin(pi N w) = (-1)^k sin(pi f); a_m carries (-1)^m, which the right
    # family's (-1)^(N+m) turns into (-1)^N on the columns
    a = m * np.sqrt(w) / (np.pi * np.sqrt(om))
    b = np.sin(np.pi * f) * _parity(k + N if sign_toggle else k) / np.sqrt(Om)
    if not sign_toggle:
        a *= _parity(m)
    return _Factors(w=w, right=bool(sign_toggle), m=m, N=N, x=x, f=f, Om=Om, om=om,
                    a=a, a_beta=(np.pi / w) ** 2 * a, b=b)


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
    limit = (w / 2.0) / np.sqrt(w * Om_c * om_r)
    if fac.right:
        limit *= _parity(m[r_idx] + N[c_idx])
    alpha[r_idx, c_idx] = (om_r + Om_c) * limit
    return alpha, beta


def beta_sq_sums(
    region: Region,
    m_indices: np.ndarray,
    N_indices: np.ndarray,
    cfg: CavityConfig,
) -> np.ndarray:
    """sum over N in N_indices of beta_mN^2, one value per m in m_indices.

    Walks tiles of at most _CHUNK_ENTRIES entries over both axes, forms
    beta in each exactly as ``coeff_grid`` does and adds the row dots.
    Neither alpha, nor the resonance search (beta has no resonance branch),
    nor a len(m) x len(N) array is ever built.
    """
    fac = _factors(region, m_indices, N_indices, cfg)
    n_rows, n_cols = len(fac.m), len(fac.N)
    sums = np.zeros(n_rows)
    width = max(1, min(n_cols, _CHUNK_ENTRIES))
    step = max(1, _CHUNK_ENTRIES // width)
    bufs = np.empty((2, min(step, n_rows), width))
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        n = min(step, n_rows - lo)
        for c0 in range(0, n_cols, width):
            cols = slice(c0, c0 + width)
            c = min(width, n_cols - c0)
            freq_sum = np.add(fac.om[rows, None], fac.Om[cols], out=bufs[0, :n, :c])
            beta = np.multiply(fac.a_beta[rows, None], fac.b[cols], out=bufs[1, :n, :c])
            beta /= freq_sum
            sums[rows] += np.einsum("ij,ij->i", beta, beta)
    return sums


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

def block_digest(region: Region, cfg: CavityConfig, trunc: Truncation) -> str:
    """Digest of a family's memo entry, (family, r/R, mu R, n_max): a row does
    not depend on the row count, so one entry serves every row count."""
    key = "|".join(
        [
            region.value,
            format(cfg.r_tilde, ".17g"),
            format(cfg.mu_tilde, ".17g"),
            str(trunc.n_max_global),
        ]
    )
    return hashlib.sha256(key.encode("ascii")).hexdigest()[:16]


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
    """Rows 1..m_max_local of one family's block, against N = 1..n_max_global.

    Memoized in process, one entry per ``block_digest``: a stored block with
    these rows is returned as is, one with more rows as a read-only view of
    its first rows; one with fewer rows gains only the missing rows, and the
    longer block replaces the entry.
    The memo is a least-recently-used map bounded by _MEMO_BYTES of alpha +
    beta payload; a block larger than the bound is returned without being kept.

    ``tables`` is ignored (pass None): the coefficients take their
    frequencies from ``cfg``. It stays because ``perfbench/tests`` passes it
    positionally.
    """
    digest = block_digest(region, cfg, trunc)
    rows = trunc.m_max_local
    block = _BLOCK_MEMO.pop(digest, None)
    held_rows = 0 if block is None else block.alpha.shape[0]
    if held_rows >= rows:
        _BLOCK_MEMO[digest] = block
        if held_rows == rows:
            return block
        return replace(block, alpha=block.alpha[:rows], beta=block.beta[:rows])

    alpha, beta = coeff_grid(region, np.arange(held_rows + 1, rows + 1),
                             np.arange(1, trunc.n_max_global + 1), cfg)
    if block is not None:
        # new arrays: views of the stored rows handed out earlier stay valid
        alpha = np.concatenate((block.alpha, alpha))
        beta = np.concatenate((block.beta, beta))
    alpha.setflags(write=False)
    beta.setflags(write=False)
    block = BogoliubovBlock(region=region, alpha=alpha, beta=beta, cfg_hash=digest)

    size = _nbytes(block)
    if size <= _MEMO_BYTES:
        held = sum(_nbytes(b) for b in _BLOCK_MEMO.values())
        while held + size > _MEMO_BYTES:
            _, oldest = _BLOCK_MEMO.popitem(last=False)
            held -= _nbytes(oldest)
        _BLOCK_MEMO[digest] = block
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
    """
    if upto < 1 or n_max < 1:
        raise DomainError(
            f"identity residuals need upto >= 1 and n_max >= 1, got upto={upto}, n_max={n_max}")
    rows, cols = np.arange(1, upto + 1), np.arange(1, n_max + 1)
    P, Q = coeff_grid(Region.LEFT, rows, cols, cfg)
    Pb, Qb = coeff_grid(Region.RIGHT, rows, cols, cfg)
    D1 = np.abs(P @ P.T - Q @ Q.T - np.eye(upto))
    D2 = np.abs(P @ Q.T - Q @ P.T)
    D1x = np.abs(P @ Pb.T - Q @ Qb.T)
    D2x = np.abs(P @ Qb.T - Q @ Pb.T)
    return IdentityResiduals(D1=D1, D2=D2, D1_cross=D1x, D2_cross=D2x)
