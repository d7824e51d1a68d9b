"""Closed-form Bogoliubov coefficients between local and global mode families.

With V_mN = integral U_N chi_m dx (see ``kgcavity.quadrature.overlap_V``),
the dictionary between the family of local modes u_m and the global modes
U_N is

    alpha_mN = (U_N | u_m)  = (omega_m + Omega_N) V_mN ,
    beta_mN  = -(U_N*| u_m) = (Omega_N - omega_m) V_mN ,

all real for this geometry. The textbook closed form for V_mN is a 0/0 at
resonances Omega_N = omega_m (possible whenever r/R is rational). Writing
eps = N*width/R - m, the same integral evaluates exactly to

    V_mN = s * m * width * sinc(eps) / ((2m + eps) * sqrt(R width Omega_N omega_m))

with sinc(x) = sin(pi x)/(pi x), s = +1 for the left family and
s = (-1)^(N+m) for the right family. This form is finite and smooth through
eps = 0 and reproduces the generic formula identically elsewhere, because
sin(N pi r / R) = (-1)^m sin(pi eps) and
Omega_N^2 - omega_m^2 = (pi/width)^2 eps (2m + eps) on the left (mirrored
on the right). At eps = 0 it gives the resonance limit
(width/2)/sqrt(R width Omega omega), whose sign is pinned by the quadrature
oracle. The coefficients are scale invariant: they depend on (r/R, mu*R)
only.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .config import CavityConfig, FrequencyTables, Truncation
from .modes import Region

__all__ = [
    "BogoliubovBlock",
    "IdentityResiduals",
    "coeff_pair",
    "closed_overlap",
    "coeff_grid",
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


@dataclass(frozen=True)
class BogoliubovBlock:
    """Truncated alpha/beta matrices for one local family vs the global basis.

    alpha[m-1][N-1] = (U_N|u_m), beta[m-1][N-1] = -(U_N*|u_m). Entries are
    real (phases are +-1); ``as_complex`` restores the complex-valued
    interface where a caller wants it.
    """

    region: Region
    alpha: np.ndarray
    beta: np.ndarray
    cfg_hash: str

    def as_complex(self) -> tuple[np.ndarray, np.ndarray]:
        return self.alpha.astype(np.complex128), self.beta.astype(np.complex128)


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


def coeff_grid(
    region: Region,
    m_indices: np.ndarray,
    N_indices: np.ndarray,
    cfg: CavityConfig,
    resonance_eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) on the outer grid m_indices x N_indices, vectorized.

    Everything is evaluated in the dimensionless reduction (R = 1), which is
    exact because alpha/beta depend only on r/R and mu*R.
    """
    w, sign_toggle = _family_params(region, cfg)
    mu = cfg.mu_tilde
    m = np.asarray(m_indices, dtype=np.float64)[:, None]
    N = np.asarray(N_indices, dtype=np.float64)[None, :]

    Om = np.sqrt((np.pi * N) ** 2 + mu**2)
    om = np.sqrt((np.pi * m / w) ** 2 + mu**2)

    eps = N * w - m
    sinc = np.sinc(eps)
    # sin(pi * integer) in floats is ~1e-16 rather than 0; make the Kronecker
    # zeros exact so that "sin(N pi r/R) = 0, non-resonant -> V = 0" holds.
    exact_zero = (eps == np.round(eps)) & (eps != 0.0)
    sinc = np.where(exact_zero, 0.0, sinc)

    sqrt_norm = np.sqrt(w * Om * om)
    v = m * w * sinc / ((2.0 * m + eps) * sqrt_norm)

    # Resonance branch: inside the detection window substitute the analytic
    # limit (w/2)/sqrt(w Omega omega) with the oracle-pinned sign. The
    # Kronecker zeros are excluded: there Omega != omega exactly, but a large
    # mu^2 in both frequencies can shrink the *relative* gap arbitrarily.
    rel_gap = np.abs(Om**2 - om**2) / (Om**2 + om**2)
    limit = (w / 2.0) / sqrt_norm
    v = np.where((rel_gap <= resonance_eps) & ~exact_zero, limit, v)

    if sign_toggle:
        v = v * np.where((np.asarray(m_indices)[:, None] + np.asarray(N_indices)[None, :]) % 2 == 0, 1.0, -1.0)

    alpha = (om + Om) * v
    beta = (Om - om) * v
    return alpha, beta


def coeff_pair(
    region: Region,
    m: int,
    N: int,
    cfg: CavityConfig,
    tables: FrequencyTables,
    resonance_eps: float = 1e-8,
) -> tuple[float, float]:
    """(alpha_mN, beta_mN) for one index pair (both real)."""
    if m < 1 or N < 1:
        raise IndexError(f"indices must be >= 1, got m={m}, N={N}")
    alpha, beta = coeff_grid(region, np.array([m]), np.array([N]), cfg, resonance_eps)
    return float(alpha[0, 0]), float(beta[0, 0])


def closed_overlap(
    m: int,
    N: int,
    region: Region,
    cfg: CavityConfig,
    resonance_eps: float = 1e-8,
) -> float:
    """Closed-form V_mN in the caller's units (scales as R), for oracle checks."""
    alpha, beta = coeff_grid(region, np.array([m]), np.array([N]), cfg, resonance_eps)
    w, _ = _family_params(region, cfg)
    mu = cfg.mu_tilde
    Om = np.sqrt((np.pi * N) ** 2 + mu**2)
    om = np.sqrt((np.pi * m / w) ** 2 + mu**2)
    return float(alpha[0, 0] / (om + Om)) * cfg.R


# ── block construction and memo ──────────────────────────────────────────────

def block_digest(region: Region, cfg: CavityConfig, trunc: Truncation) -> str:
    """Digest of everything a block's values depend on (dimensionless controls)."""
    key = "|".join(
        [
            region.value,
            format(cfg.r_tilde, ".17g"),
            format(cfg.mu_tilde, ".17g"),
            str(trunc.n_max_global),
            str(trunc.m_max_local),
            format(trunc.resonance_eps, ".17g"),
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
    tables: FrequencyTables,
    trunc: Truncation,
) -> BogoliubovBlock:
    """Full [m_max_local x n_max_global] coefficient block for one family.

    Memoized in process by the dimensionless digest. The memo is a
    least-recently-used map bounded by _MEMO_BYTES of alpha + beta payload;
    a block larger than the bound is returned without being kept.
    """
    digest = block_digest(region, cfg, trunc)
    block = _BLOCK_MEMO.get(digest)
    if block is not None:
        _BLOCK_MEMO.move_to_end(digest)
        return block

    m_idx = np.arange(1, trunc.m_max_local + 1)
    N_idx = np.arange(1, trunc.n_max_global + 1)
    rows_a = []
    rows_b = []
    # chunk over m to bound the temporaries on big truncations
    step = max(1, min(trunc.m_max_local, 8_388_608 // max(trunc.n_max_global, 1)))
    for lo in range(0, len(m_idx), step):
        a, b = coeff_grid(region, m_idx[lo : lo + step], N_idx, cfg, trunc.resonance_eps)
        rows_a.append(a)
        rows_b.append(b)
    alpha = np.vstack(rows_a)
    beta = np.vstack(rows_b)
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

def identity_residuals(
    left: BogoliubovBlock,
    right: BogoliubovBlock,
    upto: int,
) -> IdentityResiduals:
    """Residuals of (u_m|u_l) = delta, (u_m|u_l*) = 0, and the cross-region
    pairings (u_m|u_bar_l) = (u_m|u_bar_l*) = 0, for all m, l <= upto.

    Expanded in the (truncated) global basis these are Gram matrices of the
    first ``upto`` coefficient rows, P = alpha and Q = beta (primed: right):

        D1 = |P P^T - Q Q^T - I|     D1_cross = |P P'^T - Q Q'^T|
        D2 = |P Q^T - Q P^T|         D2_cross = |P Q'^T - Q P'^T|
    """
    if upto > left.alpha.shape[0] or upto > right.alpha.shape[0]:
        raise IndexError(f"upto={upto} exceeds the available block rows")
    P, Q = left.alpha[:upto], left.beta[:upto]
    Pb, Qb = right.alpha[:upto], right.beta[:upto]
    D1 = np.abs(P @ P.T - Q @ Q.T - np.eye(upto))
    D2 = np.abs(P @ Q.T - Q @ P.T)
    D1x = np.abs(P @ Pb.T - Q @ Qb.T)
    D2x = np.abs(P @ Qb.T - Q @ Pb.T)
    return IdentityResiduals(D1=D1, D2=D2, D1_cross=D1x, D2_cross=D2x)
