"""Brute-force moment oracle on a small truncated global Fock space.

No Wick theorem, no factorization: enumerate occupation states, apply
a = sum_N p_N A_N + q_N A_N^dagger to the vacuum vector as an explicit
linear map, and read the moments off inner products. For operators linear
in (A, A^dagger), fourth-order vacuum moments never push any occupation
past 2, so max_occupation >= 2 already makes the oracle *exact* — raising
the cap only pads the basis with exact zeros. Inner products iterate the
sorted nonzero entries (their order is cap-independent) and sum with
math.fsum, so cap 2 and cap 3 agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DimensionError

__all__ = ["TruncatedFock", "OracleMoments", "oracle_moments"]

_MAX_MODES = 8
_MAX_DIMENSION = 65_536


@dataclass(frozen=True)
class TruncatedFock:
    """Occupation-enumerated Fock space on n_modes global modes.

    State index i encodes occupations as base-(max_occupation+1) digits:
    digit k of i is the occupation of mode k. dimension = base^n_modes.
    """

    n_modes: int
    max_occupation: int = 2

    def __post_init__(self) -> None:
        if self.n_modes < 1 or self.max_occupation < 2:
            raise DimensionError(
                f"need n_modes >= 1 and max_occupation >= 2, got "
                f"{self.n_modes}/{self.max_occupation}"
            )
        if self.n_modes > _MAX_MODES or self.dimension > _MAX_DIMENSION:
            raise DimensionError(
                f"{self.n_modes} modes at occupation cap {self.max_occupation} "
                f"exceed the oracle budget ({_MAX_MODES} modes, dim {_MAX_DIMENSION})"
            )

    @property
    def base(self) -> int:
        return self.max_occupation + 1

    @property
    def dimension(self) -> int:
        return self.base**self.n_modes

    def basis(self) -> list[tuple[int, ...]]:
        """Occupation tuples in index order."""
        out = []
        for i in range(self.dimension):
            occ = []
            v = i
            for _ in range(self.n_modes):
                occ.append(v % self.base)
                v //= self.base
            out.append(tuple(occ))
        return out

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.complex128)
        vec[0] = 1.0
        return vec

    def apply_ladder_sum(self, vec: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """(sum_N p_N A_N + q_N A_N^dagger) applied to vec, mode by mode."""
        if len(p) != self.n_modes or len(q) != self.n_modes:
            raise DimensionError(
                f"coefficient rows must have {self.n_modes} entries, got {len(p)}/{len(q)}"
            )
        out = np.zeros_like(vec)
        idx = np.arange(self.dimension)
        for k in range(self.n_modes):
            stride = self.base**k
            d = (idx // stride) % self.base
            if p[k] != 0:
                src = d >= 1
                out[idx[src] - stride] += p[k] * np.sqrt(d[src]) * vec[src]
            if q[k] != 0:
                src = d < self.max_occupation
                out[idx[src] + stride] += q[k] * np.sqrt(d[src] + 1.0) * vec[src]
        return out


class OracleMoments(NamedTuple):
    mean_m: float
    mean_n: float
    second: float       # <n_m n_bar_n>
    var_m: float
    cov: float          # second - mean_m * mean_n, from the centred vectors
    imag_residue: float # |Im| of the raw second moment (hermiticity check)


def _dot(u: np.ndarray, v: np.ndarray) -> complex:
    """<u|v> over the sorted nonzero entries, fsum-accumulated.

    Skipping exact zeros makes the term sequence identical whichever
    occupation cap padded the basis.
    """
    nz = np.nonzero((u != 0) & (v != 0))[0]
    terms = np.conj(u[nz]) * v[nz]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def oracle_moments(
    left_row: tuple[np.ndarray, np.ndarray],
    right_row: tuple[np.ndarray, np.ndarray],
    fock: TruncatedFock,
) -> OracleMoments:
    """Exact (mean_m, mean_n, <n_m n_bar_n>, var_m) by explicit operator algebra.

    With u = a|0>, w = a^dagger a|0> (and barred versions from the right
    row): mean = <u|u> and <n_m n_bar_n> = <w|w_bar>. The variance and the
    covariance are inner products of the centred vectors d = w - mean|0>,
    var_m = <d|d> and cov = <d|d_bar>, so var_m >= 0 by construction rather
    than a difference of two rounded second moments.
    """
    p, q = (np.asarray(c, dtype=np.complex128) for c in left_row)
    pb, qb = (np.asarray(c, dtype=np.complex128) for c in right_row)
    vac = fock.vacuum()

    u = fock.apply_ladder_sum(vac, p, q)
    w = fock.apply_ladder_sum(u, np.conj(q), np.conj(p))   # a^dagger = sum q* A + p* A^dagger
    ub = fock.apply_ladder_sum(vac, pb, qb)
    wb = fock.apply_ladder_sum(ub, np.conj(qb), np.conj(pb))

    mean_m = _dot(u, u).real
    mean_n = _dot(ub, ub).real
    second_c = _dot(w, wb)
    d = w - mean_m * vac
    db = wb - mean_n * vac
    return OracleMoments(
        mean_m=mean_m,
        mean_n=mean_n,
        second=second_c.real,
        var_m=_dot(d, d).real,
        cov=_dot(d, db).real,
        imag_residue=abs(second_c.imag),
    )
