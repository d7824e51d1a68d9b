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
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DimensionError, DomainError

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
        n, cap = self.n_modes, self.max_occupation
        if not (isinstance(n, numbers.Integral) and isinstance(cap, numbers.Integral)
                and n >= 1 and cap >= 2):
            raise DimensionError(
                f"need integers n_modes >= 1 and max_occupation >= 2, got {n}/{cap}")
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
        """(sum_N p_N A_N + q_N A_N^dagger) applied to vec.

        Only the occupied support of vec is visited, every mode at once.
        The terms are added in the order of a dense sweep, mode by mode
        and annihilation before creation, with one np.add.at; within one
        (mode, kind) group each destination occurs once. So every entry of
        the result takes the same additions as in the dense sweep, less the
        terms of zero entries of vec, which only ever added +-0. That
        holds for finite p and q alone: a non-finite entry is refused.
        """
        if len(p) != self.n_modes or len(q) != self.n_modes:
            raise DimensionError(
                f"coefficient rows must have {self.n_modes} entries, got {len(p)}/{len(q)}"
            )
        p, q = np.asarray(p), np.asarray(q)
        _check_finite(p, q)
        src = np.flatnonzero(vec)
        stride = self.base ** np.arange(self.n_modes)[:, None]
        d = (src // stride) % self.base                         # (mode, source)
        dst = np.stack([src - stride, src + stride], axis=1)    # (mode, kind, source)
        coef = np.stack([p[:, None] * np.sqrt(d), q[:, None] * np.sqrt(d + 1.0)], axis=1)
        keep = np.stack([(d >= 1) & (p != 0)[:, None],
                         (d < self.max_occupation) & (q != 0)[:, None]], axis=1)
        # numpy may round a complex product differently (with or without a
        # fused multiply-add) under broadcasting than on two contiguous
        # arrays, so coefficient and amplitude meet as two contiguous arrays,
        # as in a dense sweep; the broadcast product above has a real factor,
        # which both roundings treat alike
        amp = np.broadcast_to(vec[src], keep.shape)[keep]
        out = np.zeros_like(vec)
        np.add.at(out, dst[keep], coef[keep] * amp)
        return out


def _check_finite(*rows: np.ndarray) -> None:
    for row in rows:
        if not np.all(np.isfinite(row)):
            raise DomainError(f"ladder coefficients must be finite, got {row}")


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
    _check_finite(p, q, pb, qb)
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
