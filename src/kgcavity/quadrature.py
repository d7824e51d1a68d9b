"""Klein-Gordon inner product on sampled modes, and the overlap-integral oracle.

The KG product between two solutions sampled at equal time is

    (f|g) = i * integral_0^R ( f* g_dot - f_dot* g ) dx .

It is time independent on exact solutions, conjugate symmetric,
and flips sign (conjugated) when both arguments are conjugated. ``kg_inner``
evaluates it by composite Simpson. Its accuracy is measured, not estimated:
the ``causality`` command writes the distance of its commutators from the
grid-free coefficient sums of ``causality.commutator_pair`` to the manifest
as ``commutator_error_tau=<tau>``.

``overlap_V`` integrates the raw mode-overlap

    V_mN = integral_region  U_N(x) chi_m(x) dx ,

by composite Simpson on a base grid doubled once and twice, Richardson
extrapolated. It is kept deliberately independent of the closed forms in
``kgcavity.bogoliubov``: this function is the ground truth the closed
forms are tested against, including at resonances Omega_N = omega_m where
the generic closed form is 0/0.
"""

from __future__ import annotations

import numpy as np

from .config import CavityConfig, GridMismatch, Region, _index
from .modes import SampledMode

__all__ = ["kg_inner", "overlap_V"]


# ── quadrature rules on uniform samples ─────────────────────────────────────

def _simpson(y: np.ndarray, h: float) -> complex:
    """Composite Simpson on a uniform grid; odd interval counts get the
    standard three-point parabolic correction on the final interval."""
    n = len(y)
    if n < 2:
        return 0.0 + 0.0j
    if n == 2:
        return h * 0.5 * (y[0] + y[1])
    intervals = n - 1
    if intervals % 2 == 0:
        s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])
        return (h / 3.0) * s
    head = _simpson(y[:-1], h)
    tail = (h / 12.0) * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    return head + tail


# ── operations ──────────────────────────────────────────────────────────────

def kg_inner(f: SampledMode, g: SampledMode) -> complex:
    """(f|g) by composite Simpson.

    Requires identical grids and snapshot times, and a uniform, increasing
    grid (every step equal to the first within a relative 1e-9); raises
    GridMismatch otherwise.
    """
    if f.time != g.time:
        raise GridMismatch(f"snapshot times differ: {f.time} vs {g.time}")
    if len(f.grid) != len(g.grid) or not np.array_equal(f.grid, g.grid):
        raise GridMismatch("sampled modes do not share a grid")
    x = f.grid
    if len(x) < 2:
        raise GridMismatch("need at least two grid points")
    h = x[1] - x[0]
    if not (h > 0 and np.all(np.abs(np.diff(x) - h) <= 1e-9 * h)):
        raise GridMismatch("kg_inner needs a uniform, increasing grid")
    y = 1j * (np.conj(f.value) * g.tderiv - np.conj(f.tderiv) * g.value)
    return complex(_simpson(y, h))


def overlap_V(m: int, N: int, region: Region, cfg: CavityConfig) -> float:
    """Quadrature oracle for the overlap V_mN = integral U_N(x) chi_m(x) dx.

    U_N(x) = sin(pi N x/R)/sqrt(R Omega_N); chi_m is the region-confined
    sine with its 1/sqrt(width * omega_m) normalization, so the integral
    runs only over the support [0, r] (Left) or [r, R] (Right).

    Composite Simpson on a base grid resolving ~64 points per half-wave,
    doubled once and twice; the two refined levels are Richardson-combined,
    giving ~1e-11 relative accuracy for indices into the hundreds.
    """
    m, N = _index("m", m), _index("N", N)
    a, b, width = region.interval(cfg)
    Om = np.sqrt((np.pi * N / cfg.R) ** 2 + cfg.mu**2)
    om = np.sqrt((np.pi * m / width) ** 2 + cfg.mu**2)
    norm = 1.0 / np.sqrt(cfg.R * Om * width * om)

    cycles = N * width / cfg.R + m
    n0 = 1 << max(13, int(np.ceil(np.log2(64.0 * cycles))))

    def level(n_intervals: int) -> float:
        x = np.linspace(a, b, n_intervals + 1)
        y = np.sin(np.pi * N * x / cfg.R) * np.sin(np.pi * m * (x - a) / width)
        return float(np.real(_simpson(y, (b - a) / n_intervals)))

    richardson = (16.0 * level(n0 << 2) - level(n0 << 1)) / 15.0
    return richardson * norm
