"""Klein-Gordon inner product on sampled modes.

The KG product between two solutions sampled at equal time is

    (f|g) = i * integral_0^R ( f* g_dot - f_dot* g ) dx .

It is time independent on exact solutions, conjugate symmetric,
and flips sign (conjugated) when both arguments are conjugated. ``kg_inner``
evaluates it by composite Simpson. Its accuracy is measured, not estimated:
the ``causality`` command writes the distance of its commutators from the
grid-free coefficient sums of ``causality.commutator_pair`` to the manifest
as ``commutator_error_tau=<tau>``.
"""

from __future__ import annotations

import numpy as np

from .config import GridMismatch
from .modes import SampledMode

__all__ = ["kg_inner"]


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
