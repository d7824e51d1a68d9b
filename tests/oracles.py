"""Test-side oracles: independent references the package is checked against.

None of these is on a command's path, so they live with the tests.

``overlap_V`` integrates the raw mode-overlap

    V_mN = integral_region  U_N(x) chi_m(x) dx ,

by composite Simpson on a base grid doubled once and twice, Richardson
extrapolated. It is kept deliberately independent of the closed forms in
``kgcavity.bogoliubov``: it is the ground truth the closed forms are tested
against, including at resonances Omega_N = omega_m where the generic closed
form is 0/0. The closed form's V is alpha_mN / (omega_m + Omega_N).

``eval_global_mode`` samples the global box mode U_N, the reference the KG
inner product and the series evolution are tested on, and ``basis`` lists
a ``TruncatedFock`` space's occupation tuples in index order.
"""

from __future__ import annotations

import numpy as np

from kgcavity import quadrature
from kgcavity.config import CavityConfig, Region, _global_omega, _index
from kgcavity.fock_oracle import TruncatedFock
from kgcavity.modes import SampledMode


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
        return float(np.real(quadrature._simpson(y, (b - a) / n_intervals)))

    richardson = (16.0 * level(n0 << 2) - level(n0 << 1)) / 15.0
    return richardson * norm


def eval_global_mode(
    N: int,
    grid: np.ndarray,
    t: float,
    cfg: CavityConfig,
) -> SampledMode:
    """U_N sampled on ``grid`` at time ``t``; endpoints exactly zero."""
    N = _index("N", N)
    grid = np.asarray(grid, dtype=np.float64)
    Om = _global_omega(N, cfg)
    s = np.sin(np.pi * N * grid / cfg.R) / np.sqrt(cfg.R * Om)
    # sin(pi N) in floats is ~1e-16, not 0; Dirichlet walls are exact by construction
    s[grid <= 0.0] = 0.0
    s[grid >= cfg.R] = 0.0
    value = s * np.exp(-1j * Om * t)
    return SampledMode(grid=grid, value=value, tderiv=-1j * Om * value, time=float(t))


def basis(fock: TruncatedFock) -> list[tuple[int, ...]]:
    """Occupation tuples of ``fock`` in index order."""
    out = []
    for i in range(fock.dimension):
        occ = []
        v = i
        for _ in range(fock.n_modes):
            occ.append(v % fock.base)
            v //= fock.base
        out.append(tuple(occ))
    return out
