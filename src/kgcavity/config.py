"""Validated physical/numerical configuration and the frequency ladder.

A cavity run is controlled by three physical numbers — box size R, the
partition point r splitting it into [0, r] and [r, R], and the field mass
mu — plus truncation counts for the mode series. Everything downstream is
scale invariant in the combinations r/R and mu*R, so internally the
library works at R = 1 and rescales on the way in and out; see
``CavityConfig.r_tilde`` / ``CavityConfig.mu_tilde``.

Every frequency comes from ``ladder``: a family's modes are fixed by the
width of its interval and the mass, so no computation reads a frequency
table. ``frequencies`` tabulates the three ladders for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "KgCavityError",
    "DomainError",
    "GridMismatch",
    "ThresholdUnreachable",
    "DimensionError",
    "CavityConfig",
    "Truncation",
    "FrequencyTables",
    "validate_config",
    "ladder",
    "frequencies",
    "load_config_file",
]


# ── errors ──────────────────────────────────────────────────────────────────

class KgCavityError(Exception):
    """Base of the library's own errors; the CLI reports any of them as one
    JSON line on stderr with exit code 2."""


class DomainError(KgCavityError, ValueError):
    """Raised when a physical parameter is outside its allowed range."""


class GridMismatch(KgCavityError, ValueError):
    """Raised when two sampled modes do not share a grid and a time."""


class ThresholdUnreachable(KgCavityError, RuntimeError):
    """Raised when a requested probability mass cannot be captured at this truncation.

    Carries the mass that *was* captured in ``args[1]`` / ``.captured``.
    """

    def __init__(self, message: str, captured: float):
        super().__init__(message, captured)
        self.captured = captured


class DimensionError(KgCavityError, ValueError):
    """Raised when a truncated Fock space would exceed the configured memory budget."""


# ── configuration types ─────────────────────────────────────────────────────

@dataclass(frozen=True)
class CavityConfig:
    """Box size R, partition r, mass mu, and the derived right width r_bar = R - r."""

    R: float
    r: float
    mu: float
    r_bar: float

    @property
    def r_tilde(self) -> float:
        """Dimensionless partition r/R in (0, 1)."""
        return self.r / self.R

    @property
    def mu_tilde(self) -> float:
        """Dimensionless mass mu*R >= 0."""
        return self.mu * self.R


@dataclass(frozen=True)
class Truncation:
    """Series/grid cutoffs shared by all computations: global modes N,
    local modes m per family, and spatial grid points."""

    n_max_global: int = 10_000
    m_max_local: int = 1_000
    grid_points: int = 2048

    def __post_init__(self) -> None:
        for name in ("n_max_global", "m_max_local", "grid_points"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")


class FrequencyTables(NamedTuple):
    """Frequency ladders of the three mode families, tabulated for reporting.

    No computation reads one: each derives the frequencies it needs from
    ``ladder`` (``build_block`` accepts and ignores one).

    Omega[N-1]     = sqrt(pi^2 N^2 / R^2     + mu^2)   (global, N = 1..n_max_global)
    omega[m-1]     = sqrt(pi^2 m^2 / r^2     + mu^2)   (left local)
    omega_bar[m-1] = sqrt(pi^2 m^2 / r_bar^2 + mu^2)   (right local)
    """

    Omega: np.ndarray
    omega: np.ndarray
    omega_bar: np.ndarray


# ── operations ──────────────────────────────────────────────────────────────

def validate_config(R: float, r: float, mu: float) -> CavityConfig:
    """Normalize and range-check (R, r, mu); r = 0 and r = R are excluded.

    The endpoints are limit *scans*, not configurations: every coefficient
    formula divides by r or r_bar.
    """
    R = float(R)
    r = float(r)
    mu = float(mu)
    if not np.isfinite(R) or R <= 0:
        raise DomainError(f"box size R must be positive and finite, got {R}")
    if not np.isfinite(r) or r <= 0 or r >= R:
        raise DomainError(f"partition r must satisfy 0 < r < R, got r={r}, R={R}")
    if not np.isfinite(mu) or mu < 0:
        raise DomainError(f"mass mu must be >= 0, got {mu}")
    return CavityConfig(R=R, r=r, mu=mu, r_bar=R - r)


def ladder(n, width: float, mu: float):
    """sqrt((pi n / width)^2 + mu^2): the frequency of mode n of a field of
    mass mu on an interval of the given width, for a scalar or an array of n.

    The square is a product, never ``pow``, so a scalar n gives the same bits
    as the matching entry of an array.
    """
    return np.sqrt(np.square(np.pi * np.asarray(n, dtype=np.float64) / width) + mu**2)


def frequencies(cfg: CavityConfig, trunc: Truncation) -> FrequencyTables:
    """Tabulate Omega_N, omega_m, omega_bar_m up to the configured cutoffs.

    Strictly increasing in the index; every entry >= mu, with equality never
    attained (the index starts at 1). Pure arithmetic: recomputation is
    bit-identical for identical inputs.
    """
    N = np.arange(1, trunc.n_max_global + 1)
    m = np.arange(1, trunc.m_max_local + 1)
    return FrequencyTables(Omega=ladder(N, cfg.R, cfg.mu), omega=ladder(m, cfg.r, cfg.mu),
                           omega_bar=ladder(m, cfg.r_bar, cfg.mu))


_CONFIG_KEYS = {
    "R": float,
    "r": float,
    "mu": float,
    "n_max_global": int,
    "m_max_local": int,
    "grid_points": int,
}


def load_config_file(path: str) -> dict:
    """Parse a flat key-value config file.

    Lines look like ``r = 0.5`` (the ``=`` is optional); ``#`` starts a
    comment. Recognized keys: R, r, mu, n_max_global, m_max_local,
    grid_points. CLI flags override these values. A file that cannot be
    read is a DomainError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: cannot read config file ({type(exc).__name__})") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, rhs = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: cannot parse {raw!r}")
            key, rhs = parts
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](rhs.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values
