"""Validated physical/numerical configuration and the frequency ladder.

A cavity run is controlled by three physical numbers — box size R, the
partition point r splitting it into [0, r] and [r, R], and the field mass
mu — plus truncation counts for the mode series. Everything downstream is
scale invariant in the combinations r/R and mu*R, so internally the
library works at R = 1 and rescales on the way in and out; see
``CavityConfig.r_tilde`` / ``CavityConfig.mu_tilde``.

Every frequency comes from ``ladder``: a family's modes are fixed by the
width of its interval and the mass, so no computation reads a frequency
table. A frequency in the caller's units is the reduced ladder (width in
units of R, mass mu R) divided by R, so no square leaves double range
however small the box. ``Region`` names a local family and is the one
place that knows its geometry: its interval, reduced width, partner family
and ladder. ``frequencies`` tabulates the three ladders for reporting.

Every mode index (m, N, l, n) and every cutoff (n_max, upto, M, the
``Truncation`` counts) is a finite integer >= 1, and this module is the
one place that says so: ``_indices`` checks an array of them and
``_index`` one, returning it as a Python int. Every public entry that
takes one calls either before any work and uses what it returns, so 1.5,
0, nan and inf are a DomainError, and 3.0 or np.int64(3) stand for 3.
``_local_index`` is the one check that a local-mode index also lies in
the rows 1..m_max_local a ``Truncation`` allows.
"""

from __future__ import annotations

import enum
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
    "Region",
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
    """Raised when an array has a shape the operation cannot take: a
    truncated Fock space past the memory budget, or a heatmap matrix that
    is not 2-D with rows and columns."""


# ── mode indices and cutoffs ────────────────────────────────────────────────

def _indices(name: str, values) -> np.ndarray:
    """The mode indices or cutoffs as a new float64 array; DomainError
    unless every one is a finite integer >= 1."""
    idx = np.array(values, dtype=np.float64)
    bad = idx[~(np.isfinite(idx) & (idx >= 1) & (idx == np.rint(idx)))]
    if bad.size:
        raise DomainError(f"{name} must be >= 1 and whole: mode indices and cutoffs are "
                          f"integers >= 1, got {name}={bad[0]:g}")
    return idx


def _index(name: str, value) -> int:
    """One mode index or cutoff, checked by ``_indices``, as a Python int."""
    return int(_indices(name, value))


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
    """Series/grid cutoffs: global modes N, local modes m per family, and
    spatial grid points, each checked by ``_index`` and stored as a Python
    int. A computation reads only the ones it needs."""

    n_max_global: int = 10_000
    m_max_local: int = 1_000
    grid_points: int = 2048

    def __post_init__(self) -> None:
        for name in ("n_max_global", "m_max_local", "grid_points"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))


def _local_index(name: str, value, trunc: Truncation) -> int:
    """One local-mode index, as a Python int: DomainError unless it lies in
    the block of rows 1..trunc.m_max_local and obeys ``_index``'s rule
    (1.5 lies inside the range; the rule refuses it)."""
    if not 1 <= value <= trunc.m_max_local:
        raise DomainError(f"local index {name}={value} outside block of rows "
                          f"1..{trunc.m_max_local} (m_max_local, --mmax)")
    return _index(name, value)


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

# bounds on the reduced scales; ``validate_config`` derives them
_MIN_WIDTH = 1e-100
_MAX_MASS = 1e150


def validate_config(R: float, r: float, mu: float) -> CavityConfig:
    """Normalize and range-check (R, r, mu); r = 0 and r = R are excluded.

    The endpoints are limit *scans*, not configurations: every coefficient
    formula divides by r or r_bar. The computations run at R = 1, on the
    reduced widths w = r/R and 1 - r/R and the reduced mass mu R, and these
    must keep every reduced quantity in double range:

    - each width w >= 1e-100: the tail prefactor divides by w^3, a normal
      double only for w > DBL_MIN^(1/3) = 2.8e-103, and the coefficients'
      factors form (pi / w)^2, finite for w > 2.3e-154;
    - mu R <= 1e150: the factors and the tail square mu R, and the tail's
      nodes (up to 1640 times its cut mu R / pi) square their pi N, all
      finite while (mu R)^2 <= 1e300 leaves them below DBL_MAX = 1.8e308.
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
    for name, w in (("r/R", r / R), ("1 - r/R", 1.0 - r / R)):
        if not w >= _MIN_WIDTH:
            raise DomainError(f"{name} = {w:.17g} is below {_MIN_WIDTH:g}: its reduced "
                              f"scales leave double range")
    if not mu * R <= _MAX_MASS:
        raise DomainError(f"mu R = {mu * R:.17g} is above {_MAX_MASS:g}: its reduced "
                          f"scales leave double range")
    return CavityConfig(R=R, r=r, mu=mu, r_bar=R - r)


def ladder(n, width: float, mu: float):
    """sqrt((pi n / width)^2 + mu^2): the frequency of mode n of a field of
    mass mu on an interval of the given width, for a scalar or an array of n.

    Each square is a product, never ``pow``: a scalar n gives the same bits
    as the matching entry of an array, and mu -> mu / 2^k with
    width -> 2^k width scales the result by exactly 2^-k (a libm pow may
    round mu**2 an ulp off).
    """
    return np.sqrt(np.square(np.pi * np.asarray(n, dtype=np.float64) / width) + mu * mu)


def _per_R(reduced, cfg: CavityConfig):
    """A reduced frequency (in units of 1/R) in the caller's units;
    DomainError where it leaves double range, as it can when R is near the
    bottom of double range."""
    with np.errstate(over="ignore"):
        freq = reduced / cfg.R
    if not np.isfinite(freq).all():
        raise DomainError(f"a frequency of {np.max(reduced):.17g} / R leaves double range "
                          f"at R = {cfg.R:.17g}")
    return freq


def _global_omega(N, cfg: CavityConfig):
    """Omega_N of the box [0, R] for a scalar or an array of N."""
    return _per_R(ladder(N, 1.0, cfg.mu_tilde), cfg)


class Region(enum.Enum):
    """A local mode family, and the one place that knows its geometry: the
    sub-interval it lives on, its width in units of R and its partner."""

    LEFT = "left"      # [0, r]
    RIGHT = "right"    # [r, R]

    def interval(self, cfg: CavityConfig) -> tuple[float, float, float]:
        """(lo, hi, width) of the family's interval: (0, r, r) or (r, R, r_bar)."""
        if self is Region.LEFT:
            return 0.0, cfg.r, cfg.r
        return cfg.r, cfg.R, cfg.r_bar

    def reduced_width(self, cfg: CavityConfig) -> float:
        """The interval's width in units of R: r/R or 1 - r/R."""
        return cfg.r_tilde if self is Region.LEFT else 1.0 - cfg.r_tilde

    @property
    def other(self) -> Region:
        """The partner family, on the rest of the box."""
        return Region.RIGHT if self is Region.LEFT else Region.LEFT

    def omega(self, m, cfg: CavityConfig):
        """omega_m (left) or omega_bar_m (right) for a scalar or an array of m:
        the reduced ladder over R."""
        return _per_R(ladder(m, self.reduced_width(cfg), cfg.mu_tilde), cfg)


def frequencies(cfg: CavityConfig, trunc: Truncation) -> FrequencyTables:
    """Tabulate Omega_N, omega_m, omega_bar_m up to the configured cutoffs.

    Strictly increasing in the index; every entry >= mu, with equality never
    attained (the index starts at 1). Pure arithmetic: recomputation is
    bit-identical for identical inputs.
    """
    N = np.arange(1, trunc.n_max_global + 1)
    m = np.arange(1, trunc.m_max_local + 1)
    return FrequencyTables(Omega=_global_omega(N, cfg), omega=Region.LEFT.omega(m, cfg),
                           omega_bar=Region.RIGHT.omega(m, cfg))


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
