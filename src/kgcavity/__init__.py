"""Local quantization of a Klein-Gordon field in a 1D box.

Two complete quantizations of the same field — box modes on [0, R] versus
the union of two independent sub-boxes meeting at r — are linked by an
explicit Bogoliubov dictionary. This package computes that dictionary in
closed form, checks it against quadrature, and exposes the observables
that distinguish the two Fock spaces: local particle content of the global
vacuum, inter-region number correlations, unitary-inequivalence divergence
diagnostics, quasi-local single-particle states, and causality checks for
the evolved local modes.
"""

from .bogoliubov import (
    BogoliubovBlock,
    IdentityResiduals,
    beta_sq_sums,
    block_digest,
    build_block,
    clear_memo,
    closed_overlap,
    coeff_grid,
    coeff_pair,
    identity_residuals,
)
from .causality import (
    Commutators,
    Leakage,
    ProbeSpec,
    commutator_pair,
    eval_probe_initial,
    lightcone_leakage,
    make_probe,
    outside_cone_mass,
)
from .config import (
    CavityConfig,
    DimensionError,
    DomainError,
    FrequencyTables,
    GridMismatch,
    KgCavityError,
    ThresholdUnreachable,
    Truncation,
    frequencies,
    ladder,
    load_config_file,
    validate_config,
)
from .fock_oracle import OracleMoments, TruncatedFock, oracle_moments
from .modes import (
    Region,
    SampledMode,
    conjugate_mode,
    eval_global_mode,
    eval_local_initial,
    evolve_local_mode,
    uniform_grid,
)
from .output import VERSION as __version__
from .quadrature import InnerProduct, kg_inner, overlap_V
from .quasilocal import (
    OverlapDistribution,
    QuasilocalEnergy,
    Steering,
    WavepacketComparison,
    bandwidth,
    overlap_distribution,
    quasilocal_energy,
    quasilocal_wavepacket,
    steering_shift,
    wavepacket_comparison,
)
from .vacuum import (
    DivergenceScan,
    ModeSumConvergence,
    MomentReport,
    SpectrumResult,
    TrendTable,
    divergence_scan,
    limit_scan,
    mode_sum_convergence,
    vacuum_spectrum,
    wick_moments,
)

__all__ = [
    "BogoliubovBlock",
    "CavityConfig",
    "Commutators",
    "DimensionError",
    "DivergenceScan",
    "DomainError",
    "FrequencyTables",
    "GridMismatch",
    "IdentityResiduals",
    "InnerProduct",
    "KgCavityError",
    "Leakage",
    "ModeSumConvergence",
    "MomentReport",
    "OracleMoments",
    "OverlapDistribution",
    "ProbeSpec",
    "QuasilocalEnergy",
    "Region",
    "SampledMode",
    "SpectrumResult",
    "Steering",
    "ThresholdUnreachable",
    "TrendTable",
    "TruncatedFock",
    "Truncation",
    "WavepacketComparison",
    "bandwidth",
    "beta_sq_sums",
    "block_digest",
    "build_block",
    "clear_memo",
    "closed_overlap",
    "coeff_grid",
    "coeff_pair",
    "commutator_pair",
    "conjugate_mode",
    "divergence_scan",
    "eval_global_mode",
    "eval_local_initial",
    "eval_probe_initial",
    "evolve_local_mode",
    "frequencies",
    "identity_residuals",
    "kg_inner",
    "ladder",
    "lightcone_leakage",
    "limit_scan",
    "load_config_file",
    "make_probe",
    "mode_sum_convergence",
    "oracle_moments",
    "outside_cone_mass",
    "overlap_V",
    "overlap_distribution",
    "quasilocal_energy",
    "quasilocal_wavepacket",
    "steering_shift",
    "uniform_grid",
    "vacuum_spectrum",
    "validate_config",
    "wavepacket_comparison",
    "wick_moments",
]
