"""Per-workload op catalogs and the seeded op lists drawn from them.

An op is one request of the closed loop: either one in-process
``kgcavity.cli.main(argv)`` call at the default truncation
(n_max = 1e4, m_max = 1e3, grid 2048) or, for the ``oracle`` group, one
direct call into ``kgcavity.fock_oracle``. Every catalog entry is a
concrete request, so each one has a frozen reference (``reference.json``).

Entries are grouped by cost: the entries of one group differ only in
configuration or mode index, never in the amount of work. A workload fixes
how many ops each group contributes per 30 s of run time; the seed decides
which entries fill those slots (mix and repetition) and the order. With
replacement, every entry of a group runs at least once, so every seed
builds the same set of coefficient blocks and the seeds differ in order
and mix, not in total work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NOMINAL_SECONDS = 30.0

# Why each workload exists; BENCHMARK.json carries the same one-liners.
WHY = {
    "evolve": "dense G x N series of evolved local modes on a few reused configurations; memo hits",
    "moments": "Wick moments, completeness residuals, steering and the Fock oracle on reused "
               "configurations; no series evaluation",
    "sweep": "every op on a distinct configuration, so each block build is a memo miss and the "
             "in-process memo grows; many small products written",
}


@dataclass(frozen=True)
class Op:
    """One catalog entry.

    ``argv`` is the CLI argument list (without ``--out-dir``); for the oracle
    group it is a pseudo-argv naming the library call. ``expect`` is "ok" for
    a request that must succeed and "reject" for an out-of-range request,
    which must be refused and never answered with a success.
    """

    group: str
    argv: tuple
    expect: str = "ok"

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def is_cli(self) -> bool:
        return self.argv[0] != "oracle"


def _cfg(r: float, mu: float) -> tuple:
    return ("--r", repr(r), "--mu", repr(mu))


# Reused configurations (r, mu) at R = 1. (0.21, 4.7619) is the narrow
# sub-cavity of the causality tests, where the suite pins the residues.
EVOLVE_CONFIGS = [(0.5, 0.0), (0.21, 4.7619), (0.35, 3.0)]
MOMENTS_CONFIGS = [(0.5, 0.0), (0.3, 2.0), (0.42, 1.0)]


def _evolve_catalog() -> list[Op]:
    ops = []
    for r, mu in EVOLVE_CONFIGS:
        c = _cfg(r, mu)
        for m, t in ((1, "0.1"), (2, "0.25"), (3, "0.4")):
            ops.append(Op("modes", ("modes", *c, "--m", str(m), "--times", t)))
    # t = 0 leakage residue with a spacelike probe, then a timelike probe
    for (r, mu), (m, t, tau) in zip(EVOLVE_CONFIGS, (("1", "0", "0.05"), ("2", "0.15", "0.6"),
                                                     ("1", "0", "0.05"))):
        ops.append(Op("causality", ("causality", *_cfg(r, mu), "--m", m, "--times", t,
                                    "--taus", tau)))
    for (r, mu), m in zip(EVOLVE_CONFIGS, ("1", "2", "1")):
        ops.append(Op("wavepacket", ("quasilocal", *_cfg(r, mu), "--wavepacket-m", m, "--t", "0.1")))
    return ops


def _moments_catalog() -> list[Op]:
    ops = []
    for r, mu in MOMENTS_CONFIGS:
        # equal pair counts, so every entry of the group costs the same
        for rows, cols in ((125, 125), (156, 100), (100, 156)):
            ops.append(Op("corr_full", ("correlations", *_cfg(r, mu), "--mrows", str(rows),
                                        "--nrows", str(cols))))
    (r1, mu1), (r2, mu2), (r3, mu3) = MOMENTS_CONFIGS
    ops += [
        Op("corr_paper", ("correlations", *_cfg(r1, mu1), "--mrows", "60", "--nrows", "40",
                          "--paper-norm", "--svg")),
        Op("corr_paper", ("correlations", *_cfg(r2, mu2), "--mrows", "40", "--nrows", "60",
                          "--paper-norm", "--svg")),
        Op("identities", ("identities", *_cfg(r1, mu1), "--upto", "50")),
        Op("identities", ("identities", *_cfg(r3, mu3), "--upto", "50")),
        Op("steering", ("quasilocal", *_cfg(r2, mu2), "--l-list", "2,5,9", "--steer-m", "2")),
        Op("steering", ("quasilocal", *_cfg(r3, mu3), "--l-list", "2,5,9", "--steer-m", "1")),
        Op("oracle", ("oracle", *_cfg(r1, mu1), "--rows", "4", "--modes", "8")),
        Op("oracle", ("oracle", *_cfg(r3, mu3), "--rows", "4", "--modes", "8")),
    ]
    return ops


def sweep_config(k: int) -> tuple[float, float]:
    """k-th distinct sweep configuration: a low-discrepancy walk over
    r in [0.3, 0.7] and mu in [0, 6)."""
    r = round(0.3 + 0.4 * ((k * 0.6180339887498949) % 1.0), 4)
    mu = round(6.0 * ((k * 0.7548776662466927) % 1.0), 3)
    return r, mu


# (group, entries, argv template) for the sweep; every entry gets its own
# configuration. The two out-of-range groups are the requests that must be
# refused with exit code 2 and a one-line JSON error.
_SWEEP_GROUPS = [
    ("rscan", 50, lambda r, mu: ("rscan", *_cfg(r, mu), "--kind", "mass", "--values", "0.5,2,8")),
    ("rscan_wide", 14, lambda r, mu: ("rscan", *_cfg(r, mu), "--kind", "mass",
                                      "--values", "0.5,1,2,4,8")),
    ("spectrum", 8, lambda r, mu: ("spectrum", "--r", repr(r),
                                   "--mu-list", f"{mu!r},{mu + 5.0!r},{mu + 10.0!r}")),
    ("diverge", 6, lambda r, mu: ("diverge", *_cfg(r, mu), "--svg")),
    ("identities", 6, lambda r, mu: ("identities", *_cfg(r, mu))),
    ("corr_default", 5, lambda r, mu: ("correlations", *_cfg(r, mu))),
    ("oor_modes", 2, lambda r, mu: ("modes", *_cfg(r, mu), "--m", "5000", "--mmax", "10")),
    ("oor_corr", 2, lambda r, mu: ("correlations", *_cfg(r, mu), "--mrows", "20", "--mmax", "5")),
]


def _sweep_catalog() -> list[Op]:
    ops = []
    k = 0
    for group, n, make in _SWEEP_GROUPS:
        for _ in range(n):
            expect = "reject" if group.startswith("oor_") else "ok"
            ops.append(Op(group, make(*sweep_config(k)), expect))
            k += 1
    return ops


CATALOGS = {
    "evolve": _evolve_catalog(),
    "moments": _moments_catalog(),
    "sweep": _sweep_catalog(),
}

# Ops per group per NOMINAL_SECONDS. Sampling with replacement repeats
# entries (memo hits); the sweep draws without replacement and is capped
# at its catalog, which keeps its peak RSS below half of the RAM. The
# counts put the median op and the tail op (the 11th slowest) inside one
# large group of equal cost (modes, corr_full, rscan / rscan_wide), a few
# ranks away from its edges, so neither flips between groups when the
# first op on a configuration pays for the block build.
COUNTS = {
    "evolve": {"modes": 32, "causality": 3, "wavepacket": 3},
    "moments": {"corr_full": 17, "corr_paper": 2, "identities": 4, "steering": 2, "oracle": 2},
    "sweep": {group: n for group, n, _ in _SWEEP_GROUPS},
}
REPLACE = {"evolve": True, "moments": True, "sweep": False}


def op_list(workload: str, seed: int, seconds: float) -> list[Op]:
    """The seeded op list: same (workload, seed, seconds), same list."""
    catalog = CATALOGS[workload]
    rng = random.Random(f"{workload}:{seed}")
    scale = seconds / NOMINAL_SECONDS
    ops: list[Op] = []
    for group, base in COUNTS[workload].items():
        entries = [op for op in catalog if op.group == group]
        want = max(1, round(base * scale))
        if want >= len(entries):
            ops += entries
            if REPLACE[workload]:
                ops += [rng.choice(entries) for _ in range(want - len(entries))]
        else:
            ops += rng.sample(entries, want)
    rng.shuffle(ops)
    return ops
