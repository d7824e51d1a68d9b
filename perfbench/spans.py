"""Tracing shim: spans and counters recorded from outside the package.

``install`` replaces each traced function in every ``kgcavity.*`` namespace
that bound it by name (``cli``, ``causality`` and ``quasilocal`` use
``from ... import``), plus ``scipy.integrate.quad``, which the tail
integrals call through the module. Spans are kept in memory; a layer's self
time is its span minus the part of that interval its child spans cover.
Memo hits of ``build_block`` are detected by the identity of the returned
block, through weak references, so the shim never keeps a block alive and
never reads the package's private memo.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (module, function) pairs; metric prefix is "<module short name>.<function>".
TARGETS = [
    ("kgcavity.bogoliubov", "build_block"),
    ("kgcavity.bogoliubov", "coeff_grid"),
    ("kgcavity.bogoliubov", "identity_residuals"),
    ("kgcavity.modes", "evolve_local_mode"),
    ("kgcavity.quasilocal", "quasilocal_wavepacket"),
    ("kgcavity.quasilocal", "steering_shift"),
    ("kgcavity.quasilocal", "overlap_distribution"),
    ("kgcavity.quasilocal", "bandwidth"),
    ("kgcavity.quasilocal", "quasilocal_energy"),
    ("kgcavity.vacuum", "wick_moments"),
    ("kgcavity.vacuum", "vacuum_spectrum"),
    ("kgcavity.vacuum", "limit_scan"),
    ("kgcavity.vacuum", "divergence_scan"),
    ("kgcavity.vacuum", "mode_sum_convergence"),
    ("kgcavity.causality", "lightcone_leakage"),
    ("kgcavity.causality", "commutator_pair"),
    ("kgcavity.quadrature", "kg_inner"),
    ("kgcavity.fock_oracle", "oracle_moments"),
    ("kgcavity.config", "frequencies"),
    ("kgcavity.output", "write_csv"),
    ("kgcavity.output", "write_sidecar"),
    ("kgcavity.output", "write_manifest"),
    ("kgcavity.svg", "line_plot"),
    ("kgcavity.svg", "heatmap"),
    ("scipy.integrate", "quad"),
]

ROOT = "cli"   # the span around one op; its self time is cli.self_s


def prefix(module: str, function: str) -> str:
    if module.startswith("kgcavity."):
        module = module[len("kgcavity."):]
    return f"{module}.{function}"


# Work counters computed from the calls' arguments: metric name -> unit.
WORK = {
    "bogoliubov.coeff_grid.entries": "count",
    "modes.evolve_local_mode.terms": "count",
    "quasilocal.quasilocal_wavepacket.terms": "count",
    "vacuum.wick_moments.pairs": "count",
    "bogoliubov.identity_residuals.pairs": "count",
    "output.write_csv.bytes": "B",
}
MEMO = {
    "bogoliubov.build_block.memo_hits": ("count", "higher"),
    "bogoliubov.build_block.memo_misses": ("count", "lower"),
    "bogoliubov.build_block.hit_ratio": ("ratio", "higher"),
    "bogoliubov.build_block.bytes_built": ("B", "lower"),
}
# Outcomes of the op loop reported with the layers. cli.failed_ops_frac
# also counts an out-of-range request answered by a raw traceback as failed.
RUN = {
    "cli.failed_ops_frac": ("ratio", "lower"),
    "cli.out_of_range.raw_errors": ("count", "lower"),
    "cli.out_of_range.structured_errors": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for module, function in TARGETS:
        p = prefix(module, function)
        out[f"{p}.calls"] = ("count", "lower")
        out[f"{p}.total_s"] = ("s", "lower")
        out[f"{p}.self_s"] = ("s", "lower")
    out[f"{ROOT}.self_s"] = ("s", "lower")
    out.update(MEMO)
    out.update({name: (unit, "lower") for name, unit in WORK.items()})
    out.update(RUN)
    return out


class BlockIdentity:
    """Memo-hit detection by object identity, without keeping blocks alive."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def observe(self, block) -> bool:
        """True when ``block`` is an object this detector has seen before."""
        key = id(block)
        ref = self._seen.get(key)
        if ref is not None and ref() is block:
            return True

        def forget(dead, key=key):
            if self._seen.get(key) is dead:
                del self._seen[key]

        self._seen[key] = weakref.ref(block, forget)
        return False


class Tracer:
    """In-memory span recorder: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.blocks = BlockIdentity()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals
    clipped to it."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """calls / total_s / self_s per traced function, plus the counters."""
    calls: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        calls[name] += 1
        total[name] += span[2] - span[1]
        own[name] += s
    out = {}
    for module, function in TARGETS:
        p = prefix(module, function)
        out[f"{p}.calls"] = calls[p]
        out[f"{p}.total_s"] = total[p]
        out[f"{p}.self_s"] = own[p]
    out[f"{ROOT}.self_s"] = own[ROOT]
    hits = tracer.counters["bogoliubov.build_block.memo_hits"]
    misses = tracer.counters["bogoliubov.build_block.memo_misses"]
    out["bogoliubov.build_block.memo_hits"] = hits
    out["bogoliubov.build_block.memo_misses"] = misses
    out["bogoliubov.build_block.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["bogoliubov.build_block.bytes_built"] = tracer.counters["bogoliubov.build_block.bytes_built"]
    for name in WORK:
        out[name] = tracer.counters[name]
    return out


# ── counters computed from the call's bound arguments ──────────────────────

def _count_build_block(tracer, args, block):
    if tracer.blocks.observe(block):
        tracer.counters["bogoliubov.build_block.memo_hits"] += 1
    else:
        tracer.counters["bogoliubov.build_block.memo_misses"] += 1
        tracer.counters["bogoliubov.build_block.bytes_built"] += block.alpha.nbytes + block.beta.nbytes


def _count_coeff_grid(tracer, args, _):
    tracer.counters["bogoliubov.coeff_grid.entries"] += (
        np.size(args["m_indices"]) * np.size(args["N_indices"]))


def _count_series(name):
    def count(tracer, args, _):
        tracer.counters[name] += len(args["grid"]) * args["trunc"].n_max_global
    return count


def _count_wick(tracer, args, _):
    tracer.counters["vacuum.wick_moments.pairs"] += len(args["m_range"]) * len(args["n_range"])


def _count_identities(tracer, args, _):
    tracer.counters["bogoliubov.identity_residuals.pairs"] += args["upto"] ** 2


def _count_csv(tracer, args, _):
    tracer.counters["output.write_csv.bytes"] += os.path.getsize(args["path"])


COUNTERS = {
    "bogoliubov.build_block": _count_build_block,
    "bogoliubov.coeff_grid": _count_coeff_grid,
    "modes.evolve_local_mode": _count_series("modes.evolve_local_mode.terms"),
    "quasilocal.quasilocal_wavepacket": _count_series("quasilocal.quasilocal_wavepacket.terms"),
    "vacuum.wick_moments": _count_wick,
    "bogoliubov.identity_residuals": _count_identities,
    "output.write_csv": _count_csv,
}


def _wrap(tracer: Tracer, name: str, fn, count):
    sig = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            count(tracer, sig.bind(*args, **kwargs).arguments, result)
        return result

    return traced


class Shim:
    """Installed wrappers; ``remove`` puts every original binding back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._replaced: list[tuple] = []

    def install(self) -> "Shim":
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "kgcavity" or n.startswith("kgcavity."))]
        for module_name, function in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, function, None)
            if not callable(original):
                raise LookupError(f"traced function {module_name}.{function} not found")
            name = prefix(module_name, function)
            wrapper = _wrap(self.tracer, name, original, COUNTERS.get(name))
            for ns in {id(m): m for m in [module, *namespaces]}.values():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._replaced.append((ns, attr, original))
        return self

    def remove(self) -> None:
        for ns, attr, original in reversed(self._replaced):
            setattr(ns, attr, original)
        self._replaced.clear()
