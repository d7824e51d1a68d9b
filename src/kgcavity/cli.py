"""Command-line interface: figure-style data products with reproducible outputs.

Every subcommand writes CSV files (the numeric contract; byte-identical for
identical flags), a JSON sidecar per CSV, and a run manifest. --svg adds a
native rendering of the main table. Numbers in, numbers out — see README
for the subcommand tour.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import glob
import hashlib
import json
import logging
import math
import os
import sys
import time
from decimal import Decimal

import numpy as np

from . import svg as svgmod
from .bogoliubov import beta_sq_total, build_block, identity_residuals
from .causality import (_check_probe_grid, _finite_nonnegative, commutator_pair,
                        lightcone_leakage, make_probe)
from .config import (
    DomainError,
    KgCavityError,
    Region,
    ThresholdUnreachable,
    Truncation,
    _index,
    _local_index,
    load_config_file,
    validate_config,
)
from .modes import SampledMode, _check_time, evolve_local_mode, uniform_grid
from .output import write_csv, write_manifest, write_sidecar
from .quasilocal import (
    bandwidth,
    overlap_distribution,
    quasilocal_energy,
    steering_shift,
    wavepacket_comparison,
)
from .vacuum import (
    _divergence_request,
    _resonance_cutoff,
    divergence_scan,
    limit_scan,
    mode_sum_convergence,
    vacuum_moments,
    vacuum_spectrum,
)

# build_block is not called here: perfbench/tests reads it as
# kgcavity.cli.build_block, a binding the tracing shim rewraps
__all__ = ["main", "build_parser", "build_block"]

log = logging.getLogger("kgcavity")


# ── flag-value parsing ──────────────────────────────────────────────────────

def parse_float_list(text: str) -> list[float]:
    """'10:50:10' -> [10,20,30,40,50] (inclusive range); '1,2,3' -> [1,2,3].
    Every list holds at least one value: an empty item ('', '1,,2') and a
    range that ends before it starts ('5:1:1') are refused."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(f"range syntax is start:stop:step, got {text!r}")
            # exact decimal arithmetic, so 0.1:0.3:0.1 ends on 0.3, not 0.30000000000000004
            start, stop, step = (Decimal(p) for p in parts)
            if step <= 0:
                raise argparse.ArgumentTypeError("range step must be positive")
            if stop < start:
                raise argparse.ArgumentTypeError(f"range {text!r} ends before it starts")
            count = math.floor((stop - start) / step) + 1
            return [float(start + k * step) for k in range(count)]
        return [float(p) for p in text.split(",")]
    except (ArithmeticError, ValueError):    # decimal's InvalidOperation is an ArithmeticError
        raise argparse.ArgumentTypeError(f"not a number list: {text!r}") from None


def parse_int_list(text: str) -> list[int]:
    """parse_float_list, refusing any value that is not an integer or that
    repeats (an index list names each index once)."""
    values = parse_float_list(text)
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return [int(v) for v in values]


def parse_probes(text: str) -> list[tuple[int, int]]:
    """'1:1,2:3' -> [(1,1), (2,3)] as (m, N) pairs, refusing a pair that
    repeats (it would repeat its columns)."""
    out = []
    for item in text.split(","):
        m, _, N = item.partition(":")
        try:
            out.append((int(m), int(N)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"a probe is an m:N integer pair, got {item!r}") from None
    if len(set(out)) != len(out):
        raise argparse.ArgumentTypeError(f"repeated probe in {text!r}")
    return out


# ── shared setup ────────────────────────────────────────────────────────────

# the Truncation field each cutoff flag sets, in the order a header names them
_CUTOFFS = {"nmax": "n_max_global", "mmax": "m_max_local", "grid": "grid_points"}


def _resolve(args) -> tuple:
    """(cfg, trunc): config-file values first, CLI flags override, defaults last."""
    file_vals = load_config_file(args.config) if args.config else {}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_vals.get(key, default)

    cfg = validate_config(
        pick(args.R, "R", 1.0),
        pick(args.r, "r", 0.5),
        pick(args.mu, "mu", 0.0),
    )
    # a cutoff the command has no flag for keeps its default, whatever the file says
    trunc = Truncation(**{key: int(pick(getattr(args, flag), key, getattr(Truncation, key)))
                          for flag, key in _CUTOFFS.items() if hasattr(args, flag)})
    return cfg, trunc


def _scanned(args) -> tuple:
    """The configuration keys the rows of the command scan, each already a
    column: ``spectrum --mu-list`` scans mu, ``rscan`` its --kind."""
    if args.command == "spectrum" and args.mu_list is not None:
        return ("mu",)
    if args.command == "rscan":
        return {"mass": ("mu",), "partition-size": ("r", "r_bar")}[args.kind]
    return ()


class _Run:
    """The products of one command, written only after it has returned.

    The run's provenance is what every row shares: the configuration less
    the parameters its rows scan, and the cutoffs the command declares a
    flag for, at their resolved values. Each CSV header opens with it, and
    every sidecar and the manifest carry it.

    A command records each CSV with ``csv`` and each SVG with ``svg``, and
    puts its diagnostics in ``tails`` and its work counts in ``counters``,
    which only the manifest carries. ``finish`` creates ``out_dir`` (a
    DomainError naming it where it cannot) and writes the CSVs and their
    sidecars, then the SVGs (only with --svg), each in the order recorded,
    under a temporary name in ``out_dir``. Only once all are written does it
    rename each into place, then it writes the manifest. A command that
    raises leaves nothing behind, not even a directory it created: a
    product that cannot be written or renamed into place is a DomainError
    naming it, and the run removes what it wrote and puts back the earlier
    files its products replaced. No other file in ``out_dir`` is touched.
    """

    def __init__(self, args, cfg, trunc):
        self.args = args
        self.cfg = cfg
        self.trunc = trunc
        config = {k: v for k, v in dataclasses.asdict(cfg).items() if k not in _scanned(args)}
        truncation = {key: getattr(trunc, key) for flag, key in _CUTOFFS.items() if hasattr(args, flag)}
        self.record = {"command": args.command, "config": config, "truncation": truncation}
        lines = (" ".join(f"{k}={config[k]:.17g}" for k in ("R", "r", "mu") if k in config),
                 " ".join(f"{k}={v}" for k, v in truncation.items()))
        self.header = [line for line in lines if line]
        self.tails: dict = {}
        self.counters: dict = {}
        self.csvs: list = []
        self.svgs: list = []
        self.t0 = time.perf_counter()

    def csv(self, name: str, comments: list[str], names: list[str], columns: list) -> None:
        """Record a table under the provenance lines and ``comments``;
        ``columns`` parallels ``names``, one array per column."""
        self.csvs.append((name, self.header + comments, names, columns))

    def svg(self, name: str, render, *args, **kw) -> None:
        """Record ``render(path, *args, **kw)`` for ``finish``; nothing without --svg."""
        if self.args.svg:
            self.svgs.append((name, render, args, kw))

    def finish(self) -> int:
        out_dir = self.args.out_dir
        created = not os.path.exists(out_dir)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"{out_dir}: cannot create directory ({type(exc).__name__})") from exc
        # the products are written under this prefix, then renamed into place
        tag = os.path.join(out_dir, f".kgcavity-{os.getpid()}-")
        record = {**self.record, "tail_bounds": self.tails}
        outputs, staged, placed, kept, name = [], [], [], [], ""

        def set_aside(name):
            # an earlier file of the name is kept until the run has succeeded
            if os.path.isfile(os.path.join(out_dir, name)):
                os.replace(os.path.join(out_dir, name), f"{tag}~{name}")
                kept.append(name)

        try:
            for name, comments, names, columns in self.csvs:
                digest = write_csv(tag + name, comments, names, columns)
                staged += [name, write_sidecar(tag + name, record, digest)[len(tag):]]
                outputs.append((name, digest))
            for name, render, args, kw in self.svgs:
                render(tag + name, *args, **kw)
                staged.append(name)
                with open(tag + name, "rb") as fh:
                    outputs.append((name, hashlib.sha256(fh.read()).hexdigest()))
            for name in staged:
                set_aside(name)
                os.replace(tag + name, os.path.join(out_dir, name))
                placed.append(name)
            if self.counters:
                record["counters"] = self.counters
            name = "manifest.json"
            set_aside(name)
            placed.append(name)
            write_manifest(out_dir, record, outputs, time.perf_counter() - self.t0)
        except BaseException as exc:
            for done in placed:
                _quietly(os.remove, os.path.join(out_dir, done))
            for done in kept:
                _quietly(os.replace, f"{tag}~{done}", os.path.join(out_dir, done))
            # what is left under the prefix: products not yet renamed, a partial one
            for left in glob.glob(glob.escape(tag) + "*"):
                _quietly(os.remove, left)
            if created:
                _quietly(os.rmdir, out_dir)
            if isinstance(exc, OSError):
                raise DomainError(f"{os.path.join(out_dir, name)}: cannot write "
                                  f"({type(exc).__name__})") from exc
            raise
        for name in kept:
            os.remove(f"{tag}~{name}")
        for name, digest in outputs:
            log.info("wrote %s (sha256 %s…)", name, digest[:12])
        return 0


def _quietly(step, *paths) -> None:
    """``step(*paths)`` while undoing a failed run: an OSError (a path that
    is gone or cannot be removed) stops no other step."""
    with contextlib.suppress(OSError):
        step(*paths)


def _record_series(run: _Run, label: str, mode: SampledMode) -> None:
    """An evolved mode's series diagnostics (``tail_estimate``,
    ``gibbs_overshoot``, ``truncation_warning``) into the manifest and
    sidecars under ``label``, never into the CSVs; a truncation warning is
    logged."""
    run.tails[label] = mode.tail_estimate
    if mode.gibbs_overshoot is not None:
        run.tails[f"gibbs_overshoot_{label}"] = mode.gibbs_overshoot
    if mode.truncation_warning:
        log.warning("series tail estimate %.3g at %s exceeds the tolerance; raise --nmax",
                    mode.tail_estimate, label)


def _record_tail(run: _Run, label: str, tail: float, l: int, flag: str) -> None:
    """A tail bound into the manifest and sidecars under ``label``; when it
    is inf, because the cutoff ``flag`` sets lies below the resonance side
    of left mode l, a warning names the cutoff to reach."""
    run.tails[label] = tail
    if math.isinf(tail):
        log.warning("%s is no bound below the resonance side of mode %d; raise %s to at least %d",
                    label, l, flag, _resonance_cutoff(Region.LEFT, l, run.cfg))


def _warn_truncated(at: str, values, tails, names: list) -> None:
    """One warning for the sums over N <= n_max of one scan value (``at``)
    when any is truncation-dominated, its tail bound beyond the cutoff
    exceeding it: the warning names the first such sum and --nmax."""
    over = np.flatnonzero(tails > values)
    if over.size:
        i = over[0]
        log.warning("at %s the tail bound %.3g of %s exceeds its value %.3g (%d of %d); "
                    "raise --nmax", at, tails[i], names[i], values[i], over.size, len(values))


# ── subcommands ─────────────────────────────────────────────────────────────

def cmd_modes(args, run: _Run) -> None:
    cfg, trunc = run.cfg, run.trunc
    _local_index("--m", args.m, trunc)
    for t in args.times:
        _check_time(t, cfg, trunc.n_max_global)
    region = Region(args.region)
    grid = uniform_grid(cfg, trunc.grid_points)
    series = []
    for k, t in enumerate(args.times):
        mode = evolve_local_mode(region, args.m, grid, t, cfg, trunc)
        _record_series(run, f"t={t:.17g}", mode)
        run.csv(
            f"mode_{args.region}_m{args.m}_t{k}.csv",
            [f"time={t:.17g} region={args.region} m={args.m}"],
            ["x", "re_value", "im_value", "re_tderiv", "im_tderiv"],
            [grid, mode.value.real, mode.value.imag, mode.tderiv.real, mode.tderiv.imag],
        )
        series.append((grid, np.abs(mode.value), f"t={t:g}"))
    run.svg("modes.svg", svgmod.line_plot, series, title=f"|u_{args.m}(x,t)|, {args.region}",
            xlabel="x", ylabel="|u|")


def cmd_spectrum(args, run: _Run) -> None:
    lmax = _index("--lmax", args.lmax)
    # the l column carries the local cutoff
    cfg, trunc = run.cfg, dataclasses.replace(run.trunc, m_max_local=lmax)
    region = Region(args.region)
    mus = args.mu_list if args.mu_list is not None else [cfg.mu]
    ls = np.arange(1, lmax + 1)
    oms, specs = [], []
    for mu in mus:
        cfg_mu = validate_config(cfg.R, cfg.r, mu)
        spec = vacuum_spectrum(region, cfg_mu, trunc)
        oms.append(region.omega(ls, cfg_mu))
        specs.append(spec)
        run.tails[f"mu={mu:.17g}"] = float(np.max(spec.tail_bound))
        _warn_truncated(f"mu={mu:.17g}", spec.values, spec.tail_bound, [f"mode {l}" for l in ls])
    run.csv("spectrum.csv", [f"region={args.region}"],
            ["mu", "l", "omega_l", "n_l", "tail_bound"],
            [np.repeat(mus, lmax), np.tile(ls, len(mus)), np.ravel(oms),
             np.ravel([s.values for s in specs]), np.ravel([s.tail_bound for s in specs])])
    series = [(om, spec.values, f"mu={mu:g}") for mu, om, spec in zip(mus, oms, specs)]
    run.svg("spectrum.svg", svgmod.line_plot, series, title="local spectrum of the global vacuum",
            xlabel="omega_l", ylabel="<n_l>", logy=True)


def cmd_rscan(args, run: _Run) -> None:
    cfg, trunc = run.cfg, run.trunc
    probes = args.probes
    table = limit_scan(args.kind, args.values, probes, cfg, trunc, M_fixed=args.M_fixed)
    cells = [f"n_m{m}" for m, _ in probes]
    sums = [f"sum_left_M{args.M_fixed}", f"sum_both_M{args.M_fixed}"]
    sum_values = np.column_stack((table.sum_left, table.sum_both))
    sum_tails = np.column_stack((table.tail_sum_left, table.tail_sum_both))
    for k, value in enumerate(table.values):
        at = f"{args.kind}={value:.17g}"
        run.tails[f"value={value:.17g}"] = dict(zip(cells + sums,
                                                    [*table.tail_per_probe[k], *sum_tails[k]]))
        _warn_truncated(at, table.n_per_probe[k], table.tail_per_probe[k], cells)
        _warn_truncated(at, sum_values[k], sum_tails[k], sums)
    names, columns = ["value"], [table.values]
    for ip, (m, N) in enumerate(probes):
        names += [f"n_m{m}", f"alpha_m{m}_N{N}", f"beta_m{m}_N{N}"]
        columns += [table.n_per_probe[:, ip], table.alpha_mag[:, ip], table.beta_mag[:, ip]]
    names += sums
    columns += [table.sum_left, table.sum_both]
    run.csv("rscan.csv", [f"kind={args.kind}"], names, columns)
    series = [(table.values, table.n_per_probe[:, ip], f"m={m}")
              for ip, (m, N) in enumerate(probes)]
    run.svg("rscan.svg", svgmod.line_plot, series, title=f"{args.kind} scan",
            xlabel=args.kind, ylabel="<n_m>", logy=True)


def cmd_correlations(args, run: _Run) -> None:
    cfg, trunc = run.cfg, run.trunc
    _local_index("--mrows", args.mrows, trunc)
    _local_index("--nrows", args.nrows, trunc)
    report = vacuum_moments(range(1, args.mrows + 1), range(1, args.nrows + 1), cfg,
                            trunc.n_max_global)
    run.counters["near_columns"] = report.near_columns
    run.counters["far_columns"] = report.far_columns
    # m-major: row i * nrows + j holds (m_i, n_j)
    names = ["m", "n", "cov", "corr"]
    columns = [np.repeat(report.m_range, len(report.n_range)),
               np.tile(report.n_range, len(report.m_range)),
               report.cov.ravel(), report.corr.ravel()]
    if args.paper_norm:
        # over each side's summed spectrum sum_{l <= m_max} <n_l>, which grows with the cutoff
        ls = np.arange(1, trunc.m_max_local + 1)
        left_n, right_n = (beta_sq_total(side, ls, cfg, trunc.n_max_global)
                           for side in (Region.LEFT, Region.RIGHT))
        norm = math.sqrt(left_n) * math.sqrt(right_n)
        if norm == 0.0:
            raise DomainError(f"--paper-norm has a zero normalization: the summed spectra are "
                              f"{left_n:g} (left) and {right_n:g} (right)")
        names.append("corr_summed_norm")
        columns.append((report.cov / norm).ravel())
    run.csv("correlations.csv", [], names, columns)
    run.csv("moments.csv", [], ["region", "index", "mean", "var"],
            [["left"] * len(report.m_range) + ["right"] * len(report.n_range),
             report.m_range + report.n_range,
             np.concatenate([report.mean_left, report.mean_right]),
             np.concatenate([report.var_left, report.var_right])])
    run.svg("correlations.svg", svgmod.heatmap, report.corr,
            title="corr(n_m, n_bar_n)", xlabel="n (right)", ylabel="m (left)")


def cmd_quasilocal(args, run: _Run) -> None:
    cfg, trunc = run.cfg, run.trunc
    l_list = args.l_list
    states = [("--l-list", l) for l in l_list] + [("--steer-m", args.steer_m)]
    if args.t is not None and args.wavepacket_m is None:
        raise DomainError("--t is the wavepacket's time and needs --wavepacket-m")
    t = 0.0 if args.t is None else args.t
    if args.wavepacket_m is not None:
        states.append(("--wavepacket-m", args.wavepacket_m))
        _finite_nonnegative("time", t)
        _check_time(t, cfg, trunc.n_max_global)
    for flag, l in states:
        _local_index(flag, l, trunc)
    # one distribution, and so one read of its row, per distinct state
    dists = {l: overlap_distribution(l, cfg, trunc) for l in dict.fromkeys(l for _, l in states)}
    widths, energies, overlap_series = [], [], []
    for l in l_list:
        dist = dists[l]
        keep = dist.p > 0
        run.csv(
            f"overlap_l{l}.csv",
            [f"l={l} omega_l={dist.omega_l:.17g} peak_Omega={dist.peak_Omega:.17g}"],
            ["N", "Omega_N", "p"],
            [np.nonzero(keep)[0] + 1, dist.Omega[keep], dist.p[keep]],
        )
        try:
            dO = bandwidth(dist, threshold=args.threshold)
        except ThresholdUnreachable as exc:
            log.warning("bandwidth threshold unreachable for l=%d (captured %.6g)", l, exc.captured)
            dO = float("nan")
        energy = quasilocal_energy(dist, cfg)
        _record_tail(run, f"energy_tail_l={l}", energy.tail_bound, l, "--nmax")
        widths.append(dO)
        energies.append(energy)
        overlap_series.append((dist.Omega[keep], dist.p[keep], f"l={l}"))
    run.csv("bandwidth.csv", [f"threshold={args.threshold:.17g}"],
            ["l", "omega_l", "delta_Omega", "norm_captured",
             "energy_raw", "energy_normalized", "energy_annihilator"],
            [l_list, [dists[l].omega_l for l in l_list], widths,
             [dists[l].norm_captured for l in l_list],
             [e.raw for e in energies], [e.normalized for e in energies],
             [e.annihilator_normalized for e in energies]])
    shift = steering_shift(dists[args.steer_m], l_list, cfg)
    run.csv("steering.csv", [f"m={args.steer_m}"],
            ["l", "shift_wick", "shift_direct"], [l_list, shift.wick, shift.direct])
    if args.wavepacket_m is not None:
        comp = wavepacket_comparison(dists[args.wavepacket_m], t, cfg, trunc)
        u = comp.leak.mode
        run.tails["psi_outside_fraction"] = comp.psi_outside_fraction
        run.tails["u_outside_fraction"] = comp.leak.fraction
        _record_series(run, "u_tail_estimate", u)
        _record_series(run, "psi_tail_estimate", comp.psi)
        abs_psi, abs_u = np.abs(comp.psi.value), np.abs(u.value)
        run.csv(
            f"wavepacket_m{args.wavepacket_m}.csv",
            [f"t={t:.17g} cone_edge={comp.leak.cone[1]:.17g}"],
            ["x", "abs_psi", "abs_u", "abs_diff"],
            [u.grid, abs_psi, abs_u, abs_psi - abs_u],
        )
    run.svg("quasilocal.svg", svgmod.line_plot, overlap_series,
            title="overlap distribution of quasi-local states",
            xlabel="Omega_N", ylabel="p", logy=True)


def cmd_causality(args, run: _Run) -> None:
    cfg, trunc = run.cfg, run.trunc
    _local_index("--m", args.m, trunc)
    _finite_nonnegative("edge margin", args.edge_margin)
    r_tilde = args.rtilde if args.rtilde is not None else cfg.r + 0.4 * (cfg.R - cfg.r)
    gap = r_tilde - cfg.r
    taus = args.taus if args.taus is not None else [0.5 * gap, 2.0 * gap]
    # make_probe refuses a bad probe, the time checks a time before 0 or
    # one the series cannot resolve, and the grid check a grid that
    # aliases the probe, all before any evolution runs
    probes = [make_probe(r_tilde, tau, args.probe_n, cfg) for tau in taus]
    for t in [*args.times, *taus]:
        _finite_nonnegative("time", t)
        _check_time(t, cfg, trunc.n_max_global)
    _check_probe_grid(r_tilde, args.probe_n, uniform_grid(cfg, trunc.grid_points), cfg)

    leaks = []
    for t in args.times:
        leak = lightcone_leakage(Region.LEFT, args.m, t, cfg, trunc, edge_margin=args.edge_margin)
        _record_series(run, f"leakage_t={t:.17g}", leak.mode)
        leaks.append(leak)
    fractions = [leak.fraction for leak in leaks]
    run.csv("leakage.csv", [f"m={args.m} edge_margin={args.edge_margin:.17g}"],
            ["t", "cone_edge", "outside_fraction"],
            [np.asarray(args.times, dtype=float), [leak.cone[1] for leak in leaks], fractions])

    comms = []
    for tau, probe in zip(taus, probes):
        comm = commutator_pair(probe, args.m, cfg, trunc)
        _record_series(run, f"commutator_tau={tau:.17g}", comm.mode)
        c1, c2 = comm.sums
        run.tails[f"commutator_sums_tau={tau:.17g}"] = {"c1": c1, "c2": c2}
        run.tails[f"commutator_error_tau={tau:.17g}"] = max(abs(comm.c1 - c1), abs(comm.c2 - c2))
        comms.append(comm)
    taus = np.asarray(taus, dtype=float)
    run.csv("commutators.csv", [f"m={args.m} probe_n={args.probe_n}"],
            ["tau", "r_tilde", "c1", "c2", "spacelike"],
            [taus, np.full(len(taus), r_tilde), [c.c1 for c in comms], [c.c2 for c in comms],
             taus < gap])
    run.svg("causality.svg", svgmod.line_plot,
            [(args.times, fractions, "outside fraction")],
            title=f"light-cone leakage of u_{args.m}", xlabel="t", ylabel="fraction", logy=True)


def cmd_diverge(args, run: _Run) -> None:
    cfg = run.cfg
    # every refusal comes before any sum: the scan requests here, a bad --m
    # in mode_sum_convergence before its sums
    _divergence_request(args.N_list, args.M_list)
    conv = mode_sum_convergence(Region.LEFT, args.m, cfg, args.n_list)
    scans = divergence_scan(args.N_list, cfg, args.M_list)
    for scan in scans:
        run.tails[f"fit_N={scan.N}"] = {"slope": scan.fit_slope, "r2": scan.fit_r2}
        # the slope over the last M interval against the exact asymptotic one
        (M0, M1), (S0, S1) = scan.M_list[-2:], scan.partial_sums[-2:]
        run.tails[f"slope_exact_N={scan.N}"] = scan.slope_exact
        run.tails[f"slope_error_N={scan.N}"] = float((S1 - S0) / math.log(M1 / M0)
                                                     - scan.slope_exact)
        if not scan.partial_sums.any():
            log.warning("every partial sum of N=%d is exactly 0, as on a node "
                        "sin(pi N r/R) = 0: this scan certifies no divergence", scan.N)
    counts = [len(s.M_list) for s in scans]
    run.csv("diverge.csv", [],
            ["N", "M", "partial_sum", "fit_slope", "fit_r2"],
            [np.repeat(args.N_list, counts), [M for s in scans for M in s.M_list],
             [S for s in scans for S in s.partial_sums],
             np.repeat([s.fit_slope for s in scans], counts),
             np.repeat([s.fit_r2 for s in scans], counts)])
    _record_tail(run, "alpha2_tail", conv.alpha2_tail, args.m, "the largest --n-list value")
    run.tails["beta2_tail"] = conv.beta2_tail
    run.csv("converge.csv", [f"m={args.m}"],
            ["n_max", "sum_alpha2", "sum_beta2"],
            [conv.n_list, conv.alpha2_partial, conv.beta2_partial])
    series = [(s.M_list.astype(float), s.partial_sums, f"N={N}") for N, s in zip(args.N_list, scans)]
    run.svg("diverge.svg", svgmod.line_plot, series, title="divergent m-sums at fixed N",
            xlabel="M", ylabel="S(M)", logx=True)


def cmd_identities(args, run: _Run) -> None:
    cfg, nmaxes = run.cfg, sorted(args.nmax_list)
    reports = [identity_residuals(cfg, n, args.upto) for n in nmaxes]
    for n, res in zip(nmaxes, reports):
        run.counters[f"n_max={n}"] = {"near_columns": res.near_columns,
                                      "far_columns": res.far_columns}
    residuals = [res.max_residual for res in reports]
    run.csv("identities.csv", [f"upto={args.upto}"],
            ["n_max", "max_D1", "max_D2", "max_D1_cross", "max_D2_cross", "max_residual"],
            [nmaxes, [res.D1.max() for res in reports], [res.D2.max() for res in reports],
             [res.D1_cross.max() for res in reports], [res.D2_cross.max() for res in reports],
             residuals])
    run.svg("identities.svg", svgmod.line_plot,
            [(nmaxes, residuals, "max residual")],
            title="completeness residual vs global cutoff", xlabel="n_max",
            ylabel="max residual", logx=True, logy=True)


# ── parser ──────────────────────────────────────────────────────────────────

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kgcavity parser, built once per process: parsing leaves it
    unchanged (string defaults are converted anew on every parse)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--R", type=float, default=None, help="box size (default 1)")
    common.add_argument("--r", type=float, default=None, help="partition point (default 0.5)")
    common.add_argument("--mu", type=float, default=None, help="field mass (default 0)")
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--svg", action="store_true", help="also render an SVG view")

    # one parent per cutoff, so that a command declares only the cutoffs it
    # reads. `identities` takes --nmax as a list of its own; with no shared
    # --nmax no parser has to conflict-resolve an inherited action (argparse
    # shares parent actions by reference, so resolving mutates every sibling)
    nmax, mmax, grid = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    nmax.add_argument("--nmax", type=int, default=None,
                      help=f"global-mode cutoff (default {Truncation.n_max_global})")
    mmax.add_argument("--mmax", type=int, default=None,
                      help=f"local-mode cutoff (default {Truncation.m_max_local})")
    grid.add_argument("--grid", type=int, default=None,
                      help=f"spatial grid points (default {Truncation.grid_points})")

    p = argparse.ArgumentParser(prog="kgcavity",
                                description="local quantization of a Klein-Gordon field in a box")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("modes", parents=[common, nmax, mmax, grid], help="evolved local-mode snapshots")
    sp.add_argument("--region", choices=["left", "right"], default="left")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--times", type=parse_float_list, default="0",
                    help="comma list or start:stop:step")
    sp.set_defaults(func=cmd_modes)

    sp = sub.add_parser("spectrum", parents=[common, nmax], help="local-particle spectrum of the vacuum")
    sp.add_argument("--region", choices=["left", "right"], default="left")
    sp.add_argument("--mu-list", type=parse_float_list, default=None,
                    help="mass family, e.g. 10:50:10")
    sp.add_argument("--lmax", type=int, default=20)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("rscan", parents=[common, nmax], help="mass / partition-size limit scans")
    sp.add_argument("--kind", choices=["partition-size", "mass"], default="partition-size")
    sp.add_argument("--values", type=parse_float_list, default="0.5,0.9,0.99")
    sp.add_argument("--probes", type=parse_probes, default="1:1,2:3",
                    help="m:N pairs, comma separated")
    sp.add_argument("--M-fixed", type=int, default=100, dest="M_fixed")
    sp.set_defaults(func=cmd_rscan)

    sp = sub.add_parser("correlations", parents=[common, nmax, mmax], help="cross-partition number correlations")
    sp.add_argument("--mrows", type=int, default=10)
    sp.add_argument("--nrows", type=int, default=10)
    sp.add_argument("--paper-norm", action="store_true",
                    help="also emit cov over the summed spectra sum_{l<=m_max} <n_l> of both sides")
    sp.set_defaults(func=cmd_correlations)

    sp = sub.add_parser("quasilocal", parents=[common, nmax, mmax, grid], help="quasi-local state analysis")
    sp.add_argument("--l-list", type=parse_int_list, default="20")
    sp.add_argument("--threshold", type=float, default=0.95)
    sp.add_argument("--steer-m", type=int, default=1)
    sp.add_argument("--wavepacket-m", type=int, default=None)
    sp.add_argument("--t", type=float, default=None,
                    help="the wavepacket's time (default 0); only with --wavepacket-m")
    sp.set_defaults(func=cmd_quasilocal)

    sp = sub.add_parser("causality", parents=[common, nmax, mmax, grid], help="light-cone and commutator checks")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--times", type=parse_float_list, default="0,0.1,0.2,0.3,0.4,0.5")
    sp.add_argument("--edge-margin", type=float, default=0.0)
    sp.add_argument("--rtilde", type=float, default=None)
    sp.add_argument("--probe-n", type=int, default=1)
    sp.add_argument("--taus", type=parse_float_list, default=None,
                    help="probe times (default: 0.5 and 2 gaps)")
    sp.set_defaults(func=cmd_causality)

    sp = sub.add_parser("diverge", parents=[common], help="inequivalence divergence scans")
    sp.add_argument("--N-list", type=parse_int_list, default="1,2,3", dest="N_list")
    sp.add_argument("--M-list", type=parse_int_list, default="100,316,1000,3162,10000,31623,100000",
                    dest="M_list")
    sp.add_argument("--m", type=int, default=1, help="fixed m for the convergent N-sums")
    sp.add_argument("--n-list", type=parse_int_list, default="1000,2000,4000,8000", dest="n_list")
    sp.set_defaults(func=cmd_diverge)

    sp = sub.add_parser("identities", parents=[common], help="completeness residual report")
    # here --nmax takes the list form, e.g. --nmax 1000,2000,4000
    sp.add_argument("--nmax", type=parse_int_list, default="1000,2000,4000",
                    dest="nmax_list",
                    help="global cutoffs, comma list or start:stop:step")
    sp.add_argument("--upto", type=int, default=10)
    sp.set_defaults(func=cmd_identities)

    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args, *_resolve(args))
        args.func(args, run)
        return run.finish()
    except KgCavityError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
