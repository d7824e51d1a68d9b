"""Command-line interface: figure-style data products with reproducible outputs.

Every subcommand writes CSV files (the numeric contract; byte-identical for
identical flags), a JSON sidecar per CSV, and a run manifest. --svg adds a
native rendering of the main table. Numbers in, numbers out — see README
for the subcommand tour.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .bogoliubov import build_block, identity_residuals
from .causality import commutator_pair, lightcone_leakage, make_probe
from .config import (
    DomainError,
    KgCavityError,
    ThresholdUnreachable,
    Truncation,
    frequencies,
    load_config_file,
    validate_config,
)
from .modes import Region, evolve_local_mode, uniform_grid
from .output import RunManifest, write_csv, write_manifest, write_sidecar
from .quasilocal import (
    bandwidth,
    overlap_distribution,
    quasilocal_energy,
    steering_shift,
    wavepacket_comparison,
)
from .vacuum import (
    divergence_scan,
    limit_scan,
    mode_sum_convergence,
    vacuum_spectrum,
    wick_moments,
)

log = logging.getLogger("kgcavity")

_REGIONS = {"left": Region.LEFT, "right": Region.RIGHT}


# ── flag-value parsing ──────────────────────────────────────────────────────

def parse_float_list(text: str) -> list[float]:
    """'10:50:10' -> [10,20,30,40,50] (inclusive range); '1,2,3' -> [1,2,3]."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range syntax is start:stop:step, got {text!r}")
        # exact decimal arithmetic, so 0.1:0.3:0.1 ends on 0.3, not 0.30000000000000004
        start, stop, step = (Decimal(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        count = math.floor((stop - start) / step) + 1
        return [float(start + k * step) for k in range(count)]
    return [float(p) for p in text.split(",") if p.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(round(v)) for v in parse_float_list(text)]


def parse_probes(text: str) -> list[tuple[int, int]]:
    """'1:1,2:3' -> [(1,1), (2,3)] as (m, N) pairs."""
    out = []
    for item in text.split(","):
        m, _, N = item.partition(":")
        out.append((int(m), int(N)))
    return out


# ── shared setup ────────────────────────────────────────────────────────────

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
    trunc = Truncation(
        n_max_global=int(pick(args.nmax, "n_max_global", 10_000)),
        m_max_local=int(pick(args.mmax, "m_max_local", 1_000)),
        grid_points=int(pick(args.grid, "grid_points", 2048)),
    )
    return cfg, trunc


def _check_local(trunc, flag: str, *indices: int) -> None:
    """DomainError unless every local-mode index lies in 1..m_max_local.

    Runs before ``_Run`` so a refused request leaves no output directory.
    """
    for i in indices:
        if not 1 <= i <= trunc.m_max_local:
            raise DomainError(f"{flag} {i} outside 1..{trunc.m_max_local} (--mmax)")


def _check_positive(flag: str, *indices: int) -> None:
    """DomainError unless every mode index given to ``flag`` is >= 1; runs
    before ``_Run``, as ``_check_local`` does."""
    for i in indices:
        if i < 1:
            raise DomainError(f"{flag} {i} must be >= 1")


class _Run:
    """Collects output files and writes the manifest at the end."""

    def __init__(self, args, command: str, cfg, trunc):
        self.args = args
        self.command = command
        self.cfg = cfg
        self.trunc = trunc
        self.outputs: list = []
        self.tails: dict = {}
        self.t0 = time.perf_counter()
        os.makedirs(args.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.args.out_dir, name)

    def csv(self, name: str, comments: list[str], names: list[str], rows) -> str:
        p = self.path(name)
        digest = write_csv(p, comments, names, rows)
        write_sidecar(p, self.command, self.cfg, self.trunc, self.tails, digest)
        self.outputs.append((name, digest))
        return p

    def svg_output(self, name: str) -> None:
        with open(self.path(name), "rb") as fh:
            self.outputs.append((name, hashlib.sha256(fh.read()).hexdigest()))

    def finish(self) -> int:
        write_manifest(
            self.args.out_dir,
            RunManifest(
                command=self.command,
                cfg=self.cfg,
                trunc=self.trunc,
                outputs=self.outputs,
                wall_time_s=time.perf_counter() - self.t0,
                tail_bound_summary=self.tails,
            ),
        )
        for name, digest in self.outputs:
            log.info("wrote %s (sha256 %s…)", name, digest[:12])
        return 0


def _meta(cfg, trunc) -> list[str]:
    return [
        f"R={cfg.R:.17g} r={cfg.r:.17g} mu={cfg.mu:.17g}",
        f"n_max_global={trunc.n_max_global} m_max_local={trunc.m_max_local} "
        f"grid_points={trunc.grid_points}",
    ]


def _record_series(run: _Run, label: str, src) -> None:
    """An evolution's series diagnostics (``tail_estimate``,
    ``gibbs_overshoot``, ``truncation_warning`` of ``src``) into the manifest
    and sidecars under ``label``, never into the CSVs; a truncation warning
    is logged."""
    run.tails[label] = src.tail_estimate
    if src.gibbs_overshoot is not None:
        run.tails[f"gibbs_overshoot_{label}"] = src.gibbs_overshoot
    if src.truncation_warning:
        log.warning("series tail estimate %.3g at %s exceeds the tolerance; raise --nmax",
                    src.tail_estimate, label)


# ── subcommands ─────────────────────────────────────────────────────────────

def cmd_modes(args) -> int:
    cfg, trunc = _resolve(args)
    _check_local(trunc, "--m", args.m)
    run = _Run(args, "modes", cfg, trunc)
    region = _REGIONS[args.region]
    tables = frequencies(cfg, trunc)
    block = build_block(region, cfg, tables, trunc)
    grid = uniform_grid(cfg, trunc.grid_points)
    times = parse_float_list(args.times)
    series = []
    for k, t in enumerate(times):
        mode = evolve_local_mode(region, args.m, grid, t, cfg, tables, trunc, block)
        _record_series(run, f"t={t:.17g}", mode)
        rows = zip(grid, mode.value.real, mode.value.imag, mode.tderiv.real, mode.tderiv.imag)
        run.csv(
            f"mode_{args.region}_m{args.m}_t{k}.csv",
            _meta(cfg, trunc) + [f"time={t:.17g} region={args.region} m={args.m}"],
            ["x", "re_value", "im_value", "re_tderiv", "im_tderiv"],
            rows,
        )
        series.append((grid, np.abs(mode.value), f"t={t:g}"))
    if args.svg:
        svgmod.line_plot(run.path("modes.svg"), series, title=f"|u_{args.m}(x,t)|, {args.region}",
                         xlabel="x", ylabel="|u|")
        run.svg_output("modes.svg")
    return run.finish()


def cmd_spectrum(args) -> int:
    cfg, trunc = _resolve(args)
    run = _Run(args, "spectrum", cfg, trunc)
    region = _REGIONS[args.region]
    mus = parse_float_list(args.mu_list) if args.mu_list else [cfg.mu]
    lmax = args.lmax
    trunc_l = dataclasses.replace(trunc, m_max_local=lmax)
    rows = []
    series = []
    for mu in mus:
        cfg_mu = validate_config(cfg.R, cfg.r, mu)
        tables = frequencies(cfg_mu, trunc_l)
        spec = vacuum_spectrum(region, cfg_mu, tables, trunc_l)
        om = tables.omega if region is Region.LEFT else tables.omega_bar
        for l in range(1, lmax + 1):
            rows.append((mu, l, om[l - 1], spec.values[l - 1], spec.tail_bound[l - 1]))
        run.tails[f"mu={mu:.17g}"] = float(np.max(spec.tail_bound))
        series.append((om[:lmax], spec.values, f"mu={mu:g}"))
    run.csv("spectrum.csv", _meta(cfg, trunc_l) + [f"region={args.region}"],
            ["mu", "l", "omega_l", "n_l", "tail_bound"], rows)
    if args.svg:
        svgmod.line_plot(run.path("spectrum.svg"), series, title="local spectrum of the global vacuum",
                         xlabel="omega_l", ylabel="<n_l>", logy=True)
        run.svg_output("spectrum.svg")
    return run.finish()


def cmd_rscan(args) -> int:
    cfg, trunc = _resolve(args)
    values = parse_float_list(args.values)
    probes = parse_probes(args.probes)
    _check_positive("--probes", *(i for pair in probes for i in pair))
    _check_positive("--M-fixed", args.M_fixed)
    run = _Run(args, "rscan", cfg, trunc)
    table = limit_scan(args.kind, values, probes, cfg, trunc, M_fixed=args.M_fixed)
    names = ["value"]
    for m, N in probes:
        names += [f"n_m{m}", f"alpha_m{m}_N{N}", f"beta_m{m}_N{N}"]
    names += [f"sum_left_M{args.M_fixed}", f"sum_both_M{args.M_fixed}"]
    rows = []
    for k, v in enumerate(table.values):
        row = [v]
        for ip in range(len(probes)):
            row += [table.n_per_probe[k, ip], table.alpha_mag[k, ip], table.beta_mag[k, ip]]
        row += [table.sum_left[k], table.sum_both[k]]
        rows.append(row)
    run.csv("rscan.csv", _meta(cfg, trunc) + [f"kind={args.kind}"], names, rows)
    if args.svg:
        series = [(table.values, table.n_per_probe[:, ip], f"m={m}")
                  for ip, (m, N) in enumerate(probes)]
        svgmod.line_plot(run.path("rscan.svg"), series, title=f"{args.kind} scan",
                         xlabel=args.kind, ylabel="<n_m>", logy=True)
        run.svg_output("rscan.svg")
    return run.finish()


def cmd_correlations(args) -> int:
    cfg, trunc = _resolve(args)
    _check_local(trunc, "--mrows", args.mrows)
    _check_local(trunc, "--nrows", args.nrows)
    run = _Run(args, "correlations", cfg, trunc)
    tables = frequencies(cfg, trunc)
    left = build_block(Region.LEFT, cfg, tables, trunc)
    right = build_block(Region.RIGHT, cfg, tables, trunc)
    m_range = range(1, args.mrows + 1)
    n_range = range(1, args.nrows + 1)
    report = wick_moments(m_range, n_range, left, right, paper_norm=args.paper_norm)
    names = ["m", "n", "cov", "corr"] + (["corr_summed_norm"] if args.paper_norm else [])
    rows = []
    for i, m in enumerate(report.m_range):
        for j, n in enumerate(report.n_range):
            row = [m, n, report.cov[i, j], report.corr[i, j]]
            if args.paper_norm:
                row.append(report.corr_paper_norm[i, j])
            rows.append(row)
    run.csv("correlations.csv", _meta(cfg, trunc), names, rows)
    mrows = [("left", m, report.mean_left[i], report.var_left[i]) for i, m in enumerate(report.m_range)]
    nrows = [("right", n, report.mean_right[j], report.var_right[j]) for j, n in enumerate(report.n_range)]
    run.csv("moments.csv", _meta(cfg, trunc), ["region", "index", "mean", "var"], mrows + nrows)
    if args.svg:
        svgmod.heatmap(run.path("correlations.svg"), report.corr,
                       title="corr(n_m, n_bar_n)", xlabel="n (right)", ylabel="m (left)")
        run.svg_output("correlations.svg")
    return run.finish()


def cmd_quasilocal(args) -> int:
    cfg, trunc = _resolve(args)
    l_list = parse_int_list(args.l_list)
    _check_local(trunc, "--l-list", *l_list)
    _check_local(trunc, "--steer-m", args.steer_m)
    if args.wavepacket_m is not None:
        _check_local(trunc, "--wavepacket-m", args.wavepacket_m)
    run = _Run(args, "quasilocal", cfg, trunc)
    tables = frequencies(cfg, trunc)
    band_rows = []
    overlap_series = []
    for l in l_list:
        dist = overlap_distribution(l, cfg, tables, trunc)
        keep = dist.p > 0
        run.csv(
            f"overlap_l{l}.csv",
            _meta(cfg, trunc) + [f"l={l} omega_l={dist.omega_l:.17g} peak_Omega={dist.peak_Omega:.17g}"],
            ["N", "Omega_N", "p"],
            zip(np.nonzero(keep)[0] + 1, dist.Omega[keep], dist.p[keep]),
        )
        try:
            dO = bandwidth(l, cfg, tables, trunc, threshold=args.threshold)
        except ThresholdUnreachable as exc:
            log.warning("bandwidth threshold unreachable for l=%d (captured %.6g)", l, exc.captured)
            dO = float("nan")
        energy = quasilocal_energy(l, cfg, tables, trunc)
        run.tails[f"energy_tail_l={l}"] = energy.tail_bound
        band_rows.append((l, dist.omega_l, dO, dist.norm_captured,
                          energy.raw, energy.normalized, energy.annihilator_normalized))
        overlap_series.append((dist.Omega[keep], dist.p[keep], f"l={l}"))
    run.csv("bandwidth.csv", _meta(cfg, trunc) + [f"threshold={args.threshold:.17g}"],
            ["l", "omega_l", "delta_Omega", "norm_captured",
             "energy_raw", "energy_normalized", "energy_annihilator"], band_rows)
    shifts_w = steering_shift(args.steer_m, l_list, cfg, trunc, method="wick")
    shifts_d = steering_shift(args.steer_m, l_list, cfg, trunc, method="direct")
    run.csv("steering.csv", _meta(cfg, trunc) + [f"m={args.steer_m}"],
            ["l", "shift_wick", "shift_direct"], zip(l_list, shifts_w, shifts_d))
    if args.wavepacket_m:
        block = build_block(Region.LEFT, cfg, tables, trunc)
        grid = uniform_grid(cfg, trunc.grid_points)
        comp = wavepacket_comparison(args.wavepacket_m, grid, args.t, cfg, tables, trunc, block)
        run.tails["psi_outside_fraction"] = comp.psi_outside_fraction
        run.tails["u_outside_fraction"] = comp.u_outside_fraction
        run.tails["u_tail_estimate"] = comp.u.tail_estimate
        run.csv(
            f"wavepacket_m{args.wavepacket_m}.csv",
            _meta(cfg, trunc) + [f"t={args.t:.17g} cone_edge={comp.cone_edge:.17g}"],
            ["x", "abs_psi", "abs_u", "abs_diff"],
            zip(grid, np.abs(comp.psi.value), np.abs(comp.u.value), comp.abs_diff),
        )
    if args.svg:
        svgmod.line_plot(run.path("quasilocal.svg"), overlap_series,
                         title="overlap distribution of quasi-local states",
                         xlabel="Omega_N", ylabel="p", logy=True)
        run.svg_output("quasilocal.svg")
    return run.finish()


def cmd_causality(args) -> int:
    cfg, trunc = _resolve(args)
    _check_local(trunc, "--m", args.m)
    _check_positive("--probe-n", args.probe_n)
    run = _Run(args, "causality", cfg, trunc)
    tables = frequencies(cfg, trunc)
    times = parse_float_list(args.times)
    leak_rows = []
    for t in times:
        leak = lightcone_leakage(Region.LEFT, args.m, t, cfg, tables, trunc,
                                 edge_margin=args.edge_margin)
        _record_series(run, f"leakage_t={t:.17g}", leak)
        leak_rows.append((t, min(cfg.r + t + args.edge_margin, cfg.R), leak.fraction))
    run.csv("leakage.csv", _meta(cfg, trunc) + [f"m={args.m} edge_margin={args.edge_margin:.17g}"],
            ["t", "cone_edge", "outside_fraction"], leak_rows)

    r_tilde = args.rtilde if args.rtilde is not None else cfg.r + 0.4 * (cfg.R - cfg.r)
    gap = r_tilde - cfg.r
    taus = parse_float_list(args.taus) if args.taus else [0.5 * gap, 2.0 * gap]
    comm_rows = []
    for tau in taus:
        probe = make_probe(r_tilde, tau, args.probe_n, cfg)
        comm = commutator_pair(probe, args.m, cfg, tables, trunc)
        _record_series(run, f"commutator_tau={tau:.17g}", comm)
        comm_rows.append((tau, r_tilde, comm.c1, comm.c2, int(tau < gap)))
    run.csv("commutators.csv", _meta(cfg, trunc) + [f"m={args.m} probe_n={args.probe_n}"],
            ["tau", "r_tilde", "c1", "c2", "spacelike"], comm_rows)
    if args.svg:
        lr = np.array(leak_rows)
        svgmod.line_plot(run.path("causality.svg"), [(lr[:, 0], lr[:, 2], "outside fraction")],
                         title=f"light-cone leakage of u_{args.m}", xlabel="t",
                         ylabel="fraction", logy=True)
        run.svg_output("causality.svg")
    return run.finish()


def cmd_diverge(args) -> int:
    cfg, trunc = _resolve(args)
    N_list = parse_int_list(args.N_list)
    M_list = parse_int_list(args.M_list)
    n_list = parse_int_list(args.n_list)
    run = _Run(args, "diverge", cfg, trunc)
    conv = mode_sum_convergence(Region.LEFT, args.m, cfg, n_list)
    rows = []
    series = []
    for N in N_list:
        scan = divergence_scan(N, cfg, M_list)
        run.tails[f"fit_N={N}"] = {"slope": scan.fit_slope, "r2": scan.fit_r2}
        for M, S in zip(scan.M_list, scan.partial_sums):
            rows.append((N, int(M), S, scan.fit_slope, scan.fit_r2))
        series.append((scan.M_list.astype(float), scan.partial_sums, f"N={N}"))
    run.csv("diverge.csv", _meta(cfg, trunc),
            ["N", "M", "partial_sum", "fit_slope", "fit_r2"], rows)
    run.tails["alpha2_tail"] = conv.alpha2_tail
    run.tails["beta2_tail"] = conv.beta2_tail
    run.csv("converge.csv", _meta(cfg, trunc) + [f"m={args.m}"],
            ["n_max", "sum_alpha2", "sum_beta2"],
            zip(conv.n_list, conv.alpha2_partial, conv.beta2_partial))
    if args.svg:
        svgmod.line_plot(run.path("diverge.svg"), series, title="divergent m-sums at fixed N",
                         xlabel="M", ylabel="S(M)", logx=True)
        run.svg_output("diverge.svg")
    return run.finish()


def cmd_identities(args) -> int:
    cfg, trunc = _resolve(args)
    run = _Run(args, "identities", cfg, trunc)
    n_list = parse_int_list(args.nmax_list) if args.nmax_list else [trunc.n_max_global]
    rows = []
    for n in sorted(n_list):
        trunc_n = dataclasses.replace(trunc, n_max_global=n, m_max_local=args.upto)
        tables = frequencies(cfg, trunc_n)
        left = build_block(Region.LEFT, cfg, tables, trunc_n)
        right = build_block(Region.RIGHT, cfg, tables, trunc_n)
        res = identity_residuals(left, right, args.upto)
        rows.append((n, float(res.D1.max()), float(res.D2.max()),
                     float(res.D1_cross.max()), float(res.D2_cross.max()), res.max_residual))
    run.csv("identities.csv", _meta(cfg, trunc) + [f"upto={args.upto}"],
            ["n_max", "max_D1", "max_D2", "max_D1_cross", "max_D2_cross", "max_residual"], rows)
    if args.svg:
        arr = np.array([(r[0], r[5]) for r in rows], dtype=float)
        svgmod.line_plot(run.path("identities.svg"), [(arr[:, 0], arr[:, 1], "max residual")],
                         title="completeness residual vs global cutoff", xlabel="n_max",
                         ylabel="max residual", logx=True, logy=True)
        run.svg_output("identities.svg")
    return run.finish()


# ── parser ──────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--R", type=float, default=None, help="box size (default 1)")
    common.add_argument("--r", type=float, default=None, help="partition point (default 0.5)")
    common.add_argument("--mu", type=float, default=None, help="field mass (default 0)")
    common.add_argument("--mmax", type=int, default=None, help="local-mode cutoff (default 1000)")
    common.add_argument("--grid", type=int, default=None, help="spatial grid points (default 2048)")
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--svg", action="store_true", help="also render an SVG view")

    # --nmax is the scalar cutoff everywhere except `identities`, where it is
    # a list. Keeping it out of `common` means no parser ever has to
    # conflict-resolve an inherited action (argparse shares parent actions
    # by reference, so resolving mutates every sibling).
    with_nmax = argparse.ArgumentParser(add_help=False)
    with_nmax.add_argument("--nmax", type=int, default=None,
                           help="global-mode cutoff (default 10000)")

    p = argparse.ArgumentParser(prog="kgcavity",
                                description="local quantization of a Klein-Gordon field in a box")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("modes", parents=[common, with_nmax], help="evolved local-mode snapshots")
    sp.add_argument("--region", choices=["left", "right"], default="left")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--times", default="0", help="comma list or start:stop:step")
    sp.set_defaults(func=cmd_modes)

    sp = sub.add_parser("spectrum", parents=[common, with_nmax], help="local-particle spectrum of the vacuum")
    sp.add_argument("--region", choices=["left", "right"], default="left")
    sp.add_argument("--mu-list", default=None, help="mass family, e.g. 10:50:10")
    sp.add_argument("--lmax", type=int, default=20)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("rscan", parents=[common, with_nmax], help="mass / partition-size limit scans")
    sp.add_argument("--kind", choices=["partition-size", "mass"], default="partition-size")
    sp.add_argument("--values", default="0.5,0.9,0.99")
    sp.add_argument("--probes", default="1:1,2:3", help="m:N pairs, comma separated")
    sp.add_argument("--M-fixed", type=int, default=100, dest="M_fixed")
    sp.set_defaults(func=cmd_rscan)

    sp = sub.add_parser("correlations", parents=[common, with_nmax], help="cross-partition number correlations")
    sp.add_argument("--mrows", type=int, default=10)
    sp.add_argument("--nrows", type=int, default=10)
    sp.add_argument("--paper-norm", action="store_true",
                    help="also emit the summed-spectrum normalization variant")
    sp.set_defaults(func=cmd_correlations)

    sp = sub.add_parser("quasilocal", parents=[common, with_nmax], help="quasi-local state analysis")
    sp.add_argument("--l-list", default="20")
    sp.add_argument("--threshold", type=float, default=0.95)
    sp.add_argument("--steer-m", type=int, default=1)
    sp.add_argument("--wavepacket-m", type=int, default=None)
    sp.add_argument("--t", type=float, default=0.0)
    sp.set_defaults(func=cmd_quasilocal)

    sp = sub.add_parser("causality", parents=[common, with_nmax], help="light-cone and commutator checks")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--times", default="0,0.1,0.2,0.3,0.4,0.5")
    sp.add_argument("--edge-margin", type=float, default=0.0)
    sp.add_argument("--rtilde", type=float, default=None)
    sp.add_argument("--probe-n", type=int, default=1)
    sp.add_argument("--taus", default=None, help="probe times (default: 0.5 and 2 gaps)")
    sp.set_defaults(func=cmd_causality)

    sp = sub.add_parser("diverge", parents=[common, with_nmax], help="inequivalence divergence scans")
    sp.add_argument("--N-list", default="1,2,3", dest="N_list")
    sp.add_argument("--M-list", default="100,316,1000,3162,10000,31623,100000", dest="M_list")
    sp.add_argument("--m", type=int, default=1, help="fixed m for the convergent N-sums")
    sp.add_argument("--n-list", default="1000,2000,4000,8000", dest="n_list")
    sp.set_defaults(func=cmd_diverge)

    sp = sub.add_parser("identities", parents=[common], help="completeness residual report")
    # here --nmax takes the list form, e.g. --nmax 1000,2000,4000
    sp.add_argument("--nmax", "--nmax-list", default="1000,2000,4000", dest="nmax_list",
                    help="global cutoffs, comma list or start:stop:step")
    sp.add_argument("--upto", type=int, default=10)
    sp.set_defaults(func=cmd_identities, nmax=None)

    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KgCavityError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
