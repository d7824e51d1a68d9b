"""CLI surface: flag parsing, file products, digests, error paths.

Every invocation uses small cutoffs — these tests exercise plumbing, not
numerics (the library tests own those).
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import kgcavity as kg
from kgcavity import bogoliubov, vacuum
from kgcavity.cli import (
    _resolve,
    build_parser,
    main,
    parse_float_list,
    parse_int_list,
    parse_probes,
)


# ── flag-value parsing ──────────────────────────────────────────────────────

def test_parse_float_list_forms():
    assert parse_float_list("10:50:10") == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert parse_float_list("1,2.5,3") == [1.0, 2.5, 3.0]
    assert parse_float_list(" 0.1 ") == [0.1]
    assert parse_float_list("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    with pytest.raises(argparse.ArgumentTypeError):
        parse_float_list("1:2")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_float_list("1:5:0")


def test_parse_int_and_probe_lists():
    assert parse_int_list("100,316,1000") == [100, 316, 1000]
    assert parse_int_list("1:3:1") == [1, 2, 3]
    assert parse_probes("1:1,2:3") == [(1, 1), (2, 3)]
    assert parse_probes("1:1,1:3") == [(1, 1), (1, 3)]     # one m, two N


@pytest.mark.parametrize("parse, text", [
    (parse_float_list, "abc"),
    (parse_float_list, "1:2:x"),
    (parse_float_list, "1:2:0"),
    (parse_float_list, ""),             # a list flag asks for at least one row
    (parse_float_list, ","),
    (parse_float_list, "1,,2"),
    (parse_float_list, "5:1:1"),        # a range that ends before it starts
    (parse_int_list, ""),
    (parse_int_list, "1:2"),
    (parse_int_list, "1.5,2.5"),        # not rounded to [2, 2]
    (parse_int_list, "2.7"),            # not rounded to 3
    (parse_int_list, "0.5:2.5:1"),
    (parse_int_list, "1,1"),            # an index list names each index once
    (parse_int_list, "10,10,100"),
    (parse_int_list, "1e3,1000"),
    (parse_probes, ""),
    (parse_probes, "1-1"),
    (parse_probes, "1:1:1"),
    (parse_probes, "1:1,"),
    (parse_probes, "1:1,1:1,1:3"),      # a repeated pair would repeat its columns
])
def test_malformed_list_text_is_an_argument_type_error(parse, text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse(text)


def test_integer_valued_floats_are_integers():
    assert parse_int_list("1e3,2.0") == [1000, 2]
    assert all(type(v) is int for v in parse_int_list("1e3,2.0"))


# ── happy-path products ─────────────────────────────────────────────────────

def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def _read_json(path):
    """A manifest or sidecar, parsed strictly: Infinity, -Infinity and NaN
    are refused."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def test_spectrum_products_and_digests(tmp_path):
    out = str(tmp_path / "run")
    rc = main(["spectrum", "--nmax", "800", "--lmax", "3",
               "--out-dir", out])
    assert rc == 0
    man = _read_json(os.path.join(out, "manifest.json"))
    assert man["command"] == "spectrum"
    assert [o["path"] for o in man["outputs"]] == ["spectrum.csv"]
    # manifest digests are the actual payload hashes
    for entry in man["outputs"]:
        payload = Path(out, entry["path"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == entry["digest"]
    side = _read_json(os.path.join(out, "spectrum.json"))
    assert side["digest"] == man["outputs"][0]["digest"]
    assert side["config"]["R"] == 1.0 and side["config"]["r"] == 0.5
    assert side["truncation"]["n_max_global"] == 800


def test_spectrum_reports_the_lmax_cutoff_it_ran(tmp_path):
    out = str(tmp_path / "s")
    assert main(["spectrum", "--mu-list", "0,5", "--out-dir", out]) == 0
    lines = Path(out, "spectrum.csv").read_text().splitlines()
    # the l column carries the --lmax cutoff; the provenance names only --nmax
    assert [int(line.split(",")[1]) for line in lines[4:]] == list(range(1, 21)) * 2
    assert lines[1] == "# n_max_global=10000"
    for doc in (_read_json(Path(out, "spectrum.json")), _read_json(Path(out, "manifest.json"))):
        assert doc["truncation"] == {"n_max_global": 10_000}


def test_spectrum_warns_where_the_tail_exceeds_the_sum(tmp_path, caplog):
    # at mu R = 1e5 beta_1N stays flat up to N ~ mu R / pi, so the sum over
    # N <= 10^4 (9.56e-16) is below its tail bound (3.23e-15): one warning
    # per mass names --nmax; the CSV carries both numbers as before
    out = str(tmp_path / "s")
    assert main(["spectrum", "--mu", "1e5", "--lmax", "1", "--out-dir", out]) == 0
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 1 and "--nmax" in warned[0] and "mode 1" in warned[0]
    n_l, tail = (float(v) for v in Path(out, "spectrum.csv").read_text().splitlines()[4].split(",")[3:])
    assert 0 < n_l < tail
    caplog.clear()
    assert main(["spectrum", "--mu-list", "1e5,2e5", "--lmax", "3",
                 "--out-dir", str(tmp_path / "l")]) == 0
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 2
    assert "mu=100000 " in warned[0] and "mu=200000 " in warned[1]
    caplog.clear()
    assert main(["spectrum", "--out-dir", str(tmp_path / "d")]) == 0
    assert [r for r in caplog.records if r.levelname == "WARNING"] == []


def test_rscan_warns_where_a_probe_tail_exceeds_its_cell(tmp_path, caplog):
    # at mu R = 1e5 the sum over N <= 10^4 of beta_1N^2 is 9.56e-16 against
    # a tail bound of 3.23e-15: one warning for the probes, at that scan
    # value only, names --nmax (the summed columns get their own, below);
    # every probe's tail at every value reaches the manifest and the
    # sidecar, never the CSV
    out = tmp_path / "r"
    assert main(["rscan", "--kind", "mass", "--values", "1,1e3,1e5", "--out-dir", str(out)]) == 0
    warned = [r.getMessage() for r in caplog.records
              if r.levelname == "WARNING" and "sum_" not in r.getMessage()]
    assert len(warned) == 1
    assert "mass=100000 " in warned[0] and "n_m1 " in warned[0] and "--nmax" in warned[0]
    header, *rows = [line.split(",") for line in (out / "rscan.csv").read_text().splitlines()
                     if not line.startswith("#")]
    assert ",".join(header) == ("value,n_m1,alpha_m1_N1,beta_m1_N1,n_m2,alpha_m2_N3,beta_m2_N3,"
                      "sum_left_M100,sum_both_M100")
    assert float(rows[2][1]) == pytest.approx(9.56e-16, rel=1e-3, abs=0)
    for doc in (_read_json(out / "manifest.json"), _read_json(out / "rscan.json")):
        tails = doc["tail_bounds"]
        assert list(tails) == ["value=1", "value=1000", "value=100000"]
        assert all(list(probe)[:2] == ["n_m1", "n_m2"] for probe in tails.values())
        assert tails["value=100000"]["n_m1"] > float(rows[2][1])
        assert tails["value=1000"]["n_m1"] < float(rows[1][1])


def test_rscan_bounds_its_summed_columns(tmp_path, caplog):
    # sum_{m<=100} <n_m> is truncation-dominated at mu R = 1e5 (3.2e-10
    # against a bound of 1.1e-9) and not at mu R = 1: each summed column's
    # bound, the sum of its rows' tails, reaches the manifest beside the
    # probes' and a warning names it; rscan.csv keeps its columns
    out = tmp_path / "r"
    assert main(["rscan", "--kind", "mass", "--values", "1,1e3,1e5", "--out-dir", str(out)]) == 0
    warned = [r.getMessage() for r in caplog.records
              if r.levelname == "WARNING" and "sum_" in r.getMessage()]
    assert len(warned) == 1
    assert "mass=100000 " in warned[0] and "sum_left_M100 " in warned[0] and "(2 of 2)" in warned[0]
    table = kg.limit_scan("mass", [1.0, 1e3, 1e5], [(1, 1), (2, 3)],
                          kg.validate_config(1.0, 0.5, 0.0), kg.Truncation())
    header, *rows = [line.split(",") for line in (out / "rscan.csv").read_text().splitlines()
                     if not line.startswith("#")]
    assert header[-2:] == ["sum_left_M100", "sum_both_M100"]
    for doc in (_read_json(out / "manifest.json"), _read_json(out / "rscan.json")):
        for k, value in enumerate(["value=1", "value=1000", "value=100000"]):
            tails = doc["tail_bounds"][value]
            assert tails["sum_left_M100"] == table.tail_sum_left[k]
            assert tails["sum_both_M100"] == table.tail_sum_both[k]
            assert (tails["sum_left_M100"] > float(rows[k][-2])) == (k == 2)


@pytest.mark.parametrize("lmax", ["0", "-3"])
def test_spectrum_lmax_below_one_is_a_domain_error_naming_the_flag(tmp_path, capsys, lmax):
    out = tmp_path / "s"
    assert main(["spectrum", "--nmax", "200", "--lmax", lmax, "--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "DomainError" and "--lmax" in err["message"]
    assert not out.exists()


def test_parser_is_built_once_and_parses_afresh(tmp_path):
    assert build_parser() is build_parser()
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["modes", "--nmax", "200", "--grid", "65", "--times", "0.1",
                 "--out-dir", first]) == 0
    assert main(["modes", "--nmax", "200", "--grid", "65", "--out-dir", second]) == 0
    man = _read_json(os.path.join(second, "manifest.json"))
    assert [o["path"] for o in man["outputs"]] == ["mode_left_m1_t0.csv"]
    assert set(man["tail_bounds"]) == {"t=0", "gibbs_overshoot_t=0"}
    header = Path(second, "mode_left_m1_t0.csv").read_text().splitlines()
    assert header[2] == "# time=0 region=left m=1"


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["spectrum", "--nmax", "600", "--lmax", "2",
                     "--mu-list", "10,20", "--out-dir", out]) == 0
        outs.append(out)
    for name in ("spectrum.csv", "spectrum.json"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b
    # manifests agree on everything except wall time / timestamp
    ma, mb = (_read_json(os.path.join(o, "manifest.json")) for o in outs)
    for key in ("command", "config", "truncation", "outputs", "tail_bounds"):
        assert ma[key] == mb[key]


def test_modes_writes_one_csv_per_time(tmp_path, caplog):
    out = str(tmp_path / "m")
    rc = main(["modes", "--nmax", "500", "--mmax", "4", "--grid", "257",
               "--times", "0:0.2:0.1", "--m", "2", "--out-dir", out])
    assert rc == 0
    man = _read_json(os.path.join(out, "manifest.json"))
    names = [o["path"] for o in man["outputs"]]
    assert names == ["mode_left_m2_t0.csv", "mode_left_m2_t1.csv", "mode_left_m2_t2.csv"]
    header = Path(out, names[0]).read_text().splitlines()
    assert header[3] == "x,re_value,im_value,re_tderiv,im_tderiv"
    # the evolution's own diagnostics reach the manifest, never the CSVs
    tails = man["tail_bounds"]
    assert set(tails) == {"t=0", "t=0.10000000000000001", "t=0.20000000000000001",
                          "gibbs_overshoot_t=0"}
    assert all(v > 0 for k, v in tails.items() if k.startswith("t="))
    # at n_max = 500 the tail estimate exceeds the default tolerance
    warned = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 3 and "tail estimate" in warned[0].getMessage()


def _csv_rows(path):
    """The data rows of a CLI CSV (after two '#' lines and the header), as
    lists of cells."""
    lines = Path(path).read_text().splitlines()
    return lines[2], [line.split(",") for line in lines[3:]]


def test_correlations_with_verification_columns(tmp_path, monkeypatch):
    # the near kernel fills only the rows asked for, --mrows 3 on the left
    # and --nrows 2 on the right, never --mmax 4, once each, on the one
    # chunk of near columns, Omega_N = pi N below F omega_3 = 6 F pi (N < 24
    # at F = 4); no block is built
    near = int(6 * bogoliubov._FAR_FACTOR) - 1
    built = []
    grid = bogoliubov._grid

    def spy(rows, cols, *rest, **kwargs):
        built.append((rows.region.value, len(rows.m), int(cols.N[0]), int(cols.N[-1])))
        return grid(rows, cols, *rest, **kwargs)

    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    monkeypatch.setattr(bogoliubov, "_grid", spy)
    out = str(tmp_path / "c")
    rc = main(["correlations", "--nmax", "500", "--mmax", "4",
               "--mrows", "3", "--nrows", "2", "--paper-norm", "--out-dir", out])
    assert rc == 0
    assert built == [("left", 3, 1, near), ("right", 2, 1, near)]
    assert len(bogoliubov._BLOCK_MEMO) == 0
    # the column split reaches the manifest only
    assert _read_json(Path(out, "manifest.json"))["counters"] == {"near_columns": near,
                                                                  "far_columns": 500 - near}
    assert "counters" not in _read_json(Path(out, "correlations.json"))
    cfg = kg.validate_config(1.0, 0.5, 0.0)
    report = kg.vacuum_moments(range(1, 4), range(1, 3), cfg, 500)
    # the explicit rows of the blocks give the same moments within rounding
    # (measured: at most 9.9e-16 of each moment's largest value)
    trunc = kg.Truncation(n_max_global=500, m_max_local=4)
    rows = kg.wick_moments(range(1, 4), range(1, 3), kg.build_block(kg.Region.LEFT, cfg, None, trunc),
                           kg.build_block(kg.Region.RIGHT, cfg, None, trunc))
    for field in ("mean_left", "var_left", "mean_right", "var_right", "cov", "corr"):
        want = getattr(rows, field)
        assert np.max(np.abs(getattr(report, field) - want)) <= 1e-14 * np.max(np.abs(want))
    # --paper-norm divides by each side's summed spectrum over l <= --mmax
    ls, Ns = np.arange(1, 5), np.arange(1, 501)
    total_left = float(np.sum(kg.beta_sq_sums(kg.Region.LEFT, ls, Ns, cfg)))
    total_right = float(np.sum(kg.beta_sq_sums(kg.Region.RIGHT, ls, Ns, cfg)))
    summed = report.cov / (math.sqrt(total_left) * math.sqrt(total_right))
    header, rows = _csv_rows(os.path.join(out, "correlations.csv"))
    assert header == "m,n,cov,corr,corr_summed_norm"
    # m-major, every value exact: 17 digits round-trip a double
    assert [(int(m), int(n)) for m, n, *_ in rows] == [(m, n) for m in (1, 2, 3) for n in (1, 2)]
    got = [[float(v) for v in row[2:]] for row in rows]
    assert got == [[report.cov[i, j], report.corr[i, j], summed[i, j]]
                   for i in range(3) for j in range(2)]
    ratio = np.array([norm / cov for cov, _, norm in got])
    assert np.allclose(ratio, ratio[0], rtol=1e-12)        # one denominator
    assert ratio[0] > 0
    header, rows = _csv_rows(os.path.join(out, "moments.csv"))
    assert header == "region,index,mean,var"
    assert [(region, int(k)) for region, k, *_ in rows] == \
        [("left", 1), ("left", 2), ("left", 3), ("right", 1), ("right", 2)]
    assert [[float(v) for v in row[2:]] for row in rows] == \
        [[report.mean_left[i], report.var_left[i]] for i in range(3)] + \
        [[report.mean_right[j], report.var_right[j]] for j in range(2)]
    # the explicit double-sum route is gone; argparse refuses its flag
    with pytest.raises(SystemExit) as exc:
        main(["correlations", "--nmax", "500", "--mmax", "4", "--verify-double-sum",
              "--out-dir", str(tmp_path / "d")])
    assert exc.value.code == 2
    # the resonance window is a library constant; argparse refuses a flag for it
    with pytest.raises(SystemExit) as exc:
        main(["correlations", "--nmax", "500", "--mmax", "4", "--resonance-eps", "1e-8",
              "--out-dir", str(tmp_path / "e")])
    assert exc.value.code == 2


def test_quasilocal_products(tmp_path):
    out = str(tmp_path / "q")
    rc = main(["quasilocal", "--nmax", "1000", "--mmax", "4", "--grid", "257",
               "--l-list", "1,2", "--wavepacket-m", "1", "--t", "0.1", "--out-dir", out])
    assert rc == 0
    man = _read_json(os.path.join(out, "manifest.json"))
    names = [o["path"] for o in man["outputs"]]
    assert names == ["overlap_l1.csv", "overlap_l2.csv", "bandwidth.csv", "steering.csv",
                     "wavepacket_m1.csv"]
    assert man["tail_bounds"]["u_tail_estimate"] > 0
    band = Path(out, "bandwidth.csv").read_text().splitlines()
    assert band[3].startswith("l,omega_l,delta_Omega")
    steer = Path(out, "steering.csv").read_text().splitlines()
    assert steer[-1].count(",") == 2                  # l, wick, direct


@pytest.mark.parametrize("argv, calls, entries", [
    (["--r", "0.3", "--mu", "2.0", "--l-list", "2,5,9", "--steer-m", "2"], 3, 30_000),
    ([], 2, 20_000),
    (["--nmax", "10000", "--grid", "65", "--l-list", "1", "--steer-m", "1",
      "--wavepacket-m", "1"], 1, 10_000),
    (["--nmax", "10000", "--grid", "65", "--l-list", "2,5,9", "--steer-m", "2",
      "--wavepacket-m", "5"], 3, 30_000),
    (["--nmax", "10000", "--grid", "65", "--l-list", "1,2", "--steer-m", "2",
      "--wavepacket-m", "3"], 3, 30_000),
], ids=["steering-op", "default", "one-state", "wavepacket-in-list", "wavepacket-apart"])
def test_quasilocal_reads_each_state_row_once(argv, calls, entries, tmp_path, monkeypatch):
    # one row per distinct state of --l-list, --steer-m and --wavepacket-m,
    # at the default n_max of 10^4, and no other; the energies and the
    # wavepacket read the state's row from its distribution, and the
    # steering reads the far rows' sums from one gram call
    grid = bogoliubov.coeff_grid
    seen = []

    def spy(region, m_indices, N_indices, *rest):
        seen.append(len(m_indices) * len(N_indices))
        return grid(region, m_indices, N_indices, *rest)

    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", spy)
    assert main(["quasilocal", *argv, "--out-dir", str(tmp_path / "q")]) == 0
    assert (len(seen), sum(seen)) == (calls, entries)


def test_quasilocal_wavepacket_records_series_diagnostics(tmp_path, caplog):
    out = str(tmp_path / "q")
    assert main(["quasilocal", "--nmax", "500", "--mmax", "4", "--grid", "257",
                 "--l-list", "1", "--wavepacket-m", "1", "--t", "0", "--out-dir", out]) == 0
    # u's and psi's tail estimates and u's t = 0 Gibbs overshoot reach the
    # manifest and the wavepacket sidecar, never the CSV
    tails = _read_json(os.path.join(out, "manifest.json"))["tail_bounds"]
    series = {"u_tail_estimate", "psi_tail_estimate", "gibbs_overshoot_u_tail_estimate"}
    assert series <= set(tails)
    assert tails["u_tail_estimate"] > 0 and tails["psi_tail_estimate"] > 0
    side = _read_json(os.path.join(out, "wavepacket_m1.json"))["tail_bounds"]
    assert series <= set(side)
    assert "tail_estimate" not in Path(out, "wavepacket_m1.csv").read_text()
    # at n_max = 500 both series are past the tolerance
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert sum("tail estimate" in w for w in warned) == 2


def test_tails_below_the_resonance_are_unbounded_and_warned(tmp_path, caplog):
    # alpha^2 and energy tails of mode 300 at r = 0.05 are bounds only from
    # N = 2 omega R / pi = 12000 on; JSON has no inf, so they are written
    # as the string "inf", and the manifest and every sidecar parse strictly
    out = str(tmp_path / "d")
    assert main(["diverge", "--r", "0.05", "--m", "300", "--n-list", "1000",
                 "--M-list", "10,100", "--out-dir", out]) == 0
    tails = _read_json(os.path.join(out, "manifest.json"))["tail_bounds"]
    assert tails["alpha2_tail"] == "inf"
    assert 0 < tails["beta2_tail"] < float("inf")
    assert _read_json(os.path.join(out, "converge.json"))["tail_bounds"] == tails
    _read_json(os.path.join(out, "diverge.json"))
    out = str(tmp_path / "q")
    assert main(["quasilocal", "--r", "0.05", "--nmax", "1000", "--mmax", "300",
                 "--l-list", "1,300", "--out-dir", out]) == 0
    tails = _read_json(os.path.join(out, "manifest.json"))["tail_bounds"]
    assert tails["energy_tail_l=300"] == "inf"
    assert 0 < tails["energy_tail_l=1"] < float("inf")
    for side in Path(out).glob("*.json"):
        _read_json(side)
    warned = [r.getMessage() for r in caplog.records if "no bound" in r.getMessage()]
    assert len(warned) == 2
    assert all("12000" in w for w in warned)
    assert "alpha2_tail" in warned[0] and "energy_tail_l=300" in warned[1]


def test_causality_products(tmp_path):
    out = str(tmp_path / "cz")
    rc = main(["causality", "--nmax", "500", "--mmax", "2", "--grid", "513",
               "--times", "0,0.1", "--taus", "0.1", "--out-dir", out])
    assert rc == 0
    comm = Path(out, "commutators.csv").read_text().splitlines()
    assert comm[3] == "tau,r_tilde,c1,c2,spacelike"
    assert comm[4].endswith(",1")                     # tau=0.1 < default gap 0.2
    leak = Path(out, "leakage.csv").read_text().splitlines()
    assert len(leak) == 4 + 2                         # 3 comments, header, 2 rows


def test_causality_records_series_diagnostics(tmp_path, caplog):
    out = str(tmp_path / "cz")
    rc = main(["causality", "--nmax", "500", "--mmax", "2", "--grid", "257",
               "--times", "0,0.1", "--taus", "0.1", "--out-dir", out])
    assert rc == 0
    # every evolution's diagnostics reach the manifest and the sidecars
    tails = _read_json(os.path.join(out, "manifest.json"))["tail_bounds"]
    assert set(tails) == {"leakage_t=0", "leakage_t=0.10000000000000001",
                          "gibbs_overshoot_leakage_t=0", "commutator_tau=0.10000000000000001",
                          "commutator_sums_tau=0.10000000000000001",
                          "commutator_error_tau=0.10000000000000001"}
    assert all(v > 0 for k, v in tails.items() if not k.startswith(("gibbs", "commutator_sums")))
    # the error is the measured distance of the CSV's commutators from the sums
    sums = tails["commutator_sums_tau=0.10000000000000001"]
    c1, c2 = map(float, Path(out, "commutators.csv").read_text().splitlines()[4].split(",")[2:4])
    assert tails["commutator_error_tau=0.10000000000000001"] == max(abs(c1 - sums["c1"]),
                                                                     abs(c2 - sums["c2"]))
    assert _read_json(os.path.join(out, "leakage.json"))["tail_bounds"] == tails
    assert _read_json(os.path.join(out, "commutators.json"))["tail_bounds"] == tails
    # ... and never the CSVs
    for name in ("leakage.csv", "commutators.csv"):
        text = Path(out, name).read_text()
        assert "leakage_t" not in text and "commutator_" not in text
    # at n_max = 500 each of the three evolutions is past the tolerance
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 3 and all("tail estimate" in w for w in warned)


@pytest.mark.parametrize("argv", [
    ["modes", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", "0,0.1"],
    ["quasilocal", "--nmax", "200", "--mmax", "4", "--grid", "65", "--l-list", "1,2",
     "--wavepacket-m", "1"],
    ["causality", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", "0,0.1",
     "--taus", "0.1"],
    ["diverge", "--M-list", "10,100", "--n-list", "100,200"],
], ids=lambda argv: argv[0])
def test_every_sidecar_carries_the_manifest_record(tmp_path, argv):
    # one record per run: each sidecar holds the manifest's provenance and
    # diagnostics, whenever the command recorded them, plus its CSV's digest
    out = tmp_path / "o"
    assert main([*argv, "--out-dir", str(out)]) == 0
    man = _read_json(out / "manifest.json")
    digests = {o["path"]: o["digest"] for o in man.pop("outputs")}
    for key in ("wall_time_s", "written"):
        del man[key]
    csvs = sorted(path.name for path in out.glob("*.csv"))
    assert len(csvs) >= 2 and man["tail_bounds"]
    for name in csvs:
        side = _read_json(out / name.replace(".csv", ".json"))
        assert side == {**man, "digest": digests[name]}


def test_diverge_and_rscan_products(tmp_path):
    out = str(tmp_path / "d")
    assert main(["diverge", "--N-list", "1", "--M-list", "10,100,1000",
                 "--n-list", "100,200", "--out-dir", out]) == 0
    assert os.path.exists(os.path.join(out, "diverge.csv"))
    assert os.path.exists(os.path.join(out, "converge.csv"))

    out2 = str(tmp_path / "r")
    assert main(["rscan", "--nmax", "500", "--kind",
                 "partition-size", "--values", "0.3,0.5", "--probes", "1:1",
                 "--M-fixed", "10", "--out-dir", out2]) == 0
    lines = Path(out2, "rscan.csv").read_text().splitlines()
    assert lines[3] == "value,n_m1,alpha_m1_N1,beta_m1_N1,sum_left_M10,sum_both_M10"
    assert len(lines) == 4 + 2


def test_diverge_records_the_exact_slopes_and_warns_on_a_node(tmp_path, caplog):
    # r = 1/2 puts N = 2 on a node: its row is exact zeros with fit_r2 = 1,
    # which certifies nothing, so a warning names it
    out = tmp_path / "d"
    assert main(["diverge", "--N-list", "1,2", "--M-list", "10000,100000", "--n-list", "100",
                 "--out-dir", str(out)]) == 0
    tails = _read_json(out / "manifest.json")["tail_bounds"]
    assert tails["slope_exact_N=1"] == pytest.approx(2.0 / np.pi**2, rel=1e-15)
    # measured -1.19e-5, the 1/M lag of the last decade
    assert -2e-5 < tails["slope_error_N=1"] < -1e-5
    assert tails["slope_exact_N=2"] == tails["slope_error_N=2"] == 0.0
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 1 and "N=2" in warned[0] and "node" in warned[0]


def test_rscan_writes_each_m_column_once(tmp_path):
    # <n_m> depends on m alone: two probes of one m share one n_m column,
    # written before the first probe's alpha and beta, one tail key per m
    # and one plotted series per m
    out = tmp_path / "r"
    assert main(["rscan", "--nmax", "500", "--kind", "mass", "--values", "0.5,2",
                 "--probes", "1:1,1:3,2:3", "--svg", "--out-dir", str(out)]) == 0
    names = next(line for line in (out / "rscan.csv").read_text().splitlines()
                 if not line.startswith("#")).split(",")
    assert len(set(names)) == len(names)
    assert names == ["value", "n_m1", "alpha_m1_N1", "beta_m1_N1", "alpha_m1_N3", "beta_m1_N3",
                     "n_m2", "alpha_m2_N3", "beta_m2_N3", "sum_left_M100", "sum_both_M100"]
    for tails in _read_json(out / "manifest.json")["tail_bounds"].values():
        assert sorted(tails) == ["n_m1", "n_m2", "sum_both_M100", "sum_left_M100"]
    assert (out / "rscan.svg").read_text().count("<polyline") == 2


def test_rscan_sums_each_family_once_per_scan_value(tmp_path, monkeypatch):
    # the summed columns take one total-kernel call per family and scan
    # value over the rows 1..M_fixed, never the per-row sums; only the
    # probes' rows go through the row-sum kernel, so at the default
    # n_max = 10^4, above numpy's 8192-element reduction buffer, the
    # probe's <n_m> still has the bits of its row alone (beta_sq_sums)
    beta_sq_sums, total, sums = kg.beta_sq_sums, vacuum._beta_sq_total, vacuum._beta_sq_sums
    total_calls, row_calls = [], []

    def total_spy(rows, cols):
        assert cols.region is rows.region and len(cols.N) == 10_000
        total_calls.append((rows.region, tuple(int(m) for m in rows.m)))
        return total(rows, cols)

    def rows_spy(rows, cols):
        assert cols.region is rows.region and len(cols.N) == 10_000
        row_calls.append((rows.region, tuple(int(m) for m in rows.m)))
        return sums(rows, cols)

    monkeypatch.setattr(vacuum, "_beta_sq_total", total_spy)
    monkeypatch.setattr(vacuum, "_beta_sq_sums", rows_spy)
    out = str(tmp_path / "r")
    assert main(["rscan", "--probes", "1:1,150:3,2:3", "--out-dir", out]) == 0
    summed = tuple(range(1, 101))
    assert total_calls == [(kg.Region.LEFT, summed), (kg.Region.RIGHT, summed)] * 3
    assert row_calls == [(kg.Region.LEFT, (1, 150, 2))] * 3
    lines = Path(out, "rscan.csv").read_text().splitlines()
    col = lines[3].split(",").index("n_m150")
    for line in lines[4:]:
        cells = line.split(",")
        cfg = kg.validate_config(1.0, float(cells[0]), 0.0)
        want = beta_sq_sums(kg.Region.LEFT, [150], np.arange(1, 10_001), cfg)[0]
        assert float(cells[col]) == want


def test_identities_multi_cutoff(tmp_path):
    out = str(tmp_path / "i")
    rc = main(["identities", "--nmax", "500,1000", "--upto", "3",
               "--out-dir", out])
    assert rc == 0
    lines = Path(out, "identities.csv").read_text().splitlines()
    assert lines[2] == "n_max,max_D1,max_D2,max_D1_cross,max_D2_cross,max_residual"
    rows = [line.split(",") for line in lines[3:]]
    assert [r[0] for r in rows] == ["500", "1000"]
    assert float(rows[1][5]) < float(rows[0][5])      # residual falls with cutoff
    # the n_max column carries the cutoffs that ran; the provenance names none
    assert lines[:2] == ["# R=1 r=0.5 mu=0", "# upto=3"]
    for doc in (_read_json(Path(out, "identities.json")), _read_json(Path(out, "manifest.json"))):
        assert doc["truncation"] == {}
    # each cutoff's column split (Omega_N = pi N < F omega_3 = 6 F pi)
    # reaches the manifest only
    near = int(6 * bogoliubov._FAR_FACTOR) - 1
    assert _read_json(Path(out, "manifest.json"))["counters"] == {
        "n_max=500": {"near_columns": near, "far_columns": 500 - near},
        "n_max=1000": {"near_columns": near, "far_columns": 1000 - near}}
    assert "counters" not in _read_json(Path(out, "identities.json"))


@pytest.mark.parametrize("argv, m", [(["modes", "--m", "3"], 3),
                                     (["causality", "--m", "2"], 2),
                                     (["quasilocal", "--wavepacket-m", "2"], 2)])
def test_evolutions_compute_only_the_rows_up_to_the_evolved_mode(argv, m, tmp_path, monkeypatch):
    # evolving u_m reads row m: from a cold memo the block holds rows 1..m,
    # never rows 1..--mmax (quasilocal's own coeff_grid binding is not spied)
    entries = []
    grid = bogoliubov.coeff_grid

    def spy(region, m_indices, N_indices, *rest):
        entries.append(len(m_indices) * len(N_indices))
        return grid(region, m_indices, N_indices, *rest)

    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    monkeypatch.setattr(bogoliubov, "coeff_grid", spy)
    assert main(argv + ["--nmax", "300", "--mmax", "50", "--grid", "65",
                        "--out-dir", str(tmp_path / "o")]) == 0
    assert sum(entries) == m * 300


def test_identities_reads_rows_without_blocks(tmp_path, monkeypatch):
    build_block = bogoliubov.build_block
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return build_block(*args, **kwargs)

    for owner in ("bogoliubov", "cli", "modes"):
        monkeypatch.setattr(f"kgcavity.{owner}.build_block", spy)
    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    assert main(["identities", "--nmax", "333,667", "--upto", "4",
                 "--out-dir", str(tmp_path / "i")]) == 0
    assert built == []
    assert len(bogoliubov._BLOCK_MEMO) == 0


@pytest.mark.parametrize("argv", [
    ["identities", "--nmax", "", "--upto", "3"],
    ["spectrum", "--nmax", "200", "--lmax", "2", "--mu-list", ""],
    ["causality", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", "0", "--taus", ""],
    ["diverge", "--N-list", "", "--M-list", "10,100", "--n-list", "100"],
    ["rscan", "--nmax", "200", "--values", ""],
    ["modes", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", ""],
    ["causality", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", "", "--taus", "0.1"],
], ids=["identities", "spectrum", "causality", "diverge", "rscan", "modes", "causality-times"])
def test_explicit_empty_list_flag_is_refused(tmp_path, capsys, argv):
    # an empty list would ask for no rows; the parser refuses it rather
    # than fall back on the default rows or write a header-only table
    out = tmp_path / "e"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not a number list: ''" in err and "Traceback" not in err
    assert not out.exists()


def test_svg_outputs_land_in_manifest(tmp_path):
    # each renderer's manifest digest is that of the bytes on disk
    for argv, name in [
        (["spectrum", "--nmax", "500", "--lmax", "3"], "spectrum.svg"),
        (["correlations", "--nmax", "300", "--mmax", "5", "--mrows", "3", "--nrows", "3"],
         "correlations.svg"),
    ]:
        out = str(tmp_path / name)
        rc = main([*argv, "--svg", "--out-dir", out])
        assert rc == 0
        man = _read_json(os.path.join(out, "manifest.json"))
        names = [o["path"] for o in man["outputs"]]
        assert name in names
        svg_entry = next(o for o in man["outputs"] if o["path"] == name)
        payload = Path(out, name).read_bytes()
        assert payload.startswith(b"<?xml") or payload.startswith(b"<svg")
        assert hashlib.sha256(payload).hexdigest() == svg_entry["digest"]


def test_short_log_axis_labels_both_ends(tmp_path):
    # the spectrum's log y axis spans less than a decade at this cutoff; its
    # ends are labelled, so the axis carries at least two tick labels (the
    # right-aligned texts left of the plot area)
    out = tmp_path / "s"
    assert main(["spectrum", "--nmax", "500", "--lmax", "3", "--svg", "--out-dir", str(out)]) == 0
    labels = [line for line in (out / "spectrum.svg").read_text().splitlines()
              if line.startswith('<text x="72"') and 'text-anchor="end"' in line]
    assert len(labels) >= 2, labels


def test_correlations_heatmap_is_listed_and_reproducible(tmp_path):
    argv = ["correlations", "--nmax", "300", "--mmax", "5", "--mrows", "3", "--nrows", "3",
            "--svg", "--out-dir"]
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(argv + [str(out)]) == 0
        payload = (out / "correlations.svg").read_bytes()
        assert payload.startswith(b"<svg") and payload.count(b"<rect") > 9
        entry = next(o for o in _read_json(out / "manifest.json")["outputs"]
                     if o["path"] == "correlations.svg")
        assert hashlib.sha256(payload).hexdigest() == entry["digest"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


# ── config file and overrides ───────────────────────────────────────────────

def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cavity.cfg"
    cfg_file.write_text("# test config\nr = 0.25\nn_max_global 400\nlunacy_level = 9\n")
    out = str(tmp_path / "bad")
    rc = main(["spectrum", "--config", str(cfg_file), "--out-dir", out])
    assert rc == 2                                    # unknown key -> DomainError

    cfg_file.write_text("# test config\nr = 0.25\nn_max_global 400\n")
    out = str(tmp_path / "file")
    assert main(["spectrum", "--config", str(cfg_file), "--lmax", "2",
                 "--out-dir", out]) == 0
    side = _read_json(os.path.join(out, "spectrum.json"))
    assert side["config"]["r"] == 0.25
    assert side["truncation"]["n_max_global"] == 400

    out = str(tmp_path / "override")
    assert main(["spectrum", "--config", str(cfg_file), "--r", "0.3",
                 "--lmax", "2", "--out-dir", out]) == 0
    side = _read_json(os.path.join(out, "spectrum.json"))
    assert side["config"]["r"] == 0.3                 # flag beats file


def test_a_config_file_sets_only_the_cutoffs_the_command_declares(tmp_path, capsys):
    cfg_file = tmp_path / "cavity.cfg"
    cfg_file.write_text("n_max_global = 300\nm_max_local = 0\ngrid_points = 0\n")
    # diverge reads no cutoff and spectrum only n_max_global: the file's
    # other cutoffs are not read, so their 0 is no error
    assert main(["diverge", "--config", str(cfg_file), "--M-list", "10,100",
                 "--n-list", "100,200", "--out-dir", str(tmp_path / "d")]) == 0
    assert main(["spectrum", "--config", str(cfg_file), "--lmax", "2",
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert _read_json(tmp_path / "s" / "manifest.json")["truncation"] == {"n_max_global": 300}
    # a cutoff the command declares is still taken from the file and checked
    assert main(["modes", "--config", str(cfg_file), "--grid", "65",
                 "--out-dir", str(tmp_path / "m")]) == 2
    assert "m_max_local must be >= 1" in _one_json_error(capsys)["message"]
    assert main(["modes", "--config", str(cfg_file), "--mmax", "4", "--grid", "65",
                 "--times", "0", "--out-dir", str(tmp_path / "m")]) == 0


# ── error paths ─────────────────────────────────────────────────────────────

def _one_json_error(capsys) -> dict:
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("{")]
    assert len(lines) == 1 and "Traceback" not in err
    return json.loads(lines[0])


def test_unreadable_config_file_is_a_domain_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    out = tmp_path / "o"
    for path in (missing, tmp_path):               # no such file; a directory
        assert main(["spectrum", "--config", str(path), "--out-dir", str(out)]) == 2
        doc = _one_json_error(capsys)
        assert doc["error"] == "DomainError" and str(path) in doc["message"]
        assert not out.exists()


def test_uncreatable_out_dir_is_a_domain_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):          # an existing file; a path under it
        assert main(["identities", "--nmax", "100", "--upto", "2", "--out-dir", str(out)]) == 2
        doc = _one_json_error(capsys)
        assert doc["error"] == "DomainError" and str(out) in doc["message"]
    assert taken.read_text() == ""


@pytest.mark.parametrize("argv, blocked", [
    (["identities", "--nmax", "100", "--upto", "2"], "identities.csv"),
    # the third product: the first two are written before it fails
    (["correlations", "--nmax", "200", "--mmax", "4", "--mrows", "2", "--nrows", "2"],
     "moments.csv"),
    # the manifest, written in place once every other product is
    (["identities", "--nmax", "100", "--upto", "2"], "manifest.json"),
], ids=["identities", "correlations", "manifest"])
def test_unwritable_product_is_a_domain_error_and_leaves_no_product(tmp_path, capsys,
                                                                     argv, blocked):
    # a directory where a product goes was an IsADirectoryError traceback,
    # and the products written before it stayed
    (tmp_path / blocked).mkdir()
    (tmp_path / "other.txt").write_text("kept")
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    doc = _one_json_error(capsys)
    assert doc["error"] == "DomainError" and str(tmp_path / blocked) in doc["message"]
    assert {p.name for p in tmp_path.iterdir()} == {blocked, "other.txt"}
    assert (tmp_path / "other.txt").read_text() == "kept"
    # once the path is free the run writes its products and nothing else
    (tmp_path / blocked).rmdir()
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    products = {o["path"] for o in json.loads((tmp_path / "manifest.json").read_text())["outputs"]}
    sidecars = {os.path.splitext(p)[0] + ".json" for p in products}
    assert {p.name for p in tmp_path.iterdir()} == products | sidecars | {"manifest.json",
                                                                          "other.txt"}
    # a failed rerun puts back every file of the earlier run it had replaced
    (tmp_path / blocked).unlink()
    (tmp_path / blocked).mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_failed_write_removes_the_directory_it_created(tmp_path, capsys, monkeypatch):
    def disk_full(*_args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("kgcavity.output.write_manifest", disk_full)
    out = tmp_path / "new"
    assert main(["identities", "--nmax", "100", "--upto", "2", "--out-dir", str(out)]) == 2
    doc = _one_json_error(capsys)
    assert doc["error"] == "DomainError" and str(out / "manifest.json") in doc["message"]
    assert not out.exists()


# the cutoffs each command reads; `identities` takes --nmax as a list of its own
_DECLARED = {"modes": "nmax mmax grid", "quasilocal": "nmax mmax grid",
             "causality": "nmax mmax grid", "correlations": "nmax mmax", "spectrum": "nmax",
             "rscan": "nmax", "diverge": "", "identities": ""}
_FIELDS = {"nmax": "n_max_global", "mmax": "m_max_local", "grid": "grid_points"}
# each command's declared cutoffs, small
_SMALL = {"nmax": "200", "mmax": "4", "grid": "65"}
_BASE = {command: [arg for flag in flags.split() for arg in (f"--{flag}", _SMALL[flag])]
         for command, flags in _DECLARED.items()}


@pytest.mark.parametrize("argv", [
    # refused after earlier products were computed
    ["quasilocal", "--l-list", "1", "--threshold", "1.5"],
    ["quasilocal", "--grid", "2", "--l-list", "1", "--wavepacket-m", "1"],
    # refused before any product
    ["causality", "--rtilde", "2.0"],
    ["causality", "--taus", "0.1,-1"],
    ["spectrum", "--lmax", "0"],
    ["identities", "--upto", "0"],
    ["identities", "--nmax", "0,400"],
    ["diverge", "--m", "0"],
    ["rscan", "--kind", "mass", "--values", "0.5,-1"],
    ["causality", "--times", "0.1,-0.1"],
    ["causality", "--probe-n", "0"],
])
def test_refused_request_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "o"
    # the later --grid of a case overrides the base one
    assert main([argv[0], *_BASE[argv[0]], *argv[1:], "--out-dir", str(out)]) == 2
    assert set(_one_json_error(capsys)) == {"error", "message"}
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["modes", "--nmax", "200", "--mmax", "4", "--grid", "9", "--times", "1e306"],
    ["causality", "--nmax", "200", "--mmax", "4", "--grid", "65", "--times", "1e306",
     "--taus", "1e306"],
    ["quasilocal", "--nmax", "200", "--mmax", "4", "--grid", "9", "--l-list", "1",
     "--wavepacket-m", "1", "--t", "1e306"],
], ids=["modes", "causality", "quasilocal"])
def test_unresolvable_time_is_refused(tmp_path, capsys, argv):
    # Omega_N t overflows at t = 1e306, and from 2^52 on one ulp of a phase
    # is a radian or more: refused, where the cells used to be NaN or noise
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "DomainError" and "2^52" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["modes", "--times", "0.1,inf"],
    ["modes", "--times", "0.1,1e306"],
    ["causality", "--times", "0.1,-1", "--taus", "0.1"],
    ["causality", "--times", "0.1", "--taus", "0.1,1e306"],
    ["quasilocal", "--l-list", "1", "--wavepacket-m", "1", "--t", "-1"],
], ids=["modes-inf", "modes-unresolved", "causality-negative", "causality-tau-unresolved",
        "wavepacket-negative"])
def test_evolution_times_are_refused_before_any_row(tmp_path, capsys, monkeypatch, argv):
    # every time of the request passes its checks before the first
    # evolution, so no row is computed (from a cold memo) and no series
    # warning is logged for the times before the bad one
    rows = []
    grid = bogoliubov.coeff_grid

    def spy(*args, **kwargs):
        rows.append(args)
        return grid(*args, **kwargs)

    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    monkeypatch.setattr(bogoliubov, "coeff_grid", spy)
    monkeypatch.setattr("kgcavity.quasilocal.coeff_grid", spy)
    out = tmp_path / "o"
    assert main([argv[0], *_BASE[argv[0]], *argv[1:], "--out-dir", str(out)]) == 2
    assert _one_json_error(capsys)["error"] == "DomainError"
    assert rows == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rscan", "--probes", ""],
    ["rscan", "--probes", "1-1"],
    ["rscan", "--probes", "1:1,1:1,1:3"],
    ["modes", "--times", "1:2"],
    ["modes", "--times", "abc"],
    ["spectrum", "--mu-list", "1:2:0"],
    ["identities", "--nmax", "1:2"],
    ["quasilocal", "--l-list", "1.5,2.5"],
    ["diverge", "--N-list", "2.7"],
    ["quasilocal", "--l-list", "1,1"],
    ["diverge", "--M-list", "10,10,100"],
    ["diverge", "--N-list", "1,1"],
    ["diverge", "--n-list", "100,100"],
    ["identities", "--nmax", "1000,1000"],
])
def test_malformed_list_flag_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("spectrum", "--mmax"), ("spectrum", "--grid"), ("rscan", "--mmax"), ("rscan", "--grid"),
    ("correlations", "--grid"), ("diverge", "--nmax"), ("diverge", "--mmax"),
    ("diverge", "--grid"), ("identities", "--mmax"), ("identities", "--grid"),
])
def test_unread_cutoff_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    # a cutoff the command does not read would only be copied into its
    # header, sidecar and manifest
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "7", "--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _DECLARED.items() for flag in flags.split()])
def test_declared_cutoff_flag_sets_the_truncation(command, flag):
    # the flag sets its own field; the others keep the Truncation defaults
    _, trunc = _resolve(build_parser().parse_args([command, f"--{flag}", "7"]))
    assert trunc == dataclasses.replace(kg.Truncation(), **{_FIELDS[flag]: 7})


# per command, the flags that keep it quick at the _SMALL cutoffs
_QUICK = {"modes": [], "quasilocal": ["--l-list", "1"], "causality": ["--taus", "0.1"],
          "correlations": ["--mrows", "2", "--nrows", "2"], "spectrum": ["--lmax", "2"],
          "rscan": ["--values", "0.5", "--M-fixed", "10"],
          "diverge": ["--M-list", "10,100", "--n-list", "100,200"],
          "identities": ["--nmax", "200,400", "--upto", "3"]}


@pytest.mark.parametrize("command", _DECLARED)
def test_provenance_names_exactly_the_declared_cutoffs(tmp_path, command):
    # the header's cutoff line, every sidecar and the manifest name the
    # cutoffs the command reads, at their resolved values, and no other;
    # `diverge` and `identities` name none (their cutoffs are columns)
    out = tmp_path / command
    assert main([command, *_BASE[command], *_QUICK[command], "--out-dir", str(out)]) == 0
    want = {_FIELDS[flag]: int(_SMALL[flag]) for flag in _DECLARED[command].split()}
    line = "# " + " ".join(f"{key}={value}" for key, value in want.items())
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        comments = [c for c in path.read_text().splitlines() if c.startswith("#")]
        assert [c for c in comments if any(key in c for key in _FIELDS.values())] == \
            ([line] if want else [])
        assert _read_json(path.with_suffix(".json"))["truncation"] == want
    assert _read_json(out / "manifest.json")["truncation"] == want


@pytest.mark.parametrize("argv, head, config, first", [
    (["spectrum", "--mu", "5", "--mu-list", "0", "--lmax", "2"],
     "# R=1 r=0.5", {"R": 1.0, "r": 0.5, "r_bar": 0.5}, "0"),
    (["rscan", "--r", "0.2", "--values", "0.3", "--M-fixed", "10"],
     "# R=1 mu=0", {"R": 1.0, "mu": 0.0}, "0.29999999999999999"),
    (["rscan", "--kind", "mass", "--mu", "3", "--values", "0.5", "--M-fixed", "10"],
     "# R=1 r=0.5", {"R": 1.0, "r": 0.5, "r_bar": 0.5}, "0.5"),
], ids=["spectrum-mu-list", "rscan-partition-size", "rscan-mass"])
def test_a_scanned_parameter_is_only_a_column(tmp_path, argv, head, config, first):
    # no header, sidecar or manifest names a value no row ran at
    out = tmp_path / "o"
    assert main([argv[0], "--nmax", "200", *argv[1:], "--out-dir", str(out)]) == 0
    lines = (out / f"{argv[0]}.csv").read_text().splitlines()
    assert lines[0] == head
    assert lines[4].split(",")[0] == first
    for doc in (_read_json(out / f"{argv[0]}.json"), _read_json(out / "manifest.json")):
        assert doc["config"] == config


@pytest.mark.parametrize("argv", [
    ["causality", "--probe-n", "0"],
    ["causality", "--rtilde", "2.0"],
    ["causality", "--taus", "0.1,-1"],
    ["diverge", "--m", "0"],
])
def test_refused_request_computes_nothing(tmp_path, capsys, monkeypatch, argv):
    # the bad value is refused before the evolutions or scans it follows
    def refuse(*_args, **_kw):
        raise AssertionError("computed before the request was refused")

    monkeypatch.setattr("kgcavity.cli.lightcone_leakage", refuse)
    monkeypatch.setattr("kgcavity.cli.divergence_scan", refuse)
    out = tmp_path / "o"
    assert main([argv[0], *_BASE[argv[0]], *argv[1:], "--out-dir", str(out)]) == 2
    assert _one_json_error(capsys)["error"] == "DomainError"
    assert not out.exists()


def test_diverge_with_one_M_is_a_domain_error(tmp_path, capsys, monkeypatch):
    # refused before the convergence sums, which the scans follow
    calls = []
    monkeypatch.setattr("kgcavity.cli.mode_sum_convergence",
                        lambda *args: calls.append(args) or vacuum.mode_sum_convergence(*args))
    out = tmp_path / "o"
    assert main(["diverge", "--M-list", "100", "--n-list", "100",
                 "--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "DomainError" and "two distinct M" in err["message"]
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["modes", "--times", "nan"],
    ["modes", "--times", "inf"],
    ["quasilocal", "--wavepacket-m", "1", "--t", "inf"],
    ["quasilocal", "--wavepacket-m", "1", "--t", "-0.1"],
    ["causality", "--edge-margin", "nan", "--times", "0.1"],
    ["causality", "--edge-margin", "-5", "--times", "0"],
    ["causality", "--edge-margin", "-5", "--times", "0"],
    ["causality", "--taus", "nan"],
], ids=["modes-nan", "modes-inf", "wavepacket-inf", "wavepacket-negative", "margin-nan",
        "margin-negative", "margin-negative-no-times", "tau-nan"])
def test_non_finite_time_or_margin_is_a_domain_error(tmp_path, capsys, argv):
    # NaN phases would fill the tables with NaN cells; a wavepacket before
    # t = 0 has no light cone to be measured against
    out = tmp_path / "o"
    assert main([argv[0], "--nmax", "300", "--mmax", "30", "--grid", "65", *argv[1:],
                 "--out-dir", str(out)]) == 2
    assert _one_json_error(capsys)["error"] == "DomainError"
    assert not out.exists()


def test_domain_error_reports_json_and_exit_2(tmp_path, capsys):
    rc = main(["spectrum", "--r", "1.5", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "r" in err["message"]


def _blocks_of_two_cutoffs():
    cfg = kg.validate_config(1.0, 0.5, 0.0)
    return [kg.build_block(region, cfg, None, kg.Truncation(n_max_global=n, m_max_local=1))
            for region, n in ((kg.Region.LEFT, 50), (kg.Region.RIGHT, 60))]


@pytest.mark.parametrize("call, error", [
    (lambda: kg.wick_moments([1], [1], *_blocks_of_two_cutoffs()), kg.GridMismatch),
    (lambda: kg.limit_scan("volume", [0.1], [(1, 1)], kg.validate_config(1.0, 0.5, 0.0),
                           kg.Truncation(n_max_global=50, m_max_local=1)), kg.DomainError),
    (lambda: kg.SampledMode(grid=np.zeros(3), value=np.zeros(2), tderiv=np.zeros(3), time=0.0),
     kg.GridMismatch),
    (lambda: kg.kg_inner(*[kg.SampledMode(grid=np.zeros(1), value=np.zeros(1),
                                          tderiv=np.zeros(1), time=0.0)] * 2),
     kg.GridMismatch),
], ids=["wick_moments-cutoffs", "limit_scan-kind", "SampledMode-lengths", "kg_inner-one-point"])
def test_library_refusals_are_kgcavity_errors(call, error):
    # the CLI turns a KgCavityError into its JSON error; any other
    # exception would reach the user as a traceback
    with pytest.raises(kg.KgCavityError) as exc:
        call()
    assert isinstance(exc.value, error)


def test_any_library_error_reports_json_and_exit_2(tmp_path, capsys):
    for cls in (kg.DomainError, kg.GridMismatch, kg.ThresholdUnreachable, kg.DimensionError):
        assert issubclass(cls, kg.KgCavityError)
    # a one-point grid has no point inside the probe's support:
    # GridMismatch, not a traceback
    rc = main(["causality", "--nmax", "50", "--mmax", "2", "--grid", "1", "--times", "0",
               "--taus", "0.1", "--out-dir", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("{")]
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0]) == {
        "error": "GridMismatch",
        "message": "0 points of the 1-point grid lie inside the support "
                   "(0.69999999999999996, 1) of probe 1, fewer than its 1 half-waves"}


def test_correlation_past_cauchy_schwarz_reports_json_and_exit_2(tmp_path, capsys,
                                                                  monkeypatch):
    # Grams whose covariance exceeds the product of the standard deviations
    # (var = 1 on both sides, cov = 2 * 2 + 2 * 2 = 8) are refused with the
    # JSON error, not a traceback
    two = np.full((1, 1), 2.0)
    dots = np.array([[1.0], [0.0], [1.0]])    # sum p^2, sum p q, sum q^2 per row

    def broken(*args, **kwargs):
        return bogoliubov.Grams(dots, dots, two, two, two, two, near=1, far=0)

    monkeypatch.setattr(vacuum, "gram", broken)
    out = tmp_path / "c"
    assert main(["correlations", "--nmax", "50", "--mmax", "1", "--mrows", "1", "--nrows", "1",
                 "--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "DomainError"
    assert "corr(n_1, n_bar_1) = 8" in err["message"] and "--nmax" in err["message"]
    assert not out.exists()


def test_oversized_request_reports_json_and_exit_2(tmp_path, capsys, monkeypatch):
    # a request too large to allocate (identities --upto 100000 asks the Gram
    # accumulator for hundreds of GiB) is refused like a library error, with
    # nothing written
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 596. GiB for an array with shape (200000, 400000)")

    monkeypatch.setattr("kgcavity.cli.identity_residuals", oversized)
    out = tmp_path / "i"
    assert main(["identities", "--nmax", "1", "--upto", "100000", "--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "MemoryError" and "596. GiB" in err["message"]
    assert not out.exists()


def test_paper_norm_survives_large_mass(tmp_path):
    # each side's summed spectrum is about 5.7e-234 at mu R = 1e60; their
    # product underflows, the product of their square roots does not
    out = tmp_path / "c"
    assert main(["correlations", "--mu", "1e60", "--nmax", "200", "--mmax", "20",
                 "--mrows", "3", "--nrows", "3", "--paper-norm", "--out-dir", str(out)]) == 0
    header, rows = _csv_rows(out / "correlations.csv")
    col = header.split(",").index("corr_summed_norm")
    cells = [float(row[col]) for row in rows]
    assert len(cells) == 9 and all(math.isfinite(c) for c in cells) and any(cells)


@pytest.mark.parametrize("argv, words", [
    (["modes", "--nmax", "50", "--R", "1e300"], "r/R"),
    (["modes", "--nmax", "100", "--R", "1e-306", "--r", "5e-307"], "leaves double range"),
    (["diverge", "--M-list", "10,100", "--n-list", "100", "--r", "1e-300"], "r/R"),
    (["diverge", "--M-list", "10,100", "--n-list", "100", "--mu", "1e300"], "mu R"),
    (["quasilocal", "--nmax", "50", "--l-list", "1", "--mu", "1e100"], "zero normalization"),
    (["correlations", "--nmax", "50", "--mmax", "4", "--mrows", "2", "--nrows", "2",
      "--paper-norm", "--mu", "1e100"], "zero normalization"),
    (["causality", "--nmax", "200", "--mmax", "4", "--grid", "65", "--times", "0",
      "--taus", "0.1", "--edge-margin", "-5"], "edge margin"),
], ids=["modes-R", "modes-omega", "diverge-r", "diverge-mu", "quasilocal-norm", "paper-norm", "margin"])
def test_scales_past_double_range_report_json_and_exit_2(tmp_path, capsys, argv, words):
    # reduced scales that leave double range, and normalizations that
    # underflow to 0, are refused before any file is written
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "DomainError" and words in err["message"]
    assert not out.exists()


def test_spectrum_of_a_tiny_box_is_the_default_reduced_problem(tmp_path):
    # R = 1e-100 and 1e-200 with r/R = 1/2 and mu R = 0: the sums and the
    # tails run at R = 1, and every frequency is the reduced ladder over R,
    # so no dimensional prefactor underflows and no square overflows
    products = [
        (["spectrum", "--nmax", "50", "--lmax", "2"], "spectrum.csv", ["l", "n_l", "tail_bound"]),
        (["modes", "--nmax", "50", "--mmax", "4", "--grid", "9", "--times", "0"],
         "mode_left_m1_t0.csv", []),
        (["quasilocal", "--nmax", "50", "--mmax", "4", "--l-list", "1"], "overlap_l1.csv", ["N", "p"]),
    ]
    for argv, name, reduced in products:
        cells = []
        for R, r in (("1", "0.5"), ("1e-100", "5e-101"), ("1e-200", "5e-201")):
            out = tmp_path / f"{argv[0]}_{R}"
            assert main([*argv, "--R", R, "--r", r, "--out-dir", str(out)]) == 0
            for path in out.glob("*.csv"):
                rows = [line.split(",") for line in path.read_text().splitlines()
                        if not line.startswith("#")][1:]
                assert all(math.isfinite(float(cell)) for row in rows for cell in row), path.name
            lines = [line for line in (out / name).read_text().splitlines() if not line.startswith("#")]
            names = lines[0].split(",")
            cells.append([[row.split(",")[names.index(c)] for c in reduced] for row in lines[1:]])
        assert cells[1] == cells[0] and cells[2] == cells[0]


@pytest.mark.parametrize("argv", [
    ["--nmax", "2000", "--rtilde", "0.9999", "--taus", "0.3,0.6", "--times", "0"],
    ["--nmax", "200", "--mmax", "2", "--grid", "3"],
], ids=["probe-near-the-wall", "three-points"])
def test_grid_missing_the_probe_is_a_grid_mismatch(tmp_path, capsys, monkeypatch, argv):
    # no grid point inside (r_tilde, R): the commutators would be exact
    # zeros at every tau; refused before any evolution
    def refuse(*_args, **_kw):
        raise AssertionError("evolved before the grid was refused")

    monkeypatch.setattr("kgcavity.cli.lightcone_leakage", refuse)
    monkeypatch.setattr("kgcavity.cli.commutator_pair", refuse)
    out = tmp_path / "o"
    assert main(["causality", *argv, "--out-dir", str(out)]) == 2
    assert _one_json_error(capsys)["error"] == "GridMismatch"
    assert not out.exists()


def test_aliased_probe_is_refused_before_any_evolution(tmp_path, capsys, monkeypatch):
    # probe 5000 on the 19 grid points of (0.7, 1) wrote c1 = c2 = 6.8e-6
    # with exit 0; the grid check now takes the probe's index
    def refuse(*_args, **_kw):
        raise AssertionError("evolved before the grid was refused")

    monkeypatch.setattr("kgcavity.cli.lightcone_leakage", refuse)
    monkeypatch.setattr("kgcavity.cli.commutator_pair", refuse)
    out = tmp_path / "o"
    assert main(["causality", "--nmax", "200", "--mmax", "4", "--grid", "65", "--times", "0",
                 "--rtilde", "0.7", "--taus", "0.1", "--probe-n", "5000",
                 "--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "GridMismatch" and "probe 5000" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--l-list", "1", "--t", "nan"],
    ["--l-list", "1", "--t", "0.1"],
    ["--l-list", "1", "--steer-m", "2", "--t", "0"],
], ids=["nan", "finite", "zero"])
def test_time_without_a_wavepacket_is_refused(tmp_path, capsys, argv):
    # --t is read only with --wavepacket-m: alone it used to be ignored
    # with exit 0, whatever its value
    out = tmp_path / "q"
    assert main(["quasilocal", "--nmax", "200", "--mmax", "4", *argv, "--out-dir", str(out)]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "DomainError" and "--wavepacket-m" in err["message"]
    assert not out.exists()


def test_wavepacket_time_defaults_to_zero(tmp_path):
    outs = [tmp_path / "default", tmp_path / "zero"]
    for out, t in zip(outs, ([], ["--t", "0"])):
        assert main(["quasilocal", "--nmax", "200", "--mmax", "4", "--grid", "65", "--l-list", "1",
                     "--wavepacket-m", "1", *t, "--out-dir", str(out)]) == 0
    got, want = ((out / "wavepacket_m1.csv").read_bytes() for out in outs)
    assert got == want and b"# t=0 " in got


def test_two_point_grid_is_a_grid_mismatch(tmp_path, capsys):
    # the out-of-cone fraction of a grid without interior points is 0/0
    rc = main(["causality", "--nmax", "50", "--mmax", "2", "--grid", "2", "--times", "0",
               "--taus", "0.1", "--out-dir", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("{")]
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "GridMismatch"


@pytest.mark.parametrize("argv", [
    ["modes", "--m", "5000", "--mmax", "10"],
    ["correlations", "--mrows", "20", "--mmax", "5"],
    ["quasilocal", "--l-list", "2000", "--mmax", "10"],
    ["causality", "--probe-n", "0"],
    ["rscan", "--probes", "0:1"],
    ["rscan", "--probes", "1:1,1:0"],
    ["rscan", "--M-fixed", "0"],
    ["diverge", "--M-list", "0,10"],
])
def test_out_of_range_local_index_is_a_domain_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("{")]
    assert len(lines) == 1 and "Traceback" not in err
    doc = json.loads(lines[0])
    assert set(doc) == {"error", "message"} and doc["error"] == "DomainError"
    assert not (out / "manifest.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["modes", "--m", "5000"], "--m"),
    (["correlations", "--nrows", "11"], "--nrows"),
    (["quasilocal", "--l-list", "1", "--steer-m", "11"], "--steer-m"),
    (["quasilocal", "--l-list", "1", "--wavepacket-m", "0"], "--wavepacket-m"),
    (["causality", "--m", "11"], "--m"),
])
def test_out_of_range_local_index_names_its_flag(tmp_path, capsys, argv, flag):
    # the CLI checks its index flags with the library's one local-cutoff
    # check, naming the flag
    assert main([*argv, "--mmax", "10", "--out-dir", str(tmp_path / "o")]) == 2
    message = _one_json_error(capsys)["message"]
    assert f"local index {flag}=" in message and "outside block of rows 1..10" in message


# ── start-up ────────────────────────────────────────────────────────────────

def test_cli_starts_without_scipy():
    # scipy is a test dependency only; the package and its parser load on numpy
    probe = ("import sys, kgcavity.cli as c; c.build_parser(); "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(kg.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_default_modes_peak_memory(tmp_path):
    # one evolved row at the default cutoffs: no block of --mmax rows is
    # built. The peak is VmHWM, the high-water mark of the process's own
    # memory: ru_maxrss keeps the peak of the test process across exec.
    probe = ("import re, sys, kgcavity.cli as c; "
             "rc = c.main(['modes', '--out-dir', sys.argv[1]]); "
             "print(rc, re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(kg.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "m")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, peak_kb = done.stdout.split()
    assert rc == "0"
    assert int(peak_kb) / 1024 < 100
