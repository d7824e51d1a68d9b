"""CLI surface: flag parsing, file products, digests, error paths.

Every invocation uses small cutoffs — these tests exercise plumbing, not
numerics (the library tests own those).
"""

import argparse
import hashlib
import json
import math
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import kgcavity as kg
from kgcavity import bogoliubov
from kgcavity.cli import main, parse_float_list, parse_int_list, parse_probes


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
    # each block holds only the rows asked for: --mrows 3 on the left and
    # --nrows 2 on the right, never --mmax 4
    rows_built = []
    grid = bogoliubov.coeff_grid

    def spy(region, m_indices, *rest):
        rows_built.append(len(m_indices))
        return grid(region, m_indices, *rest)

    monkeypatch.setattr(bogoliubov, "_BLOCK_MEMO", OrderedDict())
    monkeypatch.setattr(bogoliubov, "coeff_grid", spy)
    out = str(tmp_path / "c")
    rc = main(["correlations", "--nmax", "500", "--mmax", "4",
               "--mrows", "3", "--nrows", "2", "--paper-norm", "--out-dir", out])
    assert rc == 0
    assert rows_built == [3, 2]
    cfg = kg.validate_config(1.0, 0.5, 0.0)
    trunc = kg.Truncation(n_max_global=500, m_max_local=4)
    left = kg.build_block(kg.Region.LEFT, cfg, None, trunc)
    right = kg.build_block(kg.Region.RIGHT, cfg, None, trunc)
    report = kg.wick_moments(range(1, 4), range(1, 3), left, right)
    # --paper-norm divides by each side's summed spectrum over l <= --mmax
    ls, Ns = np.arange(1, 5), np.arange(1, 501)
    total_left = float(np.sum(kg.beta_sq_sums(kg.Region.LEFT, ls, Ns, cfg)))
    total_right = float(np.sum(kg.beta_sq_sums(kg.Region.RIGHT, ls, Ns, cfg)))
    summed = report.cov / math.sqrt(total_left * total_right)
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
                          "gibbs_overshoot_leakage_t=0", "commutator_tau=0.10000000000000001"}
    assert all(v > 0 for k, v in tails.items() if not k.startswith("gibbs"))
    side = _read_json(os.path.join(out, "leakage.json"))
    assert set(side["tail_bounds"]) == {"leakage_t=0", "leakage_t=0.10000000000000001",
                                        "gibbs_overshoot_leakage_t=0"}
    assert _read_json(os.path.join(out, "commutators.json"))["tail_bounds"] == tails
    # ... and never the CSVs
    for name in ("leakage.csv", "commutators.csv"):
        text = Path(out, name).read_text()
        assert "leakage_t" not in text and "commutator_tau" not in text
    # at n_max = 500 each of the three evolutions is past the tolerance
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warned) == 3 and all("tail estimate" in w for w in warned)


def test_diverge_and_rscan_products(tmp_path):
    out = str(tmp_path / "d")
    assert main(["diverge", "--nmax", "500", "--mmax", "2",
                 "--N-list", "1", "--M-list", "10,100,1000",
                 "--n-list", "100,200", "--out-dir", out]) == 0
    assert os.path.exists(os.path.join(out, "diverge.csv"))
    assert os.path.exists(os.path.join(out, "converge.csv"))

    out2 = str(tmp_path / "r")
    assert main(["rscan", "--nmax", "500", "--mmax", "2", "--kind",
                 "partition-size", "--values", "0.3,0.5", "--probes", "1:1",
                 "--M-fixed", "10", "--out-dir", out2]) == 0
    lines = Path(out2, "rscan.csv").read_text().splitlines()
    assert lines[3] == "value,n_m1,alpha_m1_N1,beta_m1_N1,sum_left_M10,sum_both_M10"
    assert len(lines) == 4 + 2


def test_identities_multi_cutoff(tmp_path):
    out = str(tmp_path / "i")
    rc = main(["identities", "--nmax", "500,1000", "--upto", "3",
               "--out-dir", out])
    assert rc == 0
    lines = Path(out, "identities.csv").read_text().splitlines()
    assert lines[3] == "n_max,max_D1,max_D2,max_D1_cross,max_D2_cross,max_residual"
    rows = [line.split(",") for line in lines[4:]]
    assert [r[0] for r in rows] == ["500", "1000"]
    assert float(rows[1][5]) < float(rows[0][5])      # residual falls with cutoff


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


def test_causality_without_times_writes_header_and_empty_plot(tmp_path):
    out = tmp_path / "cz"
    rc = main(["causality", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", "",
               "--taus", "0.1", "--svg", "--out-dir", str(out)])
    assert rc == 0
    leak = (out / "leakage.csv").read_text().splitlines()
    assert leak[3:] == ["t,cone_edge,outside_fraction"]
    assert "<polyline" not in (out / "causality.svg").read_text()
    names = [o["path"] for o in _read_json(out / "manifest.json")["outputs"]]
    assert names == ["leakage.csv", "commutators.csv", "causality.svg"]


@pytest.mark.parametrize("argv, name", [
    (["identities", "--nmax", "", "--upto", "3"], "identities.csv"),
    (["spectrum", "--nmax", "200", "--lmax", "2", "--mu-list", ""], "spectrum.csv"),
    (["causality", "--nmax", "200", "--mmax", "2", "--grid", "65", "--times", "0",
      "--taus", ""], "commutators.csv"),
], ids=["identities", "spectrum", "causality"])
def test_explicit_empty_list_flag_writes_a_header_only_table(tmp_path, argv, name):
    # an empty list is a request for no rows, not for the default ones
    out = tmp_path / "e"
    assert main(argv + ["--out-dir", str(out)]) == 0
    lines = (out / name).read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == [lines[-1]]


def test_svg_outputs_land_in_manifest(tmp_path):
    out = str(tmp_path / "s")
    rc = main(["spectrum", "--nmax", "500", "--lmax", "3", "--svg",
               "--out-dir", out])
    assert rc == 0
    man = _read_json(os.path.join(out, "manifest.json"))
    names = [o["path"] for o in man["outputs"]]
    assert "spectrum.svg" in names
    svg_entry = next(o for o in man["outputs"] if o["path"] == "spectrum.svg")
    payload = Path(out, "spectrum.svg").read_bytes()
    assert payload.startswith(b"<?xml") or payload.startswith(b"<svg")
    assert hashlib.sha256(payload).hexdigest() == svg_entry["digest"]


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


_BASE = ["--nmax", "200", "--mmax", "4", "--grid", "65"]


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
    # the later --grid of a case overrides the base one; identities takes --nmax as its list
    base = _BASE[2:] if argv[0] == "identities" else _BASE
    assert main([argv[0], *base, *argv[1:], "--out-dir", str(out)]) == 2
    assert set(_one_json_error(capsys)) == {"error", "message"}
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
    assert main([argv[0], *_BASE, *argv[1:], "--out-dir", str(out)]) == 2
    assert _one_json_error(capsys)["error"] == "DomainError"
    assert not out.exists()


def test_domain_error_reports_json_and_exit_2(tmp_path, capsys):
    rc = main(["spectrum", "--r", "1.5", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "r" in err["message"]


def test_any_library_error_reports_json_and_exit_2(tmp_path, capsys):
    for cls in (kg.DomainError, kg.GridMismatch, kg.ThresholdUnreachable, kg.DimensionError):
        assert issubclass(cls, kg.KgCavityError)
    # a one-point grid reaches the KG quadrature of the commutator, which
    # needs two points: GridMismatch, not a traceback
    rc = main(["causality", "--nmax", "50", "--mmax", "2", "--grid", "1", "--times", "",
               "--taus", "0.1", "--out-dir", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("{")]
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0]) == {"error": "GridMismatch",
                                    "message": "need at least two grid points"}


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
