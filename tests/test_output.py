"""Deterministic serialization: 17-digit CSV cells, payload digests,
sidecars and manifests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import kgcavity as kg
from kgcavity.output import RunManifest, fmt17, write_csv, write_manifest, write_sidecar


def test_fmt17_roundtrips_doubles(rng):
    for v in [0.1, 2 / 3, np.pi, 1e-300, -1.5e300, 4 / 3 - 1]:
        assert float(fmt17(v)) == v
    for v in rng.normal(size=50):
        assert float(fmt17(float(v))) == v
    assert fmt17(True) == "1" and fmt17(False) == "0"
    assert fmt17(42) == "42"
    assert fmt17("x") == "x"


def test_write_csv_payload_and_digest(tmp_path):
    path = str(tmp_path / "t.csv")
    digest = write_csv(path, ["run A"], ["l", "value"], [(1, 0.5), (2, 0.25)])
    raw = open(path, "rb").read()
    assert raw == b"# run A\nl,value\n1,0.5\n2,0.25\n"
    assert digest == hashlib.sha256(raw).hexdigest()
    # byte-identical rewrite
    digest2 = write_csv(path, ["run A"], ["l", "value"], [(1, 0.5), (2, 0.25)])
    assert digest2 == digest


def test_sidecar_schema_and_digest_match(tmp_path, cfg_half, trunc_10k):
    csv_path = str(tmp_path / "spec.csv")
    digest = write_csv(csv_path, [], ["x"], [(1.0,)])
    side = write_sidecar(csv_path, "spectrum", cfg_half, trunc_10k,
                         {"worst": 1e-9}, digest)
    assert side == str(tmp_path / "spec.json")
    doc = json.loads(open(side).read())
    assert doc["digest"] == digest
    assert doc["command"] == "spectrum"
    assert doc["config"]["r"] == 0.5 and doc["config"]["r_bar"] == 0.5
    assert doc["truncation"]["n_max_global"] == 10_000
    assert doc["tail_bounds"] == {"worst": 1e-9}
    assert doc["version"] == kg.output.VERSION


def test_manifest_lists_outputs(tmp_path, cfg_half, trunc_10k):
    man = RunManifest(
        command="spectrum",
        cfg=cfg_half,
        trunc=trunc_10k,
        outputs=[("a.csv", "d1"), ("b.csv", "d2")],
        wall_time_s=0.5,
        tail_bound_summary={"worst": 0.0},
    )
    path = write_manifest(str(tmp_path), man)
    doc = json.loads(open(path).read())
    assert doc["outputs"] == [{"path": "a.csv", "digest": "d1"},
                              {"path": "b.csv", "digest": "d2"}]
    assert doc["command"] == "spectrum"
    assert "written" in doc and "wall_time_s" in doc


class _Metres(float):
    """A float subclass: fmt17 prints it as a float, str() as its repr."""


def test_write_csv_rows_match_fmt17_join(tmp_path):
    # one %-template per tuple of cell types, byte for byte the fmt17 join
    rows = [
        (True, False, 0, -7, 10**30, np.int64(5), np.int64(-3)),
        (0.1, 2 / 3, np.float64(np.pi), float("nan"), np.nan, float("inf"), -np.inf),
        (-0.0, np.float64(-0.0), 1e-300, 5e-324, -1.5e300, 1e16, 123456789012345678.0),
        ("left", "", "a,b", 3, np.float64(0.25), True, "%d"),
        (np.int64(2), 1e-300, "right", False, -0.0, np.float64(np.nan), 7),
        (np.float32(0.1), np.int32(4), np.bool_(True), None, _Metres(0.1), 2.5),
        (),
    ]
    rows += [rows[1], tuple(reversed(rows[0])), list(rows[4])]
    path = str(tmp_path / "mixed.csv")
    digest = write_csv(path, ["mixed"], ["c"], rows)
    want = "# mixed\nc\n" + "".join(",".join(fmt17(v) for v in row) + "\n" for row in rows)
    raw = open(path, "rb").read()
    assert raw == want.encode("utf-8")
    assert digest == hashlib.sha256(raw).hexdigest()


def test_csv_cells_preserve_full_precision(tmp_path):
    vals = [0.05396354991407163, 2 / (3 * np.pi**2), 1 / 3]
    path = str(tmp_path / "p.csv")
    write_csv(path, [], ["v"], [(v,) for v in vals])
    lines = open(path).read().splitlines()[1:]
    assert [float(s) for s in lines] == vals


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert kg.__version__ == tomllib.load(fh)["project"]["version"]
