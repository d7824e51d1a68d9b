"""Deterministic serialization: 17-digit CSV cells, payload digests,
sidecars and manifests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    digest = write_csv(path, ["run A"], ["l", "value"], [[1, 2], [0.5, 0.25]])
    raw = Path(path).read_bytes()
    assert raw == b"# run A\nl,value\n1,0.5\n2,0.25\n"
    assert digest == hashlib.sha256(raw).hexdigest()
    # byte-identical rewrite
    digest2 = write_csv(path, ["run A"], ["l", "value"], [np.array([1, 2]), np.array([0.5, 0.25])])
    assert digest2 == digest


def test_sidecar_schema_and_digest_match(tmp_path, cfg_half, trunc_10k):
    csv_path = str(tmp_path / "spec.csv")
    digest = write_csv(csv_path, [], ["x"], [[1.0]])
    side = write_sidecar(csv_path, "spectrum", cfg_half, trunc_10k,
                         {"worst": 1e-9}, digest)
    assert side == str(tmp_path / "spec.json")
    doc = json.loads(Path(side).read_text())
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
    doc = json.loads(Path(path).read_text())
    assert doc["outputs"] == [{"path": "a.csv", "digest": "d1"},
                              {"path": "b.csv", "digest": "d2"}]
    assert doc["command"] == "spectrum"
    assert "written" in doc and "wall_time_s" in doc


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 1e16]
_CELLS = {
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.float64: st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    # numpy drops trailing NULs of a str array, and UTF-8 has no surrogates
    str: st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6),
}


@st.composite
def _tables(draw):
    """[(dtype, cells, as_array), ...]: columns of one length, 0 rows included;
    a column goes to write_csv as a numpy array or as a list of its cells."""
    n = draw(st.integers(0, 8))
    dtypes = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=5))
    return [(t, draw(st.lists(_CELLS[t], min_size=n, max_size=n)), draw(st.booleans()))
            for t in dtypes]


@given(table=_tables())
@example(table=[
    (np.float64, _SPECIAL_FLOATS, True),
    (np.int64, [0, -7, 2**63 - 1, -2**63, 10**16, 1, 5], False),
    (str, ["", "a,b", "%d", "left", "\u00e9", "1e16", "nan"], True),
])
def test_write_csv_rows_match_fmt17_join(tmp_path_factory, table):
    # one %-conversion per column, byte for byte the fmt17 join of every row
    path = str(tmp_path_factory.getbasetemp() / "prop.csv")
    columns = [np.array(cells, dtype=t) if as_array else cells for t, cells, as_array in table]
    names = [f"c{k}" for k in range(len(table))]
    digest = write_csv(path, ["prop"], names, columns)
    rows = zip(*(cells for _, cells, _ in table))
    want = "# prop\n" + ",".join(names) + "\n" + "".join(
        ",".join(fmt17(v) for v in row) + "\n" for row in rows)
    raw = Path(path).read_bytes()
    assert raw == want.encode("utf-8")
    assert digest == hashlib.sha256(raw).hexdigest()


def test_write_csv_header_only_and_ragged_tables(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["c"], ["a", "b"], [[], np.array([])])
    assert path.read_bytes() == b"# c\na,b\n"
    # a short column, or a header naming more columns than given, is refused,
    # and nothing is written
    for names, columns in ((["a", "b"], [np.arange(3), np.arange(2.0)]),
                           (["a", "b", "c"], [np.arange(3), np.arange(3.0)])):
        short = tmp_path / "short.csv"
        with pytest.raises(ValueError):
            write_csv(str(short), [], names, columns)
        assert not short.exists()


def test_csv_cells_preserve_full_precision(tmp_path):
    vals = [0.05396354991407163, 2 / (3 * np.pi**2), 1 / 3]
    path = str(tmp_path / "p.csv")
    write_csv(path, [], ["v"], [vals])
    lines = Path(path).read_text().splitlines()[1:]
    assert [float(s) for s in lines] == vals


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert kg.__version__ == tomllib.load(fh)["project"]["version"]
