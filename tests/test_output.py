"""Deterministic serialization: 17-digit CSV cells, payload digests,
sidecars and manifests."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kgcavity as kg
from kgcavity import output
from kgcavity.output import fmt17, write_csv, write_manifest, write_sidecar


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
    side = write_sidecar(csv_path, {"command": "spectrum", "config": asdict(cfg_half),
                                    "truncation": asdict(trunc_10k),
                                    "tail_bounds": {"worst": 1e-9}}, digest)
    assert side == str(tmp_path / "spec.json")
    doc = json.loads(Path(side).read_text())
    assert doc["digest"] == digest
    assert doc["command"] == "spectrum"
    assert doc["config"]["r"] == 0.5 and doc["config"]["r_bar"] == 0.5
    assert doc["truncation"]["n_max_global"] == 10_000
    assert doc["tail_bounds"] == {"worst": 1e-9}
    assert doc["version"] == kg.output.VERSION


def test_manifest_lists_outputs(tmp_path, cfg_half, trunc_10k):
    path = write_manifest(str(tmp_path), {"command": "spectrum", "config": asdict(cfg_half),
                                          "truncation": asdict(trunc_10k),
                                          "tail_bounds": {"worst": 0.0}},
                          [("a.csv", "d1"), ("b.csv", "d2")], 0.5)
    doc = json.loads(Path(path).read_text())
    assert doc["outputs"] == [{"path": "a.csv", "digest": "d1"},
                              {"path": "b.csv", "digest": "d2"}]
    assert doc["command"] == "spectrum"
    assert "written" in doc and "wall_time_s" in doc


def test_json_writes_non_finite_values_as_strings(tmp_path, cfg_half, trunc_10k):
    # JSON has no inf or NaN: each is written as a string, at any depth, and
    # both files parse with Infinity, -Infinity and NaN refused
    tails = {"up": float("inf"), "down": float("-inf"), "bad": float("nan"),
             "fit": {"slope": np.float64("inf"), "r2": 1.0}, "tiny": 5e-324, "neg": -0.0}
    want = {"up": "inf", "down": "-inf", "bad": "nan",
            "fit": {"slope": "inf", "r2": 1.0}, "tiny": 5e-324, "neg": -0.0}
    csv_path = str(tmp_path / "t.csv")
    digest = write_csv(csv_path, [], ["x"], [[1.0]])
    provenance = {"command": "diverge", "config": asdict(cfg_half),
                  "truncation": asdict(trunc_10k), "tail_bounds": tails}
    side = write_sidecar(csv_path, provenance, digest)
    man = write_manifest(str(tmp_path), provenance, [("t.csv", digest)], 0.5)

    def refuse(token):
        raise ValueError(token)

    for path in (side, man):
        doc = json.loads(Path(path).read_text(), parse_constant=refuse)
        assert doc["tail_bounds"] == want
        assert str(doc["tail_bounds"]["neg"]) == "-0.0"


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 1e16]
# numpy drops trailing NULs of a str array, and UTF-8 has no surrogates
_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6)
_CELLS = {
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.uint64: st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
    np.bool_: st.booleans(),
    np.float32: st.floats(width=32),
    np.float64: st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    # an interior NUL is printed as is
    str: st.one_of(_TEXT, st.builds(lambda a, b: f"{a}\x00{b}", _TEXT, _TEXT.filter(bool))),
}


@st.composite
def _tables(draw):
    """[(dtype, cells, as_array), ...]: columns of one length, 0 rows included;
    a column goes to write_csv as a numpy array or as a list of its cells."""
    n = draw(st.integers(0, 8))
    dtypes = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=5))
    return [(t, draw(st.lists(_CELLS[t], min_size=n, max_size=n)), draw(st.booleans()))
            for t in dtypes]


def _fmt17_rows(columns) -> bytes:
    """The oracle: every row as the ',' join of its cells' fmt17."""
    return "".join(",".join(fmt17(v) for v in row) + "\n" for row in zip(*columns)).encode("utf-8")


@given(table=_tables())
@example(table=[
    (np.float64, _SPECIAL_FLOATS, True),
    (np.int64, [0, -7, 2**63 - 1, -2**63, 10**16, 1, 5], False),
    (str, ["", "a,b", "%d", "left", "\u00e9", "1e16", "nan"], True),
])
@example(table=[
    (np.uint64, [0, 2**63, 2**64 - 1, 10**19, 9, 10, 2**63 - 1], True),
    (np.bool_, [True, False, True, True, False, False, True], True),
    (np.float32, [0.10000000149011612, -3.4028234663852886e38, 1.401298464324817e-45,
                  -0.0, 1.5, 65504.0, float("nan")], True),
    (str, ["a\x00b", "\x00c", "", "d", "é\x00é", "x", "y"], False),
])
@example(table=[(np.int64, [2**53, -2**53, 2**53 - 1, 1 - 2**53, 0, -7, 10**15], True),
                 (np.float64, [0.1, -0.0, 1e16, 2.0**53, 5.0, -1.5, 1e300], True)])
# one int outside +-2**53 per table: each sends the table to the row template
@example(table=[(np.int64, [2**53 + 1], True), (np.float64, [2.0**53], True)])
@example(table=[(np.int64, [-2**53 - 1], True), (np.float64, [-2.0**53], True)])
@example(table=[(np.int64, [2**63 - 1], True), (np.float64, [0.5], True)])
@example(table=[(np.int64, [-2**63], True), (np.float64, [0.5], True)])
def test_write_csv_rows_match_fmt17_join(tmp_path_factory, table):
    # one %-conversion per column, byte for byte the fmt17 join of every
    # row, from the row template and, with no size floor, the column encoder
    path = str(tmp_path_factory.getbasetemp() / "prop.csv")
    columns = [np.array(cells, dtype=t) if as_array else cells for t, cells, as_array in table]
    names = [f"c{k}" for k in range(len(table))]
    want = b"# prop\n" + ",".join(names).encode() + b"\n" + _fmt17_rows(
        [cells for _, cells, _ in table])
    for floor in (output._ENCODE_MIN_CELLS, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(output, "_ENCODE_MIN_CELLS", floor)
            digest = write_csv(path, ["prop"], names, columns)
        raw = Path(path).read_bytes()
        assert raw == want
        assert digest == hashlib.sha256(raw).hexdigest()


def test_write_csv_prints_a_list_of_large_ints_as_ints(tmp_path):
    # np.asarray makes these lists float64 or object; each int cell is
    # still its own %d, and a float among them its own %.17g
    path = tmp_path / "t.csv"
    write_csv(str(path), [], ["a", "b"], [[2**64 - 1, 1], [-1, 2**63]])
    assert path.read_bytes() == b"a,b\n18446744073709551615,-1\n1,9223372036854775808\n"
    write_csv(str(path), [], ["a", "b"], [[2**64 - 1, 0.5], [2**70, 0.1]])
    assert path.read_bytes() == (b"a,b\n18446744073709551615,1180591620717411303424\n"
                                 b"0.5,0.10000000000000001\n")
    # numpy makes this list str; each cell is still its own fmt17
    write_csv(str(path), [], ["a"], [["x", 0.1, True]])
    assert path.read_bytes() == b"a\nx\n0.10000000000000001\n1\n"


def test_write_csv_bool_uint_and_str_tables_keep_the_template(tmp_path, rng, monkeypatch):
    # above the floor, but a bool, a uint64 or a str column, or an int64
    # column with one cell outside +-2**53, sends the whole table to the row
    # template, which prints the fmt17 join
    n = output._ENCODE_MIN_CELLS + 5
    wide = rng.integers(-2**53, 2**53 + 1, n, dtype=np.int64)
    wide[n // 2] = 2**53 + 1
    columns = [rng.random(n) < 0.5, rng.integers(0, 2**64, n, dtype=np.uint64),
               np.array([f"s{k},\u00e9" for k in range(n)]), wide, rng.normal(size=n),
               rng.integers(-2**53, 2**53 + 1, n, dtype=np.int64)]

    def refuse(*args):
        raise AssertionError("the column encoder was called")

    monkeypatch.setattr(output, "_encoded_rows", refuse)
    path = tmp_path / "t.csv"
    for k in range(4):
        table = columns[k:k + 1] + columns[4:]
        digest = write_csv(str(path), [], ["x", "f", "i"], table)
        want = b"x,f,i\n" + _fmt17_rows([c.tolist() for c in table])
        assert path.read_bytes() == want
        assert digest == hashlib.sha256(want).hexdigest()


def _edge_floats() -> np.ndarray:
    """Hand-built cells at every rule of %.17g and of the encoder."""
    switches = [1e-5, 1e-4, 1e16, 1e17]
    near = [np.nextafter(v, d) for v in switches for d in (0.0, np.inf)]
    edges = [
        1234567890123456.75, 1234567890123456.25,   # exact ties: ...456.8, ...456.2
        1e-14, 1e-79, 1e98,                         # the 17th digit carries to 10**k
        *switches, *near,
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        float("inf"), float("-inf"), float("nan"),
        3 * 2.0**-24, 5 * 2.0**-24,                 # ties of an inexact 10**k
        1e-280, 1e280, -1.7976931348623157e308, 0.5, 1.0, 100.0,
    ]
    return np.array(edges + [-v for v in edges])


def test_write_csv_encoder_is_exact_across_chunks(tmp_path, rng, monkeypatch):
    # three chunks and a remainder of random bit patterns, normals scaled
    # over 10**+-30, the edges and ints within +-2**53 (the bounds
    # included), each column against the fmt17 join; a chunk holds
    # _CHUNK_CELLS cells of the four columns
    n = 3 * (output._CHUNK_CELLS // 4) + 123
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, n)
    edges = np.resize(_edge_floats(), n)
    ints = rng.integers(-2**53, 2**53 + 1, n, dtype=np.int64)
    ints[:4] = [2**53, -2**53, 2**53 - 1, 1 - 2**53]
    columns = [bits, scaled, edges, ints]
    encode, encoded = output._encoded_rows, []

    def spy(cols, n_rows):
        encoded.append(n_rows)
        return encode(cols, n_rows)

    monkeypatch.setattr(output, "_encoded_rows", spy)
    path = tmp_path / "t.csv"
    digest = write_csv(str(path), [], ["bits", "scaled", "edges", "ints"], columns)
    want = b"bits,scaled,edges,ints\n" + _fmt17_rows([c.tolist() for c in columns])
    assert encoded == [n]
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def test_write_csv_fast_path_formats_almost_every_float(tmp_path, rng, monkeypatch):
    # the encoder certifies its own digits: of 10**5 normals scaled over
    # 10**+-20, at most 10 cells go to fmt17
    x = rng.normal(size=100_000) * 10.0 ** rng.uniform(-20, 20, 100_000)
    want = b"x\n" + _fmt17_rows([x.tolist()])
    calls = []

    def counted(v):
        calls.append(v)
        return fmt17(v)

    monkeypatch.setattr(output, "fmt17", counted)
    path = tmp_path / "t.csv"
    write_csv(str(path), [], ["x"], [x])
    assert path.read_bytes() == want
    assert len(calls) <= 10


def test_group_table_spells_every_four_digit_group():
    # each group g as its %04d text read as a little-endian word, and the
    # zeros that text ends in
    word, zeros = output._groups()
    texts = [f"{g:04d}" for g in range(10_000)]
    assert word.dtype == np.uint64 and word.shape == zeros.shape == (10_000,)
    assert word.tolist() == [int.from_bytes(t.encode(), "little") for t in texts]
    assert zeros.tolist() == [len(t) - len(t.rstrip("0")) for t in texts]


def _layout_and_count(text: str) -> tuple[str, int]:
    """The layout of a %.17g text and how many significant digits it prints."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    layout = ("exponent-" if exponent.startswith("-") else "exponent+" if exponent
              else "0.000d" if mantissa.startswith("0.") else "d.ddd" if "." in mantissa
              else "integer")
    return layout, len(mantissa.replace(".", "").strip("0"))


def test_write_csv_encoder_prints_every_digit_count_in_every_layout(tmp_path, rng, monkeypatch):
    # a 17-digit significand ending in 0 is a group boundary that random
    # cells rarely reach: here each layout prints every count of significant
    # digits it can (a point needs at least 2), found among short decimals
    # at decimal exponents X, with both signs, across a chunk boundary, as
    # floats and, up to 2**53, as ints
    exponents = [-300, -100, -17, -5, -4, -3, -2, -1, *range(17), 17, 22, 23, 100, 279]
    cells = []
    for X in exponents:
        for k in range(1, 18):
            for _ in range(200):
                digits = int(rng.integers(10**(k - 1), 10**k)) // 10 * 10 + int(rng.integers(1, 10))
                x = float(f"{digits}e{X - k + 1}")
                if _layout_and_count(fmt17(x))[1] == k:
                    cells.append(x)
                    break
    found = {_layout_and_count(fmt17(x)) for x in cells}
    for layout in ("exponent-", "0.000d", "d.ddd", "integer", "exponent+"):
        counts = {k for lay, k in found if lay == layout}
        assert counts == set(range(2 if layout == "d.ddd" else 1, 18)), layout
    x = np.resize(np.concatenate([cells, np.negative(cells)]), output._CHUNK_CELLS + 123)
    ints = np.array([v for v in cells if v.is_integer() and v <= 2**53], np.int64)
    ints = np.resize(np.concatenate([ints, -ints, [2**53, -2**53]]), len(x))
    assert {_layout_and_count(str(v))[1] for v in ints} == set(range(1, 17))
    encode, encoded = output._encoded_rows, []

    def spy(cols, n_rows):
        encoded.append(n_rows)
        return encode(cols, n_rows)

    monkeypatch.setattr(output, "_ENCODE_MIN_CELLS", 0)
    monkeypatch.setattr(output, "_encoded_rows", spy)
    path = tmp_path / "t.csv"
    write_csv(str(path), [], ["x", "i"], [x, ints])
    assert encoded == [len(x)]
    assert path.read_bytes() == b"x,i\n" + _fmt17_rows([x.tolist(), ints.tolist()])


def _slot_mask(first: int, pred, value: int = output._PAD) -> np.ndarray:
    """A word whose byte j holds slot first + j, by code c = 19 q + L:
    ``value`` in the bytes of the body slots 0..17 with pred(slot, q, L),
    built one slot at a time."""
    return np.array([sum(value << 8 * j for j in range(8)
                         if 0 <= first + j < 18 and pred(first + j, *divmod(c, 19)))
                     for c in range(18 * 19)], np.uint64)


def test_body_masks_match_a_per_slot_reference():
    masks = output._body_masks()
    assert len(masks) == 3
    for first, (moved, kept, fixed) in zip((-6, 2, 10), masks):
        want = (_slot_mask(first, lambda s, q, L: 1 <= s < q),
                _slot_mask(first, lambda s, q, L: s == 0 or s > q),
                _slot_mask(first, lambda s, q, L: s == q, ord("."))
                | _slot_mask(first, lambda s, q, L: s >= L))
        for got, ref in zip((moved, kept, fixed), want):
            assert got.dtype == np.uint64 and got.shape == (18 * 19,)
            assert np.array_equal(got, ref)


def test_write_csv_header_only_and_ragged_tables(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["c"], ["a", "b"], [[], np.array([])])
    assert path.read_bytes() == b"# c\na,b\n"
    # no columns: an empty header line
    digest = write_csv(str(path), ["c"], [], [])
    assert path.read_bytes() == b"# c\n\n"
    assert digest == hashlib.sha256(b"# c\n\n").hexdigest()
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
