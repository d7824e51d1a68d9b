"""Deterministic CSV/JSON writers, the per-run manifest, and ``write_run``,
the one writer of a run's products: no other module creates, renames or
removes a file under ``--out-dir``.

CSV is the numeric contract: a table is a list of columns, each printed in
the one format of its dtype (17-significant-digit decimals for floats), in
fixed column order, with fixed '\n' newlines and metadata only in
'#'-prefixed header lines — identical inputs produce byte-identical
payloads. Every CSV gets a JSON sidecar and every run a manifest listing
all outputs. Both carry the caller's provenance record (what ran, at which
configuration and cutoffs, with which tail bounds) and the package version;
a sidecar adds its CSV's payload digest.

A table of fewer than ``_ENCODE_MIN_CELLS`` cells is printed one
%-template per row, and so is every table with a column of another dtype
(bool, unsigned, str, object; an object column's cells go through ``fmt17``
one by one) or with a signed integer outside [-2**53, 2**53]. A larger one
whose columns are all 1-D floats of at most 64 bits or signed integers
within +-2**53 goes through the column encoder, which reads every cell as
a double (exact for each of them) and prints it in four 8-byte words, byte
for byte as ``fmt17`` does; its digits, and how many of them are printed,
are read from one table of the four-digit groups 0000..9999. An integer
of at most 2**53 has at most 16 digits, so its %.17g text has no point and
no exponent: it is its %d text. A cell x is printed from the correctly
rounded 17-digit significand D of |x| 10**(16-e), with e the decimal
exponent, and that product is computed so that its rounding can be
certified:

- 10**k comes from a table built on first use as hi + lo, hi the double
  nearest 10**k and lo the double nearest 10**k - hi. Since
  |lo| <= 2**-53 hi and lo is rounded once, |hi + lo - 10**k| <= 2**-106 hi.
- Dekker's two-product gives |x| hi exactly as ph + pl; ph >= 1e16 is an
  integer, and the fraction is t = pl + |x| lo. With the product p below
  2**57, |x lo| < 2**4 and |t| < 2**5, so t is off the exact p - ph by at
  most 2**-49 (the table) + 2**-49 (rounding |x| lo) + 2**-48 (rounding the
  sum) = 2**-47.
- D is accepted when the fraction lies more than 2**-30 from a rounding
  tie, far outside that error, so it rounds as the exact product does.
  Where lo is 0 (10**k is a double, 0 <= k <= 22) t is exact, and an exact
  tie rounds half to even, as %.17g does.
- The fast path takes 1e-280 < |x| < 1e280, where every partial product is
  a normal double; zeros are exact. Every other cell (nan, inf, a
  subnormal, a near tie of an inexact product) is printed by ``fmt17``.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import hashlib
import json
import logging
import os
import time

import numpy as np

from .config import DomainError

VERSION = "0.1.0"

__all__ = ["VERSION", "fmt17", "write_csv", "write_sidecar", "write_manifest", "write_run"]

log = logging.getLogger("kgcavity")


def fmt17(v) -> str:
    """One CSV cell: a float as %.17g (17 significant digits, so it reads
    back exactly), an int or bool as %d, anything else as str."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# the %-conversion of a column, by its dtype kind; every other kind is "%s"
_KIND_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}

# Tables of at least this many cells go through the column encoder, whose
# fixed cost is per call; below it, one %-template per row is faster
# (break-even near 500-700 on 2 vCPU).
_ENCODE_MIN_CELLS = 768
# A chunk of rows holds at most this many cells, so that the encoder's
# working arrays (32 KiB each) stay in cache: at twice as many, a cell took
# about 2.4 times as long on 2 vCPU.
_CHUNK_CELLS = 4096


def write_csv(path: str, comments: list[str], names: list[str], columns) -> str:
    """Write '#'-commented CSV; returns the sha256 hex digest of the payload.

    ``columns`` parallels ``names``: one array-like per column, all of one
    length (a ValueError otherwise). Each column is printed by the one
    %-conversion of its dtype kind, byte for byte what ``fmt17`` gives
    each of its cells; an object column is printed by ``fmt17`` itself,
    cell by cell. Tables of at least ``_ENCODE_MIN_CELLS`` cells, whose
    columns are all 1-D floats of at most 64 bits or signed integers
    within +-2**53, are printed by the column encoder, in chunks of rows.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} names for {len(columns)} columns")
    cols = [_column(c) for c in columns]
    head = ("".join(f"# {c}\n" for c in comments) + ",".join(names) + "\n").encode("utf-8")
    n_rows = len(cols[0]) if cols and cols[0].ndim == 1 else 0
    if (not cols or n_rows * len(cols) < _ENCODE_MIN_CELLS
            or any(c.shape != (n_rows,) or not _encodable(c) for c in cols)):
        template = ",".join(_KIND_FORMATS.get(c.dtype.kind, "%s") for c in cols)
        cells = [list(map(fmt17, c.tolist())) if c.dtype.kind == "O" else c.tolist()
                 for c in cols]
        rows = map(template.__mod__, zip(*cells, strict=True))
        # formatted before the file opens: a ragged table or a str that is
        # not UTF-8 raises here and leaves nothing written
        chunks = ["".join(row + "\n" for row in rows).encode("utf-8")]
    else:
        chunks = _encoded_rows(cols, n_rows)
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _column(c) -> np.ndarray:
    """``c`` as an array. A list that numpy would store in a dtype kind
    other than its cells' own (cells of mixed types, made one str, float64
    or object column; ints on both sides of int64's range, made float64)
    becomes an object column, so every cell keeps its own ``fmt17``."""
    col = np.asarray(c)
    if not isinstance(c, np.ndarray) and {np.asarray(v).dtype.kind for v in c} - {col.dtype.kind}:
        return np.asarray(c, dtype=object)
    return col


# ── the column encoder ───────────────────────────────────────────────────────
#
# A cell and its separator fill four 8-byte words, little-endian, so byte j
# of a word is bits 8j..8j+7. A slot the cell does not print holds _PAD; one
# bytes.translate per chunk deletes every pad. The words are built with
# whole-column integer arithmetic and tables read by index (take). A
# significand's digits after the first are four groups of four, and one
# table of the groups 0000..9999 gives each its ASCII word and its trailing
# zeros, so both the digits and how many of them are printed are read, not
# computed. Only a cell off the fast path is formatted on its own, by fmt17.

_PAD = 0xFF             # no ASCII byte is 0xFF


def _encodable(col: np.ndarray) -> bool:
    """True for the columns the encoder prints, each cell exact as a
    double: floats of at most 8 bytes, and signed integers within +-2**53."""
    if col.dtype.kind == "f":
        return col.dtype.itemsize <= 8
    return col.dtype.kind == "i" and -2**53 <= col.min(initial=0) and col.max(initial=0) <= 2**53


def _encoded_rows(cols: list[np.ndarray], n_rows: int):
    """The table's rows as bytes, one chunk of rows at a time, each chunk's
    cells read as one float64 array. The top byte of a cell's last word is
    a pad, where its separator goes."""
    seps = np.full(len(cols), (_PAD ^ ord(",")) << 56, np.uint64)
    seps[-1] = (_PAD ^ ord("\n")) << 56
    step = max(1, _CHUNK_CELLS // len(cols))
    part = np.empty((min(step, n_rows), len(cols)))
    for lo in range(0, n_rows, step):
        n = min(step, n_rows - lo)
        for j, c in enumerate(cols):
            part[:n, j] = c[lo:lo + n]
        words = _float_words(part[:n].ravel()).reshape(n, len(cols), 4)
        words[:, :, 3] ^= seps
        yield words.tobytes().translate(None, b"\xff")


# ── doubles: sign, "0.000" lead, 18 digit-or-point slots, "e+XXX", 3 pads ──

_X_MIN, _X_MAX = -300, 300          # decimal exponents the layout tables cover
_K_MIN, _K_MAX = -270, 300          # powers of ten the scale table covers
_SPLIT = 134217729.0                # 2**27 + 1, Veltkamp's split of a double


def _powers_of_ten():
    """10**k for k in [_K_MIN, _K_MAX] as hi + lo (hi correctly rounded, lo
    the rounded remainder), with hi's Veltkamp halves."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi.append(num / den)        # an int / int quotient is correctly rounded
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh


def _layouts():
    """Per decimal exponent X in [_X_MIN, _X_MAX] of a cell: its first word
    (pad, then the "0." lead of -4 <= X < 0, bytes 6-7 left 0), its last
    word (the "e+XX" suffix of X < -4 or X >= 17, pads), the point
    position q among the 18 digit-or-point slots and kint, the digits
    %.17g prints whatever their value."""
    first, last, q, kint = [], [], [], []
    for X in range(_X_MIN, _X_MAX + 1):
        fixed = -4 <= X < 17
        lead = b"0." + b"0" * (-X - 1) if fixed and X < 0 else b""
        suffix = b"" if fixed else f"e{X:+03d}".encode()
        first.append(int.from_bytes(b"\xff" + lead.ljust(5, b"\xff") + b"\0\0", "little"))
        last.append(int.from_bytes(suffix.ljust(8, b"\xff"), "little"))
        q.append(X + 1 if 0 <= X < 17 else 17 if fixed else 1)
        kint.append(X + 1 if 0 <= X < 17 else 1)
    return (np.array(first, np.uint64), np.array(last, np.uint64),
            np.array(q, np.intp), np.array(kint, np.intp))


def _body_masks():
    """Per word of the 18 body slots (slots 0-1 in bytes 6-7 of word 0,
    2-9 in word 1, 10-17 in word 2), by the code 19 q + L of the point
    position q and the printed slot count L: the slots 1..q-1 (a digit
    moved one slot down), the slots 0 and q+1.. (a digit in place), and
    the point at q with pads over the slots L..17. Each is a uint64 array
    over the 18 * 19 codes, whose byte j holds its value where byte j's
    slot s is one of them."""
    q, L = np.divmod(np.arange(18 * 19)[:, None], 19)
    shifts = 8 * np.arange(8, dtype=np.uint64)

    def mask(on, value=_PAD):
        return np.bitwise_or.reduce(np.where(on, np.uint64(value) << shifts, np.uint64(0)), axis=1)

    masks = []
    for first in (-6, 2, 10):
        s = first + np.arange(8)
        slot = (0 <= s) & (s < 18)
        masks.append((mask(slot & (1 <= s) & (s < q)),
                      mask(slot & ((s == 0) | (s > q))),
                      mask(slot & (s == q), ord(".")) | mask(slot & (s >= L))))
    return masks


def _groups():
    """Per four-digit group g in 0000..9999: its ASCII word, the first digit
    in the lowest byte, and its trailing zeros (4 for 0000)."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    word = (digit[:, None, None, None] | digit[:, None, None] << 8 | digit[:, None] << 16
            | digit << 24)
    g = np.arange(10_000)
    # zeros as uint8: as int64 the encoder took about 10 % longer on 2 vCPU
    return word.ravel(), sum(g % 10**k == 0 for k in range(1, 5)).astype(np.uint8)


@functools.cache
def _float_tables():
    return _powers_of_ten(), _layouts(), _body_masks(), _groups()


def _significands(w: np.ndarray, e: np.ndarray):
    """(d, sure, below): the 17-digit round-half-even significand d of
    p = w * 10**(16 - e), whether d is certain, and whether p < 1e16.

    p is the double ph plus the small double t: Dekker's two-product gives
    w * hi exactly as ph + pl, and w * lo is added to pl. ph >= 1e16 is an
    integer, so d rounds t alone. Where lo is 0 (10**k is a double) p is
    exact and so is a tie; otherwise d is certain only more than 2**-30
    from a tie.
    """
    (hi, lo, hh, hl), *_ = _float_tables()
    i = 16 - e - _K_MIN
    h, l, a, b = hi.take(i), lo.take(i), hh.take(i), hl.take(i)
    ph = w * h
    c = _SPLIT * w
    wh = c - (c - w)
    wl = w - wh
    t = (((wh * a - ph) + wh * b + wl * a) + wl * b) + w * l
    below = (ph - 1e16) + t < 0     # ph - 1e16 is exact, and 0 or >= 2 apart
    whole = np.floor(t)
    frac = t - whole
    d = np.maximum(ph, 1e16).astype(np.int64) + whole.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & ((d & 1) == 1))
    sure = ~below & ((l == 0.0) | (np.abs(frac - 0.5) > 2.0**-30))
    return d, sure, below


def _float_words(x: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 ``%.17g`` cells of a float64 array."""
    _, (first, last, q_of, kint_of), body_masks, (group, zeros) = _float_tables()
    ax = np.abs(x)
    fast = (ax > 1e-280) & (ax < 1e280)
    w = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(w)).astype(np.intp)
    d, sure, below = _significands(w, e)
    # a first guess of the exponent is off by at most one: scale again
    redo = np.flatnonzero(below | (d > 10**17))
    if len(redo):
        e[redo] += np.where(below[redo], -1, 1)
        d[redo], sure[redo], below[redo] = _significands(w[redo], e[redo])
        sure[redo] &= ~below[redo] & (d[redo] <= 10**17)
    # rounding up to 10**17 carries into the exponent
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    # a zero, and every other cell off the fast path, has e = 0 (w = 1)
    zero = ax == 0.0
    d[zero] = 0
    fallback = np.flatnonzero(~(fast & sure) & ~zero)
    X = e - _X_MIN
    # the digits: d0, then the four-digit groups g1..g4, two to a word
    halves = np.empty((2, len(x)), np.int64)
    np.floor_divide(d, 10**8, out=halves[0])
    np.subtract(d, halves[0] * 10**8, out=halves[1])
    d0 = halves[0] // 10**8
    halves[0] -= d0 * 10**8
    g1, g3 = tops = halves // 10**4
    g2, g4 = halves - tops * 10**4
    A = group.take(g1) | group.take(g2) << 32
    B = group.take(g3) | group.take(g4) << 32
    # K digits are printed: through the last nonzero one, and at least kint
    z1, z2, z3, z4 = (zeros.take(g) for g in (g1, g2, g3, g4))
    tz = z4 + (g4 == 0) * (z3 + (g3 == 0) * (z2 + (g2 == 0) * z1))
    K = np.maximum(17 - tz, kint_of.take(X))
    q = q_of.take(X)
    # slot s < q holds digit s, slot q the point, slot s > q digit s - 1
    code = 19 * q + K + (K > q)     # a point is printed with a digit after it
    out = np.empty((len(x), 4), np.uint64)
    words = ((d0.astype(np.uint64) + ord("0")) << 48, A, B)
    moved = ((A & 0xFF) << 56, (A >> 8) | (B << 56), B >> 8)
    for k, (word, shifted, (m_moved, m_kept, m_fixed)) in enumerate(zip(words, moved, body_masks)):
        out[:, k] = ((shifted & m_moved.take(code)) | (word & m_kept.take(code))
                     | m_fixed.take(code))
    out[:, 0] = (out[:, 0] | first.take(X)) & ~(np.signbit(x) * np.uint64(0xD2))
    out[:, 3] = last.take(X)
    if len(fallback):
        # fmt17's text (at most 24 bytes) NUL-padded to 32, the NULs made pads
        text = np.array([fmt17(v) for v in x[fallback].tolist()], "S32").view(np.uint8)
        text[text == 0] = _PAD
        out[fallback] = text.view(np.uint64).reshape(-1, 4)
    return out


def _write_json(path: str, doc: dict) -> None:
    """``doc`` as JSON, which has no inf or NaN: a round trip writes each as
    the string "inf", "-inf" or "nan", and ``allow_nan=False`` refuses any left."""
    safe = json.loads(json.dumps(doc), parse_constant=lambda token: str(float(token)))
    text = json.dumps(safe, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_sidecar(csv_path: str, provenance: dict, digest: str) -> str:
    """JSON sidecar next to a CSV: ``provenance``, the package version and
    the payload digest; returns the sidecar path."""
    sidecar = os.path.splitext(csv_path)[0] + ".json"
    _write_json(sidecar, {**provenance, "digest": digest, "version": VERSION})
    return sidecar


def write_manifest(out_dir: str, provenance: dict, outputs, wall_time_s: float) -> str:
    """``manifest.json`` in ``out_dir``: what one CLI invocation produced,
    ``outputs`` as (path, digest) pairs, with ``provenance`` and the
    package version; returns its path."""
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, {
        **provenance,
        "outputs": [{"path": p, "digest": d} for p, d in outputs],
        "version": VERSION,
        "wall_time_s": wall_time_s,
        "written": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    })
    return path


def write_run(out_dir: str, tables, svgs, record: dict, counters: dict, t0: float) -> None:
    """Write one run's products into ``out_dir``, creating it (a DomainError
    naming it where it cannot).

    ``tables`` holds (name, comments, names, columns) per CSV, each written
    by ``write_csv`` with its sidecar; ``svgs`` holds (name, text) per SVG,
    whose digest is that of the bytes written. Each goes under a temporary
    name in ``out_dir``, in the order given, and only once all are written
    is each renamed into place; the manifest, which alone adds
    ``counters`` (when there are any) to ``record``, comes last, with the
    wall time since ``t0``. A product that cannot be written or renamed is
    a DomainError naming it, and the run leaves nothing behind, not even a
    directory it created: it removes what it placed and puts back the
    earlier files its products replaced. No other file in ``out_dir`` is
    touched.
    """
    created = not os.path.exists(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"{out_dir}: cannot create directory ({type(exc).__name__})") from exc
    # the products are written under this prefix, then renamed into place
    tag = os.path.join(out_dir, f".kgcavity-{os.getpid()}-")
    outputs, staged, placed, kept, name = [], [], [], [], ""

    def set_aside(name):
        # an earlier file of the name is kept until the run has succeeded
        if os.path.isfile(os.path.join(out_dir, name)):
            os.replace(os.path.join(out_dir, name), f"{tag}~{name}")
            kept.append(name)

    try:
        for name, comments, names, columns in tables:
            digest = write_csv(tag + name, comments, names, columns)
            staged += [name, write_sidecar(tag + name, record, digest)[len(tag):]]
            outputs.append((name, digest))
        for name, text in svgs:
            data = text.encode("utf-8")
            with open(tag + name, "wb") as fh:
                fh.write(data)
            staged.append(name)
            outputs.append((name, hashlib.sha256(data).hexdigest()))
        for name in staged:
            set_aside(name)
            os.replace(tag + name, os.path.join(out_dir, name))
            placed.append(name)
        name = "manifest.json"
        set_aside(name)
        placed.append(name)
        write_manifest(out_dir, {**record, "counters": counters} if counters else record,
                       outputs, time.perf_counter() - t0)
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


def _quietly(step, *paths) -> None:
    """``step(*paths)`` while undoing a failed run: an OSError (a path that
    is gone or cannot be removed) stops no other step."""
    with contextlib.suppress(OSError):
        step(*paths)
