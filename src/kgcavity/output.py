"""Deterministic CSV/JSON writers and the per-run manifest.

CSV is the numeric contract: a table is a list of columns, each printed in
the one format of its dtype (17-significant-digit decimals for floats), in
fixed column order, with fixed '\n' newlines and metadata only in
'#'-prefixed header lines — identical inputs produce byte-identical
payloads. Every CSV gets a JSON sidecar carrying the configuration,
truncation, tail-bound summary and the payload digest; a run-level manifest
lists all outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict

import numpy as np

from .config import CavityConfig, Truncation

VERSION = "0.1.0"

__all__ = ["VERSION", "fmt17", "write_csv", "write_sidecar", "write_manifest"]


def fmt17(v) -> str:
    """One CSV cell: shortest-faithful decimal for floats, plain for the rest."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# the %-conversion of a column, by its dtype kind; every other kind is "%s"
_KIND_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


def write_csv(path: str, comments: list[str], names: list[str], columns) -> str:
    """Write '#'-commented CSV; returns the sha256 hex digest of the payload.

    ``columns`` parallels ``names``: one array-like per column, all of one
    length (a ValueError otherwise). Each column is printed by the one
    %-conversion of its dtype kind, byte for byte what ``fmt17`` gives
    each of its cells.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} names for {len(columns)} columns")
    cols = [np.asarray(c) for c in columns]
    template = ",".join(_KIND_FORMATS.get(c.dtype.kind, "%s") for c in cols)
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(names))
    lines.extend(map(template.__mod__, zip(*(c.tolist() for c in cols), strict=True)))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    return hashlib.sha256(payload).hexdigest()


def _write_json(path: str, doc: dict) -> None:
    """``doc`` as JSON, which has no inf or NaN: a round trip writes each as
    the string "inf", "-inf" or "nan", and ``allow_nan=False`` refuses any left."""
    safe = json.loads(json.dumps(doc), parse_constant=lambda token: str(float(token)))
    text = json.dumps(safe, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _provenance(command: str, cfg: CavityConfig, trunc: Truncation, tail_bounds) -> dict:
    """The keys a sidecar and the manifest share: what ran, under which knobs."""
    return {
        "command": command,
        "config": asdict(cfg),
        "truncation": asdict(trunc),
        "tail_bounds": tail_bounds,
        "version": VERSION,
    }


def write_sidecar(
    csv_path: str,
    command: str,
    cfg: CavityConfig,
    trunc: Truncation,
    tail_bounds,
    digest: str,
) -> str:
    """JSON sidecar next to a CSV; returns the sidecar path."""
    sidecar = os.path.splitext(csv_path)[0] + ".json"
    _write_json(sidecar, {**_provenance(command, cfg, trunc, tail_bounds), "digest": digest})
    return sidecar


def write_manifest(
    out_dir: str,
    command: str,
    cfg: CavityConfig,
    trunc: Truncation,
    outputs,
    wall_time_s: float,
    tail_bounds,
) -> str:
    """``manifest.json`` in ``out_dir``: what one CLI invocation produced,
    ``outputs`` as (path, digest) pairs, and under which knobs; returns its path."""
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, {
        **_provenance(command, cfg, trunc, tail_bounds),
        "outputs": [{"path": p, "digest": d} for p, d in outputs],
        "wall_time_s": wall_time_s,
        "written": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    })
    return path
