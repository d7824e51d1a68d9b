"""Byte-compare the products of the benchmark's catalog ops on two trees.

    python tools/catalog_diff.py PARENT_ROOT [CHANGE_ROOT]

Runs each distinct ``ok`` CLI op of ``perfbench/workloads.CATALOGS`` (read
from CHANGE_ROOT, which defaults to the tree holding this script) once per
tree, each tree in its own subprocess that imports ``kgcavity`` from that
tree's ``src``, at the BLAS thread count of ``perfbench/run.py`` and without
the coefficient cache. Then it compares every CSV and SVG the two trees
wrote, byte for byte. For each CSV that moved it prints, per moved column,
how many cells moved and the largest relative change |a - b| / max(|a|, |b|)
of its numeric cells. Exits 1 on any difference, missing product or failed
op, and 0 when every product is identical. Uses only the standard library
and numpy, and writes only to a temporary directory, which it removes.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# Run inside each tree's subprocess: argv = root, op list (JSON), out dir.
CHILD = """
import json, os, sys
root, ops_file, out = sys.argv[1:]
sys.path.insert(0, os.path.join(root, "src"))
from kgcavity import cli
with open(ops_file) as fh:
    ops = json.load(fh)
failed = []
for k, argv in enumerate(ops):
    try:
        rc = cli.main(argv + ["--out-dir", os.path.join(out, f"op{k}")])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:
        rc = repr(exc)
    if rc != 0:
        failed.append([k, str(rc)])
with open(os.path.join(out, "failed.json"), "w") as fh:
    json.dump(failed, fh)
"""


def catalog_ops(root: str) -> list[list[str]]:
    """The distinct ``ok`` CLI ops of every workload catalog, in catalog order."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    ops = {}
    for catalog in workloads.CATALOGS.values():
        for op in catalog:
            if op.is_cli and op.expect == "ok":
                ops.setdefault(op.key, list(op.argv))
    return list(ops.values())


def run_tree(root: str, ops_file: str, out: str) -> list:
    """Run the ops on one tree; the [index, exit code] of each failed op."""
    os.makedirs(out)
    env = dict(os.environ)
    env.pop("CAVITY_CACHE_DIR", None)
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    with open(os.path.join(out, "stderr.txt"), "w") as err:
        proc = subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(root), ops_file, out],
                              env=env, stdout=err, stderr=err, cwd=out)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: the op runner exited {proc.returncode}; see its stderr")
    with open(os.path.join(out, "failed.json")) as fh:
        return json.load(fh)


def products(op_dir: str) -> set[str]:
    """Paths, relative to ``op_dir``, of every CSV and SVG below it."""
    found = set()
    for dirpath, _, names in os.walk(op_dir):
        for name in names:
            if name.endswith((".csv", ".svg")):
                found.add(os.path.relpath(os.path.join(dirpath, name), op_dir))
    return found


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """(column names, rows) of a CSV product, its '#' header lines skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return (rows[0], rows[1:]) if rows else ([], [])


def column_changes(a_path: str, b_path: str) -> list[str]:
    """One line per moved column: cells moved and the largest relative change."""
    names_a, rows_a = read_table(a_path)
    names_b, rows_b = read_table(b_path)
    if names_a != names_b or len(rows_a) != len(rows_b):
        return [f"columns {names_a} -> {names_b}, rows {len(rows_a)} -> {len(rows_b)}"]
    lines = []
    for j, name in enumerate(names_a):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b) if ra[j] != rb[j]]
        if not cells:
            continue
        try:
            a, b = np.array(cells, dtype=np.float64).T
        except ValueError:
            lines.append(f"{name}: {len(cells)} cells moved (not numeric)")
            continue
        scale = np.maximum(np.abs(a), np.abs(b))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(scale > 0, np.abs(a - b) / scale, 0.0)
        lines.append(f"{name}: {len(cells)} of {len(rows_a)} cells moved, "
                     f"max relative change {np.nanmax(rel):.3g}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print("usage: python tools/catalog_diff.py PARENT_ROOT [CHANGE_ROOT]", file=sys.stderr)
        return 2
    parent = argv[0]
    change = argv[1] if len(argv) == 2 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ops = catalog_ops(change)
    with tempfile.TemporaryDirectory(prefix="catalog_diff_") as tmp:
        ops_file = os.path.join(tmp, "ops.json")
        with open(ops_file, "w") as fh:
            json.dump(ops, fh)
        outs = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        bad = 0
        for side, root in (("parent", parent), ("change", change)):
            for k, rc in run_tree(root, ops_file, outs[side]):
                print(f"{side}: op failed (exit {rc}): {' '.join(ops[k])}")
                bad += 1
        identical = compared = 0
        for k, argv_k in enumerate(ops):
            dirs = [os.path.join(outs[side], f"op{k}") for side in ("parent", "change")]
            found = [products(d) for d in dirs]
            for rel in sorted(found[0] ^ found[1]):
                print(f"{' '.join(argv_k)}: {rel} written by one tree only")
                bad += 1
            for rel in sorted(found[0] & found[1]):
                a, b = (os.path.join(d, rel) for d in dirs)
                compared += 1
                with open(a, "rb") as fa, open(b, "rb") as fb:
                    if fa.read() == fb.read():
                        identical += 1
                        continue
                bad += 1
                print(f"{' '.join(argv_k)}: {rel} differs")
                if rel.endswith(".csv"):
                    for line in column_changes(a, b):
                        print(f"    {line}")
    print(f"{len(ops)} ops on each tree; {identical} of {compared} CSV and SVG files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
