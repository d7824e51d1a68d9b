"""Output checks: manifest digests, finite cells, frozen references, residue bounds.

Every numeric column of every payload is compared with statistics frozen
from the reference commit (count, sum, L2 norm, max|x| and fixed sample
rows) within the tolerance the test suite pins for that quantity. Residue
cells, whose exact value is zero and whose size is set by truncation, are
checked against the suite's upper bounds instead of frozen values.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import math
import os

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Relative tolerance per payload, scaled by the column's max|x|. Evolved
# series: the suite pins mirror symmetry and reconstruction at 1e-7 / 5e-7
# absolute; 1e-10 relative is tighter. Coefficient sums, spectra, moments,
# steering and Wick-vs-oracle: the suite pins 1e-12 relative.
RTOL = [
    ("mode_*.csv", 1e-10),
    ("wavepacket_*.csv", 1e-10),
    ("leakage.csv", 1e-10),
    ("commutators.csv", 1e-10),
    ("*", 1e-12),
]
# Absolute floor, relative to the largest |x| in the same payload, so a
# column that is exactly zero at the reference may carry rounding noise.
FLOOR = 1e-15

LEAKAGE_T0_BOUND = 5e-11      # test_leakage_floor_at_t0
SPACELIKE_BOUND = 1e-8        # test_commutators_silent_at_spacelike_separation
# test_identity_residuals_decay_with_truncation pins 3e-7 at n_max = 1e3 and
# 3e-10 at 1e4 for rows up to 10: the n_max^-3 line through both. Row m's
# residual grows like m^2, so wider row ranges scale the line by (upto/10)^2.
IDENTITY_BOUND_1000 = 3e-7
WICK_ORACLE_ATOL = 1e-12      # test_criterion_09_wick_vs_fock_oracle
ORACLE_IMAG_BOUND = 1e-14     # test_fock_oracle


def rtol_for(name: str) -> float:
    return next(tol for pattern, tol in RTOL if fnmatch.fnmatch(name, pattern))


def read_csv(path: str) -> tuple[list[str], np.ndarray, dict]:
    """(numeric column names, float matrix, {text column: values})."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    columns = list(zip(*rows)) if rows else [() for _ in names]
    numeric, values, text = [], [], {}
    for name, col in zip(names, columns):
        try:
            values.append([float(c) for c in col])
            numeric.append(name)
        except ValueError:
            text[name] = list(col)
    data = np.array(values, dtype=float).T.reshape(len(rows), len(numeric))
    return numeric, data, text


def _flag(argv, flag, default):
    return type(default)(argv[argv.index(flag) + 1]) if flag in argv else default


def residue_mask(name: str, cols: list, data: np.ndarray, argv) -> tuple[np.ndarray, list]:
    """(mask of residue cells, bound violations) for one payload."""
    mask = np.zeros(data.shape, dtype=bool)
    errors = []
    if name == "identities.csv":
        upto = _flag(argv, "--upto", 10)
        n = data[:, cols.index("n_max")]
        bound = IDENTITY_BOUND_1000 * (1000.0 / n) ** 3 * max(1.0, upto / 10.0) ** 2
        for j, col in enumerate(cols):
            if col.startswith("max_"):
                mask[:, j] = True
                over = data[:, j] > bound
                if over.any():
                    errors.append(f"{name}:{col} above the residual bound at n_max={n[over].tolist()}")
        res = data[:, cols.index("max_residual")]
        if np.any(np.diff(res) >= 0):
            errors.append(f"{name}: residual does not fall with n_max: {res.tolist()}")
    elif name == "leakage.csv":
        j = cols.index("outside_fraction")
        rows = data[:, cols.index("t")] == 0.0
        mask[rows, j] = True
        if np.any(data[rows, j] > LEAKAGE_T0_BOUND):
            errors.append(f"{name}: t=0 leakage {data[rows, j].tolist()} > {LEAKAGE_T0_BOUND}")
    elif name == "commutators.csv":
        rows = data[:, cols.index("spacelike")] == 1.0
        for col in ("c1", "c2"):
            j = cols.index(col)
            mask[rows, j] = True
            if np.any(data[rows, j] > SPACELIKE_BOUND):
                errors.append(f"{name}: spacelike {col} {data[rows, j].tolist()} > {SPACELIKE_BOUND}")
    return mask, errors


def sample_rows(n: int) -> list[int]:
    return sorted({0, n // 2, n - 1}) if n else []


def freeze_table(cols: list, data: np.ndarray, text: dict) -> dict:
    """Statistics of one payload with residue cells already zeroed."""
    return {
        "cols": cols,
        "count": int(data.shape[0]),
        "sum": data.sum(axis=0).tolist(),
        "l2": np.sqrt((data * data).sum(axis=0)).tolist(),
        "maxabs": (np.abs(data).max(axis=0) if len(data) else np.zeros(len(cols))).tolist(),
        "rows": {str(i): data[i].tolist() for i in sample_rows(data.shape[0])},
        "text": {k: hashlib.sha256("\n".join(v).encode()).hexdigest()[:16] for k, v in text.items()},
    }


def compare_table(name: str, got: dict, ref: dict) -> list[str]:
    """Mismatches of frozen statistics, within the payload's tolerance."""
    if got["cols"] != ref["cols"] or got["count"] != ref["count"] or got["text"] != ref["text"]:
        return [f"{name}: layout {got['cols']}x{got['count']} differs from the reference"]
    rtol = rtol_for(name)
    maxabs = np.array(ref["maxabs"])
    tol = rtol * maxabs + FLOOR * float(maxabs.max(initial=0.0))
    checks = [("sum", ref["sum"], got["sum"], tol * math.sqrt(max(ref["count"], 1))),
              ("l2", ref["l2"], got["l2"], tol),
              ("maxabs", ref["maxabs"], got["maxabs"], tol)]
    checks += [(f"row {i}", want, got["rows"][i], tol) for i, want in ref["rows"].items()]
    errors = []
    for label, want, have, t in checks:
        bad = np.abs(np.array(have) - np.array(want)) > t
        if bad.any():
            cols = [c for c, b in zip(ref["cols"], bad) if b]
            errors.append(f"{name}: {label} differs from the reference in {cols}")
    return errors


def csv_tables(out_dir: str, argv) -> tuple[dict, list[str]]:
    """Check the manifest and every CSV it lists; return frozen-form tables."""
    errors = []
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return {}, ["manifest.json missing"]
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tables = {}
    for entry in manifest["outputs"]:
        p = os.path.join(out_dir, entry["path"])
        if not os.path.exists(p):
            errors.append(f"{entry['path']}: listed in the manifest but missing")
            continue
        with open(p, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["digest"]:
                errors.append(f"{entry['path']}: sha256 differs from the manifest")
        if not entry["path"].endswith(".csv"):
            continue
        cols, data, text = read_csv(p)
        if not np.all(np.isfinite(data)):
            errors.append(f"{entry['path']}: non-finite cells")
            continue
        mask, bound_errors = residue_mask(entry["path"], cols, data, argv)
        errors += bound_errors
        tables[entry["path"]] = freeze_table(cols, np.where(mask, 0.0, data), text)
    return tables, errors


def oracle_tables(result: dict) -> tuple[dict, list[str]]:
    """Wick against the enumerated-Fock oracle on the same 8-mode rows."""
    errors = []
    wick, oracle, imag = result["wick"], result["oracle"], result["imag_residue"]
    if not (np.all(np.isfinite(wick)) and np.all(np.isfinite(oracle))):
        errors.append("oracle: non-finite moments")
    elif np.max(np.abs(wick - oracle)) > WICK_ORACLE_ATOL:
        errors.append(f"oracle: |Wick - oracle| = {np.max(np.abs(wick - oracle)):.3g}")
    if imag > ORACLE_IMAG_BOUND:
        errors.append(f"oracle: imaginary residue {imag:.3g}")
    cols = ["mean_m", "var_m", "cov"]
    return {"oracle": freeze_table(cols, oracle, {})}, errors


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def against_reference(key: str, tables: dict, reference: dict) -> list[str]:
    ref = reference.get(key)
    if ref is None:
        return [f"no frozen reference for {key!r}"]
    if sorted(ref) != sorted(tables):
        return [f"payloads {sorted(tables)} differ from the reference {sorted(ref)}"]
    errors = []
    for name in ref:
        errors += compare_table(name, tables[name], ref[name])
    return errors
