"""kgcavity benchmark: one process per workload, a closed loop with one client.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``./src``. The op list is drawn from the workload's catalog by the seed
(see ``workloads.py``) and its length is set by ``--seconds``; the next op
is sent only after the previous one completed and its outputs were checked.
Every op's outputs are checked (``check.py``); op latency excludes the
check.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of fresh
interpreters importing ``kgcavity.cli`` and building its parser),
``wall_s`` (summed op latency), ``op_p50_s``, ``op_tail_s`` (latency at the
highest percentile with at least 10 ops beyond it; the percentile and the
count are in the ``info`` line) and ``peak_rss_mb``. ``--trace 1`` runs the
same op list under the tracing shim (``spans.py``) and prints the
per-layer metrics; the tracing overhead is its ``trace.wall_s`` minus the
untraced ``wall_s`` of the same seed.

The last stdout line is the result object; the line before it records the
environment. The on-disk coefficient cache is never used: ``--cache-dir``
is never passed and ``CAVITY_CACHE_DIR`` is cleared.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
os.environ.pop("CAVITY_CACHE_DIR", None)

# End-to-end metrics: unit and the share of the parent's median by which a
# change may worsen them (all lower-is-better). On a shared 2-vCPU VM the
# host's speed drifts by up to a third over minutes, so every time gets the
# widest bound allowed; peak RSS repeats to 1%.
END_TO_END = {
    "setup_s": ("s", 0.25),
    "wall_s": ("s", 0.25),
    "op_p50_s": ("s", 0.25),
    "op_tail_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
WORK_DIR = ".bench_work"
SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import kgcavity.cli as c; "
               "c.build_parser(); print('ready', flush=True)")


def measure_setup() -> float:
    """Median time from a fresh interpreter to kgcavity.cli imported and its
    parser built."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed to import kgcavity.cli")
        times.append(elapsed)
    return statistics.median(times)


def tail_latency(latencies: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile that
    still has ``beyond`` samples above it; with too few ops, the minimum."""
    xs = sorted(latencies)
    k = max(0, len(xs) - beyond - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


class StderrTap(io.TextIOBase):
    """Stands in for sys.stderr during the loop; holds the current op's text."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        return len(s)

    def take(self) -> str:
        text, self.parts = "".join(self.parts), []
        return text


def structured_error(rc, stderr: str) -> bool:
    """Exit code 2 with exactly one JSON error line on stderr."""
    if rc != 2:
        return False
    lines = [line for line in stderr.splitlines() if line.startswith("{")]
    if len(lines) != 1 or "Traceback" in stderr:
        return False
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return False
    return isinstance(doc, dict) and set(doc) == {"error", "message"}


def oracle_op(argv) -> dict:
    """Wick moments and the enumerated-Fock oracle on the first 8 global
    modes of the first ``--rows`` local rows on each side."""
    import numpy as np
    from kgcavity import bogoliubov, config, fock_oracle, vacuum
    from kgcavity.modes import Region

    opts = dict(zip(argv[1::2], argv[2::2]))
    cfg = config.validate_config(1.0, float(opts["--r"]), float(opts["--mu"]))
    rows, modes = int(opts["--rows"]), int(opts["--modes"])
    m_idx, n_idx = np.arange(1, rows + 1), np.arange(1, modes + 1)
    blocks = []
    for region in (Region.LEFT, Region.RIGHT):
        alpha, beta = bogoliubov.coeff_grid(region, m_idx, n_idx, cfg, 1e-8)
        blocks.append(bogoliubov.BogoliubovBlock(region, alpha, beta, "oracle"))
    left, right = blocks
    rep = vacuum.wick_moments(m_idx, m_idx, left, right)
    fock = fock_oracle.TruncatedFock(n_modes=modes)
    wick, oracle, imag = [], [], 0.0
    for i in range(rows):
        for j in range(rows):
            mom = fock_oracle.oracle_moments((left.alpha[i], left.beta[i]),
                                             (right.alpha[j], right.beta[j]), fock)
            wick.append((rep.mean_left[i], rep.var_left[i], rep.cov[i, j]))
            oracle.append((mom.mean_m, mom.var_m, mom.cov))
            imag = max(imag, mom.imag_residue)
    return {"wick": np.array(wick), "oracle": np.array(oracle), "imag_residue": imag}


class Runner:
    """Runs ops one at a time and checks each one's outputs."""

    def __init__(self, root: str, reference: dict | None, tracer=None):
        from kgcavity import cli
        import check
        import spans

        self.cli = cli
        self.check = check
        self.root_span = spans.ROOT
        self.work = os.path.join(root, WORK_DIR, str(os.getpid()))
        self.reference = reference
        self.tracer = tracer
        self.tap = StderrTap()

    def run(self, k: int, op) -> dict:
        """Outcome of one op: latency, status and, for ``freeze``, tables."""
        out_dir = os.path.join(self.work, f"op{k}")
        argv = list(op.argv) + ["--out-dir", out_dir]
        rc, result, raised = None, None, None
        root = self.tracer.begin(self.root_span) if self.tracer else None
        t0 = time.perf_counter()
        try:
            if op.is_cli:
                rc = self.cli.main(argv)
            else:
                result = oracle_op(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raw library error is an outcome to classify
            raised = exc
        latency = time.perf_counter() - t0
        if root is not None:
            self.tracer.end(root)
        stderr = self.tap.take()
        try:
            return dict(latency=latency, **self._judge(op, rc, result, raised, stderr, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _judge(self, op, rc, result, raised, stderr, out_dir) -> dict:
        if op.expect == "reject":
            claimed = rc == 0 or os.path.exists(os.path.join(out_dir, "manifest.json"))
            status = ("wrong_success" if claimed and raised is None
                      else "structured" if structured_error(rc, stderr) else "raw_error")
            return {"status": status, "errors": [] if status != "wrong_success"
                    else ["out-of-range request reported success"]}
        if raised is not None or (op.is_cli and rc != 0):
            return {"status": "failed", "errors": [f"rc={rc} raised={raised!r}"]}
        if op.is_cli:
            tables, errors = self.check.csv_tables(out_dir, op.argv)
        else:
            tables, errors = self.check.oracle_tables(result)
        if self.reference is not None:
            errors += self.check.against_reference(op.key, tables, self.reference)
        return {"status": "failed" if errors else "ok", "errors": errors, "tables": tables}

    def __enter__(self):
        os.makedirs(self.work, exist_ok=True)
        self._stderr, sys.stderr = sys.stderr, self.tap
        return self

    def __exit__(self, *exc):
        sys.stderr = self._stderr
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def import_package(root: str):
    """Import kgcavity from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kgcavity", "cli.py")):
        raise FileNotFoundError(f"no kgcavity sources under {src}")
    sys.path.insert(0, src)
    import kgcavity.cli  # noqa: F401  (imports every kgcavity module)
    if not os.path.abspath(kgcavity.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"kgcavity imported from {kgcavity.cli.__file__}, not {src}")


def environment(root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "kgcavity")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS),
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.CATALOGS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()

    try:
        import_package(root)
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import check
    import spans

    setup_s = None if args.trace else measure_setup()
    ops = workloads.op_list(args.workload, args.seed, args.seconds)
    tracer = spans.Tracer() if args.trace else None
    shim = spans.Shim(tracer).install() if tracer else None
    outcomes = []
    try:
        with Runner(root, check.load_reference(), tracer) as runner:
            for k, op in enumerate(ops):
                outcomes.append(runner.run(k, op))
    finally:
        if shim:
            shim.remove()
    for op, o in zip(ops, outcomes):
        for err in o["errors"]:
            print(f"perfbench: {op.key}: {err}", file=sys.stderr)

    latencies = [o["latency"] for o in outcomes]
    wall_s = sum(latencies)
    failed = sum(o["status"] in ("failed", "wrong_success") for o in outcomes)
    raw = sum(o["status"] == "raw_error" for o in outcomes)
    structured = sum(o["status"] == "structured" for o in outcomes)
    tail, pct, beyond = tail_latency(latencies)
    if args.trace:
        units = spans.metric_units()
        values = spans.layer_metrics(tracer)
        values.update({
            "cli.failed_ops_frac": (failed + raw) / len(ops),
            "cli.out_of_range.raw_errors": raw,
            "cli.out_of_range.structured_errors": structured,
            "trace.wall_s": wall_s,
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "op_tail_percentile": round(pct, 2),
        "op_tail_samples_beyond": beyond, "out_of_range_raw_errors": raw,
        "out_of_range_structured_errors": structured, "env": environment(root),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
