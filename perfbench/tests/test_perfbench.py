"""Tests of the benchmark itself: op lists, the tail rule, self times,
memo-hit detection, the tracing shim and the output comparison.

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ── op lists ────────────────────────────────────────────────────────────────

@pytest.mark.parametrize("workload", sorted(workloads.CATALOGS))
def test_same_seed_same_list_other_seed_reorders_same_catalog(workload):
    a = workloads.op_list(workload, 1, 30)
    assert a == workloads.op_list(workload, 1, 30)
    b = workloads.op_list(workload, 2, 30)
    assert a != b
    catalog = {op.key for op in workloads.CATALOGS[workload]}
    assert {op.key for op in a} == {op.key for op in b} == catalog
    for group in workloads.COUNTS[workload]:
        assert sum(op.group == group for op in a) == sum(op.group == group for op in b)


def test_sweep_runs_each_entry_once_on_distinct_configurations():
    ops = workloads.op_list("sweep", 7, 30)
    assert sorted(op.key for op in ops) == sorted(op.key for op in workloads.CATALOGS["sweep"])
    configs = [workloads.sweep_config(k) for k in range(len(ops))]
    assert len(set(configs)) == len(configs)
    assert len({r for r, _ in configs}) == len(configs)   # spectrum varies r only
    rejects = [op for op in ops if op.expect == "reject"]
    assert 0 < len(rejects) < len(ops) / 10


def test_seconds_scale_the_list_and_the_sweep_is_capped():
    assert len(workloads.op_list("evolve", 1, 60)) == 2 * len(workloads.op_list("evolve", 1, 30))
    assert len(workloads.op_list("sweep", 1, 60)) == len(workloads.CATALOGS["sweep"])
    assert len(workloads.op_list("moments", 1, 1)) == len(workloads.COUNTS["moments"])


def test_every_ok_entry_has_a_frozen_reference():
    reference = check.load_reference()
    for catalog in workloads.CATALOGS.values():
        for op in catalog:
            assert (op.key in reference) == (op.expect == "ok"), op.key


# ── metrics ─────────────────────────────────────────────────────────────────

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(v) for v in range(40, 0, -1)]
    assert run.tail_latency(xs) == (30.0, 75.0, 10)
    assert run.tail_latency(xs[:11]) == (30.0, 100.0 / 11, 10)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_self_time_is_span_minus_covered_child_intervals():
    synthetic = [
        ["cli", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 7.0, 0],
        ["c", 5.5, 6.0, 2],
        ["d", 3.0, 6.0, 1],        # overhangs its parent: clipped to [3, 4]
        ["e", 3.5, 3.8, 1],        # overlaps d: the union is counted once
    ]
    own = spans.self_times(synthetic)
    assert own == pytest.approx([5.0, 2.0, 1.5, 0.5, 3.0, 0.3])
    tracer = spans.Tracer()
    tracer.spans = synthetic[:4]
    layers = spans.layer_metrics(tracer)
    assert layers["cli.self_s"] == pytest.approx(5.0)
    assert sum(spans.self_times(synthetic[:4])) == pytest.approx(10.0)   # add up to the root


def test_memo_hit_detected_by_identity_without_keeping_blocks_alive():
    class Block:
        pass

    seen = spans.BlockIdentity()
    a, b = Block(), Block()
    assert seen.observe(a) is False
    assert seen.observe(a) is True
    assert seen.observe(b) is False
    key = id(a)
    del a
    gc.collect()
    assert key not in seen._seen
    c = Block()
    assert seen.observe(c) is False


# ── the shim on the real package ────────────────────────────────────────────

@pytest.fixture
def shim():
    import kgcavity.cli  # noqa: F401
    tracer = spans.Tracer()
    installed = spans.Shim(tracer).install()
    yield tracer
    installed.remove()


def test_shim_wraps_by_name_bindings_and_restores_them():
    import kgcavity.causality
    import kgcavity.cli
    import kgcavity.modes

    original = kgcavity.modes.evolve_local_mode
    shim = spans.Shim(spans.Tracer()).install()
    try:
        assert kgcavity.causality.evolve_local_mode is kgcavity.modes.evolve_local_mode
        assert kgcavity.causality.evolve_local_mode is not original
        assert kgcavity.cli.build_block is kgcavity.bogoliubov.build_block
    finally:
        shim.remove()
    assert kgcavity.causality.evolve_local_mode is original
    assert kgcavity.modes.evolve_local_mode is original


def test_shim_counts_memo_hits_and_work(shim, tmp_path):
    import kgcavity as kg

    kg.clear_memo()
    cfg = kg.validate_config(1.0, 0.4, 1.0)
    trunc = kg.Truncation(n_max_global=300, m_max_local=4, grid_points=65)
    tables = kg.frequencies(cfg, trunc)
    root = shim.begin(spans.ROOT)
    kg.build_block(kg.Region.LEFT, cfg, tables, trunc)
    kg.bogoliubov.build_block(kg.Region.LEFT, cfg, tables, trunc)
    assert kg.cli.main(["modes", "--nmax", "300", "--mmax", "4", "--grid", "65",
                        "--r", "0.4", "--mu", "1", "--out-dir", str(tmp_path)]) == 0
    shim.end(root)
    layers = spans.layer_metrics(shim)
    assert layers["bogoliubov.build_block.memo_misses"] == 1
    assert layers["bogoliubov.build_block.memo_hits"] == 2
    assert layers["bogoliubov.build_block.bytes_built"] == 2 * 4 * 300 * 8
    assert layers["bogoliubov.coeff_grid.entries"] == 4 * 300
    assert layers["modes.evolve_local_mode.terms"] == 65 * 300
    assert layers["output.write_csv.bytes"] == os.path.getsize(tmp_path / "mode_left_m1_t0.csv")
    own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    top = sum(end - start for _, start, end, parent in shim.spans if parent is None)
    assert own == pytest.approx(top)
    kg.clear_memo()


def test_shim_fails_loudly_on_a_missing_function(monkeypatch):
    import kgcavity.cli  # noqa: F401
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [("kgcavity.modes", "no_such_function")])
    shim = spans.Shim(spans.Tracer())
    with pytest.raises(LookupError, match="no_such_function"):
        shim.install()
    shim.remove()


# ── output checks ───────────────────────────────────────────────────────────

def test_frozen_comparison_uses_the_payload_tolerance():
    data = np.array([[1.0, 2.0], [3.0, -4.0], [5.0, 6.0]])
    ref = check.freeze_table(["a", "b"], data, {})
    assert check.compare_table("spectrum.csv", check.freeze_table(["a", "b"], data * (1 + 1e-13), {}),
                               ref) == []
    assert check.compare_table("spectrum.csv", check.freeze_table(["a", "b"], data * (1 + 1e-11), {}),
                               ref) != []
    assert check.compare_table("mode_left_m1_t0.csv",
                               check.freeze_table(["a", "b"], data * (1 + 1e-11), {}), ref) == []


def test_residue_cells_are_bounded_not_frozen():
    cols = ["t", "cone_edge", "outside_fraction"]
    data = np.array([[0.0, 0.5, 1e-12], [0.1, 0.6, 1e-7]])
    mask, errors = check.residue_mask("leakage.csv", cols, data, [])
    assert errors == [] and mask.tolist() == [[False, False, True], [False, False, False]]
    data[0, 2] = 1e-9
    assert check.residue_mask("leakage.csv", cols, data, [])[1]


def test_structured_error_is_exit_2_with_one_json_line():
    line = json.dumps({"error": "DomainError", "message": "m out of range"})
    assert run.structured_error(2, "INFO kgcavity: x\n" + line + "\n")
    assert not run.structured_error(1, line)
    assert not run.structured_error(2, "Traceback (most recent call last):\n" + line)


# ── BENCHMARK.json agrees with the code ─────────────────────────────────────

def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.CATALOGS)
    assert [w["why"] for w in doc["workloads"]] == list(workloads.WHY.values())
    units = spans.metric_units()
    assert [m["name"] for m in doc["per_layer"]] == list(units)
    for m in doc["per_layer"]:
        assert (m["unit"], m["better"]) == units[m["name"]]
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
