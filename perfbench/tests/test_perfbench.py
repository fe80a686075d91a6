"""Tests of the benchmark itself: metric names and units, the reference check,
the traced run, and the refusal to run without the program's sources.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import deepgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chainsentry import chain, features  # noqa: E402
from chainsentry.paths import PathParams  # noqa: E402
from chainsentry.pipeline import load_config, run_pipeline  # noqa: E402
from chainsentry.synth import ScenarioSpec, generate, write_universe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runnable but not in BENCHMARK.json while its reference check fails.
HELD = {"trace-deep"}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.COMMON_LAYER_METRICS
    assert set(WORKLOADS) == set(workloads.WORKLOADS) - HELD
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])


def check_status(workload, proc) -> dict:
    """The result line; the exit status must match it, and a workload in
    BENCHMARK.json must pass its checks."""
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (result["failed"] == 0) and result["attempted"] >= 1
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr
    if workload not in HELD:
        assert result["correct"] is True, proc.stdout
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench(workload, trace=0)
    result = check_status(workload, proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = proc.stdout
    names = ["failed_share"]
    if workload == "pipeline-default":
        names += ["train_s", "predict_addr_per_s", "explain_p50_ms", "explain_tail_ms"]
    for name in names:
        assert f"  {name} " in printed


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    proc = bench(workload, trace=1)
    result = check_status(workload, proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spans.COMMON_LAYER_METRICS
    assert result["metrics"]["features.aggregate_calls"]["value"] > 0
    if workload == "pipeline-default":
        for name in spans.WORKLOAD_LAYER_METRICS:
            assert f"  {name} " in proc.stdout, name
        assert result["metrics"]["chain.parse_calls"]["value"] == 3


def test_reference_check_rejects_a_perturbed_matrix(tmp_path):
    records, labels, meta = generate([ScenarioSpec("hack", 2), ScenarioSpec("exchange", 2)], 3)
    write_universe(tmp_path, records, labels, meta, {})
    config = load_config({"seed": 3})
    run_pipeline(config, tmp_path, stages=("features",))
    store = chain.parse_transactions_file(tmp_path / "transactions.jsonl", labels)
    feature_file = tmp_path / "features" / "features.csv"
    sample = sorted(labels)

    clean = workloads.CheckResult()
    workloads.reference_check(store, config, feature_file, sample, clean)
    assert clean.failed == 0, clean.problems

    # Move one value of one address by a single unit in the last place.
    lines = feature_file.read_text().splitlines(keepends=True)
    victim = sample[1]
    row = next(i for i, line in enumerate(lines) if line.startswith(victim + ",5,"))
    parts = lines[row].rstrip("\n").split(",")
    parts[-1] = repr(float(np.nextafter(float(parts[-1]), np.inf)))
    lines[row] = ",".join(parts) + "\n"
    feature_file.write_text("".join(lines))

    perturbed = workloads.CheckResult()
    workloads.reference_check(store, config, feature_file, sample, perturbed)
    assert perturbed.failed == 1
    assert victim in perturbed.problems[0]


@pytest.mark.xfail(strict=True, reason=(
    "known defect: with two peel chains out of one address growing in the same "
    "hours, feature_timeline stacks forward path rows in another order than "
    "feature_timeline_rebuilt and some aggregates differ in the last bit"))
def test_two_concurrent_peel_chains_match_the_reference():
    records, labels, _ = deepgen.generate(1, n_addresses=8)
    store = chain.TxStore.from_records(records, labels)
    params = PathParams(max_paths_per_set=workloads.TraceDeep.MAX_PATHS_PER_SET)
    for address in sorted(labels):
        got = features.feature_timeline(store, address, 24, params)
        ref = features.feature_timeline_rebuilt(store, address, 24, params)
        assert np.array_equal(got.matrix, ref.matrix), address


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(range(1000)) == (989, 99.0, 1000)
    assert spans.tail_percentile(range(20)) == (9, 50.0, 20)
    assert spans.tail_percentile([3.0, 1.0]) == (3.0, 100.0, 2)


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    for name in ("outer", "inner", "leaf"):
        tracer.open(name)
    for _ in range(3):
        tracer.close()
    by_name = tracer.by_name()
    for name, child in (("outer", "inner"), ("inner", "leaf")):
        expected = by_name[name]["total_s"] - by_name[child]["total_s"]
        assert by_name[name]["self_s"] == pytest.approx(expected, abs=1e-9)
    assert by_name["leaf"]["self_s"] == by_name["leaf"]["total_s"]


def test_wrappers_are_removed_after_the_traced_block():
    from chainsentry.paths import ForwardTrace

    before = (features.aggregate_path_set, ForwardTrace.extend)
    with spans.instrumented(spans.Tracer()):
        assert features.aggregate_path_set is not before[0]
    assert (features.aggregate_path_set, ForwardTrace.extend) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("featurize-1k", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
