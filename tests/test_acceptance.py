"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 10b (parallel speedup) needs >= 8 physical cores to be attainable.
On hosts with fewer usable physical cores it is skipped, and the skip reason
gives the count found; on larger hosts it runs and fails with the measured
numbers if the speedup is below 4x.
"""
import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from chainsentry.chain import TxStore, load_labels, parse_transactions_file
from chainsentry.features import FULL_SCHEMA, SEED_SCHEMA
from chainsentry.intention import compute_loss, forward_pass, init_params
from chainsentry.metrics import confident_time, f1_consistency, f1_early
from chainsentry.paths import PathConfig, PathParams, backward_paths, forward_paths
from chainsentry.pipeline import (SequenceContext, _load_timelines, iter_timelines,
                                  load_config, read_predictions, run_pipeline)
from chainsentry.segmentation import SegmentationPlanner, change_ratio
from chainsentry.selection import dtsc_loop
from chainsentry.synth import ScenarioSpec, generate, write_universe

from oracles import (dfs_backward_paths, dfs_forward_paths, naive_change_ratio,
                     pathset_as_dict, random_dag_records)
from test_intention import dims_for, finite_difference_check, make_batch, small_config
from test_selection import planted_std_matrix

DAY = 86400


def usable_physical_cores() -> int:
    """Physical cores among the CPUs this process may run on.

    SMT siblings share a (package, core) pair in the kernel's CPU topology
    and count once; a CPU whose topology is unreadable counts as its own core.
    """
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:
        cpus = range(os.cpu_count() or 1)
    cores = set()
    for cpu in cpus:
        topology = Path(f"/sys/devices/system/cpu/cpu{cpu}/topology")
        try:
            cores.add(((topology / "physical_package_id").read_text().strip(),
                       (topology / "core_id").read_text().strip()))
        except OSError:
            cores.add(("cpu", cpu))
    return len(cores)


USABLE_CORES = usable_physical_cores()


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" — {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# -- criterion 1: path-oracle equivalence ---------------------------------------


def test_criterion_01_path_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    params = [(0.5, 7 * DAY), (0.01, 1 * DAY), (0.25, 3 * DAY)]
    t0 = time.perf_counter()
    mismatches = 0
    for k in range(1000):
        store = TxStore.from_records(random_dag_records(rng))
        seed = int(rng.integers(0, len(store)))  # ids number the sorted txids
        threshold, span = params[k % len(params)]
        got = pathset_as_dict(backward_paths(
            store, seed, PathConfig("BK", "LT", threshold, span)))
        if got != dfs_backward_paths(store, seed, threshold, span):
            mismatches += 1
        t_now = store.tx(seed).timestamp + int(rng.integers(0, 3 * DAY))
        got_f = pathset_as_dict(forward_paths(
            store, seed, PathConfig("FR", "LT", threshold, span), t_now))
        if got_f != dfs_forward_paths(store, seed, threshold, span, t_now):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report("criterion 1 (path-oracle equivalence, 1000 DAGs)",
           mismatches == 0 and elapsed < 30.0,
           f"mismatches={mismatches}, {elapsed:.1f}s (< 30s)")


# -- criterion 2: feature arity ---------------------------------------------------


def test_criterion_02_feature_arity():
    report("criterion 2 (feature arity 68 seed / 212 full)",
           len(SEED_SCHEMA) == 68 and len(FULL_SCHEMA) == 212,
           f"seed={len(SEED_SCHEMA)}, full={len(FULL_SCHEMA)}")


# -- criterion 3: selection monotonicity ------------------------------------------


def test_criterion_03_dtsc_monotonicity():
    rng = np.random.default_rng(77)
    datasets = {"planted-std": planted_std_matrix(rng)}
    X = rng.normal(size=(1200, 212))
    y = rng.integers(0, 2, size=1200)
    X[y == 1, FULL_SCHEMA.index("addr__balance")] += 2.5
    datasets["address-signal"] = (X, y)

    ok = True
    details = []
    for name, (Xd, yd) in datasets.items():
        spec = dtsc_loop(Xd, yd)
        scores = spec.round_scores
        mono = all(b >= a for a, b in zip(scores, scores[1:]))
        ok = ok and mono
        details.append(f"{name}: rounds={len(scores)} mono={mono}")
        if name == "planted-std":
            gain = scores[-1] - scores[0]
            ok = ok and gain >= 0.05
            details.append(f"planted gain={gain:.3f} (>= 0.05)")
    report("criterion 3 (DT-SC accepted scores non-decreasing)", ok,
           "; ".join(details))


# -- criterion 4: segmentation identities ------------------------------------------


def test_criterion_04_segmentation_identities():
    rng = np.random.default_rng(11)
    matrices = [rng.uniform(size=(24, 9)) for _ in range(40)]
    planner = SegmentationPlanner().fit(matrices)
    plan_sig = (planner.plan_.breakpoints, planner.plan_.n_segments)
    ok = True
    worst = 0.0
    for m in matrices:
        g, d = planner.transform(m)
        err = float(np.max(np.abs(np.cumsum(d, axis=0) - g)))
        worst = max(worst, err)
        ok = ok and err <= 1e-9
        ok = ok and g.shape[0] == plan_sig[1]  # shared global breakpoints
    f_prev = rng.uniform(0.01, 1.0, size=(40, 9))
    f_curr = rng.uniform(0.01, 1.0, size=(40, 9))
    delta = 1e-8
    eq2_err = abs(change_ratio(f_curr, f_prev, delta)
                  - naive_change_ratio(f_curr, f_prev, delta))
    ok = ok and eq2_err < 1e-12
    report("criterion 4 (g = cumulative d; global breakpoints; change ratio)",
           ok, f"max |cumsum(d)-g|={worst:.2e}, eq2 err={eq2_err:.2e}")


# -- criterion 5: intention-network numerics -----------------------------------------


def test_criterion_05_intention_numerics():
    rng = np.random.default_rng(55)
    ok = True
    details = []
    # (a)+(b): survival monotone in (0,1]; alpha and the blend on the simplex.
    for seed in range(4):
        batch = make_batch(rng, B=16, T=24, d_f=5)
        config = small_config()
        dims = dims_for(batch, config)
        params = init_params(dims, seed=seed)
        noise = rng.standard_normal((24, 16, dims.d_z)) if seed % 2 else None
        fw = forward_pass(params, batch, dims, noise)
        ok = ok and (fw.survival > 0).all() and (fw.survival <= 1).all()
        ok = ok and (np.diff(fw.survival, axis=1) <= 1e-15).all()
        ok = ok and np.abs(fw.alphas.sum(axis=2) - 1.0).max() < 1e-9
        ok = ok and (fw.alphas >= 0).all()
        ok = ok and (fw.p_hat > 0).all() and (fw.p_hat < 1).all()
    details.append("survival/simplex ok")
    # (c): the bottleneck regularizer is non-negative, zero iff mu = sigma = 0.
    batch = make_batch(rng)
    config = small_config()
    dims = dims_for(batch, config)
    params = init_params(dims, seed=9)
    terms, _ = compute_loss(params, batch, dims, config)
    ok = ok and terms["vae_kl"] > 0.0
    params0 = {k: v.copy() for k, v in params.items()}
    for key in ("mu_W", "mu_b", "sg_W", "sg_b"):
        params0[key][:] = 0.0
    terms0, _ = compute_loss(params0, batch, dims, config)
    ok = ok and terms0["vae_kl"] == 0.0
    details.append(f"kl>0 generic, =0 at origin")
    # (d): analytic gradients vs central differences on the pinned fixture.
    t0 = time.perf_counter()
    batch = make_batch(np.random.default_rng(1234), B=2, T=4)
    config = small_config()  # d_z = 2
    dims = dims_for(batch, config)
    worst = finite_difference_check(config, batch, dims, seed=11)
    elapsed = time.perf_counter() - t0
    ok = ok and worst < 1e-4 and elapsed < 60.0
    details.append(f"gradcheck worst rel={worst:.2e} in {elapsed:.1f}s (< 60s)")
    report("criterion 5 (intention-network numerics)", ok, "; ".join(details))


# -- criterion 6: metric formulas ------------------------------------------------------


def test_criterion_06_metric_formulas():
    ok = True
    details = []
    # Fixture A: constant F1, fully consistent predictions.
    n = 8
    f1_const = np.full(n, 0.625)
    preds_const = np.tile(np.linspace(0.8, 0.9, n), (6, 1))
    fe = f1_early(f1_const)
    fc = f1_consistency(f1_const, preds_const)
    ok = ok and abs(fe - 0.625) < 1e-12 and abs(fc - 0.625) < 1e-12
    details.append("constant-consistent reduces to plain F1")
    # Fixture B: early-good F1 profile; hand-evaluated weighted sums.
    f1_seq = np.array([1.0, 0.5, 0.25, 0.0])
    inv = 1.0 / np.sqrt(np.arange(1.0, 5.0))
    want_fe = float((f1_seq * inv).sum() / inv.sum())
    ok = ok and abs(f1_early(f1_seq) - want_fe) < 1e-12
    preds = np.tile(np.array([0.9, 0.9, 0.9, 0.9]), (4, 1))
    w = np.sqrt(np.arange(1.0, 4.0))
    want_fc = float((w * f1_seq[:-1]).sum() / w.sum())
    ok = ok and abs(f1_consistency(f1_seq, preds) - want_fc) < 1e-12
    details.append("early-good matches hand evaluation")
    # Fixture C: every address flips at the final step.
    preds_flip = np.tile(np.array([0.9, 0.9, 0.9, 0.1]), (4, 1))
    frac = np.array([1.0, 1.0, 0.0])
    want_fc_flip = float((w * f1_seq[:-1] * frac).sum() / w.sum())
    got = f1_consistency(f1_seq, preds_flip)
    ok = ok and abs(got - want_fc_flip) < 1e-12
    ok = ok and got < f1_early(f1_seq)
    details.append("late flip discounts the heaviest weight")
    report("criterion 6 (early/consistency-weighted F1 formulas)", ok,
           "; ".join(details))


# -- criteria 7 + 8: end-to-end synthetic detection -------------------------------------


ACCEPTANCE_SCENARIO = {
    "seed": 42,
    "scenario": {"specs": [
        {"kind": "hack", "count": 10},
        {"kind": "exchange", "count": 70},
        {"kind": "merchant", "count": 50},
        {"kind": "gambling", "count": 40},
        {"kind": "mining", "count": 30},
    ], "noise_level": 0.5},
}


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    config = load_config(ACCEPTANCE_SCENARIO)
    t0 = time.perf_counter()
    run_pipeline(config, out)
    elapsed = time.perf_counter() - t0
    return config, out, elapsed


def test_criterion_07_end_to_end_detection(acceptance_run):
    config, out, elapsed = acceptance_run
    labels = load_labels(out / "labels.csv")
    meta = json.loads((out / "scenario.json").read_text())["meta"]
    addresses, p, s, _ = read_predictions(out / "predictions.csv")
    y = np.array([labels[a] for a in addresses])
    n_pos = int(y.sum())
    payload = json.loads((out / "eval_report.json").read_text())
    fe = payload["all"]["f1_early"]
    fc = payload["all"]["f1_consistency"]
    hacks = [a for a in addresses if labels[a] == 1]
    tfc = [confident_time(p[addresses.index(a)], 1) for a in hacks]
    confident = [t for t in tfc if t is not None]
    sweep = {meta[a]["sweep_hour"] for a in hacks}
    median_tfc = float(np.median(confident)) if confident else float("inf")
    ok = (len(addresses) == 200 and abs(n_pos / len(addresses) - 0.05) < 0.01
          and fe >= 0.80 and fc >= 0.75
          and len(confident) == len(hacks)
          and median_tfc < min(sweep)
          and elapsed < 600.0)
    report("criterion 7 (200-address end-to-end detection)", ok,
           f"F1E={fe:.3f} (>= 0.80), F1C={fc:.3f} (>= 0.75), "
           f"median t_f.c={median_tfc} < sweep hour {min(sweep)}, "
           f"runtime {elapsed:.0f}s (< 600s)")


def test_criterion_08_case_shape_reproduction(acceptance_run):
    config, out, _ = acceptance_run
    labels = load_labels(out / "labels.csv")
    meta = json.loads((out / "scenario.json").read_text())["meta"]
    ctx = SequenceContext.load(out)
    timelines = _load_timelines(out)
    feats, svecs, avecs, sidxs, aidxs, labs, addrs = ctx.sequences(timelines)
    global_modal_action = int(np.bincount(aidxs.ravel()).argmax())
    hacks = [a for a in addrs if labels[a] == 1]
    ok = True
    details = []
    for a in hacks:
        i = addrs.index(a)
        sweep = meta[a]["sweep_hour"]
        pre = sidxs[i][:sweep - 1]
        changes = int(np.sum(pre[1:] != pre[:-1]))
        pre_actions = aidxs[i][1:sweep - 1]
        modal_pre = int(np.bincount(pre_actions).argmax())
        ok = ok and changes == 1 and modal_pre == global_modal_action
    details.append(f"{len(hacks)} hack addresses: one pre-sweep status change, "
                   f"pre-sweep modal action == global waiting cluster "
                   f"({global_modal_action})")
    report("criterion 8 (case-study motif shape)", ok, "; ".join(details))


# -- criterion 9: determinism ---------------------------------------------------------


def test_criterion_09_pipeline_determinism(tmp_path):
    config = load_config({
        "seed": 13,
        "scenario": {"specs": [
            {"kind": "hack", "count": 3},
            {"kind": "exchange", "count": 20},
            {"kind": "merchant", "count": 12},
            {"kind": "mining", "count": 8},
        ], "noise_level": 0.3},
        "selection": {"runs_per_round": 5, "max_rounds": 4},
        "catalogs": {"k_status": 8, "k_action": 8},
        "gbt": {"n_rounds": 60},
        "intention": {"epochs": 8, "batch_size": 16},
    })
    import hashlib

    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_pipeline(config, out)
        digest = {}
        for pth in sorted(out.rglob("*")):
            if pth.is_file():
                digest[str(pth.relative_to(out))] = hashlib.sha256(
                    pth.read_bytes()).hexdigest()
        digests.append(digest)
    mismatched = sorted(k for k in digests[0]
                        if digests[0][k] != digests[1].get(k))
    report("criterion 9 (byte-identical rerun)",
           digests[0] == digests[1],
           f"{len(digests[0])} artifacts, mismatched: {mismatched[:5]}")


# -- criterion 10: throughput ------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_universe(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    specs = [
        ScenarioSpec("hack", 30), ScenarioSpec("ransomware", 30),
        ScenarioSpec("darknet", 40), ScenarioSpec("exchange", 350),
        ScenarioSpec("merchant", 250), ScenarioSpec("gambling", 200),
        ScenarioSpec("mining", 100),
    ]
    records, labels, meta = generate(specs, seed=77, noise_level=0.3)
    write_universe(out, records, labels, meta, {})
    store = parse_transactions_file(out / "transactions.jsonl", labels)
    return out, store, sorted(labels)


def test_criterion_10a_single_worker_throughput(benchmark_universe):
    out, store, addresses = benchmark_universe
    assert len(addresses) == 1000
    t0 = time.perf_counter()
    timelines = list(iter_timelines(store, addresses, 24, PathParams(), jobs=1))
    elapsed = time.perf_counter() - t0
    report("criterion 10a (1000 addresses x 24h single worker)",
           len(timelines) == 1000 and elapsed < 300.0,
           f"{elapsed:.1f}s (< 300s)")


@pytest.mark.skipif(USABLE_CORES < 8,
                    reason=f"needs >= 8 usable physical cores, found {USABLE_CORES}")
def test_criterion_10b_parallel_speedup(benchmark_universe):
    out, store, addresses = benchmark_universe
    t0 = time.perf_counter()
    list(iter_timelines(store, addresses, 24, PathParams(), jobs=1))
    t_single = time.perf_counter() - t0
    t0 = time.perf_counter()
    list(iter_timelines(store, addresses, 24, PathParams(), jobs=8,
                        open_store=functools.partial(parse_transactions_file,
                                                     out / "transactions.jsonl", store.labels)))
    t_parallel = time.perf_counter() - t0
    speedup = t_single / t_parallel
    report("criterion 10b (8-worker speedup >= 4x)",
           speedup >= 4.0,
           f"single={t_single:.1f}s, 8 workers={t_parallel:.1f}s, "
           f"speedup={speedup:.2f}x on {USABLE_CORES} usable physical core(s)")
