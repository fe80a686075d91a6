"""Cross-module checks of behaviors that span several subsystems."""

import numpy as np
import pytest

from chainsentry.chain import TxStore
from chainsentry.features import feature_timeline
from chainsentry.intention import IntentionNetwork
from chainsentry.intention.network import t_die
from chainsentry.pipeline import (SequenceContext, load_config, run_pipeline,
                                  stage_eval)
from chainsentry.segmentation import segment_representations
from chainsentry.selection import SEED_FEATURE_NAMES, _column_importances_to_seed, \
    FeatureSpec, train_decision_tree, materialize_features
from chainsentry.synth import ScenarioSpec, generate
from test_intention import make_batch, small_config


def test_hack_vs_exchange_st_bk_importance_top3():
    """On a hack-vs-exchange universe, short-term backward path volume is
    one of the strongest seed features."""
    records, labels, _ = generate(
        [ScenarioSpec("hack", 8), ScenarioSpec("exchange", 24)],
        seed=31, noise_level=0.2,
    )
    store = TxStore.from_records(records, labels)
    rows, y = [], []
    for addr, label in sorted(labels.items()):
        tl = feature_timeline(store, addr)
        rows.append(tl.matrix)
        y.append(np.full(tl.hours, label))
    X = np.vstack(rows)
    y = np.concatenate(y)
    spec = FeatureSpec.initial()
    seed_X = materialize_features(spec, X)
    ranked_totals = np.zeros(len(SEED_FEATURE_NAMES))
    for seed in range(5):
        model, _ = train_decision_tree(seed_X, y, seed)
        imps = _column_importances_to_seed(model, spec.column_names())
        ranked_totals += np.array([imps.get(n, 0.0) for n in SEED_FEATURE_NAMES])
    order = np.argsort(-ranked_totals)
    top3 = {SEED_FEATURE_NAMES[i] for i in order[:3]}
    st_bk_related = {n for n in top3 if n.startswith("st_bk__")}
    assert st_bk_related, f"top 3 were {sorted(top3)}"


def test_t_die_medians_separate_classes():
    """Training pressure pushes survival down faster for positives."""
    rng = np.random.default_rng(6)
    B, T = 40, 12
    labels = (np.arange(B) < B // 2).astype(int)
    batch = make_batch(rng, B=B, T=T, d_f=4, labels=labels)
    sep = labels[:, None] * np.ones((B, T))
    batch.status_vec = batch.status_vec * 0.05 + sep[:, :, None]
    batch.action_vec = batch.action_vec * 0.05 + sep[:, :, None]
    batch.features = batch.features * 0.05 + sep[:, :, None]
    batch.p_status = np.clip(0.1 + 0.8 * sep + 0.02 * rng.normal(size=(B, T)),
                             0.02, 0.98)
    batch.p_action = batch.p_status.copy()
    config = small_config(epochs=40, learning_rate=5e-3, batch_size=20,
                          death_eps=0.2, gamma_e=2.0, seed=2)
    net = IntentionNetwork(config).fit(batch, 3, 3)
    fw = net.forward(batch)
    horizon = T + 1  # sentinel for "survived the window"
    dies = [t_die(fw.survival[i], config.death_eps) or horizon for i in range(B)]
    med_pos = np.median([d for d, l in zip(dies, labels) if l == 1])
    med_neg = np.median([d for d, l in zip(dies, labels) if l == 0])
    assert med_pos < med_neg, (med_pos, med_neg)


def test_eval_stage_matches_hand_computed_confusion(tmp_path):
    """A predictions file with a known confusion matrix evaluates exactly."""
    (tmp_path / "labels.csv").write_text(
        "address,label\na1,1\na2,1\na3,0\na4,0\n")
    header = ("address,t_index,p_malicious,survival,alpha_S,alpha_A,alpha_I,"
              "intention_index\n")
    rows = []
    series = {
        "a1": [0.9, 0.9],  # true positive both steps
        "a2": [0.2, 0.9],  # miss then hit
        "a3": [0.8, 0.1],  # false positive then correct
        "a4": [0.1, 0.1],  # true negative both steps
    }
    for addr, ps in series.items():
        for t, p in enumerate(ps, start=1):
            rows.append(f"{addr},{t},{p},1.0,0.3,0.3,0.4,1\n")
    (tmp_path / "predictions.csv").write_text(header + "".join(rows))
    config = load_config({})
    payload = stage_eval(config, tmp_path)
    per_step = payload["all"]["per_step"]
    # Step 1: TP=1 FP=1 FN=1 TN=1 -> acc .5, prec .5, rec .5, f1 .5
    assert per_step["accuracy"][0] == pytest.approx(0.5)
    assert per_step["precision"][0] == pytest.approx(0.5)
    assert per_step["recall"][0] == pytest.approx(0.5)
    assert per_step["f1"][0] == pytest.approx(0.5)
    # Step 2: perfect.
    assert per_step["f1"][1] == pytest.approx(1.0)
    inv = 1.0 / np.sqrt(np.array([1.0, 2.0]))
    want_fe = float((np.array([0.5, 1.0]) * inv).sum() / inv.sum())
    assert payload["all"]["f1_early"] == pytest.approx(want_fe, abs=1e-12)
    # Consistency step 1->2: a1 and a4 agree -> fraction 0.5.
    assert payload["all"]["f1_consistency"] == pytest.approx(0.5 * 0.5)
    times = payload["all"]["confident_times"]
    assert times["a1"] == 1 and times["a2"] == 2
    assert times["a3"] == 2 and times["a4"] == 1


@pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
def test_supported_cluster_counts(k, rng):
    from chainsentry.catalogs import SUPPORTED_CLUSTER_COUNTS, VectorCatalog

    assert k in SUPPORTED_CLUSTER_COUNTS
    X = rng.normal(size=(3 * k, 5))
    cat = VectorCatalog(n_clusters=k).fit(X)
    assert cat.centers_.shape == (k, 5)


def test_recommended_cluster_counts_mapping():
    from chainsentry.catalogs import RECOMMENDED_CLUSTER_COUNTS

    assert RECOMMENDED_CLUSTER_COUNTS == {"hack": 16, "ransomware": 32,
                                          "darknet": 32}


def test_segment_sequence_matches_hourly_expansion(tmp_path):
    config = load_config({
        "seed": 5,
        "scenario": {"specs": [
            {"kind": "hack", "count": 2},
            {"kind": "exchange", "count": 10},
            {"kind": "merchant", "count": 6},
        ], "noise_level": 0.2},
        "selection": {"runs_per_round": 3, "max_rounds": 2},
        "catalogs": {"k_status": 5, "k_action": 5},
        "gbt": {"n_rounds": 15},
        "intention": {"epochs": 2, "batch_size": 8},
    })
    run_pipeline(config, tmp_path)
    from chainsentry.pipeline import _load_timelines

    ctx = SequenceContext.load(tmp_path)
    timelines = _load_timelines(tmp_path)
    tl = timelines[0]
    norm = ctx.plan.normalize(materialize_features(ctx.spec, tl.matrix))
    g, d = segment_representations(norm, ctx.plan)
    per_segment = list(zip(ctx.status.predict(g), ctx.action.predict(d)))
    assert len(per_segment) == ctx.plan.n_segments
    _, svecs, avecs, sidxs, aidxs, _, _ = ctx.sequences([tl])
    seg_of_hour = ctx.plan.segment_of_hour()
    for hour in range(24):
        s_idx, a_idx = per_segment[seg_of_hour[hour]]
        assert sidxs[0, hour] == s_idx
        assert aidxs[0, hour] == a_idx
        assert np.array_equal(svecs[0, hour], ctx.status.centers_[s_idx])
        assert np.array_equal(avecs[0, hour], ctx.action.centers_[a_idx])
