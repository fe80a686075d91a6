import numpy as np
import pytest

from chainsentry.errors import DataError
from chainsentry.features import FULL_SCHEMA
from chainsentry.selection import (COMPLEMENTABLE, SEED_FEATURE_NAMES, FeatureSpec,
                                   dtsc_loop, importance_partition, materialize_features,
                                   train_decision_tree)


def test_seed_name_space():
    assert len(SEED_FEATURE_NAMES) == 68
    assert len(COMPLEMENTABLE) == 48


def test_initial_spec_identity_materialization(rng):
    X = rng.normal(size=(10, 212))
    spec = FeatureSpec.initial()
    out = materialize_features(spec, X)
    assert out.shape == (10, 68)
    assert len(spec.column_names()) == 68


def test_single_complement_adds_three_columns(rng):
    X = rng.normal(size=(5, 212))
    name = "st_bk__hop_length"
    reserve = tuple(n for n in SEED_FEATURE_NAMES if n != name)
    spec = FeatureSpec(complement=(name,), reserve=reserve, delete=())
    out = materialize_features(spec, X)
    assert out.shape == (5, 71)
    cols = spec.column_names()
    for stat in ("avg", "max", "min", "std"):
        assert f"{name}__{stat}" in cols


def test_full_complement_reaches_212(rng):
    X = rng.normal(size=(3, 212))
    complement = tuple(sorted(COMPLEMENTABLE))
    reserve = tuple(n for n in SEED_FEATURE_NAMES if n not in COMPLEMENTABLE)
    spec = FeatureSpec(complement=complement, reserve=reserve, delete=())
    out = materialize_features(spec, X)
    assert out.shape == (3, 212)
    assert list(spec.column_names()) == list(FULL_SCHEMA)


def test_spec_partition_validation():
    with pytest.raises(DataError):
        FeatureSpec(complement=("addr__balance",),
                    reserve=tuple(n for n in SEED_FEATURE_NAMES if n != "addr__balance"),
                    delete=())
    with pytest.raises(DataError):
        FeatureSpec(complement=(), reserve=SEED_FEATURE_NAMES[:-1], delete=())


def test_importance_partition_rule():
    imps = {name: 0.0 for name in SEED_FEATURE_NAMES}
    imps["st_bk__hop_length"] = 0.6
    imps["addr__balance"] = 0.3
    imps["st_fr__path_count"] = 0.1
    spec = importance_partition(imps, theta_c=0.5)
    assert spec.complement == ("st_bk__hop_length",)
    assert "addr__balance" in spec.reserve
    assert "st_fr__path_count" in spec.reserve
    deleted = set(spec.delete)
    assert "lt_fr__max_input_amount" in deleted
    assert len(deleted) == 68 - 3


def test_importance_partition_high_address_feature_stays_reserved():
    imps = {name: 0.0 for name in SEED_FEATURE_NAMES}
    imps["addr__balance"] = 1.0
    spec = importance_partition(imps, theta_c=0.5)
    assert spec.complement == ()
    assert "addr__balance" in spec.reserve


def test_importance_partition_all_zero_aborts():
    with pytest.raises(DataError):
        importance_partition({n: 0.0 for n in SEED_FEATURE_NAMES}, 0.5)


def test_partition_matches_naive_rescan(rng):
    imps = {name: float(v) for name, v in zip(SEED_FEATURE_NAMES,
                                              rng.uniform(0, 1, 68))}
    for name in list(imps)[::7]:
        imps[name] = 0.0
    theta = 0.4
    spec = importance_partition(imps, theta)
    s_max = max(imps.values())
    for name in SEED_FEATURE_NAMES:
        if imps[name] == 0:
            assert name in spec.delete
        elif imps[name] >= theta * s_max and name in COMPLEMENTABLE:
            assert name in spec.complement
        else:
            assert name in spec.reserve


def test_train_decision_tree_scores():
    X = np.vstack([np.zeros((50, 3)), np.ones((50, 3))])
    X = X + 0.01 * np.arange(100)[:, None] % 2
    y = np.repeat([0, 1], 50)
    model, score = train_decision_tree(X, y, seed=0)
    assert score == 1.0
    # Single-class input degenerates cleanly.
    model, score = train_decision_tree(np.zeros((20, 3)), np.zeros(20, dtype=int), 0)
    assert score == 0.0


def test_train_decision_tree_permutation_null(rng):
    X = rng.normal(size=(1000, 6))
    y = rng.integers(0, 2, size=1000)
    scores = [train_decision_tree(X, y, seed)[1] for seed in range(10)]
    assert float(np.mean(scores)) < 0.65  # hovers near chance-level F1


def planted_std_matrix(rng, n_addresses=120, hours=24):
    """Signal lives in the std column of one path feature; its avg column
    carries only a weak echo so round 0 can notice it."""
    X = rng.normal(0.0, 1.0, size=(n_addresses * hours, 212))
    y = np.repeat(rng.integers(0, 2, size=n_addresses), hours)
    std_col = FULL_SCHEMA.index("st_bk__max_input_amount__std")
    avg_col = FULL_SCHEMA.index("st_bk__max_input_amount__avg")
    pos = y == 1
    X[pos, std_col] = 4.0 + 0.15 * rng.normal(size=pos.sum())
    X[~pos, std_col] = 1.0 + 0.15 * rng.normal(size=(~pos).sum())
    X[pos, avg_col] += 0.7  # weak, noisy echo in the seed view
    return X, y


def test_dtsc_planted_std_signal(rng):
    X, y = planted_std_matrix(rng)
    spec = dtsc_loop(X, y, theta_c=0.5)
    assert "st_bk__max_input_amount" in spec.complement
    scores = spec.round_scores
    assert len(scores) >= 2
    assert all(b >= a for a, b in zip(scores, scores[1:]))  # non-decreasing
    assert scores[-1] - scores[0] >= 0.05


def test_dtsc_address_only_signal_terminates(rng):
    # All class signal in an address feature: nothing to complement, and the
    # loop must stop on the partition fixed point.
    X = rng.normal(size=(2400, 212))
    y = rng.integers(0, 2, size=2400)
    X[y == 1, FULL_SCHEMA.index("addr__balance")] += 3.0
    spec = dtsc_loop(X, y, theta_c=0.5, max_rounds=16)
    assert spec.complement == ()
    assert spec.round <= 3


def test_dtsc_determinism(rng):
    X, y = planted_std_matrix(rng, n_addresses=40)
    a = dtsc_loop(X, y)
    b = dtsc_loop(X, y)
    assert a == b


def test_selector_estimator_roundtrip(rng):
    X, y = planted_std_matrix(rng, n_addresses=40)
    # What the select stage runs: fit the spec, then materialize its columns.
    spec = dtsc_loop(X, y)
    out = materialize_features(spec, X)
    assert out.shape == (X.shape[0], len(spec.column_names()))
    assert FeatureSpec.from_json(spec.to_json()) == spec
