import numpy as np
import pytest

from chainsentry.errors import DataError
from chainsentry.gbt import GBTClassifier
from oracles import NaiveBooster, node_bits, reference_boosted_trees


def separable(rng, n=120):
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    X[y == 1] += 1.5
    return X, y


def test_zero_rounds_gives_base_probability(rng):
    X, y = separable(rng)
    model = GBTClassifier(n_rounds=0, pos_weight=1.0).fit(X, y)
    proba = model.predict_proba(X)
    assert np.allclose(proba, 0.5)


def test_proba_pairs_sum_to_one(rng):
    X, y = separable(rng)
    model = GBTClassifier(n_rounds=30, pos_weight=1.0).fit(X, y)
    proba = model.predict_proba(rng.normal(size=(50, 2)))
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    assert (proba > 0).all() and (proba < 1).all()


def test_training_loss_monotone_and_converges(rng):
    X, y = separable(rng)
    model = GBTClassifier(n_rounds=50, learning_rate=0.3, pos_weight=1.0).fit(X, y)
    losses = model.train_losses_
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.05


def test_single_class_rejected():
    with pytest.raises(DataError):
        GBTClassifier().fit(np.zeros((10, 2)), np.zeros(10, dtype=int))


def test_permutation_null_auc(rng):
    aucs = []
    for seed in range(5):
        r = np.random.default_rng(seed)
        X = r.normal(size=(300, 4))
        y = r.integers(0, 2, size=300)
        X_test = r.normal(size=(200, 4))
        y_test = r.integers(0, 2, size=200)
        model = GBTClassifier(n_rounds=40, pos_weight=1.0).fit(X, y)
        scores = model.predict_proba(X_test)[:, 1]
        pos = scores[y_test == 1]
        neg = scores[y_test == 0]
        greater = np.mean(pos[:, None] > neg[None, :])
        ties = np.mean(pos[:, None] == neg[None, :])
        aucs.append(float(greater + 0.5 * ties))
    assert 0.45 <= float(np.mean(aucs)) <= 0.55


def test_duplication_invariance(rng):
    X, y = separable(rng, n=60)
    base = GBTClassifier(n_rounds=25).fit(X, y)
    dup = GBTClassifier(n_rounds=25).fit(np.vstack([X, X]), np.concatenate([y, y]))
    probe = rng.normal(size=(40, 2))
    assert np.array_equal(base.predict_proba(probe), dup.predict_proba(probe))


def test_matches_naive_reference_booster(rng):
    X = np.round(rng.normal(size=(40, 3)), 3)
    y = (X[:, 0] - 0.5 * X[:, 2] > 0).astype(int)
    ours = GBTClassifier(n_rounds=12, max_depth=3, learning_rate=0.2,
                         reg_lambda=1.0, pos_weight=2.0).fit(X, y)
    ref = NaiveBooster(n_rounds=12, max_depth=3, learning_rate=0.2,
                       reg_lambda=1.0, pos_weight=2.0).fit(X, y)
    ours_p = ours.predict_proba(X)[:, 1]
    ref_p = ref.predict_proba1(X)
    assert np.allclose(ours_p, ref_p, atol=1e-6)


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_trees_match_per_node_argsort_reference(min_samples_leaf):
    rng = np.random.default_rng(min_samples_leaf)
    # Half steps: many ties, so the cumsums depend on the order within them.
    X = np.round(rng.normal(size=(90, 4)) * 2.0) / 2.0
    X[:, 1] = 2.0                                # a constant column
    y = (X[:, 0] - X[:, 2] + rng.normal(scale=0.5, size=90) > 0).astype(int)
    # Duplicate rows, so the grouped multiplicities run from 1 to 3.
    reps = rng.integers(1, 4, size=90)
    X, y = np.repeat(X, reps, axis=0), np.repeat(y, reps)
    model = GBTClassifier(n_rounds=15, max_depth=4, learning_rate=0.3,
                          min_samples_leaf=min_samples_leaf, pos_weight=2.0).fit(X, y)
    ref = reference_boosted_trees(X, y, n_rounds=15, max_depth=4, learning_rate=0.3,
                                  reg_lambda=1.0, min_samples_leaf=min_samples_leaf,
                                  pos_weight=2.0)
    assert [node_bits(t) for t in model.trees_] == [node_bits(t) for t in ref]


def test_balanced_weight_resolution(rng):
    X, y = separable(rng, n=200)
    model = GBTClassifier(n_rounds=5).fit(X, y)
    w = model._resolve_pos_weight(y)
    assert w == pytest.approx(np.sum(y == 0) / np.sum(y == 1))


def test_json_roundtrip_bit_exact(rng):
    X, y = separable(rng)
    model = GBTClassifier(n_rounds=20).fit(X, y)
    back = GBTClassifier.from_json(model.to_json())
    probe = rng.normal(size=(64, 2))
    assert np.array_equal(model.predict_proba(probe), back.predict_proba(probe))
    assert back.to_json() == model.to_json()


def test_estimator_params_api():
    model = GBTClassifier(n_rounds=7)
    params = model.get_params()
    assert params["n_rounds"] == 7
    model.set_params(learning_rate=0.05)
    assert model.learning_rate == 0.05
    with pytest.raises(ValueError):
        model.set_params(bogus=1)
