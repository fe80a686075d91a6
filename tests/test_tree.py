import numpy as np
import pytest

from chainsentry.tree import DecisionTreeClassifier
from oracles import node_bits, reference_cart


def test_perfectly_separable_single_feature():
    X = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = DecisionTreeClassifier(max_depth=4, min_samples_leaf=1, random_state=0)
    model.fit(X, y)
    assert model.depth_ == 1
    assert (model.predict(X) == y).all()
    assert model.feature_importances_[0] == pytest.approx(1.0)


def test_split_between_adjacent_doubles_separates_them():
    # (a + b) / 2 rounds up to b here, so a midpoint cut would send every row left.
    a = 1.0 + 2.0 ** -52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0, 0, 1, 1])
    model = DecisionTreeClassifier(max_depth=8, min_samples_leaf=1, random_state=0).fit(X, y)
    assert all(node.n > 0 for node in model.nodes_)
    assert model.depth_ == 1 and model.nodes_[0].threshold == a
    assert (model.predict(X) == y).all()


def test_importances_sum_to_one(rng):
    X = rng.normal(size=(300, 6))
    y = (X[:, 0] + 0.5 * X[:, 3] > 0).astype(int)
    model = DecisionTreeClassifier(max_depth=6, min_samples_leaf=5, random_state=1)
    model.fit(X, y)
    assert model.feature_importances_.sum() == pytest.approx(1.0)
    assert (model.feature_importances_ >= 0).all()
    assert model.depth_ <= 6


def test_min_leaf_and_depth_respected(rng):
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    model = DecisionTreeClassifier(max_depth=3, min_samples_leaf=20, random_state=0)
    model.fit(X, y)
    assert model.depth_ <= 3
    leaves = [nd for nd in model.nodes_ if nd.feature < 0]
    assert min(nd.n for nd in leaves) >= 20


def test_deterministic_given_seed(rng):
    X = rng.normal(size=(150, 5))
    y = rng.integers(0, 2, size=150)
    a = DecisionTreeClassifier(random_state=7).fit(X, y)
    b = DecisionTreeClassifier(random_state=7).fit(X, y)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.array_equal(a.feature_importances_, b.feature_importances_)


def test_seeds_vary_on_tied_features(rng):
    # Two identical columns: which one is split on depends on the seed.
    col = rng.normal(size=400)
    X = np.column_stack([col, col])
    y = (col > 0).astype(int)
    used = set()
    for seed in range(10):
        model = DecisionTreeClassifier(max_depth=2, min_samples_leaf=1,
                                       random_state=seed).fit(X, y)
        used.add(model.nodes_[0].feature)
    assert used == {0, 1}


def test_multiclass_and_predicates(rng):
    centers = np.array([[0, 0], [5, 0], [0, 5], [5, 5]])
    X = np.vstack([c + 0.3 * rng.normal(size=(30, 2)) for c in centers])
    y = np.repeat(np.arange(4), 30)
    model = DecisionTreeClassifier(max_depth=6, min_samples_leaf=1, random_state=0)
    model.fit(X, y)
    assert (model.predict(X) == y).all()
    leaves = model.apply(X)
    for i in (0, 45, 75, 110):
        chain = model.leaf_predicates(int(leaves[i]))
        assert chain  # every routed sample satisfies its own chain
        for feat, op, thr in chain:
            if op == "<=":
                assert X[i, feat] <= thr
            else:
                assert X[i, feat] > thr


def test_single_class_leaf_model():
    X = np.zeros((10, 2))
    y = np.zeros(10, dtype=int)
    model = DecisionTreeClassifier().fit(X, y)
    assert model.n_leaves_ == 1
    assert (model.predict(X) == 0).all()


@pytest.mark.parametrize("n_classes", [2, 16])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_matches_per_node_argsort_reference(n_classes, min_samples_leaf):
    rng = np.random.default_rng(10 * n_classes + min_samples_leaf)
    X = np.round(rng.normal(size=(240, 6)), 1)   # rounded: many ties
    X[:, 2] = 0.5                                 # a constant column
    X = np.vstack([X, X[:80]])                    # duplicate rows
    y = np.floor((X[:, 0] + X[:, 3]) * n_classes / 3).astype(int) % n_classes
    noisy = rng.random(y.size) < 0.3
    y[noisy] = rng.integers(0, n_classes, size=int(noisy.sum()))
    for seed, max_depth in ((0, 1), (1, 4), (2, 12)):
        model = DecisionTreeClassifier(max_depth, min_samples_leaf, seed).fit(X, y)
        classes, nodes, importances = reference_cart(X, y, max_depth,
                                                     min_samples_leaf, seed)
        assert np.array_equal(model.classes_, classes)
        assert node_bits(model.nodes_) == node_bits(nodes)
        assert model.feature_importances_.tobytes() == importances.tobytes()
