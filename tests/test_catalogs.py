import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
# scipy is the oracle for the in-tree Ward linkage; the package does not use it.
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import pdist as scipy_pdist

from chainsentry import ward
from chainsentry.catalogs import VectorCatalog
from chainsentry.errors import DataError


def blobs(rng, centers, n_per=40, scale=0.2):
    X = np.vstack([c + scale * rng.normal(size=(n_per, len(c))) for c in centers])
    labels = np.repeat(np.arange(len(centers)), n_per)
    return X, labels


def test_singleton_clusters_when_k_equals_n(rng):
    X = rng.normal(size=(6, 3))
    cat = VectorCatalog(n_clusters=6).fit(X)
    assert cat.centers_.shape == (6, 3)
    got = {tuple(np.round(c, 9)) for c in cat.centers_}
    want = {tuple(np.round(x, 9)) for x in X}
    assert got == want


def test_two_blobs_recovered(rng):
    X, labels = blobs(rng, [np.zeros(4), np.full(4, 6.0)])
    cat = VectorCatalog(n_clusters=2).fit(X)
    pred = cat.predict(X)
    # Cluster ids are canonical; match them to blob labels by majority.
    first = pred[labels == 0]
    assert (first == first[0]).all()
    second = pred[labels == 1]
    assert (second == second[0]).all()
    assert first[0] != second[0]


def test_k_exceeding_distinct_vectors_raises():
    X = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (5, 1))
    with pytest.raises(DataError, match="distinct"):
        VectorCatalog(n_clusters=3).fit(X)


def test_assign_center_and_tie(rng):
    X, _ = blobs(rng, [np.zeros(2), np.array([4.0, 0.0])])
    cat = VectorCatalog(n_clusters=2).fit(X)
    assert cat.predict(cat.centers_).tolist() == [0, 1]
    midpoint = cat.centers_.mean(axis=0)
    assert cat.predict(midpoint[None, :]).tolist() == [0]  # ties break to the smaller index


def test_refit_consistency_of_members(rng):
    X, _ = blobs(rng, [np.zeros(3), np.full(3, 5.0), np.array([5.0, -5.0, 0.0])])
    cat = VectorCatalog(n_clusters=3).fit(X)
    again = cat.predict(X)
    agree = float(np.mean(again == cat.labels_))
    assert agree >= 0.95


def test_permutation_stable_centers(rng):
    X, _ = blobs(rng, [np.zeros(2), np.full(2, 7.0), np.array([7.0, -7.0])])
    cat1 = VectorCatalog(n_clusters=3).fit(X)
    perm = rng.permutation(X.shape[0])
    cat2 = VectorCatalog(n_clusters=3).fit(X[perm])
    assert np.allclose(cat1.centers_, cat2.centers_, atol=1e-9)


def test_explainer_reproduces_and_predicates_hold(rng):
    X, _ = blobs(rng, [np.zeros(2), np.full(2, 6.0), np.array([6.0, -6.0])],
                 n_per=50)
    names = ("inflow", "outflow")
    cat = VectorCatalog(n_clusters=3).fit(X, feature_names=names)
    assert cat.explainer_accuracy_ >= 0.99
    for k in range(3):
        chain = cat.explain(k)
        assert chain
        members = X[cat.labels_ == k]
        routed = members[cat.explainer_.predict(members) == k]
        for predicate in chain:
            col = names.index(predicate.feature)
            vals = routed[:, col]
            if predicate.op == "<=":
                assert (vals <= predicate.threshold).all()
            else:
                assert (vals > predicate.threshold).all()
        text = cat.explain_text(k)
        assert text.startswith(f"cluster {k}:")


def test_explain_known_separating_feature(rng):
    # High inflow, zero outflow cluster vs the opposite: the chain for the
    # high-inflow cluster must reference the inflow column.
    lo = np.column_stack([rng.normal(0, 0.3, 60), rng.normal(5, 0.3, 60)])
    hi = np.column_stack([rng.normal(9, 0.3, 60), rng.normal(0, 0.3, 60)])
    X = np.vstack([lo, hi])
    cat = VectorCatalog(n_clusters=2).fit(X, feature_names=("st_bk_count", "balance"))
    hi_cluster = int(cat.predict(np.array([[9.0, 0.0]]))[0])
    mentioned = {p.feature for p in cat.explain(hi_cluster)}
    assert mentioned & {"st_bk_count", "balance"}


def test_catalog_json_roundtrip(rng):
    X, _ = blobs(rng, [np.zeros(3), np.full(3, 4.0)])
    cat = VectorCatalog(n_clusters=2).fit(X)
    back = VectorCatalog.from_json(cat.to_json())
    assert np.array_equal(back.centers_, cat.centers_)
    assert np.array_equal(back.predict(X), cat.predict(X))
    probe = rng.normal(size=(7, 3))
    assert np.array_equal(back.explainer_.predict(probe), cat.explainer_.predict(probe))


def test_fit_catalogs_pair(rng):
    g, _ = blobs(rng, [np.zeros(2), np.full(2, 3.0)])
    d, _ = blobs(rng, [np.full(2, -1.0), np.full(2, 1.0)])
    # The segment stage fits one catalog on statuses and one on actions.
    status = VectorCatalog(2, max_fit_vectors=5000, random_state=0).fit(g)
    action = VectorCatalog(2, max_fit_vectors=5000, random_state=0).fit(d)
    assert status.centers_.shape == (2, 2)
    assert action.centers_.shape == (2, 2)


def test_subsampled_fit_stays_deterministic(rng):
    X, _ = blobs(rng, [np.zeros(2), np.full(2, 5.0)], n_per=400)
    a = VectorCatalog(n_clusters=2, max_fit_vectors=100, random_state=3).fit(X)
    b = VectorCatalog(n_clusters=2, max_fit_vectors=100, random_state=3).fit(X)
    assert np.array_equal(a.centers_, b.centers_)


# -- Ward linkage against scipy --------------------------------------------------


def same_partition(a, b) -> bool:
    pairs = np.unique(np.column_stack([a, b]), axis=0).shape[0]
    return pairs == np.unique(a).size == np.unique(b).size


def assert_ward_matches_scipy(X, ks=None):
    want = scipy_linkage(X, method="ward")
    got = ward.linkage(X)
    assert got.tobytes() == want.tobytes()
    distinct = np.unique(X, axis=0).shape[0]
    for k in ks or sorted({1, 2, distinct // 2 or 1, distinct, X.shape[0]}):
        assert same_partition(ward.maxclust(got, k),
                              fcluster(want, t=k, criterion="maxclust")), k


@pytest.mark.parametrize("shape", [(2, 1), (2, 3), (7, 1), (40, 4), (150, 9), (60, 212)])
def test_distances_equal_scipy_pdist_bit_for_bit(rng, shape):
    X = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape[1])
    assert ward.pdist(X).tobytes() == scipy_pdist(X).tobytes()


def test_ward_two_points():
    X = np.array([[0.0, 1.0], [3.0, -1.0]])
    assert_ward_matches_scipy(X, ks=[1, 2])
    assert ward.linkage(X).shape == (1, 4)


def test_ward_duplicate_rows(rng):
    base = rng.normal(size=(6, 3))
    X = base[rng.integers(0, 6, size=30)]
    assert_ward_matches_scipy(X)
    assert (ward.linkage(X)[:24, 2] == 0.0).all()


def test_ward_integer_valued_ties(rng):
    for _ in range(5):
        assert_ward_matches_scipy(rng.integers(0, 3, size=(50, 3)).astype(float))


def test_ward_real_valued_blobs(rng):
    X, _ = blobs(rng, [np.zeros(4), np.full(4, 3.0), np.array([3.0, -3.0, 0.0, 1.0])])
    assert_ward_matches_scipy(X, ks=[1, 2, 3, 4, 8, 16, 32, 64, X.shape[0]])


small_matrices = st.tuples(st.integers(2, 12), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))))


# A square symmetric draw looks to scipy like a distance matrix, and it warns.
@pytest.mark.filterwarnings("ignore::scipy.cluster.hierarchy.ClusterWarning")
@settings(deadline=None, max_examples=150)
@given(small_matrices)
def test_ward_matches_scipy_on_small_matrices(X):
    assert_ward_matches_scipy(X, ks=range(1, X.shape[0] + 1))


def test_tied_ward_cut_still_raises():
    # The unit square's two first merges tie at height 1, so no cut gives 3.
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.unique(fcluster(scipy_linkage(X, method="ward"), t=3,
                              criterion="maxclust")).size == 2
    with pytest.raises(DataError, match="ward cut produced 2 clusters, expected 3"):
        VectorCatalog(n_clusters=3).fit(X)


def test_ward_distance_overflow_is_a_data_error():
    with pytest.raises(DataError, match="overflow"):
        VectorCatalog(n_clusters=2).fit(np.array([[1e200], [-1e200], [0.0]]))
