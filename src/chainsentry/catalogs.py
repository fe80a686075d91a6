"""Global status/action catalogs from Ward-linkage hierarchical clustering.

Segment representations (statuses) and segment differentiations (actions)
from the whole training population are clustered once; cluster centers act
as the global vocabulary.  Unseen vectors are assigned to the nearest center.
A decision tree fitted on (vector -> cluster index) makes every cluster
explainable as a root-to-leaf predicate chain over feature names.

Cluster ids are canonical: clusters are relabeled by lexicographic order of
their centers, so the catalog is stable under permutations of the input.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin, as_float_matrix
from .errors import DataError, NotFittedError
from .serialize import fmt_float, fmt_floats
from .tree import DecisionTreeClassifier, _Node
from .ward import linkage, maxclust


# Cluster counts that worked best per behavior family in tuning; any of the
# supported counts {4, 8, 16, 32, 64} is accepted by the catalog.
RECOMMENDED_CLUSTER_COUNTS = {"hack": 16, "ransomware": 32, "darknet": 32}
SUPPORTED_CLUSTER_COUNTS = (4, 8, 16, 32, 64)


@dataclass(slots=True)
class ClusterPredicate:
    feature: str
    op: str  # "<=" or ">"
    threshold: float

    def render(self) -> str:
        return f"{self.feature} {self.op} {self.threshold:.6g}"


class VectorCatalog(ParamsMixin):
    """Ward-linkage catalog of k vector prototypes with a tree explainer."""

    def __init__(self, n_clusters: int, explainer_max_depth: int = 16,
                 max_fit_vectors: int = 5000, random_state: int = 0):
        self.n_clusters = n_clusters
        self.explainer_max_depth = explainer_max_depth
        self.max_fit_vectors = max_fit_vectors
        self.random_state = random_state
        self.centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.explainer_: DecisionTreeClassifier | None = None
        self.explainer_accuracy_: float | None = None
        self.feature_names_: tuple[str, ...] | None = None

    def fit(self, vectors, feature_names=None):
        V = as_float_matrix(vectors, "vectors")
        if self.n_clusters < 1:
            raise DataError("n_clusters must be >= 1")
        distinct = np.unique(V, axis=0).shape[0]
        if self.n_clusters > distinct:
            raise DataError(
                f"n_clusters={self.n_clusters} exceeds the {distinct} distinct vectors"
            )
        fit_idx = np.arange(V.shape[0])
        if V.shape[0] > self.max_fit_vectors:
            rng = np.random.default_rng(self.random_state)
            fit_idx = np.sort(rng.choice(V.shape[0], self.max_fit_vectors, replace=False))
            while np.unique(V[fit_idx], axis=0).shape[0] < self.n_clusters:
                extra = rng.choice(V.shape[0], self.max_fit_vectors, replace=False)
                fit_idx = np.sort(np.union1d(fit_idx, extra))
        Vfit = V[fit_idx]

        if Vfit.shape[0] == 1:
            raw_labels = np.zeros(1, dtype=np.int64)
        else:
            raw_labels = maxclust(linkage(Vfit), self.n_clusters)
        n_found = np.unique(raw_labels).size
        if n_found != self.n_clusters:
            raise DataError(
                f"ward cut produced {n_found} clusters, expected {self.n_clusters}"
            )
        centers = np.vstack([
            Vfit[raw_labels == c].mean(axis=0) for c in range(self.n_clusters)
        ])
        # Canonical ids: lexicographic order of center vectors.
        order = np.lexsort(centers.T[::-1])
        self.centers_ = centers[order]
        relabel = np.empty(self.n_clusters, dtype=np.int64)
        relabel[order] = np.arange(self.n_clusters)
        fit_labels = relabel[raw_labels]

        self.labels_ = self.predict(V)
        self.feature_names_ = tuple(feature_names) if feature_names is not None else tuple(
            f"f{i}" for i in range(V.shape[1])
        )
        self.explainer_ = DecisionTreeClassifier(
            max_depth=self.explainer_max_depth, min_samples_leaf=1,
            random_state=self.random_state,
        ).fit(Vfit, fit_labels)
        reproduced = self.explainer_.predict(Vfit)
        self.explainer_accuracy_ = float(np.mean(reproduced == fit_labels))
        if self.explainer_accuracy_ < 0.99:
            raise DataError(
                f"explainer reproduces only {self.explainer_accuracy_:.3f} of "
                "training assignments (< 0.99)"
            )
        return self

    # -- assignment ----------------------------------------------------------

    def predict(self, vectors) -> np.ndarray:
        if self.centers_ is None:
            raise NotFittedError("VectorCatalog is not fitted")
        V = as_float_matrix(vectors, "vectors")
        out = np.empty(V.shape[0], dtype=np.int64)
        # Chunked exact distances; argmin resolves ties to the smallest index.
        step = 1024
        for lo in range(0, V.shape[0], step):
            block = V[lo:lo + step]
            d2 = ((block[:, None, :] - self.centers_[None, :, :]) ** 2).sum(axis=2)
            out[lo:lo + step] = np.argmin(d2, axis=1)
        return out

    # -- interpretability ------------------------------------------------------

    def explain(self, cluster_index: int) -> list[ClusterPredicate]:
        """Predicate chain of the leaf holding most members of the cluster."""
        if self.explainer_ is None:
            raise NotFittedError("VectorCatalog is not fitted")
        if not 0 <= cluster_index < self.n_clusters:
            raise DataError(f"cluster index {cluster_index} out of range")
        leaves = self.explainer_.leaves_for_class(cluster_index)
        if not leaves:
            return []
        leaf_id = max(leaves, key=lambda t: (t[1], -t[0]))[0]
        chain = self.explainer_.leaf_predicates(leaf_id)
        return [
            ClusterPredicate(self.feature_names_[f], op, thr)
            for f, op, thr in chain
        ]

    def explain_text(self, cluster_index: int) -> str:
        chain = self.explain(cluster_index)
        if not chain:
            return f"cluster {cluster_index}: (no separating predicates)"
        steps = " AND ".join(p.render() for p in chain)
        return f"cluster {cluster_index}: {steps}"

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        if self.centers_ is None:
            raise NotFittedError("VectorCatalog is not fitted")
        nodes = []
        for nd in self.explainer_.nodes_:
            nodes.append({
                "feature": nd.feature,
                "threshold": fmt_float(nd.threshold),
                "left": nd.left,
                "right": nd.right,
                "counts": fmt_floats(nd.counts),
            })
        return json.dumps(
            {
                "n_clusters": self.n_clusters,
                "centers": [fmt_floats(row) for row in self.centers_],
                "feature_names": list(self.feature_names_),
                "explainer_accuracy": self.explainer_accuracy_,
                "explainer": {
                    "classes": [int(c) for c in self.explainer_.classes_],
                    "nodes": nodes,
                },
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "VectorCatalog":
        obj = json.loads(text)
        cat = cls(n_clusters=obj["n_clusters"])
        cat.centers_ = np.array([[float(v) for v in row] for row in obj["centers"]])
        cat.feature_names_ = tuple(obj["feature_names"])
        cat.explainer_accuracy_ = obj["explainer_accuracy"]
        tree = DecisionTreeClassifier()
        tree.classes_ = np.array(obj["explainer"]["classes"], dtype=np.int64)
        tree.nodes_ = []
        for nd in obj["explainer"]["nodes"]:
            tree.nodes_.append(_Node(
                feature=nd["feature"],
                threshold=float(nd["threshold"]),
                left=nd["left"],
                right=nd["right"],
                counts=np.array([float(c) for c in nd["counts"]]),
            ))
        cat.explainer_ = tree
        return cat
