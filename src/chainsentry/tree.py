"""Exact greedy binary trees, and the CART classifier built on them.

One growth kernel serves the Gini classifier here and the Newton-step trees
of ``gbt``.  As in XGBoost's exact greedy algorithm (Chen & Guestrin 2016)
and SLIQ (Mehta et al. 1996), each column is sorted once per tree and the
sorted lists are split along with the rows.

The classifier is written in-house rather than wrapped because downstream
consumers need the exact node layout: impurity-decrease feature importances
for the selection loop, and root-to-leaf predicate chains to render cluster
explanations.  Tie-breaking among equal-gain splits follows a seeded feature
permutation, so different seeds explore genuinely different trees on tied
data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin, as_float_matrix, as_label_vector, check_is_fitted


@dataclass(slots=True)
class _Node:
    feature: int = -1          # -1 marks a leaf
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    n: int = 0                 # training rows that reach the node
    gain: float = 0.0          # criterion gain of the chosen split
    counts: np.ndarray | None = None   # class counts (CART)
    value: float = 0.0                 # leaf value (boosted trees)


def grow(X, weight, criterion, features, max_depth, min_samples_leaf) -> list[_Node]:
    """Exact greedy growth shared by the CART and the boosted trees.

    A child's sorted columns are a stable partition of its parent's and row
    lists stay ascending, so each scan sees the order a per-node stable
    argsort would give.  ``weight`` counts rows for ``min_samples_leaf``;
    ``features`` is the scan order, which breaks ties.  ``criterion.node``
    fills in a node and returns its statistics, or None for a pure node;
    ``criterion.gains`` scores the cut after each position of one sorted
    column.  A cut wins when it beats the best gain so far, which starts at
    ``criterion.min_gain``, by more than ``criterion.margin``.
    """
    n, d = X.shape
    nodes: list[_Node] = []
    # (rows, depth, parent, is_right, (parent's sorted columns, goes left)).
    stack = [(np.arange(n), 0, -1, False, None)]
    while stack:
        idx, depth, parent, is_right, part = stack.pop()
        node_id = len(nodes)
        node = _Node(n=idx.size)
        nodes.append(node)
        if parent >= 0:
            if is_right:
                nodes[parent].right = node_id
            else:
                nodes[parent].left = node_id
        stats = criterion.node(node, idx)
        total = weight[idx].sum()
        if depth >= max_depth or total < 2 * min_samples_leaf or stats is None:
            continue
        if part is None:
            cols = np.argsort(X.T, axis=1, kind="stable")
        else:
            parent_cols, goes_left = part
            keep = goes_left[parent_cols]
            cols = parent_cols[~keep if is_right else keep].reshape(d, -1)
        best, split = criterion.min_gain, None
        for f in features:
            rows = cols[f]
            v = X[rows, f]
            if v[0] == v[-1]:
                continue
            n_left = np.cumsum(weight[rows])[:-1]
            n_right = total - n_left
            # Valid cut positions: value changes and both children big enough.
            valid = ((v[1:] != v[:-1]) & (n_left >= min_samples_leaf)
                     & (n_right >= min_samples_leaf))
            if not valid.any():
                continue
            gain = criterion.gains(rows, stats, n_left, n_right)
            gain[~valid] = -np.inf
            pos = int(np.argmax(gain))
            if gain[pos] > best + criterion.margin:
                best = float(gain[pos])
                split = (int(f), float((v[pos] + v[pos + 1]) / 2.0))
        if split is None:
            continue
        node.feature, node.threshold = split
        node.gain = best
        goes_left = X[:, node.feature] <= node.threshold
        mask = goes_left[idx]
        stack.append((idx[~mask], depth + 1, node_id, True, (cols, goes_left)))
        stack.append((idx[mask], depth + 1, node_id, False, (cols, goes_left)))
    return nodes


def route(nodes: list[_Node], X: np.ndarray) -> np.ndarray:
    """Leaf id reached by each row of ``X``."""
    out = np.zeros(X.shape[0], dtype=np.int64)
    todo = [(np.arange(X.shape[0]), 0)]
    while todo:
        idx, node_id = todo.pop()
        node = nodes[node_id]
        if node.feature < 0:
            out[idx] = node_id
            continue
        mask = X[idx, node.feature] <= node.threshold
        todo.append((idx[mask], node.left))
        todo.append((idx[~mask], node.right))
    return out


class _Gini:
    """Gini impurity decrease; accepts only gains clear of rounding noise."""

    min_gain, margin = 0.0, 1e-15

    def __init__(self, onehot: np.ndarray):
        self.onehot = onehot

    def node(self, node: _Node, idx: np.ndarray):
        counts = self.onehot[idx].sum(axis=0)
        node.counts = counts
        p = counts / idx.size
        impurity = 1.0 - float(np.sum(p * p)) if idx.size else 0.0
        return (counts, impurity) if impurity > 0.0 else None

    def gains(self, rows, stats, n_left, n_right):
        counts, impurity = stats
        left_counts = np.cumsum(self.onehot[rows], axis=0)[:-1]
        right_counts = counts[None, :] - left_counts
        gl = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gr = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        return impurity - (n_left * gl + n_right * gr) / rows.size


class DecisionTreeClassifier(ParamsMixin):
    """Greedy binary-split CART classifier (multiclass, Gini)."""

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 5,
                 random_state: int | None = None):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.nodes_: list[_Node] | None = None

    def fit(self, X, y):
        X = as_float_matrix(X)
        y = as_label_vector(y, X.shape[0])
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n, d = X.shape
        rng = np.random.default_rng(self.random_state)
        feature_order = rng.permutation(d)
        onehot = np.zeros((n, self.classes_.size))
        onehot[np.arange(n), y_enc] = 1.0
        self.nodes_ = grow(X, np.ones(n), _Gini(onehot), feature_order,
                           self.max_depth, self.min_samples_leaf)
        raw = np.zeros(d)
        for node in self.nodes_:
            if node.feature >= 0:
                raw[node.feature] += node.n * node.gain / n
        s = raw.sum()
        self.feature_importances_ = raw / s if s > 0 else raw.copy()
        self.n_features_ = d
        return self

    # -- inference ----------------------------------------------------------

    def apply(self, X) -> np.ndarray:
        check_is_fitted(self, "nodes_")
        return route(self.nodes_, as_float_matrix(X))

    def predict_proba(self, X) -> np.ndarray:
        leaves = self.apply(X)
        out = np.empty((leaves.size, self.classes_.size))
        for i, leaf in enumerate(leaves):
            counts = self.nodes_[leaf].counts
            out[i] = counts / counts.sum()
        return out

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def n_leaves_(self) -> int:
        check_is_fitted(self, "nodes_")
        return sum(1 for nd in self.nodes_ if nd.feature < 0)

    @property
    def depth_(self) -> int:
        check_is_fitted(self, "nodes_")

        def walk(node_id, depth):
            node = self.nodes_[node_id]
            if node.feature < 0:
                return depth
            return max(walk(node.left, depth + 1), walk(node.right, depth + 1))

        return walk(0, 0)

    # -- introspection -------------------------------------------------------

    def leaf_predicates(self, leaf_id: int) -> list[tuple[int, str, float]]:
        """Root-to-leaf chain of (feature, '<=' or '>', threshold)."""
        check_is_fitted(self, "nodes_")
        parent = {}
        for nid, node in enumerate(self.nodes_):
            if node.feature >= 0:
                parent[node.left] = (nid, "<=")
                parent[node.right] = (nid, ">")
        chain = []
        while leaf_id in parent:
            leaf_id, op = parent[leaf_id]
            node = self.nodes_[leaf_id]
            chain.append((node.feature, op, node.threshold))
        return chain[::-1]

    def leaves_for_class(self, class_value) -> list[tuple[int, float]]:
        """Leaves predicting ``class_value`` with their member counts."""
        check_is_fitted(self, "nodes_")
        cls_pos = int(np.flatnonzero(self.classes_ == class_value)[0])
        out = []
        for nid, node in enumerate(self.nodes_):
            if node.feature < 0 and int(np.argmax(node.counts)) == cls_pos:
                out.append((nid, float(node.counts[cls_pos])))
        return out
