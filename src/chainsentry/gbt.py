"""Second-order gradient boosting for binary classification.

Each round fits a regression tree to the Newton step of the logistic loss:
split gain and leaf values come from per-side gradient/hessian sums with an
L2 leaf penalty.  Training internally groups identical (row, label) pairs
and carries multiplicities, which keeps the model exactly invariant under
row duplication and makes boosting over a small vocabulary of prototype
vectors cheap.  No subsampling is used, so a fit is fully deterministic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .base import (ParamsMixin, as_float_matrix, as_label_vector,
                   check_binary_labels, sigmoid)
from .errors import DataError, NotFittedError
from .serialize import fmt_float


@dataclass(slots=True)
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0


class _RegressionTree:
    """Depth-bounded tree over (G, H) statistics; deterministic scan order."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_TreeNode] = []

    def fit(self, X, g, h, counts, max_depth, min_samples_leaf, reg_lambda):
        self.nodes = []
        stack = [(np.arange(X.shape[0]), 0, -1, False)]
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node_id = len(self.nodes)
            node = _TreeNode()
            self.nodes.append(node)
            if parent >= 0:
                if is_right:
                    self.nodes[parent].right = node_id
                else:
                    self.nodes[parent].left = node_id
            G = g[idx].sum()
            H = h[idx].sum()
            node.value = -G / (H + reg_lambda)
            if depth >= max_depth or counts[idx].sum() < 2 * min_samples_leaf:
                continue
            best = self._best_split(X, g, h, counts, idx, G, H,
                                    min_samples_leaf, reg_lambda)
            if best is None:
                continue
            feature, threshold = best
            node.feature = feature
            node.threshold = threshold
            mask = X[idx, feature] <= threshold
            stack.append((idx[~mask], depth + 1, node_id, True))
            stack.append((idx[mask], depth + 1, node_id, False))

    @staticmethod
    def _best_split(X, g, h, counts, idx, G, H, min_samples_leaf, reg_lambda):
        parent_score = G * G / (H + reg_lambda)
        best_gain = 1e-12
        best = None
        for f in range(X.shape[1]):
            vals = X[idx, f]
            order = np.argsort(vals, kind="stable")
            v = vals[order]
            if v[0] == v[-1]:
                continue
            gl = np.cumsum(g[idx[order]])[:-1]
            hl = np.cumsum(h[idx[order]])[:-1]
            nl = np.cumsum(counts[idx[order]])[:-1]
            valid = (v[1:] != v[:-1]) & (nl >= min_samples_leaf) \
                & (counts[idx].sum() - nl >= min_samples_leaf)
            if not valid.any():
                continue
            gr = G - gl
            hr = H - hl
            gain = gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent_score
            gain[~valid] = -np.inf
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                best = (f, float((v[pos] + v[pos + 1]) / 2.0))
        return best

    def predict(self, X) -> np.ndarray:
        out = np.zeros(X.shape[0])
        todo = [(np.arange(X.shape[0]), 0)]
        while todo:
            idx, node_id = todo.pop()
            node = self.nodes[node_id]
            if node.feature < 0:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            todo.append((idx[mask], node.left))
            todo.append((idx[~mask], node.right))
        return out

    def to_dict(self) -> dict:
        """Nested node records (leaves carry a value, splits carry children)."""

        def render(node_id: int) -> dict:
            nd = self.nodes[node_id]
            if nd.feature < 0:
                return {"value": fmt_float(nd.value)}
            return {
                "feature": nd.feature,
                "threshold": fmt_float(nd.threshold),
                "left": render(nd.left),
                "right": render(nd.right),
            }

        return render(0)

    @classmethod
    def from_dict(cls, obj: dict) -> "_RegressionTree":
        tree = cls()

        def build(rec: dict) -> int:
            node_id = len(tree.nodes)
            tree.nodes.append(_TreeNode())
            if "feature" not in rec:
                tree.nodes[node_id].value = float(rec["value"])
                return node_id
            tree.nodes[node_id].feature = rec["feature"]
            tree.nodes[node_id].threshold = float(rec["threshold"])
            tree.nodes[node_id].left = build(rec["left"])
            tree.nodes[node_id].right = build(rec["right"])
            return node_id

        build(obj)
        return tree


class GBTClassifier(ParamsMixin):
    """Boosted binary classifier with probability-pair output."""

    def __init__(self, n_rounds: int = 200, max_depth: int = 4,
                 learning_rate: float = 0.1, reg_lambda: float = 1.0,
                 min_samples_leaf: int = 1, pos_weight: float | str = "balanced",
                 base_score: float = 0.0, random_state: int = 0):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.min_samples_leaf = min_samples_leaf
        self.pos_weight = pos_weight
        self.base_score = base_score
        self.random_state = random_state
        self.trees_: list[_RegressionTree] | None = None
        self.train_losses_: list[float] | None = None

    def _resolve_pos_weight(self, y) -> float:
        if self.pos_weight == "balanced":
            n_pos = int(np.sum(y == 1))
            n_neg = int(np.sum(y == 0))
            return n_neg / n_pos
        return float(self.pos_weight)

    def fit(self, X, y):
        X = as_float_matrix(X)
        y = as_label_vector(y, X.shape[0])
        check_binary_labels(y)
        pos_weight = self._resolve_pos_weight(y)

        rows = np.hstack([X, y[:, None].astype(np.float64)])
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        Xu = uniq[:, :-1]
        yu = uniq[:, -1]
        w = counts.astype(np.float64) * np.where(yu == 1, pos_weight, 1.0)
        # Mean-one weights keep per-group statistics, and hence the whole
        # fit, invariant under uniform row duplication without rescaling the
        # leaf penalty.
        w = w / w.mean()
        cnt = counts.astype(np.float64)

        margin = np.full(Xu.shape[0], self.base_score)
        self.trees_ = []
        self.train_losses_ = []
        for _ in range(self.n_rounds):
            p = sigmoid(margin)
            g = w * (p - yu)
            h = w * p * (1.0 - p)
            tree = _RegressionTree()
            tree.fit(Xu, g, h, cnt, self.max_depth, self.min_samples_leaf,
                     self.reg_lambda)
            self.trees_.append(tree)
            margin = margin + self.learning_rate * tree.predict(Xu)
            p = sigmoid(margin)
            eps = 1e-15
            ll = -(yu * np.log(np.clip(p, eps, 1.0))
                   + (1.0 - yu) * np.log(np.clip(1.0 - p, eps, 1.0)))
            self.train_losses_.append(float(np.sum(w * ll) / np.sum(w)))
        return self

    def decision_margin(self, X) -> np.ndarray:
        if self.trees_ is None:
            raise NotFittedError("GBTClassifier is not fitted")
        X = as_float_matrix(X)
        margin = np.full(X.shape[0], self.base_score)
        for tree in self.trees_:
            margin = margin + self.learning_rate * tree.predict(X)
        return margin

    def predict_proba(self, X) -> np.ndarray:
        p1 = sigmoid(self.decision_margin(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        if self.trees_ is None:
            raise NotFittedError("GBTClassifier is not fitted")
        return json.dumps(
            {
                "params": {
                    "n_rounds": self.n_rounds,
                    "max_depth": self.max_depth,
                    "learning_rate": fmt_float(self.learning_rate),
                    "reg_lambda": fmt_float(self.reg_lambda),
                    "min_samples_leaf": self.min_samples_leaf,
                    "pos_weight": (self.pos_weight if isinstance(self.pos_weight, str)
                                   else fmt_float(self.pos_weight)),
                    "base_score": fmt_float(self.base_score),
                },
                "train_losses": [fmt_float(v) for v in self.train_losses_],
                "trees": [t.to_dict() for t in self.trees_],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GBTClassifier":
        obj = json.loads(text)
        params = obj["params"]
        pw = params["pos_weight"]
        model = cls(
            n_rounds=params["n_rounds"],
            max_depth=params["max_depth"],
            learning_rate=float(params["learning_rate"]),
            reg_lambda=float(params["reg_lambda"]),
            min_samples_leaf=params["min_samples_leaf"],
            pos_weight=pw if pw == "balanced" else float(pw),
            base_score=float(params["base_score"]),
        )
        model.trees_ = [_RegressionTree.from_dict(t) for t in obj["trees"]]
        model.train_losses_ = [float(v) for v in obj["train_losses"]]
        return model


def train_gbt(vectors, labels, seed: int = 0, **kwargs) -> GBTClassifier:
    """Convenience trainer; ``seed`` is accepted for interface symmetry but
    the fit has no stochastic components."""
    if np.unique(np.asarray(labels)).size < 2:
        raise DataError("training labels must contain both classes")
    return GBTClassifier(random_state=seed, **kwargs).fit(vectors, labels)
