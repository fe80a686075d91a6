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

import numpy as np

from .base import (ParamsMixin, as_float_matrix, as_label_vector,
                   check_binary_labels, sigmoid)
from .errors import NotFittedError
from .serialize import fmt_float
from .tree import _Node, grow, route


class _Newton:
    """Second-order gain of the logistic loss with an L2 leaf penalty."""

    min_gain, margin = 1e-12, 0.0

    def __init__(self, g: np.ndarray, h: np.ndarray, reg_lambda: float):
        self.g = g
        self.h = h
        self.reg_lambda = reg_lambda

    def node(self, node: _Node, idx: np.ndarray):
        G = self.g[idx].sum()
        H = self.h[idx].sum()
        node.value = -G / (H + self.reg_lambda)
        return G, H

    def gains(self, rows, stats, n_left, n_right):
        G, H = stats
        lam = self.reg_lambda
        gl = np.cumsum(self.g[rows])[:-1]
        hl = np.cumsum(self.h[rows])[:-1]
        gr = G - gl
        hr = H - hl
        return gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)


def _tree_predict(nodes: list[_Node], X: np.ndarray) -> np.ndarray:
    values = np.array([nd.value for nd in nodes])
    return values[route(nodes, X)]


def _tree_to_dict(nodes: list[_Node], node_id: int = 0) -> dict:
    """Nested node records (leaves carry a value, splits carry children)."""
    nd = nodes[node_id]
    if nd.feature < 0:
        return {"value": fmt_float(nd.value)}
    return {
        "feature": nd.feature,
        "threshold": fmt_float(nd.threshold),
        "left": _tree_to_dict(nodes, nd.left),
        "right": _tree_to_dict(nodes, nd.right),
    }


def _tree_from_dict(obj: dict) -> list[_Node]:
    nodes: list[_Node] = []

    def build(rec: dict) -> int:
        node_id = len(nodes)
        node = _Node()
        nodes.append(node)
        if "feature" not in rec:
            node.value = float(rec["value"])
            return node_id
        node.feature = rec["feature"]
        node.threshold = float(rec["threshold"])
        node.left = build(rec["left"])
        node.right = build(rec["right"])
        return node_id

    build(obj)
    return nodes


class GBTClassifier(ParamsMixin):
    """Boosted binary classifier with probability-pair output."""

    def __init__(self, n_rounds: int = 200, max_depth: int = 4,
                 learning_rate: float = 0.1, reg_lambda: float = 1.0,
                 min_samples_leaf: int = 1, pos_weight: float | str = "balanced",
                 base_score: float = 0.0):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.min_samples_leaf = min_samples_leaf
        self.pos_weight = pos_weight
        self.base_score = base_score
        self.trees_: list[list[_Node]] | None = None
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
            nodes = grow(Xu, cnt, _Newton(g, h, self.reg_lambda),
                         range(Xu.shape[1]), self.max_depth, self.min_samples_leaf)
            self.trees_.append(nodes)
            margin = margin + self.learning_rate * _tree_predict(nodes, Xu)
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
        for nodes in self.trees_:
            margin = margin + self.learning_rate * _tree_predict(nodes, X)
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
                "trees": [_tree_to_dict(nodes) for nodes in self.trees_],
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
        model.trees_ = [_tree_from_dict(t) for t in obj["trees"]]
        model.train_losses_ = [float(v) for v in obj["train_losses"]]
        return model

