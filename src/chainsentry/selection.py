"""Tree-guided feature selection with complement/reserve/delete lists.

Round zero trains on the 68-column seed view (address features plus the avg
aggregate of every path feature).  Each round trains ten seeded trees,
partitions the seed feature names by the best run's importance profile, and
accepts the partition only while the round-average validation F1 keeps the
best running average.  Accepted complement-listed path features expand from
their avg column to (avg, max, min, std); zero-importance features are
dropped.

Address features and per-set path counts have no spread statistics, so they
can be reserved or deleted but never complemented.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .base import as_float_matrix, as_label_vector, binary_f1, stratified_split
from .errors import DataError
from .features import (ADDRESS_FEATURES, AGG_STATS, FULL_SCHEMA, PATH_BASE_FEATURES,
                       PATH_SET_NAMES, SCHEMA_HASH)
from .tree import DecisionTreeClassifier

# Seed-level feature names: 16 address + 4 path counts + 48 path features.
PATH_COUNT_NAMES = tuple(f"{s}__path_count" for s in PATH_SET_NAMES)
PATH_FEATURE_NAMES = tuple(
    f"{s}__{b}" for s in PATH_SET_NAMES for b in PATH_BASE_FEATURES
)
SEED_FEATURE_NAMES = ADDRESS_FEATURES + PATH_COUNT_NAMES + PATH_FEATURE_NAMES
COMPLEMENTABLE = frozenset(PATH_FEATURE_NAMES)

_COLUMN_OF = {name: i for i, name in enumerate(FULL_SCHEMA)}


@dataclass(frozen=True, slots=True)
class FeatureSpec:
    """Disjoint partition of the seed feature names."""

    complement: tuple[str, ...]
    reserve: tuple[str, ...]
    delete: tuple[str, ...]
    round: int = 0
    round_scores: tuple[float, ...] = ()
    seed_schema_hash: str = SCHEMA_HASH

    def __post_init__(self):
        lists = (set(self.complement), set(self.reserve), set(self.delete))
        if sum(len(s) for s in lists) != len(set().union(*lists)):
            raise DataError("feature lists must be pairwise disjoint")
        if set().union(*lists) != set(SEED_FEATURE_NAMES):
            raise DataError("feature lists must partition the seed feature names")
        if not set(self.complement) <= COMPLEMENTABLE:
            raise DataError("only spread-capable path features may be complemented")

    @classmethod
    def initial(cls) -> "FeatureSpec":
        return cls(complement=(), reserve=tuple(SEED_FEATURE_NAMES), delete=())

    def column_names(self) -> tuple[str, ...]:
        """Materialized column names in frozen schema order."""
        complement = set(self.complement)
        delete = set(self.delete)
        cols: list[str] = []
        for name in ADDRESS_FEATURES:
            if name not in delete:
                cols.append(name)
        for set_name in PATH_SET_NAMES:
            count = f"{set_name}__path_count"
            if count not in delete:
                cols.append(count)
            for base in PATH_BASE_FEATURES:
                name = f"{set_name}__{base}"
                if name in delete:
                    continue
                if name in complement:
                    cols.extend(f"{name}__{stat}" for stat in AGG_STATS)
                else:
                    cols.append(f"{name}__avg")
        return tuple(cols)

    def to_json(self) -> str:
        return json.dumps(
            {
                "complement": list(self.complement),
                "reserve": list(self.reserve),
                "delete": list(self.delete),
                "round": self.round,
                "round_scores": list(self.round_scores),
                "seed_schema_hash": self.seed_schema_hash,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FeatureSpec":
        obj = json.loads(text)
        return cls(
            complement=tuple(obj["complement"]),
            reserve=tuple(obj["reserve"]),
            delete=tuple(obj["delete"]),
            round=obj["round"],
            round_scores=tuple(obj["round_scores"]),
            seed_schema_hash=obj["seed_schema_hash"],
        )


def materialize_features(spec: FeatureSpec, full_matrix: np.ndarray) -> np.ndarray:
    """Select the spec's columns out of the full 212-column matrix."""
    full_matrix = as_float_matrix(full_matrix, "full_matrix")
    if full_matrix.shape[1] != len(FULL_SCHEMA):
        raise DataError(
            f"expected {len(FULL_SCHEMA)} columns, got {full_matrix.shape[1]}"
        )
    idx = [_COLUMN_OF[name] for name in spec.column_names()]
    return full_matrix[:, idx]


def _seed_name_of_column(column_name: str) -> str:
    if column_name in ADDRESS_FEATURES or column_name.endswith("__path_count"):
        return column_name
    for stat in AGG_STATS:
        suffix = f"__{stat}"
        if column_name.endswith(suffix):
            return column_name[: -len(suffix)]
    raise DataError(f"unrecognized column name {column_name!r}")


def train_decision_tree(X, y, seed: int, max_depth: int = 8,
                        min_samples_leaf: int = 5, val_fraction: float = 0.2):
    """One seeded train/validate run; returns (model, validation F1)."""
    X = as_float_matrix(X)
    y = as_label_vector(y, X.shape[0])
    if np.unique(y).size < 2:
        model = DecisionTreeClassifier(max_depth, min_samples_leaf, seed)
        model.fit(X, np.zeros(X.shape[0], dtype=np.int64))
        return model, 0.0
    rng = np.random.default_rng(seed)
    train_idx, val_idx = stratified_split(y, val_fraction, rng)
    model = DecisionTreeClassifier(max_depth, min_samples_leaf, seed)
    model.fit(X[train_idx], y[train_idx])
    score = binary_f1(y[val_idx], model.predict(X[val_idx]))
    return model, score


def importance_partition(importances: dict[str, float], theta_c: float) -> FeatureSpec:
    """Partition seed feature names by importance against theta_c * max.

    Importance at or above the bar sends spread-capable path features to the
    complement list (others stay reserved); zero importance deletes;
    everything else is reserved.
    """
    if not 0.0 < theta_c < 1.0:
        raise DataError(f"theta_c must be in (0, 1), got {theta_c}")
    values = {name: float(importances.get(name, 0.0)) for name in SEED_FEATURE_NAMES}
    s_max = max(values.values())
    if s_max <= 0.0:
        raise DataError("all feature importances are zero; aborting the round")
    complement, reserve, delete = [], [], []
    for name in SEED_FEATURE_NAMES:
        imp = values[name]
        if imp == 0.0:
            delete.append(name)
        elif imp >= theta_c * s_max and name in COMPLEMENTABLE:
            complement.append(name)
        else:
            reserve.append(name)
    return FeatureSpec(tuple(complement), tuple(reserve), tuple(delete))


def _column_importances_to_seed(model: DecisionTreeClassifier,
                                column_names: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    for col, imp in zip(column_names, model.feature_importances_):
        out[_seed_name_of_column(col)] = out.get(_seed_name_of_column(col), 0.0) + float(imp)
    return out


def dtsc_loop(full_matrix, y, theta_c: float = 0.5, n_runs: int = 10,
              max_rounds: int = 16, max_depth: int = 8, min_samples_leaf: int = 5,
              val_fraction: float = 0.2, seeds=None) -> FeatureSpec:
    """Iterative select-and-complement over the seed feature space.

    Per round, ``n_runs`` seeded train/validate runs are scored; the round is
    accepted while its average score does not drop below the best running
    average, and the best run's importance partition becomes the next spec.
    The loop stops on the first rejected round, on a partition fixed point,
    or after ``max_rounds``.
    """
    full_matrix = as_float_matrix(full_matrix, "full_matrix")
    y = as_label_vector(y, full_matrix.shape[0])
    if seeds is None:
        seeds = tuple(range(n_runs))
    seeds = tuple(seeds)

    spec = FeatureSpec.initial()
    best_avg = 0.0
    scores: list[float] = []
    for round_no in range(max_rounds):
        X = materialize_features(spec, full_matrix)
        runs = [
            train_decision_tree(X, y, seed, max_depth, min_samples_leaf, val_fraction)
            for seed in seeds
        ]
        avg = float(np.mean([s for _, s in runs]))
        if round_no == 0 and avg == 0.0 and all(m.n_leaves_ <= 1 for m, _ in runs):
            raise DataError("degenerate round-0 training: no usable splits")
        if avg < best_avg:
            break
        best_avg = avg
        scores.append(avg)
        best_run = int(np.argmax([s for _, s in runs]))  # ties: lowest seed index
        best_model = runs[best_run][0]
        seed_importances = _column_importances_to_seed(best_model, spec.column_names())
        try:
            new_spec = importance_partition(seed_importances, theta_c)
        except DataError:
            break
        changed = (set(new_spec.complement) != set(spec.complement)
                   or set(new_spec.delete) != set(spec.delete))
        spec = FeatureSpec(new_spec.complement, new_spec.reserve, new_spec.delete,
                           round=round_no + 1, round_scores=tuple(scores))
        if not changed:
            break
    return FeatureSpec(spec.complement, spec.reserve, spec.delete,
                       round=spec.round, round_scores=tuple(scores))
