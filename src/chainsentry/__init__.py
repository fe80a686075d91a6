"""Early malicious-address detection from asset-transfer paths.

Pipeline: ingest a transaction universe, trace long/short-term backward and
forward asset-transfer paths per address, build hourly feature timelines,
select and complement features with seeded decision trees, segment the
window into population-level statuses and actions, train boosted-tree
backbones plus a survival-aware intention network, and evaluate with
early/consistency-weighted scores.
"""
from .chain import (AddressHistory, TransactionRecord, TxInput, TxOutput, TxStore,
                    address_history, expand_pairs, load_labels, parse_transactions,
                    parse_transactions_file, serialize_transactions)
from .errors import (ChainSentryError, ConfigError, DataError, NotFittedError,
                     NotFoundError)
from .features import (FULL_SCHEMA, SCHEMA_HASH, SEED_SCHEMA, FeatureTimeline,
                       aggregate_path_set, feature_timeline, path_features)
from .gbt import GBTClassifier
from .intention import IntentionConfig, IntentionNetwork, SequenceBatch
from .metrics import (confident_time, evaluate, f1_consistency, f1_early,
                      timeline_metrics)
from .paths import (AssetTransferPath, ForwardTrace, PathConfig, PathParams, PathSet,
                    backward_paths, forward_paths, influence_pairs,
                    path_sets_for_address, trust_pairs)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .catalogs import VectorCatalog, fit_catalogs
from .segmentation import (SegmentationPlan, SegmentationPlanner, change_ratio,
                           propose_breakpoints, segment_representations)
from .selection import (FeatureSelector, FeatureSpec, dtsc_loop, importance_partition,
                        materialize_features, train_decision_tree)
from .synth import ScenarioSpec, generate
from .tree import DecisionTreeClassifier

__version__ = "0.1.0"

__all__ = [
    "AddressHistory", "AssetTransferPath", "ChainSentryError", "ConfigError",
    "DataError", "DecisionTreeClassifier", "FeatureSelector", "FeatureSpec",
    "FeatureTimeline", "ForwardTrace", "FULL_SCHEMA", "GBTClassifier",
    "IntentionConfig", "IntentionNetwork", "NotFittedError", "NotFoundError",
    "PathConfig", "PathParams", "PathSet", "PipelineConfig", "ScenarioSpec",
    "SCHEMA_HASH", "SEED_SCHEMA", "SegmentationPlan", "SegmentationPlanner",
    "SequenceBatch", "TransactionRecord", "TxInput", "TxOutput", "TxStore",
    "VectorCatalog", "address_history", "aggregate_path_set", "backward_paths",
    "change_ratio", "confident_time", "dtsc_loop", "evaluate", "expand_pairs",
    "f1_consistency", "f1_early", "feature_timeline", "fit_catalogs",
    "forward_paths", "generate", "importance_partition", "influence_pairs",
    "load_config", "load_labels", "materialize_features", "parse_transactions",
    "parse_transactions_file", "path_features", "path_sets_for_address",
    "propose_breakpoints", "run_pipeline", "segment_representations",
    "serialize_transactions", "timeline_metrics", "train_decision_tree",
    "trust_pairs",
]
