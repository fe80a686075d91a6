"""Early malicious-address detection from asset-transfer paths.

Pipeline: ingest a transaction universe, trace long/short-term backward and
forward asset-transfer paths per address, build hourly feature timelines,
select and complement features with seeded decision trees, segment the
window into population-level statuses and actions, train boosted-tree
backbones plus a survival-aware intention network, and evaluate with
early/consistency-weighted scores.
"""
from .chain import (TransactionRecord, TxInput, TxOutput, TxStore, load_labels,
                    parse_transactions, parse_transactions_file)
from .errors import (ChainSentryError, ConfigError, DataError, NotFittedError,
                     NotFoundError)
from .features import (FULL_SCHEMA, SCHEMA_HASH, SEED_SCHEMA, FeatureTimeline,
                       aggregate_path_set, feature_timeline, path_features)
from .gbt import GBTClassifier
from .intention import IntentionConfig, IntentionNetwork, SequenceBatch
from .metrics import (confident_time, evaluate, f1_consistency, f1_early,
                      timeline_metrics)
from .paths import (AssetTransferPath, ForwardTrace, PathConfig, PathParams, PathSet,
                    backward_paths, forward_paths, path_sets_for_address)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .catalogs import VectorCatalog
from .segmentation import (SegmentationPlan, SegmentationPlanner, change_ratio,
                           propose_breakpoints, segment_representations)
from .selection import (FeatureSpec, dtsc_loop, importance_partition,
                        materialize_features, train_decision_tree)
from .synth import ScenarioSpec, generate
from .tree import DecisionTreeClassifier

__version__ = "0.1.0"

__all__ = [
    "AssetTransferPath", "ChainSentryError", "ConfigError", "DataError",
    "DecisionTreeClassifier", "FeatureSpec", "FeatureTimeline", "ForwardTrace",
    "FULL_SCHEMA", "GBTClassifier", "IntentionConfig", "IntentionNetwork",
    "NotFittedError", "NotFoundError", "PathConfig", "PathParams", "PathSet",
    "PipelineConfig", "ScenarioSpec", "SCHEMA_HASH", "SEED_SCHEMA",
    "SegmentationPlan", "SegmentationPlanner", "SequenceBatch", "TransactionRecord",
    "TxInput", "TxOutput", "TxStore", "VectorCatalog", "aggregate_path_set",
    "backward_paths", "change_ratio", "confident_time", "dtsc_loop", "evaluate",
    "f1_consistency", "f1_early", "feature_timeline", "forward_paths", "generate",
    "importance_partition", "load_config", "load_labels", "materialize_features",
    "parse_transactions", "parse_transactions_file", "path_features",
    "path_sets_for_address", "propose_breakpoints", "run_pipeline",
    "segment_representations", "timeline_metrics", "train_decision_tree",
]
