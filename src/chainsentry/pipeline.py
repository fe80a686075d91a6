"""File-based pipeline stages and their shared configuration.

Every stage reads the previous stage's artifacts from the output directory,
writes its own, and can be re-run in isolation.  All outputs are plain,
deterministically serialized files; ``manifest.json`` records input/output
hashes per stage for staleness checks.  Reruns with the same inputs and seed
produce byte-identical artifacts.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .base import stratified_split
from .catalogs import VectorCatalog
from .chain import TxStore, load_labels, parse_transactions_file
from .errors import ConfigError, DataError, NotFoundError
from .features import (FeatureTimeline, feature_timeline, read_feature_csv,
                       write_feature_csv, write_schema_json)
from .gbt import GBTClassifier
from .intention import (IntentionConfig, IntentionNetwork, SequenceBatch,
                        load_params, save_params, save_params_json)
from .intention.network import forward_pass, motif, t_die
from .metrics import evaluate, write_eval_csv, write_survival_csv
from .paths import PathParams, path_sets_for_address
from .segmentation import (SegmentationPlan, SegmentationPlanner,
                           segment_representations)
from .serialize import fmt_float
from .selection import FeatureSpec, dtsc_loop, materialize_features
from .synth import ScenarioSpec, generate, write_universe

DAY_SECONDS = 86400.0


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DataConfig:
    transactions: str = "transactions.jsonl"
    labels: str = "labels.csv"


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    specs: tuple[dict, ...] = (
        {"kind": "hack", "count": 10},
        {"kind": "exchange", "count": 70},
        {"kind": "merchant", "count": 50},
        {"kind": "gambling", "count": 40},
        {"kind": "mining", "count": 30},
    )
    noise_level: float = 0.5
    jitter_seconds: int = 300
    stagger_hours: int = 72


@dataclass(frozen=True, slots=True)
class PathStageConfig:
    lt_threshold: float = 0.5
    lt_span_days: float = 7.0
    st_threshold: float = 0.01
    st_span_days: float = 1.0
    max_paths_per_set: int = 10_000

    def params(self) -> PathParams:
        return PathParams(
            lt_threshold=self.lt_threshold,
            lt_span=self.lt_span_days * DAY_SECONDS,
            st_threshold=self.st_threshold,
            st_span=self.st_span_days * DAY_SECONDS,
            max_paths_per_set=self.max_paths_per_set,
        )


@dataclass(frozen=True, slots=True)
class SelectionConfig:
    theta_c: float = 0.5
    runs_per_round: int = 10
    max_rounds: int = 16
    tree_max_depth: int = 8
    tree_min_samples_leaf: int = 5
    val_fraction: float = 0.2


@dataclass(frozen=True, slots=True)
class SegmentationConfig:
    theta_s: float = 0.5
    delta: float = 1e-8


@dataclass(frozen=True, slots=True)
class CatalogConfig:
    k_status: int = 16
    k_action: int = 16
    max_fit_vectors: int = 5000
    explainer_max_depth: int = 16


@dataclass(frozen=True, slots=True)
class GbtConfig:
    n_rounds: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    min_samples_leaf: int = 1


@dataclass(frozen=True, slots=True)
class IntentionStageConfig:
    d_e: int = 16
    d_z: int = 3
    d_h: int = 32
    gamma_v: float = 1.0
    gamma_c: float = 1.0
    gamma_e: float = 1.0
    recon_weight: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 64
    death_eps: float = 0.01
    use_index_embedding: bool = False

    def to_intention_config(self, seed: int) -> IntentionConfig:
        return IntentionConfig(
            d_e=self.d_e, d_z=self.d_z, d_h=self.d_h,
            gamma_v=self.gamma_v, gamma_c=self.gamma_c, gamma_e=self.gamma_e,
            recon_weight=self.recon_weight, learning_rate=self.learning_rate,
            epochs=self.epochs, batch_size=self.batch_size, seed=seed,
            death_eps=self.death_eps,
            use_index_embedding=self.use_index_embedding,
        )


@dataclass(frozen=True, slots=True)
class SplitConfig:
    holdout_fraction: float = 0.25


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    seed: int = 7
    hours: int = 24
    data: DataConfig = field(default_factory=DataConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    paths: PathStageConfig = field(default_factory=PathStageConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    catalogs: CatalogConfig = field(default_factory=CatalogConfig)
    gbt: GbtConfig = field(default_factory=GbtConfig)
    intention: IntentionStageConfig = field(default_factory=IntentionStageConfig)
    split: SplitConfig = field(default_factory=SplitConfig)


_SECTION_TYPES = {
    "data": DataConfig,
    "scenario": ScenarioConfig,
    "paths": PathStageConfig,
    "selection": SelectionConfig,
    "segmentation": SegmentationConfig,
    "catalogs": CatalogConfig,
    "gbt": GbtConfig,
    "intention": IntentionStageConfig,
    "split": SplitConfig,
}


def _build_section(cls, payload: dict, context: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{context}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = dict(payload)
    if cls is ScenarioConfig and "specs" in kwargs:
        kwargs["specs"] = tuple(kwargs["specs"])
    return cls(**kwargs)


def load_config(path_or_payload) -> PipelineConfig:
    """Load and validate a pipeline config; unknown keys are rejected."""
    if isinstance(path_or_payload, (str, Path)):
        with open(path_or_payload, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = dict(path_or_payload)
    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    top_names = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(payload) - top_names
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        else:
            kwargs[key] = value
    cfg = PipelineConfig(**kwargs)
    if cfg.hours < 2:
        raise ConfigError("hours must be >= 2")
    return cfg


# -- manifest ------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def record_stage(out_dir: Path, stage: str, inputs: list[Path], outputs: list[Path]) -> None:
    manifest_path = out_dir / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    manifest[stage] = {
        "inputs": {p.name: _sha256(p) for p in inputs if p.exists()},
        "outputs": {p.name: _sha256(p) for p in outputs if p.exists()},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require(path: Path, stage_hint: str) -> Path:
    if not path.exists():
        raise DataError(
            f"missing artifact {path.name}; run the '{stage_hint}' stage first"
        )
    return path


# -- stages -------------------------------------------------------------------


def stage_synth(config: PipelineConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = [ScenarioSpec(**s) for s in config.scenario.specs]
    records, labels, meta = generate(
        specs, config.seed, config.scenario.noise_level,
        config.scenario.jitter_seconds, config.scenario.stagger_hours,
    )
    scenario_payload = {
        "specs": [dict(s) for s in config.scenario.specs],
        "noise_level": config.scenario.noise_level,
        "jitter_seconds": config.scenario.jitter_seconds,
        "stagger_hours": config.scenario.stagger_hours,
        "seed": config.seed,
    }
    write_universe(out_dir, records, labels, meta, scenario_payload)
    record_stage(out_dir, "synth", [],
                 [out_dir / "transactions.jsonl", out_dir / "labels.csv",
                  out_dir / "scenario.json"])


def load_store(config: PipelineConfig, out_dir: Path) -> TxStore:
    tx_path = _require(out_dir / config.data.transactions, "synth")
    labels_path = _require(out_dir / config.data.labels, "synth")
    labels = load_labels(labels_path)
    return parse_transactions_file(tx_path, labels)


def stage_ingest(config: PipelineConfig, out_dir: Path) -> dict:
    store = load_store(config, out_dir)
    report = {
        "transactions": len(store),
        "addresses": len(list(store.addresses())),
        "labeled_addresses": len(store.labels),
        "rejected_lines": len(store.report.line_errors),
        "line_errors": [
            {"line": line_no, "reason": reason}
            for line_no, reason in store.report.line_errors[:100]
        ],
        "warnings": store.report.warnings[:100],
        "boundary_inputs": store.report.boundary_inputs,
        "ambiguous_owners": store.report.ambiguous_owners,
    }
    path = out_dir / "ingest_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    record_stage(out_dir, "ingest",
                 [out_dir / config.data.transactions, out_dir / config.data.labels],
                 [path])
    return report


def stage_paths(config: PipelineConfig, out_dir: Path,
                addresses: list[str] | None = None) -> None:
    """Dump the four path sets per labeled address at the end of the window."""
    store = load_store(config, out_dir)
    params = config.paths.params()
    paths_dir = out_dir / "paths"
    paths_dir.mkdir(parents=True, exist_ok=True)
    targets = sorted(addresses or store.labels)
    outputs = []
    for address in targets:
        events = [store.tx(t).timestamp for t in store.receive_txs(address)]
        events += [store.tx(t).timestamp for t in store.spend_txs(address)]
        if not events:
            continue
        t_now = min(events) + config.hours * 3600
        sets = path_sets_for_address(store, address, t_now, params)
        dump = paths_dir / f"{address}.jsonl"
        with open(dump, "w", encoding="utf-8") as fh:
            for set_name in ("lt_bk", "st_bk", "lt_fr", "st_fr"):
                ps = sets[set_name]
                for p in sorted(ps.paths, key=lambda q: q.key):
                    fh.write(json.dumps({
                        "direction": p.direction,
                        "horizon": p.horizon,
                        "anchor": p.anchor_tx,
                        "score": repr(p.score),
                        "hops": [[h[0], repr(h[1]), h[2]] for h in p.hops],
                    }, sort_keys=True) + "\n")
        outputs.append(dump)
    record_stage(out_dir, "paths",
                 [out_dir / config.data.transactions, out_dir / config.data.labels],
                 outputs)


_WORKER_STATE: dict = {}


def _feature_worker_init(tx_path, labels_path, hours, params):
    labels = load_labels(labels_path)
    _WORKER_STATE["store"] = parse_transactions_file(tx_path, labels)
    _WORKER_STATE["hours"] = hours
    _WORKER_STATE["params"] = params


def _feature_worker(batch: list[str]) -> list[FeatureTimeline]:
    return [feature_timeline(_WORKER_STATE["store"], address,
                             _WORKER_STATE["hours"], _WORKER_STATE["params"])
            for address in batch]


def iter_timelines(store: TxStore, addresses: list[str], hours: int,
                   params: PathParams, jobs: int = 1,
                   tx_path=None, labels_path=None) -> Iterator[FeatureTimeline]:
    """Per-address feature timelines, optionally built across worker
    processes, yielded one at a time in input order whatever the worker count.

    With a fork start method the workers inherit the already-built store
    copy-on-write; otherwise they re-open the transaction file.  The workers
    live as long as the generator: an error in a worker, or closing the
    generator, cancels the batches not yet started and waits for the running
    ones, so no worker is killed while it holds the result queue.
    """
    if jobs <= 1:
        for address in addresses:
            yield feature_timeline(store, address, hours, params)
        return
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(addresses) // (jobs * 4))
    executor = None
    try:
        if "fork" in mp.get_all_start_methods():
            _WORKER_STATE.update(store=store, hours=hours, params=params)
            executor = ProcessPoolExecutor(jobs, mp_context=mp.get_context("fork"))
        elif tx_path is None:
            raise DataError("parallel timeline building requires file paths")
        else:
            executor = ProcessPoolExecutor(jobs, initializer=_feature_worker_init,
                                           initargs=(tx_path, labels_path, hours, params))
        batches = [addresses[i:i + chunk] for i in range(0, len(addresses), chunk)]
        # Each timeline leaves its batch as it is yielded, so the caller
        # alone decides how long it stays alive.
        for timelines in executor.map(_feature_worker, batches):
            timelines.reverse()
            while timelines:
                yield timelines.pop()
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        _WORKER_STATE.clear()


def build_timelines(store: TxStore, addresses: list[str], hours: int,
                    params: PathParams, jobs: int = 1,
                    tx_path=None, labels_path=None) -> list[FeatureTimeline]:
    """Every timeline of :func:`iter_timelines`, as a list."""
    return list(iter_timelines(store, addresses, hours, params, jobs,
                               tx_path, labels_path))


def stage_features(config: PipelineConfig, out_dir: Path, jobs: int = 1) -> dict:
    """Stream every labelled address's timeline into ``features.csv``.

    A labelled address with no transactions is skipped.  The report lists
    the skipped addresses with their reason and the addresses whose path
    sets hit ``max_paths_per_set``.
    """
    store = load_store(config, out_dir)
    if not store.labels:
        raise DataError("no labeled addresses to featurize")
    addresses, skipped = [], []
    for address in sorted(store.labels):
        if store.receive_txs(address) or store.spend_txs(address):
            addresses.append(address)
        else:
            skipped.append({"address": address, "reason": "no transactions"})
    if not addresses:
        raise DataError(f"none of the {len(skipped)} labeled addresses has a transaction")
    truncated = []

    def timelines():
        for tl in iter_timelines(store, addresses, config.hours, config.paths.params(), jobs,
                                 tx_path=out_dir / config.data.transactions,
                                 labels_path=out_dir / config.data.labels):
            if tl.truncated:
                truncated.append(tl.address)
            yield tl

    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)
    # Closed at once if the write fails, so no worker outlives the stage.
    with contextlib.closing(timelines()) as stream:
        write_feature_csv(features_dir / "features.csv", stream)
    write_schema_json(features_dir / "schema.json")
    report = {"featurized": len(addresses), "skipped": skipped, "truncated": truncated}
    report_path = features_dir / "features_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    record_stage(out_dir, "features",
                 [out_dir / config.data.transactions, out_dir / config.data.labels],
                 [features_dir / "features.csv", features_dir / "schema.json", report_path])
    return report


def _load_timelines(out_dir: Path, addresses=None) -> list[FeatureTimeline]:
    path = _require(out_dir / "features" / "features.csv", "features")
    timelines = read_feature_csv(path, addresses)
    timelines.sort(key=lambda tl: tl.address)
    return timelines


def _split_addresses(config: PipelineConfig, timelines) -> tuple[list[str], list[str]]:
    labels = np.array([tl.label for tl in timelines], dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    train_idx, holdout_idx = stratified_split(labels, config.split.holdout_fraction, rng)
    addresses = [tl.address for tl in timelines]
    return [addresses[i] for i in train_idx], [addresses[i] for i in holdout_idx]


def stage_select(config: PipelineConfig, out_dir: Path) -> FeatureSpec:
    timelines = _load_timelines(out_dir)
    train_addrs, holdout_addrs = _split_addresses(config, timelines)
    split_path = out_dir / "split.json"
    split_path.write_text(json.dumps(
        {"train": train_addrs, "holdout": holdout_addrs, "seed": config.seed},
        indent=2, sort_keys=True) + "\n")
    train_set = set(train_addrs)
    rows = np.vstack([tl.matrix for tl in timelines if tl.address in train_set])
    y = np.concatenate([
        np.full(tl.hours, tl.label, dtype=np.int64)
        for tl in timelines if tl.address in train_set
    ])
    sel = config.selection
    spec = dtsc_loop(rows, y, sel.theta_c, sel.runs_per_round, sel.max_rounds,
                     sel.tree_max_depth, sel.tree_min_samples_leaf,
                     sel.val_fraction)
    spec_path = out_dir / "featurespec.json"
    spec_path.write_text(spec.to_json() + "\n")
    record_stage(out_dir, "select",
                 [out_dir / "features" / "features.csv"],
                 [spec_path, split_path])
    return spec


def _load_featurespec(out_dir: Path) -> FeatureSpec:
    return FeatureSpec.from_json(_require(out_dir / "featurespec.json", "select").read_text())


def _load_split(out_dir: Path) -> tuple[list[str], list[str]]:
    payload = json.loads(_require(out_dir / "split.json", "select").read_text())
    return payload["train"], payload["holdout"]


def stage_segment(config: PipelineConfig, out_dir: Path) -> None:
    timelines = _load_timelines(out_dir)
    spec = _load_featurespec(out_dir)
    train_addrs, _ = _load_split(out_dir)
    materialized = {
        tl.address: materialize_features(spec, tl.matrix) for tl in timelines
    }
    planner = SegmentationPlanner(config.segmentation.theta_s, config.segmentation.delta)
    planner.fit([materialized[a] for a in train_addrs])
    plan = planner.plan_
    (out_dir / "plan.json").write_text(plan.to_json() + "\n")

    g_rows, d_rows = [], []
    for addr in train_addrs:
        g, d = planner.transform(materialized[addr])
        g_rows.append(g)
        d_rows.append(d)
    g_all = np.vstack(g_rows)
    d_all = np.vstack(d_rows)
    names = spec.column_names()
    cat_cfg = config.catalogs
    status = VectorCatalog(cat_cfg.k_status, cat_cfg.explainer_max_depth,
                           cat_cfg.max_fit_vectors, config.seed).fit(g_all, names)
    action = VectorCatalog(cat_cfg.k_action, cat_cfg.explainer_max_depth,
                           cat_cfg.max_fit_vectors, config.seed).fit(d_all, names)
    (out_dir / "catalog_status.json").write_text(status.to_json() + "\n")
    (out_dir / "catalog_action.json").write_text(action.to_json() + "\n")
    record_stage(out_dir, "segment",
                 [out_dir / "features" / "features.csv", out_dir / "featurespec.json"],
                 [out_dir / "plan.json", out_dir / "catalog_status.json",
                  out_dir / "catalog_action.json"])


@dataclass(slots=True)
class SequenceContext:
    """Everything needed to turn feature timelines into network sequences."""

    spec: FeatureSpec
    plan: SegmentationPlan
    status: VectorCatalog
    action: VectorCatalog

    @classmethod
    def load(cls, out_dir: Path) -> "SequenceContext":
        spec = _load_featurespec(out_dir)
        plan = SegmentationPlan.from_json(_require(out_dir / "plan.json", "segment").read_text())
        status = VectorCatalog.from_json(
            _require(out_dir / "catalog_status.json", "segment").read_text())
        action = VectorCatalog.from_json(
            _require(out_dir / "catalog_action.json", "segment").read_text())
        return cls(spec, plan, status, action)

    def segment_sequence(self, timeline: FeatureTimeline):
        """Per-segment entries of (status index, status vector, action index,
        action vector) for one address."""
        mat = materialize_features(self.spec, timeline.matrix)
        norm = self.plan.normalize(mat)
        g, d = segment_representations(norm, self.plan)
        s_idx = self.status.predict(g)
        a_idx = self.action.predict(d)
        return tuple(
            (int(s), self.status.centers_[s], int(a), self.action.centers_[a])
            for s, a in zip(s_idx, a_idx)
        )

    def sequences(self, timelines: list[FeatureTimeline]):
        """Returns (features, status_vec, action_vec, status_idx, action_idx,
        labels, addresses), all expanded to one entry per hour (each hour
        carries its segment's status and action)."""
        feats, svecs, avecs, sidxs, aidxs, labels, addrs = [], [], [], [], [], [], []
        seg_of_hour = self.plan.segment_of_hour()
        for tl in timelines:
            mat = materialize_features(self.spec, tl.matrix)
            norm = self.plan.normalize(mat)
            g, d = segment_representations(norm, self.plan)
            s_idx = self.status.predict(g)[seg_of_hour]
            a_idx = self.action.predict(d)[seg_of_hour]
            feats.append(norm)
            svecs.append(self.status.centers_[s_idx])
            avecs.append(self.action.centers_[a_idx])
            sidxs.append(s_idx)
            aidxs.append(a_idx)
            labels.append(tl.label if tl.label is not None else 0)
            addrs.append(tl.address)
        return (np.stack(feats), np.stack(svecs), np.stack(avecs),
                np.stack(sidxs), np.stack(aidxs),
                np.array(labels, dtype=np.int64), tuple(addrs))

    def batch(self, timelines, gbt_status: GBTClassifier,
              gbt_action: GBTClassifier) -> SequenceBatch:
        feats, svecs, avecs, sidxs, aidxs, labels, addrs = self.sequences(timelines)
        B, T, D = svecs.shape
        p_s = gbt_status.predict_proba(svecs.reshape(B * T, D))[:, 1].reshape(B, T)
        p_a = gbt_action.predict_proba(avecs.reshape(B * T, D))[:, 1].reshape(B, T)
        return SequenceBatch(feats, svecs, avecs, sidxs, aidxs, p_s, p_a,
                             labels, addrs)


def stage_train(config: PipelineConfig, out_dir: Path) -> None:
    timelines = _load_timelines(out_dir)
    ctx = SequenceContext.load(out_dir)
    train_addrs, _ = _load_split(out_dir)
    train_set = set(train_addrs)
    train_tl = [tl for tl in timelines if tl.address in train_set]

    feats, svecs, avecs, sidxs, aidxs, labels, addrs = ctx.sequences(train_tl)
    B, T, D = svecs.shape
    flat_labels = np.repeat(labels, T)
    gbt_kwargs = dict(
        n_rounds=config.gbt.n_rounds, max_depth=config.gbt.max_depth,
        learning_rate=config.gbt.learning_rate, reg_lambda=config.gbt.reg_lambda,
        min_samples_leaf=config.gbt.min_samples_leaf,
    )
    gbt_status = GBTClassifier(**gbt_kwargs).fit(svecs.reshape(B * T, D), flat_labels)
    gbt_action = GBTClassifier(**gbt_kwargs).fit(avecs.reshape(B * T, D), flat_labels)
    (out_dir / "gbt_status.json").write_text(gbt_status.to_json() + "\n")
    (out_dir / "gbt_action.json").write_text(gbt_action.to_json() + "\n")

    batch = ctx.batch(train_tl, gbt_status, gbt_action)
    net = IntentionNetwork(config.intention.to_intention_config(config.seed))
    net.fit(batch, ctx.status.n_clusters, ctx.action.n_clusters)
    save_params(out_dir / "intention_model.bin", net.params_, net.dims_, net.config)
    save_params_json(out_dir / "intention_model.json", net.params_)
    (out_dir / "train_report.json").write_text(json.dumps({
        "epoch_losses": [repr(v) for v in net.epoch_losses_],
        "gbt_status_final_loss": repr(gbt_status.train_losses_[-1]) if gbt_status.train_losses_ else None,
        "gbt_action_final_loss": repr(gbt_action.train_losses_[-1]) if gbt_action.train_losses_ else None,
    }, indent=2, sort_keys=True) + "\n")
    record_stage(out_dir, "train",
                 [out_dir / "featurespec.json", out_dir / "plan.json",
                  out_dir / "catalog_status.json", out_dir / "catalog_action.json"],
                 [out_dir / "gbt_status.json", out_dir / "gbt_action.json",
                  out_dir / "intention_model.bin", out_dir / "intention_model.json",
                  out_dir / "train_report.json"])


def _load_models(out_dir: Path):
    gbt_status = GBTClassifier.from_json(
        _require(out_dir / "gbt_status.json", "train").read_text())
    gbt_action = GBTClassifier.from_json(
        _require(out_dir / "gbt_action.json", "train").read_text())
    params, dims, icfg = load_params(_require(out_dir / "intention_model.bin", "train"))
    return gbt_status, gbt_action, params, dims, icfg


def stage_predict(config: PipelineConfig, out_dir: Path) -> None:
    timelines = _load_timelines(out_dir)
    ctx = SequenceContext.load(out_dir)
    gbt_status, gbt_action, params, dims, icfg = _load_models(out_dir)
    batch = ctx.batch(timelines, gbt_status, gbt_action)
    pred_path = out_dir / "predictions.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("address,t_index,p_malicious,survival,alpha_S,alpha_A,alpha_I,"
                 "intention_index\n")
        # Training-sized chunks: the forward pass keeps per-step caches for
        # every address it runs, so one pass over all of them would hold them
        # all at once.
        for lo in range(0, batch.n_addresses, icfg.batch_size):
            chunk = batch.subset(np.arange(lo, min(lo + icfg.batch_size,
                                                   batch.n_addresses)))
            fw = forward_pass(params, chunk, dims, noise=None)
            for i, addr in enumerate(chunk.addresses):
                for t in range(chunk.n_steps):
                    fh.write(
                        f"{addr},{t + 1},{fmt_float(fw.p_hat[i, t])},"
                        f"{fmt_float(fw.survival[i, t])},"
                        f"{fmt_float(fw.alphas[i, t, 0])},{fmt_float(fw.alphas[i, t, 1])},"
                        f"{fmt_float(fw.alphas[i, t, 2])},{int(fw.intention_idx[i, t])}\n"
                    )
    record_stage(out_dir, "predict",
                 [out_dir / "features" / "features.csv",
                  out_dir / "intention_model.bin"],
                 [pred_path])


def read_predictions(path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Returns (addresses, p_malicious, survival, intention_idx) matrices."""
    rows: dict[str, dict[int, tuple[float, float, int]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("address,t_index,p_malicious"):
            raise DataError("unrecognized predictions file")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.setdefault(parts[0], {})[int(parts[1])] = (
                float(parts[2]), float(parts[3]), int(parts[7]))
    addresses = tuple(sorted(rows))
    T = max(max(v) for v in rows.values())
    p = np.zeros((len(addresses), T))
    s = np.zeros((len(addresses), T))
    ii = np.zeros((len(addresses), T), dtype=np.int64)
    for i, addr in enumerate(addresses):
        for t, (pv, sv, iv) in rows[addr].items():
            p[i, t - 1] = pv
            s[i, t - 1] = sv
            ii[i, t - 1] = iv
    return addresses, p, s, ii


def stage_eval(config: PipelineConfig, out_dir: Path) -> dict:
    pred_path = _require(out_dir / "predictions.csv", "predict")
    labels = load_labels(_require(out_dir / config.data.labels, "synth"))
    addresses, p, s, _ = read_predictions(pred_path)
    y = np.array([labels[a] for a in addresses], dtype=np.int64)
    report_all = evaluate(addresses, p, y)

    payload = {"all": json.loads(report_all.to_json())}
    split_path = out_dir / "split.json"
    if split_path.exists():
        split = json.loads(split_path.read_text())
        for part in ("train", "holdout"):
            part_set = set(split[part])
            member = [i for i, a in enumerate(addresses) if a in part_set]
            if member:
                sub = evaluate([addresses[i] for i in member], p[member], y[member])
                payload[part] = json.loads(sub.to_json())
    eval_path = out_dir / "eval_report.json"
    eval_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_eval_csv(out_dir / "eval_report.csv", report_all)
    write_survival_csv(out_dir / "survival_curves.csv", addresses, s)
    record_stage(out_dir, "eval",
                 [pred_path, out_dir / config.data.labels],
                 [eval_path, out_dir / "eval_report.csv",
                  out_dir / "survival_curves.csv"])
    return payload


def explain_address(config: PipelineConfig, out_dir: Path, address: str) -> str:
    """Human-readable interpretation: status/action sequences with decision
    paths, the intention motif, and the survival trace."""
    timelines = _load_timelines(out_dir, {address})
    if not timelines:
        raise NotFoundError(f"address {address!r} has no feature rows; run features")
    ctx = SequenceContext.load(out_dir)
    gbt_status, gbt_action, params, dims, icfg = _load_models(out_dir)
    batch = ctx.batch(timelines, gbt_status, gbt_action)
    fw = forward_pass(params, batch, dims, noise=None)

    s_idx = batch.status_idx[0]
    a_idx = batch.action_idx[0]
    td = t_die(fw.survival[0], icfg.death_eps)
    motif_seq = motif(fw, 0, icfg.death_eps)

    lines = [f"address: {address}", f"label: {timelines[0].label}"]
    lines.append("status sequence (hourly): " + "-".join(str(v + 1) for v in s_idx))
    lines.append("action sequence (hourly): " + "-".join(str(v + 1) for v in a_idx))
    lines.append(f"t_die: {td if td is not None else 'not reached'}")
    lines.append("intention motif: " + "-".join(str(v) for v in motif_seq))
    lines.append("")
    lines.append("status definitions on this trace:")
    for v in sorted(set(int(x) for x in s_idx)):
        lines.append("  status " + str(v + 1) + ": "
                     + ctx.status.explain_text(v).split(": ", 1)[1])
    lines.append("action definitions on this trace:")
    for v in sorted(set(int(x) for x in a_idx)):
        lines.append("  action " + str(v + 1) + ": "
                     + ctx.action.explain_text(v).split(": ", 1)[1])
    lines.append("")
    lines.append("survival trace:")
    for t in range(batch.n_steps):
        lines.append(f"  hour {t + 1:2d}: S={fw.survival[0, t]:.6f} "
                     f"p_malicious={fw.p_hat[0, t]:.6f}")
    path_dump = out_dir / "paths" / f"{address}.jsonl"
    if path_dump.exists():
        counts: dict[str, int] = {}
        with open(path_dump, "r", encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                key = f"{obj['horizon']}-{obj['direction']}"
                counts[key] = counts.get(key, 0) + 1
        lines.append("")
        lines.append("path sets at end of window: "
                     + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    text = "\n".join(lines) + "\n"
    (out_dir / f"explain_{address}.txt").write_text(text)
    return text


STAGES = ("synth", "ingest", "paths", "features", "select", "segment", "train",
          "predict", "eval")


def run_pipeline(config: PipelineConfig, out_dir: Path, jobs: int = 1,
                 stages=STAGES) -> None:
    out_dir = Path(out_dir)
    for stage in stages:
        if stage == "synth":
            stage_synth(config, out_dir)
        elif stage == "ingest":
            stage_ingest(config, out_dir)
        elif stage == "paths":
            stage_paths(config, out_dir)
        elif stage == "features":
            stage_features(config, out_dir, jobs)
        elif stage == "select":
            stage_select(config, out_dir)
        elif stage == "segment":
            stage_segment(config, out_dir)
        elif stage == "train":
            stage_train(config, out_dir)
        elif stage == "predict":
            stage_predict(config, out_dir)
        elif stage == "eval":
            stage_eval(config, out_dir)
        else:
            raise ConfigError(f"unknown stage {stage!r}")
