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
import functools
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
from .features import (FULL_SCHEMA, FeatureTimeline, _AddressEvents, _cutoffs,
                       feature_timeline, read_feature_csv, skip_reason, write_feature_csv,
                       write_schema_json)
from .gbt import GBTClassifier
from .intention import (IntentionConfig, IntentionNetwork, SequenceBatch,
                        load_params, save_params)
from .intention.network import forward_pass, motif, t_die
from .metrics import evaluate, write_eval_csv, write_survival_csv
from .paths import SET_NAMES, PathParams, path_sets_for_address
from .segmentation import (SegmentationPlan, SegmentationPlanner,
                           segment_representations)
from .serialize import fmt_float, open_artifact, write_artifact, write_json
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
    intention: IntentionConfig = field(default_factory=IntentionConfig)
    split: SplitConfig = field(default_factory=SplitConfig)


# Each section's type is the default factory of its ``PipelineConfig`` field.
_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
                  if f.default_factory is not dataclasses.MISSING}


def _build_section(cls, payload: dict, context: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{context}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    if cls is IntentionConfig:
        names.discard("seed")  # the run has one seed, the top-level one
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


# -- the stage table ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Stage:
    """The files one stage reads and writes, relative to the output directory.

    ``{transactions}`` and ``{labels}`` stand for the ``DataConfig`` file
    names, a write ending in "/" for every file in that directory, and a read
    ending in "?" for a file the stage uses only when it is present.  ``jobs``
    marks the stage that takes a worker count.
    """

    reads: tuple[str, ...]
    writes: tuple[str, ...]
    jobs: bool = False


_SOURCE = ("{transactions}", "{labels}")
_FEATURES = "features/features.csv"
_CATALOGS = ("catalog_status.json", "catalog_action.json")
_MODELS = ("gbt_status.json", "gbt_action.json", "intention_model.bin")

STAGE_TABLE = {
    "synth": Stage((), (*_SOURCE, "scenario.json")),
    "ingest": Stage(_SOURCE, ("ingest_report.json",)),
    "paths": Stage(_SOURCE, ("paths/",)),
    "features": Stage(_SOURCE, (_FEATURES, "features/schema.json",
                                "features/features_report.json"), jobs=True),
    "select": Stage((_FEATURES,), ("split.json", "featurespec.json")),
    "segment": Stage((_FEATURES, "split.json", "featurespec.json"),
                     ("plan.json", *_CATALOGS)),
    "train": Stage((_FEATURES, "split.json", "featurespec.json", "plan.json", *_CATALOGS),
                   (*_MODELS, "train_report.json")),
    "predict": Stage((_FEATURES, "featurespec.json", "plan.json", *_CATALOGS, *_MODELS),
                     ("predictions.csv",)),
    "eval": Stage(("predictions.csv", "{labels}", "split.json?"),
                  ("eval_report.json", "eval_report.csv", "survival_curves.csv")),
}
STAGES = tuple(STAGE_TABLE)


def _files(config: PipelineConfig, names) -> list[str]:
    data = {"transactions": config.data.transactions, "labels": config.data.labels}
    return [name.format_map(data) for name in names]


def _writers(config: PipelineConfig) -> dict[str, str]:
    return {rel: stage for stage, row in STAGE_TABLE.items()
            for rel in _files(config, row.writes)}


def _require(config: PipelineConfig, out_dir: Path, names) -> list[str]:
    """The files among ``names`` that exist.  A missing file that is not
    optional raises ``DataError`` naming the stage that writes it."""
    present = []
    for rel in _files(config, names):
        optional = rel.endswith("?")
        rel = rel.rstrip("?")
        if (out_dir / rel).exists():
            present.append(rel)
        elif not optional:
            raise DataError(f"missing artifact {Path(rel).name}; "
                            f"run the '{_writers(config)[rel]}' stage first")
    return present


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_manifest(out_dir: Path) -> dict:
    path = out_dir / "manifest.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _refuse_stale(config: PipelineConfig, out_dir: Path, reads: list[str], sha) -> None:
    """Refuse an input whose writer recorded input hashes that no longer match
    the files.  A writer that recorded no inputs (``synth``) makes source
    data, which may be edited; a file with no manifest entry passes."""
    manifest = _load_manifest(out_dir)
    writers = _writers(config)
    for rel in reads:
        writer = writers[rel]
        recorded = manifest.get(writer, {}).get("inputs", {})
        for src in _files(config, STAGE_TABLE[writer].reads):
            src = src.rstrip("?")
            want = recorded.get(Path(src).name)
            if want is not None and (not (out_dir / src).exists() or sha(src) != want):
                raise DataError(f"{rel} is stale: {src} has changed since the "
                                f"'{writer}' stage ran; re-run the '{writer}' stage")


def record_stage(out_dir: Path, stage: str, inputs: dict[str, str],
                 outputs: list[Path]) -> None:
    """Store the stage's input hashes and its outputs' hashes, by file name."""
    manifest = _load_manifest(out_dir)
    manifest[stage] = {
        "inputs": inputs,
        "outputs": {p.name: _sha256(p) for p in outputs if p.exists()},
    }
    write_json(out_dir / "manifest.json", manifest)


def _stage(body):
    """A stage from its body: refuse missing or stale inputs, run the body,
    then record the hashes of what the stage's table row reads and writes.
    Each file is hashed at most once per call."""
    name = body.__name__.removeprefix("stage_")
    row = STAGE_TABLE[name]

    @functools.wraps(body)
    def stage(config: PipelineConfig, out_dir, *args, **kwargs):
        out_dir = Path(out_dir)
        sha = functools.cache(lambda rel: _sha256(out_dir / rel))
        reads = _require(config, out_dir, row.reads)
        if reads:
            _refuse_stale(config, out_dir, reads, sha)
        result = body(config, out_dir, *args, **kwargs)
        outputs = [p for rel in _files(config, row.writes)
                   for p in (sorted((out_dir / rel).iterdir()) if rel.endswith("/")
                             else [out_dir / rel])]
        record_stage(out_dir, name, {Path(rel).name: sha(rel) for rel in reads}, outputs)
        return result
    return stage


# -- stages -------------------------------------------------------------------


@_stage
def stage_synth(config: PipelineConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = [ScenarioSpec(**s) for s in config.scenario.specs]
    records, labels, meta = generate(
        specs, config.seed, config.scenario.noise_level,
        config.scenario.jitter_seconds, config.scenario.stagger_hours,
    )
    write_universe(out_dir, records, labels, meta,
                   {**dataclasses.asdict(config.scenario), "seed": config.seed})


def load_store(config: PipelineConfig, out_dir: Path) -> TxStore:
    labels = load_labels(out_dir / config.data.labels)
    return parse_transactions_file(out_dir / config.data.transactions, labels)


@_stage
def stage_ingest(config: PipelineConfig, out_dir: Path) -> dict:
    store = load_store(config, out_dir)
    report = {
        "transactions": len(store),
        "addresses": len(store.addresses()),
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
    write_json(out_dir / "ingest_report.json", report)
    return report


def _active_labelled(store: TxStore, hours: int) -> tuple[list[str], list[dict]]:
    """The labelled addresses to featurize, sorted, and the rest as skipped
    entries with their reason."""
    active, skipped = [], []
    for address in sorted(store.labels):
        reason = skip_reason(store, address, hours)
        if reason is None:
            active.append(address)
        else:
            skipped.append({"address": address, "reason": reason})
    return active, skipped


@_stage
def stage_paths(config: PipelineConfig, out_dir: Path) -> None:
    """Dump the four path sets per labelled address at the end of its
    feature window.  The addresses ``features`` skips are skipped here too."""
    store = load_store(config, out_dir)
    params = config.paths.params()
    paths_dir = out_dir / "paths"
    paths_dir.mkdir(parents=True, exist_ok=True)
    name = store.tx_name
    for address in _active_labelled(store, config.hours)[0]:
        creation = _AddressEvents.collect(store, address).creation
        t_now = int(_cutoffs(creation, config.hours)[-1])
        sets = path_sets_for_address(store, address, t_now, params)
        with open_artifact(paths_dir / f"{address}.jsonl") as fh:
            for set_name in SET_NAMES:
                # Ids sort like txids, so this is the order of the names.
                for p in sorted(sets[set_name].paths, key=lambda q: q.key):
                    fh.write(json.dumps({
                        "direction": p.direction,
                        "horizon": p.horizon,
                        "anchor": name(p.anchor_tx),
                        "score": repr(p.score),
                        "hops": [[None if prev is None else name(prev), repr(score), name(tx)]
                                 for prev, score, tx in p.hops],
                    }, sort_keys=True) + "\n")


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


@_stage
def stage_features(config: PipelineConfig, out_dir: Path, jobs: int = 1) -> dict:
    """Stream every labelled address's timeline into ``features.csv``.

    A labelled address with no transactions, or with sums or times that
    would leave int64 (``features.skip_reason``), is skipped.  The report lists
    the skipped addresses with their reason and the addresses whose path
    sets hit ``max_paths_per_set``.
    """
    store = load_store(config, out_dir)
    if not store.labels:
        raise DataError("no labeled addresses to featurize")
    addresses, skipped = _active_labelled(store, config.hours)
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
    write_json(features_dir / "features_report.json", report)
    return report


def _load_timelines(out_dir: Path, addresses=None) -> list[FeatureTimeline]:
    timelines = read_feature_csv(out_dir / _FEATURES, addresses)
    timelines.sort(key=lambda tl: tl.address)
    return timelines


def _split_addresses(config: PipelineConfig, timelines) -> tuple[list[str], list[str]]:
    labels = np.array([tl.label for tl in timelines], dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    train_idx, holdout_idx = stratified_split(labels, config.split.holdout_fraction, rng)
    addresses = [tl.address for tl in timelines]
    return [addresses[i] for i in train_idx], [addresses[i] for i in holdout_idx]


@_stage
def stage_select(config: PipelineConfig, out_dir: Path) -> FeatureSpec:
    timelines = _load_timelines(out_dir)
    train_addrs, holdout_addrs = _split_addresses(config, timelines)
    write_json(out_dir / "split.json",
               {"train": train_addrs, "holdout": holdout_addrs, "seed": config.seed})
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
    write_artifact(out_dir / "featurespec.json", spec.to_json() + "\n")
    return spec


def _train_addresses(out_dir: Path) -> list[str]:
    return json.loads((out_dir / "split.json").read_text())["train"]


@_stage
def stage_segment(config: PipelineConfig, out_dir: Path) -> None:
    timelines = _load_timelines(out_dir)
    spec = FeatureSpec.from_json((out_dir / "featurespec.json").read_text())
    train_addrs = _train_addresses(out_dir)
    materialized = {
        tl.address: materialize_features(spec, tl.matrix) for tl in timelines
    }
    planner = SegmentationPlanner(config.segmentation.theta_s, config.segmentation.delta)
    planner.fit([materialized[a] for a in train_addrs])
    plan = planner.plan_
    write_artifact(out_dir / "plan.json", plan.to_json() + "\n")

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
    write_artifact(out_dir / "catalog_status.json", status.to_json() + "\n")
    write_artifact(out_dir / "catalog_action.json", action.to_json() + "\n")


@dataclass(slots=True)
class SequenceContext:
    """Everything needed to turn feature timelines into network sequences."""

    spec: FeatureSpec
    plan: SegmentationPlan
    status: VectorCatalog
    action: VectorCatalog

    @classmethod
    def load(cls, out_dir: Path) -> "SequenceContext":
        return cls(FeatureSpec.from_json((out_dir / "featurespec.json").read_text()),
                   SegmentationPlan.from_json((out_dir / "plan.json").read_text()),
                   VectorCatalog.from_json((out_dir / "catalog_status.json").read_text()),
                   VectorCatalog.from_json((out_dir / "catalog_action.json").read_text()))

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

    @staticmethod
    def batch(sequences, gbt_status: GBTClassifier,
              gbt_action: GBTClassifier) -> SequenceBatch:
        """The network's float32 batch from what ``sequences`` returned; the
        backbones score the float64 vectors."""
        feats, svecs, avecs, sidxs, aidxs, labels, addrs = sequences
        B, T, D = svecs.shape
        p_s = gbt_status.predict_proba(svecs.reshape(B * T, D))[:, 1].reshape(B, T)
        p_a = gbt_action.predict_proba(avecs.reshape(B * T, D))[:, 1].reshape(B, T)
        f32 = np.float32
        return SequenceBatch(feats.astype(f32), svecs.astype(f32), avecs.astype(f32),
                             sidxs, aidxs, p_s.astype(f32), p_a.astype(f32), labels, addrs)


@_stage
def stage_train(config: PipelineConfig, out_dir: Path) -> None:
    timelines = _load_timelines(out_dir)
    ctx = SequenceContext.load(out_dir)
    train_addrs = _train_addresses(out_dir)
    train_set = set(train_addrs)
    train_tl = [tl for tl in timelines if tl.address in train_set]

    sequences = ctx.sequences(train_tl)
    _, svecs, avecs, _, _, labels, _ = sequences
    B, T, D = svecs.shape
    flat_labels = np.repeat(labels, T)
    gbt_kwargs = dict(
        n_rounds=config.gbt.n_rounds, max_depth=config.gbt.max_depth,
        learning_rate=config.gbt.learning_rate, reg_lambda=config.gbt.reg_lambda,
        min_samples_leaf=config.gbt.min_samples_leaf,
    )
    gbt_status = GBTClassifier(**gbt_kwargs).fit(svecs.reshape(B * T, D), flat_labels)
    gbt_action = GBTClassifier(**gbt_kwargs).fit(avecs.reshape(B * T, D), flat_labels)
    write_artifact(out_dir / "gbt_status.json", gbt_status.to_json() + "\n")
    write_artifact(out_dir / "gbt_action.json", gbt_action.to_json() + "\n")

    batch = ctx.batch(sequences, gbt_status, gbt_action)
    net = IntentionNetwork(dataclasses.replace(config.intention, seed=config.seed))
    net.fit(batch, ctx.status.n_clusters, ctx.action.n_clusters)
    save_params(out_dir / "intention_model.bin", net.params_, net.dims_, net.config)
    write_json(out_dir / "train_report.json", {
        "epoch_losses": [repr(v) for v in net.epoch_losses_],
        "gbt_status_final_loss": repr(gbt_status.train_losses_[-1]) if gbt_status.train_losses_ else None,
        "gbt_action_final_loss": repr(gbt_action.train_losses_[-1]) if gbt_action.train_losses_ else None,
    })


def _load_models(out_dir: Path):
    gbt_status = GBTClassifier.from_json((out_dir / "gbt_status.json").read_text())
    gbt_action = GBTClassifier.from_json((out_dir / "gbt_action.json").read_text())
    params, dims, icfg = load_params(out_dir / "intention_model.bin")
    return gbt_status, gbt_action, params, dims, icfg


@_stage
def stage_predict(config: PipelineConfig, out_dir: Path) -> None:
    timelines = _load_timelines(out_dir)
    ctx = SequenceContext.load(out_dir)
    gbt_status, gbt_action, params, dims, icfg = _load_models(out_dir)
    batch = ctx.batch(ctx.sequences(timelines), gbt_status, gbt_action)
    with open_artifact(out_dir / "predictions.csv") as fh:
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


@_stage
def stage_eval(config: PipelineConfig, out_dir: Path) -> dict:
    labels = load_labels(out_dir / config.data.labels)
    addresses, p, s, _ = read_predictions(out_dir / "predictions.csv")
    for a in addresses:
        if a not in labels:
            raise DataError(f"predicted address {a!r} has no row in {config.data.labels}; "
                            "re-run predict")
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
    write_json(out_dir / "eval_report.json", payload)
    write_eval_csv(out_dir / "eval_report.csv", report_all)
    write_survival_csv(out_dir / "survival_curves.csv", addresses, s)
    return payload


def explain_address(config: PipelineConfig, out_dir: Path, address: str) -> str:
    """Human-readable interpretation: status/action sequences with decision
    paths, the intention motif, and the survival trace.  It reads what
    ``predict`` reads, without the stale-input check."""
    out_dir = Path(out_dir)
    _require(config, out_dir, STAGE_TABLE["predict"].reads)
    timelines = _load_timelines(out_dir, {address})
    if not timelines:
        raise NotFoundError(f"address {address!r} has no feature rows; run features")
    ctx = SequenceContext.load(out_dir)
    gbt_status, gbt_action, params, dims, icfg = _load_models(out_dir)
    batch = ctx.batch(ctx.sequences(timelines), gbt_status, gbt_action)
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
    # The last feature row holds each set's path count at the end of the window.
    last_row = timelines[0].matrix[-1]
    counts = {}
    for name in SET_NAMES:
        n = int(last_row[FULL_SCHEMA.index(f"{name}__path_count")])
        if n:
            counts[name.upper().replace("_", "-")] = n
    lines.append("")
    lines.append("path sets at end of window: "
                 + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    text = "\n".join(lines) + "\n"
    write_artifact(out_dir / f"explain_{address}.txt", text)
    return text


def run_pipeline(config: PipelineConfig, out_dir: Path, jobs: int = 1,
                 stages=STAGES) -> None:
    for name in stages:
        if name not in STAGE_TABLE:
            raise ConfigError(f"unknown stage {name!r}")
    out_dir = Path(out_dir)
    for name in stages:
        # Looked up at call time, so a wrapper set on the module is the one run.
        stage = globals()[f"stage_{name}"]
        stage(config, out_dir, **({"jobs": jobs} if STAGE_TABLE[name].jobs else {}))
