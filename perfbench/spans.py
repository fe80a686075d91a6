"""In-memory span recording around chainsentry's public layer boundaries.

The benchmark never edits the program: ``instrumented`` swaps the public
module and class attributes listed in ``_TARGETS`` for timing wrappers and
puts the originals back on exit.  Every wrapper records one span (name,
start, end, parent) and may bump counters taken from the call's arguments or
result.  Spans stay in memory until the run ends.

A layer's ``*_s`` metric is its self time: span time minus the time of its
direct child spans.  Pipeline stage times (``pipeline.stage.*_s``) are
inclusive wall times, and ``features.timeline_*_ms`` and
``intention.epoch_s`` are latencies of one unit of work.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Metrics every workload produces in a traced run; these go to the result line.
COMMON_LAYER_METRICS = {
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "chain.parse_calls": "count",
    "chain.parse_s": "s",
    "chain.txs": "count",
    "chain.lines_rejected": "count",
    "paths.bk_calls": "count",
    "paths.bk_s": "s",
    "paths.bk_paths_out": "count",
    "paths.fr_extend_calls": "count",
    "paths.fr_extend_s": "s",
    "paths.fr_paths_added": "count",
    "paths.fr_extend_useful_ratio": "ratio",
    "paths.truncated_sets": "count",
    "features.path_row_calls": "count",
    "features.path_row_s": "s",
    "features.aggregate_calls": "count",
    "features.aggregate_s": "s",
    "features.aggregate_rows_in": "count",
    "features.aggregate_rows_per_path": "ratio",
    "features.address_calls": "count",
    "features.address_s": "s",
    "features.timeline_p50_ms": "ms",
    "features.timeline_tail_ms": "ms",
    "features.csv_write_s": "s",
    "pipeline.stage.ingest_s": "s",
    "pipeline.stage.features_s": "s",
    "pipeline.record_stage_s": "s",
    "trace.overhead_s": "s",
}

# Further layer metrics, reported by name on the workloads that use the layer.
WORKLOAD_LAYER_METRICS = {
    "paths.sets_for_address_s": "s",
    "features.csv_read_calls": "count",
    "features.csv_read_s": "s",
    "selection.dtsc_s": "s",
    "selection.rounds": "count",
    "tree.fit_calls": "count",
    "tree.fit_s": "s",
    "segmentation.fit_s": "s",
    "catalogs.fit_s": "s",
    "catalogs.predict_calls": "count",
    "catalogs.predict_s": "s",
    "gbt.fit_calls": "count",
    "gbt.fit_s": "s",
    "gbt.predict_proba_s": "s",
    "intention.loss_grads_calls": "count",
    "intention.loss_grads_s": "s",
    "intention.epoch_s": "s",
    "intention.forward_pass_s": "s",
    "intention.save_params_calls": "count",
    "intention.save_params_s": "s",
    "metrics.evaluate_s": "s",
    "pipeline.stage.explain_s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in (
        "synth", "paths", "select", "segment", "train", "predict", "eval")},
}

# Spans whose ``*_s`` metric is inclusive wall time rather than self time.
_INCLUSIVE = ("pipeline.stage.",)


def tail_percentile(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that still
    has at least ten samples above it; with ten or fewer samples the maximum
    is returned as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else float("nan")), 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.ids: list[int] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str, float, int]] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next_id, name, time.perf_counter(), parent))
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        sid, name, start, parent = self._stack.pop()
        self.ids.append(sid)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)

    def discard(self) -> None:
        """Drop the innermost open span without recording it."""
        self._stack.pop()

    # -- summaries ---------------------------------------------------------

    def _arrays(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(self._next_id + 1)
        # Parent -1 (a root span) lands in the spare last slot.
        np.add.at(child, np.where(parents < 0, self._next_id, parents), dur)
        self_time = dur - child[ids]
        return dur, self_time

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        dur, self_time = self._arrays()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["total_s"] += float(dur[i])
            entry["self_s"] += float(self_time[i])
            entry["durations"].append(float(dur[i]))
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric this run's spans and counters support."""
        spans = self.by_name()
        out: dict[str, float] = {}
        for name, entry in spans.items():
            out[f"{name}_calls"] = entry["calls"]
            inclusive = name.startswith(_INCLUSIVE)
            out[f"{name}_s"] = entry["total_s"] if inclusive else entry["self_s"]
        for key, value in self.counts.items():
            out[key] = value
        # Layers a workload never reaches count zero calls, so ratios stay defined.
        for name in ("chain.parse", "paths.bk", "paths.fr_extend", "features.path_row",
                     "features.aggregate", "features.address"):
            out.setdefault(f"{name}_calls", 0)
            out.setdefault(f"{name}_s", 0.0)
        for key in ("chain.txs", "chain.lines_rejected", "paths.bk_paths_out",
                    "paths.fr_paths_added", "paths.fr_useful_calls",
                    "paths.truncated_sets", "features.aggregate_rows_in"):
            out.setdefault(key, 0)
        useful = out.pop("paths.fr_useful_calls")
        out["paths.fr_extend_useful_ratio"] = (
            useful / out["paths.fr_extend_calls"] if out["paths.fr_extend_calls"] else 0.0)
        out["features.aggregate_rows_per_path"] = (
            out["features.aggregate_rows_in"] / out["features.path_row_calls"]
            if out["features.path_row_calls"] else 0.0)
        if "features.timeline" in spans:
            ms = [d * 1e3 for d in spans["features.timeline"]["durations"]]
            out["features.timeline_p50_ms"] = float(np.median(ms))
            out["features.timeline_tail_ms"] = tail_percentile(ms)[0]
        if "intention.epoch" in spans:
            out["intention.epoch_s"] = float(np.median(spans["intention.epoch"]["durations"]))
        return out

    def self_time_ranking(self) -> list[tuple[str, float]]:
        spans = self.by_name()
        return sorted(((n, e["self_s"]) for n, e in spans.items()),
                      key=lambda item: -item[1])

    def write(self, path: Path) -> None:
        """Spans as columns (``.npz``) plus a per-name summary (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez(path.with_suffix(".npz"),
                 names=np.array(names),
                 name_idx=np.array([index[n] for n in self.names], dtype=np.int32),
                 span_id=np.asarray(self.ids, dtype=np.int64),
                 parent_id=np.asarray(self.parents, dtype=np.int64),
                 start=np.asarray(self.starts), end=np.asarray(self.ends))
        summary = {n: {k: v for k, v in e.items() if k != "durations"}
                   for n, e in self.by_name().items()}
        path.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# -- wrappers ------------------------------------------------------------------


def _count_parse(counts, args, store):
    counts["chain.txs"] += len(store)
    counts["chain.lines_rejected"] += len(store.report.line_errors)


def _count_bk(counts, args, pathset):
    counts["paths.bk_paths_out"] += len(pathset.paths)
    counts["paths.truncated_sets"] += int(pathset.truncated)


def _count_aggregate(counts, args, result):
    counts["features.aggregate_rows_in"] += args[0].shape[0]


def _count_dtsc(counts, args, spec):
    counts["selection.rounds"] += len(spec.round_scores)


# (module, attribute path, span name, counter).  A function imported by name
# into several modules is wrapped in each module that calls it.
_TARGETS = (
    ("chainsentry.pipeline", "generate", "synth.generate", None),
    ("deepgen", "generate", "synth.generate", None),
    ("chainsentry.pipeline", "write_universe", "synth.write", None),
    ("chainsentry.synth", "write_universe", "synth.write", None),
    ("chainsentry.pipeline", "parse_transactions_file", "chain.parse", _count_parse),
    ("chainsentry.paths", "backward_paths", "paths.bk", _count_bk),
    ("chainsentry.features", "backward_paths", "paths.bk", _count_bk),
    ("chainsentry.pipeline", "path_sets_for_address", "paths.sets_for_address", None),
    ("chainsentry.features", "path_feature_row", "features.path_row", None),
    ("chainsentry.features", "aggregate_path_set", "features.aggregate", _count_aggregate),
    ("chainsentry.features", "address_features", "features.address", None),
    ("chainsentry.pipeline", "feature_timeline", "features.timeline", None),
    ("chainsentry.pipeline", "write_feature_csv", "features.csv_write", None),
    ("chainsentry.pipeline", "read_feature_csv", "features.csv_read", None),
    ("chainsentry.pipeline", "dtsc_loop", "selection.dtsc", _count_dtsc),
    ("chainsentry.tree", "DecisionTreeClassifier.fit", "tree.fit", None),
    ("chainsentry.segmentation", "SegmentationPlanner.fit", "segmentation.fit", None),
    ("chainsentry.catalogs", "VectorCatalog.fit", "catalogs.fit", None),
    ("chainsentry.catalogs", "VectorCatalog.predict", "catalogs.predict", None),
    ("chainsentry.gbt", "GBTClassifier.fit", "gbt.fit", None),
    ("chainsentry.gbt", "GBTClassifier.predict_proba", "gbt.predict_proba", None),
    ("chainsentry.intention.train", "compute_loss_and_grads", "intention.loss_grads", None),
    ("chainsentry.pipeline", "forward_pass", "intention.forward_pass", None),
    ("chainsentry.pipeline", "save_params", "intention.save_params", None),
    ("chainsentry.pipeline", "evaluate", "metrics.evaluate", None),
    ("chainsentry.pipeline", "record_stage", "pipeline.record_stage", None),
    ("chainsentry.pipeline", "explain_address", "pipeline.stage.explain", None),
    *(("chainsentry.pipeline", f"stage_{s}", f"pipeline.stage.{s}", None) for s in (
        "synth", "ingest", "paths", "features", "select", "segment", "train",
        "predict", "eval")),
)


def _timed(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if counter is not None:
            counter(tracer.counts, args, result)
        return result
    return wrapper


def _timed_extend(tracer: Tracer, fn):
    """``ForwardTrace.extend``: paths added, useful calls, newly truncated traces."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        was_truncated = self.truncated
        tracer.open("paths.fr_extend")
        try:
            added = fn(self, *args, **kwargs)
        finally:
            tracer.close()
        tracer.counts["paths.fr_paths_added"] += len(added)
        tracer.counts["paths.fr_useful_calls"] += int(bool(added))
        tracer.counts["paths.truncated_sets"] += int(self.truncated and not was_truncated)
        return added
    return wrapper


def _timed_train(tracer: Tracer, fn):
    """``intention.train.train``: one span per epoch, cut at the epoch hook."""
    @functools.wraps(fn)
    def wrapper(batch, dims, config, checkpoint_hook=None):
        def hook(epoch, params, mean_loss):
            tracer.close()  # the epoch that just ended
            if checkpoint_hook is not None:
                checkpoint_hook(epoch, params, mean_loss)
            tracer.open("intention.epoch")

        tracer.open("intention.train")
        tracer.open("intention.epoch")
        try:
            return fn(batch, dims, config, hook)
        finally:
            tracer.discard()  # the epoch opened after the last hook never ran
            tracer.close()
    return wrapper


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    patches = []
    try:
        for module_name, attr_path, name, counter in _TARGETS:
            owner, attr = _resolve(module_name, attr_path)
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, _timed(tracer, original, name, counter))
        owner, attr = _resolve("chainsentry.paths", "ForwardTrace.extend")
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, _timed_extend(tracer, getattr(owner, attr)))
        owner, attr = _resolve("chainsentry.intention.train", "train")
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, _timed_train(tracer, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
