"""Hourly feature extraction: 16 address features plus per-path-set aggregates.

Every monitored address gets one feature row per observation hour, built
strictly from data visible at that hour (no lookahead).  The full schema is
16 address features plus, for each of the four path sets, a path count and
(avg, max, min, std) aggregates of 12 per-path features: 16 + 4 * 49 = 212
columns.  The seed view used by feature selection keeps only the count and
the avg aggregate per path feature: 16 + 4 * 13 = 68 columns.

Column order and names are frozen; ``SCHEMA_HASH`` is embedded in every
feature file so downstream stages can detect drift.
"""
from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .chain import HOUR, TxStore
from .errors import DataError
from .paths import (AssetTransferPath, ForwardTrace, PathParams, backward_paths,
                    path_sets_for_address)

SCHEMA_VERSION = 1

ADDRESS_FEATURES = (
    "addr__balance",
    "addr__spend_count_total",
    "addr__receive_count_total",
    "addr__spend_count_recent_hour",
    "addr__receive_count_recent_hour",
    "addr__spend_receive_ratio_total",
    "addr__spend_receive_ratio_recent_hour",
    "addr__max_hourly_spend_count",
    "addr__max_hourly_receive_count",
    "addr__zero_amount_spend_count",
    "addr__zero_amount_receive_count",
    "addr__peak_spend_hour_offset",
    "addr__peak_receive_hour_offset",
    "addr__peak_spend_receive_hour_gap",
    "addr__active_hour_count",
    "addr__active_hour_rate",
)

PATH_SET_NAMES = ("lt_bk", "st_bk", "lt_fr", "st_fr")

PATH_BASE_FEATURES = (
    "hop_length",
    "height_length",
    "max_input_amount",
    "min_input_amount",
    "max_output_amount",
    "min_output_amount",
    "max_input_tx_count",
    "min_input_tx_count",
    "max_output_tx_count",
    "min_output_tx_count",
    "max_activation_score",
    "min_activation_score",
)

AGG_STATS = ("avg", "max", "min", "std")


def full_schema() -> tuple[str, ...]:
    names = list(ADDRESS_FEATURES)
    for set_name in PATH_SET_NAMES:
        names.append(f"{set_name}__path_count")
        for base in PATH_BASE_FEATURES:
            for stat in AGG_STATS:
                names.append(f"{set_name}__{base}__{stat}")
    return tuple(names)


def seed_schema() -> tuple[str, ...]:
    names = list(ADDRESS_FEATURES)
    for set_name in PATH_SET_NAMES:
        names.append(f"{set_name}__path_count")
        for base in PATH_BASE_FEATURES:
            names.append(f"{set_name}__{base}__avg")
    return tuple(names)


FULL_SCHEMA = full_schema()
SEED_SCHEMA = seed_schema()
SEED_COLUMN_INDEX = tuple(FULL_SCHEMA.index(name) for name in SEED_SCHEMA)
SCHEMA_HASH = hashlib.sha256(
    (f"v{SCHEMA_VERSION}:" + ",".join(FULL_SCHEMA)).encode()
).hexdigest()

assert len(FULL_SCHEMA) == 212
assert len(SEED_SCHEMA) == 68


def path_feature_row(store: TxStore, path: AssetTransferPath) -> np.ndarray:
    """The 12 per-path features, in ``PATH_BASE_FEATURES`` order."""
    in_amts, out_amts, in_cnts, out_cnts, scores = [], [], [], [], []
    for _, score, tx_id in path.hops:
        rec = store.tx(tx_id)
        in_amts.append(rec.total_input)
        out_amts.append(rec.total_output)
        in_cnts.append(len(store.agg_inputs(tx_id)))
        out_cnts.append(len(store.agg_outputs(tx_id)))
        scores.append(score)
    return np.array(
        [
            path.hop_length,
            path.hop_length + 1,  # nodes on the path (frontier depth)
            max(in_amts), min(in_amts),
            max(out_amts), min(out_amts),
            max(in_cnts), min(in_cnts),
            max(out_cnts), min(out_cnts),
            max(scores), min(scores),
        ],
        dtype=np.float64,
    )


def path_features(store: TxStore, paths) -> tuple[np.ndarray, bool]:
    """Stack per-path 12-vectors; returns (rows, empty_flag)."""
    rows = [path_feature_row(store, p) for p in paths]
    if not rows:
        return np.zeros((0, len(PATH_BASE_FEATURES))), True
    return np.vstack(rows), False


def aggregate_path_set(rows: np.ndarray) -> np.ndarray:
    """49 values: path count, then (avg, max, min, std) per path feature.

    Std is the population standard deviation.  An empty set aggregates to
    all zeros.
    """
    out = np.zeros(1 + 4 * len(PATH_BASE_FEATURES), dtype=np.float64)
    if rows.shape[0] == 0:
        return out
    out[0] = rows.shape[0]
    stats = np.empty((len(PATH_BASE_FEATURES), 4))
    stats[:, 0] = rows.mean(axis=0)
    stats[:, 1] = rows.max(axis=0)
    stats[:, 2] = rows.min(axis=0)
    stats[:, 3] = rows.std(axis=0)
    out[1:] = stats.reshape(-1)
    return out


@dataclass(slots=True)
class _AddressEvents:
    """Per-address receive/spend event arrays (times sorted ascending)."""

    recv_t: np.ndarray
    recv_amt: np.ndarray
    spend_t: np.ndarray
    spend_amt: np.ndarray
    creation: int

    @classmethod
    def collect(cls, store: TxStore, address: str) -> "_AddressEvents":
        recv = [(store.tx(t).timestamp, store.received_amount(t, address))
                for t in store.receive_txs(address)]
        spend = [(store.tx(t).timestamp, store.owned_input_amount(t, address))
                 for t in store.spend_txs(address)]
        recv.sort()
        spend.sort()
        rt = np.array([t for t, _ in recv], dtype=np.int64)
        ra = np.array([a for _, a in recv], dtype=np.int64)
        st = np.array([t for t, _ in spend], dtype=np.int64)
        sa = np.array([a for _, a in spend], dtype=np.int64)
        times = [x for x in (rt[:1], st[:1]) if x.size]
        if not times:
            raise DataError(f"address {address!r} has no activity")
        creation = int(min(int(x[0]) for x in times))
        return cls(rt, ra, st, sa, creation)


def _hourly_peak(times: np.ndarray, creation_bucket: int):
    """(max per-bucket count, offset of the earliest peak bucket from creation)."""
    if times.size == 0:
        return 0.0, 0.0
    buckets = times // HOUR - creation_bucket
    counts = np.bincount(buckets.astype(np.int64))
    peak = int(counts.max())
    return float(peak), float(int(np.argmax(counts)))


def address_features(events: _AddressEvents, t_now: int) -> np.ndarray:
    """The 16 address features at ``t_now`` (``ADDRESS_FEATURES`` order)."""
    nr = bisect_right(events.recv_t, t_now)
    ns = bisect_right(events.spend_t, t_now)
    recv_t = events.recv_t[:nr]
    spend_t = events.spend_t[:ns]
    recv_amt = events.recv_amt[:nr]
    spend_amt = events.spend_amt[:ns]

    balance = float(recv_amt.sum() - spend_amt.sum())
    # Closed window: an event exactly one hour old is still "recent", so the
    # creation deposit stays visible through the whole first row.
    recent_lo = t_now - HOUR
    nr_recent = nr - bisect_left(recv_t, recent_lo)
    ns_recent = ns - bisect_left(spend_t, recent_lo)
    ratio_total = ns / nr if nr else 0.0
    ratio_recent = ns_recent / nr_recent if nr_recent else 0.0

    creation_bucket = events.creation // HOUR
    max_spend, peak_spend = _hourly_peak(spend_t, creation_bucket)
    max_recv, peak_recv = _hourly_peak(recv_t, creation_bucket)
    zero_spend = float(np.count_nonzero(spend_amt == 0))
    zero_recv = float(np.count_nonzero(recv_amt == 0))

    all_buckets = np.concatenate([recv_t // HOUR, spend_t // HOUR])
    active_hours = float(np.unique(all_buckets).size) if all_buckets.size else 0.0
    hours_elapsed = (t_now - events.creation) // HOUR + 1
    active_rate = active_hours / hours_elapsed if hours_elapsed > 0 else 0.0

    return np.array(
        [
            balance,
            float(ns), float(nr),
            float(ns_recent), float(nr_recent),
            ratio_total, ratio_recent,
            max_spend, max_recv,
            zero_spend, zero_recv,
            peak_spend, peak_recv,
            peak_spend - peak_recv,
            active_hours, active_rate,
        ],
        dtype=np.float64,
    )


@dataclass(slots=True)
class FeatureTimeline:
    """24 hourly feature rows (full 212-column schema) for one address."""

    address: str
    label: int | None
    creation_time: int
    matrix: np.ndarray
    truncated: bool = False
    schema_hash: str = SCHEMA_HASH

    @property
    def hours(self) -> int:
        return self.matrix.shape[0]

    def seed_matrix(self) -> np.ndarray:
        return self.matrix[:, list(SEED_COLUMN_INDEX)]


@dataclass(slots=True)
class _SetTracker:
    """Per-(address, set) store of path feature rows and their aggregate.

    Rows are only ever appended, so the aggregate is kept with the row count
    it was computed from and recomputed only after new rows arrive.
    """

    rows: list[np.ndarray] = field(default_factory=list)
    truncated: bool = False
    _aggregate: np.ndarray | None = None
    _aggregate_rows: int = -1

    def add(self, store: TxStore, paths) -> None:
        for p in paths:
            self.rows.append(path_feature_row(store, p))

    def aggregate(self) -> np.ndarray:
        if self._aggregate_rows != len(self.rows):
            stacked = (np.vstack(self.rows) if self.rows
                       else np.zeros((0, len(PATH_BASE_FEATURES))))
            self._aggregate = aggregate_path_set(stacked)
            self._aggregate_rows = len(self.rows)
        return self._aggregate


def feature_timeline(store: TxStore, address: str, hours: int = 24,
                     params: PathParams | None = None,
                     label: int | None = None) -> FeatureTimeline:
    """Build the hourly feature matrix for one address.

    Row ``t`` (1-based) uses only transactions stamped at or before
    ``creation + t`` hours.  Backward path sets are built once per newly
    visible receive anchor; forward sets are extended incrementally as new
    transactions become visible.
    """
    params = params or PathParams()
    events = _AddressEvents.collect(store, address)
    creation = events.creation
    if label is None:
        label = store.labels.get(address)

    trackers = {name: _SetTracker() for name in PATH_SET_NAMES}
    fr_traces: dict[str, list[ForwardTrace]] = {"lt_fr": [], "st_fr": []}
    seen_recv = 0
    seen_spend = 0
    recv_ids = store.receive_txs(address)
    spend_ids = store.spend_txs(address)

    matrix = np.zeros((hours, len(FULL_SCHEMA)), dtype=np.float64)
    for t in range(1, hours + 1):
        cutoff = creation + t * HOUR
        # New backward anchors: full historical trace, visible immediately.
        while seen_recv < len(recv_ids) and store.tx(recv_ids[seen_recv]).timestamp <= cutoff:
            anchor = recv_ids[seen_recv]
            for horizon, set_name in (("LT", "lt_bk"), ("ST", "st_bk")):
                ps = backward_paths(store, anchor, params.config(horizon, "BK"))
                trackers[set_name].add(store, ps.paths)
                trackers[set_name].truncated |= ps.truncated
            seen_recv += 1
        # New forward anchors start a trace; existing traces extend.
        while seen_spend < len(spend_ids) and store.tx(spend_ids[seen_spend]).timestamp <= cutoff:
            anchor = spend_ids[seen_spend]
            for horizon, set_name in (("LT", "lt_fr"), ("ST", "st_fr")):
                trace = ForwardTrace.build(store, anchor, params.config(horizon, "FR"), cutoff)
                fr_traces[set_name].append(trace)
                trackers[set_name].add(store, trace.paths)
                trackers[set_name].truncated |= trace.truncated
            seen_spend += 1
        for set_name, traces in fr_traces.items():
            for trace in traces:
                added = trace.extend(store, cutoff)
                trackers[set_name].add(store, added)
                trackers[set_name].truncated |= trace.truncated

        row = [address_features(events, cutoff)]
        for set_name in PATH_SET_NAMES:
            row.append(trackers[set_name].aggregate())
        matrix[t - 1] = np.concatenate(row)

    truncated = any(tr.truncated for tr in trackers.values())
    return FeatureTimeline(address, label, creation, matrix, truncated)


def feature_timeline_rebuilt(store: TxStore, address: str, hours: int = 24,
                             params: PathParams | None = None,
                             label: int | None = None) -> FeatureTimeline:
    """Reference builder: every row from a from-scratch path build."""
    params = params or PathParams()
    events = _AddressEvents.collect(store, address)
    if label is None:
        label = store.labels.get(address)
    matrix = np.zeros((hours, len(FULL_SCHEMA)), dtype=np.float64)
    truncated = False
    for t in range(1, hours + 1):
        cutoff = events.creation + t * HOUR
        row = [address_features(events, cutoff)]
        try:
            sets = path_sets_for_address(store, address, cutoff, params)
        except DataError:
            sets = None
        for set_name in PATH_SET_NAMES:
            if sets is None:
                row.append(aggregate_path_set(np.zeros((0, len(PATH_BASE_FEATURES)))))
            else:
                rows, _ = path_features(store, sets[set_name].paths)
                truncated = truncated or sets[set_name].truncated
                row.append(aggregate_path_set(rows))
        matrix[t - 1] = np.concatenate(row)
    return FeatureTimeline(address, label, events.creation, matrix, truncated)


# -- feature file I/O -------------------------------------------------------


def write_feature_csv(path, timelines: list[FeatureTimeline]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema_sha256={SCHEMA_HASH}\n")
        fh.write("address,t_index,label," + ",".join(FULL_SCHEMA) + "\n")
        for tl in timelines:
            label = "" if tl.label is None else str(tl.label)
            # repr of a Python float is what fmt_float gives a numpy scalar.
            for t, row in enumerate(tl.matrix.tolist(), start=1):
                fh.write(f"{tl.address},{t},{label},{','.join(map(repr, row))}\n")


def read_feature_csv(path, addresses=None) -> list[FeatureTimeline]:
    """Timelines in file order; with ``addresses``, only those addresses'."""
    with open(path, "r", encoding="utf-8") as fh:
        hash_line = fh.readline().strip()
        if not hash_line.startswith("# schema_sha256="):
            raise DataError("feature file missing schema hash line")
        if hash_line.split("=", 1)[1] != SCHEMA_HASH:
            raise DataError("feature file schema hash does not match this build")
        header = fh.readline().strip().split(",")
        expected = ["address", "t_index", "label", *FULL_SCHEMA]
        if header != expected:
            raise DataError("feature file header does not match the frozen schema")
        lines = [line for line in fh
                 if addresses is None or line[:line.find(",")] in addresses]
    if not lines:
        return []
    values = np.loadtxt(lines, delimiter=",", ndmin=2,
                        usecols=range(3, 3 + len(FULL_SCHEMA)))
    timelines: dict[str, dict] = {}
    for row, line in enumerate(lines):
        address, t_index, label, _ = line.split(",", 3)
        entry = timelines.setdefault(address, {"label": label, "rows": {}})
        entry["rows"][int(t_index)] = row
    out = []
    for address, entry in timelines.items():
        rows = entry["rows"]
        matrix = values[[rows[t] for t in range(1, max(rows) + 1)]]
        label = None if entry["label"] == "" else int(entry["label"])
        out.append(FeatureTimeline(address, label, creation_time=0, matrix=matrix))
    return out


def write_schema_json(path) -> None:
    import json

    payload = {
        "version": SCHEMA_VERSION,
        "schema_sha256": SCHEMA_HASH,
        "full_schema": list(FULL_SCHEMA),
        "seed_schema": list(SEED_SCHEMA),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
