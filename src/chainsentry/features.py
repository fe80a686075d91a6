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
import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .chain import HOUR, INT64_MAX, TxStore
from .errors import DataError
from .paths import (SET_NAMES, AssetTransferPath, ForwardTrace, PathParams,
                    backward_paths, path_sets_for_address)
from .serialize import open_artifact, write_json

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

PATH_SET_NAMES = SET_NAMES

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
SCHEMA_HASH = hashlib.sha256(
    (f"v{SCHEMA_VERSION}:" + ",".join(FULL_SCHEMA)).encode()
).hexdigest()

assert len(FULL_SCHEMA) == 212
assert len(SEED_SCHEMA) == 68

# Column range of each path set's block in a full row.
_SET_WIDTH = 1 + len(AGG_STATS) * len(PATH_BASE_FEATURES)
_SET_BLOCKS = tuple(
    (len(ADDRESS_FEATURES) + k * _SET_WIDTH, len(ADDRESS_FEATURES) + (k + 1) * _SET_WIDTH)
    for k in range(len(PATH_SET_NAMES)))


def path_feature_row(store: TxStore, path: AssetTransferPath) -> list:
    """The 12 per-path features, in ``PATH_BASE_FEATURES`` order.

    Python numbers, for the caller to store as float64.  Each hop's amounts
    and counterparty counts come from the store's per-tx ``stats``.
    """
    stats = store.stats
    hops = path.hops
    _, score, tx = hops[0]
    total_in, total_out, n_in, n_out = stats[4 * tx:4 * tx + 4].tolist()
    row = [len(hops) - 1, len(hops),  # hops, and nodes on the path (frontier depth)
           total_in, total_in, total_out, total_out, n_in, n_in, n_out, n_out, score, score]
    for _, score, tx in hops[1:]:
        # Column 2k holds the max and 2k + 1 the min of the k-th hop value.
        for k, value in enumerate((*stats[4 * tx:4 * tx + 4].tolist(), score), start=1):
            if value > row[2 * k]:
                row[2 * k] = value
            elif value < row[2 * k + 1]:
                row[2 * k + 1] = value
    return row


def path_features(store: TxStore, paths) -> tuple[np.ndarray, bool]:
    """Stack per-path 12-vectors; returns (rows, empty_flag)."""
    rows = [path_feature_row(store, p) for p in paths]
    if not rows:
        return np.zeros((0, len(PATH_BASE_FEATURES))), True
    return np.array(rows, dtype=np.float64), False


def aggregate_path_set(rows: np.ndarray, sizes=None) -> np.ndarray:
    """49 values: path count, then (avg, max, min, std) per path feature.

    Std is the population standard deviation.  An empty set aggregates to
    all zeros.  With ``sizes``, one 49-vector per size: row ``k`` aggregates
    the first ``sizes[k]`` rows, bit-equal to a call on ``rows[:sizes[k]]``.
    """
    if sizes is None:
        return _aggregate_prefixes(rows, (rows.shape[0],))[0]
    return _aggregate_prefixes(rows, sizes)


_STD_BLOCK_ROWS = 2048


def _aggregate_prefixes(rows: np.ndarray, sizes) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=np.intp)
    out = np.zeros((sizes.size, 1 + 4 * len(PATH_BASE_FEATURES)), dtype=np.float64)
    distinct = np.unique(sizes[sizes > 0])
    if not distinct.size:
        return out
    head = rows[:distinct[-1]]
    ends = distinct - 1
    stats = np.empty((distinct.size, len(PATH_BASE_FEATURES), 4))
    # A running sum in row order adds what ``rows[:n].sum(axis=0)`` adds,
    # except that the reduction starts from +0.0; adding 0.0 turns the one
    # possible difference, an all -0.0 prefix, into that +0.0.
    means = (np.cumsum(head, axis=0)[ends] + 0.0) / distinct[:, None]
    stats[:, :, 0] = means
    stats[:, :, 1] = np.maximum.accumulate(head, axis=0)[ends]
    stats[:, :, 2] = np.minimum.accumulate(head, axis=0)[ends]
    # Std takes the two passes of ``rows[:n]`` for each size n, a group of
    # sizes at a time.  Squares of rows past n are masked to +0.0, which
    # leaves each sum unchanged.  A group holds at most _STD_BLOCK_ROWS rows
    # of squares (one size's rows if that is more).
    step = max(1, _STD_BLOCK_ROWS // head.shape[0])
    for lo in range(0, distinct.size, step):
        ns = distinct[lo:lo + step]
        dev = (head[:ns[-1]] - means[lo:lo + step, None, :]) ** 2
        dev[np.arange(ns[-1]) >= ns[:, None]] = 0.0
        stats[lo:lo + step, :, 3] = np.sqrt(dev.sum(axis=1) / ns[:, None])
    filled = sizes > 0
    out[filled, 0] = sizes[filled]
    out[filled, 1:] = stats.reshape(distinct.size, -1)[np.searchsorted(distinct, sizes[filled])]
    return out


@dataclass(slots=True)
class _AddressEvents:
    """Per-address receive/spend event arrays (times ascending).

    Events within one second keep the store's txid order: every feature reads
    them at ``searchsorted`` positions of a cutoff, which never splits a run
    of equal times.
    """

    recv_t: np.ndarray
    recv_amt: np.ndarray
    spend_t: np.ndarray
    spend_amt: np.ndarray
    creation: int

    @classmethod
    def collect(cls, store: TxStore, address: str) -> "_AddressEvents":
        """The store's history of ``address``, in (time, txid) order."""
        recv_tx, recv_amt = store.receives(address)
        spend_tx, spend_amt = store.spends(address)
        if not recv_tx.size and not spend_tx.size:
            raise DataError(f"address {address!r} has no activity")
        time = np.asarray(store.time)
        rt, st = time[recv_tx], time[spend_tx]
        creation = min(int(x[0]) for x in (rt, st) if x.size)
        return cls(rt, recv_amt, st, spend_amt, creation)


def skip_reason(store: TxStore, address: str, hours: int) -> str | None:
    """Why the stages give ``address`` no timeline and no path dump, or None.

    Its sums and times must stay in int64: an address whose receives or
    spends sum past ``2**63 - 1`` (its balance would wrap), or whose last
    cutoff passes it, is skipped like one with no transactions.
    """
    try:
        events = _AddressEvents.collect(store, address)
    except DataError:
        return "no transactions"
    if max(sum(events.recv_amt.tolist()), sum(events.spend_amt.tolist())) > INT64_MAX:
        return "amounts sum past 2**63 - 1"
    if events.creation + hours * HOUR > INT64_MAX:
        return "feature window ends past 2**63 - 1"
    return None


def _prefix_sum(values: np.ndarray) -> np.ndarray:
    """``out[n]`` is the sum of the first ``n`` values (integer-exact)."""
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _running_peak(times: np.ndarray, creation_bucket: int):
    """Per prefix of ``times`` (ascending): the largest hourly event count and
    the offset from creation of the earliest bucket reaching it.

    Index ``n`` describes the first ``n`` events, so index 0 is all zeros.
    """
    peak = np.zeros(times.size + 1, dtype=np.int64)
    peak_bucket = np.zeros(times.size + 1, dtype=np.int64)
    if times.size == 0:
        return peak, peak_bucket
    buckets = times // HOUR - creation_bucket
    idx = np.arange(times.size)
    opens = np.ones(times.size, dtype=bool)
    opens[1:] = buckets[1:] != buckets[:-1]
    count = idx - np.maximum.accumulate(np.where(opens, idx, 0)) + 1
    np.maximum.accumulate(count, out=peak[1:])
    # The earliest peak bucket is the one whose count first reached the
    # current peak: the last event at which the running peak rose.
    rose = np.maximum.accumulate(np.where(count > peak[:-1], idx, 0))
    peak_bucket[1:] = buckets[rose]
    return peak, peak_bucket


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def _cutoffs(creation: int, hours: int) -> np.ndarray:
    """Row ``t`` (1-based) sees everything stamped at or before ``creation + t`` hours."""
    return creation + HOUR * np.arange(1, hours + 1, dtype=np.int64)


def address_features(events: _AddressEvents, t_now: int | np.ndarray) -> np.ndarray:
    """The 16 address features (``ADDRESS_FEATURES`` order) at each cutoff.

    A scalar ``t_now`` gives a ``(16,)`` row, a 1-D array of cutoffs a
    ``(len, 16)`` matrix.  Every feature is read from per-event prefix arrays
    at the ``searchsorted`` position of the cutoff, so one call covers all
    hours of a timeline.
    """
    cutoffs = np.asarray(t_now, dtype=np.int64)
    scalar = cutoffs.ndim == 0
    cutoffs = cutoffs.reshape(-1)
    recv_t, spend_t = events.recv_t, events.spend_t
    nr = np.searchsorted(recv_t, cutoffs, side="right")
    ns = np.searchsorted(spend_t, cutoffs, side="right")
    # Closed window: an event exactly one hour old is still "recent", so the
    # creation deposit stays visible through the whole first row.
    nr_recent = nr - np.searchsorted(recv_t, cutoffs - HOUR, side="left")
    ns_recent = ns - np.searchsorted(spend_t, cutoffs - HOUR, side="left")

    creation_bucket = events.creation // HOUR
    max_spend, peak_spend = _running_peak(spend_t, creation_bucket)
    max_recv, peak_recv = _running_peak(recv_t, creation_bucket)

    all_t = np.sort(np.concatenate([recv_t, spend_t]))
    all_buckets = all_t // HOUR
    new_bucket = np.ones(all_t.size, dtype=np.int64)
    new_bucket[1:] = all_buckets[1:] != all_buckets[:-1]
    active_hours = _prefix_sum(new_bucket)[np.searchsorted(all_t, cutoffs, side="right")]
    hours_elapsed = (cutoffs - events.creation) // HOUR + 1

    out = np.empty((cutoffs.size, len(ADDRESS_FEATURES)), dtype=np.float64)
    out[:, 0] = _prefix_sum(events.recv_amt)[nr] - _prefix_sum(events.spend_amt)[ns]
    out[:, 1] = ns
    out[:, 2] = nr
    out[:, 3] = ns_recent
    out[:, 4] = nr_recent
    out[:, 5] = _ratio(ns, nr)
    out[:, 6] = _ratio(ns_recent, nr_recent)
    out[:, 7] = max_spend[ns]
    out[:, 8] = max_recv[nr]
    out[:, 9] = _prefix_sum(events.spend_amt == 0)[ns]
    out[:, 10] = _prefix_sum(events.recv_amt == 0)[nr]
    out[:, 11] = peak_spend[ns]
    out[:, 12] = peak_recv[nr]
    out[:, 13] = out[:, 11] - out[:, 12]
    out[:, 14] = active_hours
    out[:, 15] = _ratio(active_hours, hours_elapsed)
    return out[0] if scalar else out


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


class _SetTracker:
    """Per-(address, set) path feature rows, in the order the paths arrived.

    Rows are only ever appended, into a buffer that doubles when full.
    """

    __slots__ = ("truncated", "_buf", "_n")

    def __init__(self):
        self.truncated = False
        self._buf = np.empty((16, len(PATH_BASE_FEATURES)), dtype=np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def rows(self) -> np.ndarray:
        return self._buf[:self._n]

    def add(self, store: TxStore, paths) -> None:
        for p in paths:
            if self._n == self._buf.shape[0]:
                grown = np.empty((2 * self._n, self._buf.shape[1]), dtype=np.float64)
                grown[:self._n] = self._buf
                self._buf = grown
            self._buf[self._n] = path_feature_row(store, p)
            self._n += 1


def feature_timeline(store: TxStore, address: str, hours: int = 24,
                     params: PathParams | None = None,
                     label: int | None = None) -> FeatureTimeline:
    """Build the hourly feature matrix for one address.

    Row ``t`` (1-based) uses only transactions stamped at or before
    ``creation + t`` hours.  Backward path sets are built once per newly
    visible receive anchor; forward sets are extended incrementally as new
    transactions become visible.  Path work runs only in the hours where an
    anchor or a forward hop becomes visible: forward traces wait in a heap
    keyed by their next hidden hop.  Each set's row count is recorded per
    hour, and one aggregate call per set gives all 24 rows of its block.
    """
    params = params or PathParams()
    events = _AddressEvents.collect(store, address)
    creation = events.creation
    if label is None:
        label = store.labels.get(address)

    trackers = [_SetTracker() for _ in PATH_SET_NAMES]
    lt_bk, st_bk, lt_fr, st_fr = trackers
    # (next hidden hop time, set position, creation order, trace); the first
    # three are unique, so traces are never compared.
    due: list = []
    recv_ids = store.receive_txs(address)
    spend_ids = store.spend_txs(address)
    cutoffs = _cutoffs(creation, hours)
    # Anchor ids are in timestamp order, as are the event times.
    n_recv = np.searchsorted(events.recv_t, cutoffs, side="right").tolist()
    n_spend = np.searchsorted(events.spend_t, cutoffs, side="right").tolist()
    seen_recv = seen_spend = 0
    sizes = np.zeros((len(trackers), hours), dtype=np.intp)
    for t, cutoff in enumerate(cutoffs.tolist()):
        if (seen_recv == n_recv[t] and seen_spend == n_spend[t]
                and not (due and due[0][0] <= cutoff)):
            continue
        # New backward anchors: full historical trace, visible immediately.
        for anchor in recv_ids[seen_recv:n_recv[t]]:
            for horizon, tracker in (("LT", lt_bk), ("ST", st_bk)):
                ps = backward_paths(store, anchor, params.config(horizon, "BK"))
                tracker.add(store, ps.paths)
                tracker.truncated |= ps.truncated
        seen_recv = n_recv[t]
        # Existing traces whose next hop is now visible extend, lt_fr before
        # st_fr and each in creation order; the rest would add nothing.
        ready = []
        while due and due[0][0] <= cutoff:
            ready.append(heapq.heappop(due))
        ready.sort(key=lambda item: item[1:3])
        # New forward anchors start a trace; their paths come first.
        for anchor in spend_ids[seen_spend:n_spend[t]]:
            for k, horizon, tracker in ((2, "LT", lt_fr), (3, "ST", st_fr)):
                trace = ForwardTrace.build(store, anchor, params.config(horizon, "FR"), cutoff)
                tracker.add(store, trace.paths)
                tracker.truncated |= trace.truncated
                if trace.next_hop != math.inf:
                    heapq.heappush(due, (trace.next_hop, k, seen_spend, trace))
            seen_spend += 1
        for _, k, order, trace in ready:
            trackers[k].add(store, trace.extend(store, cutoff))
            trackers[k].truncated |= trace.truncated
            if trace.next_hop != math.inf:
                heapq.heappush(due, (trace.next_hop, k, order, trace))
        sizes[:, t:] = np.array([len(tracker) for tracker in trackers])[:, None]

    matrix = np.zeros((hours, len(FULL_SCHEMA)), dtype=np.float64)
    matrix[:, :len(ADDRESS_FEATURES)] = address_features(events, cutoffs)
    for tracker, row_counts, (lo, hi) in zip(trackers, sizes, _SET_BLOCKS):
        matrix[:, lo:hi] = aggregate_path_set(tracker.rows, row_counts)
    truncated = any(tr.truncated for tr in trackers)
    return FeatureTimeline(address, label, creation, matrix, truncated)


def feature_timeline_rebuilt(store: TxStore, address: str, hours: int = 24,
                             params: PathParams | None = None,
                             label: int | None = None) -> FeatureTimeline:
    """Reference builder: every row from a from-scratch path build."""
    params = params or PathParams()
    events = _AddressEvents.collect(store, address)
    if label is None:
        label = store.labels.get(address)
    cutoffs = _cutoffs(events.creation, hours)
    matrix = np.zeros((hours, len(FULL_SCHEMA)), dtype=np.float64)
    matrix[:, :len(ADDRESS_FEATURES)] = address_features(events, cutoffs)
    truncated = False
    for t, cutoff in enumerate(cutoffs.tolist()):
        try:
            sets = path_sets_for_address(store, address, cutoff, params)
        except DataError:
            sets = None
        for set_name, (lo, hi) in zip(PATH_SET_NAMES, _SET_BLOCKS):
            if sets is None:
                rows = np.zeros((0, len(PATH_BASE_FEATURES)))
            else:
                rows, _ = path_features(store, sets[set_name].paths)
                truncated = truncated or sets[set_name].truncated
            matrix[t, lo:hi] = aggregate_path_set(rows)
    return FeatureTimeline(address, label, events.creation, matrix, truncated)


# -- feature file I/O -------------------------------------------------------


def write_feature_csv(path, timelines: Iterable[FeatureTimeline]) -> None:
    """Write the feature file atomically; a failed write leaves any earlier
    file untouched.  ``timelines`` is iterated once, so a generator streams
    through with one timeline held."""
    with open_artifact(path) as fh:
        fh.write(f"# schema_sha256={SCHEMA_HASH}\n")
        fh.write("address,t_index,label," + ",".join(FULL_SCHEMA) + "\n")
        # A cell's text is reused while its bits equal the cell above
        # (for a first row, the previous timeline's last row); bits, not
        # ==, tell -0.0 from 0.0 and match NaN to NaN.
        cells = [""] * len(FULL_SCHEMA)
        above = None
        for tl in timelines:
            matrix = np.ascontiguousarray(tl.matrix, dtype=np.float64)
            if not matrix.shape[0]:
                continue
            bits = matrix.view(np.int64)
            changed = np.empty(bits.shape, dtype=bool)
            np.not_equal(bits[1:], bits[:-1], out=changed[1:])
            if above is None:
                changed[0] = True
            else:
                np.not_equal(bits[0], above, out=changed[0])
            above = bits[-1]
            rows, cols = np.nonzero(changed)
            # Each distinct value is formatted once per timeline; repr of
            # a Python float is what fmt_float gives a numpy scalar.
            values, which = np.unique(bits[rows, cols], return_inverse=True)
            texts = list(map(repr, values.view(np.float64).tolist()))
            texts = list(map(texts.__getitem__, which.tolist()))
            cols = cols.tolist()
            ends = np.cumsum(np.bincount(rows, minlength=matrix.shape[0])).tolist()
            head = f"{tl.address},"
            label = "" if tl.label is None else str(tl.label)
            lines = []
            start = 0
            for t, end in enumerate(ends, start=1):
                for j, text in zip(cols[start:end], texts[start:end]):
                    cells[j] = text
                start = end
                lines.append(f"{head}{t},{label},{','.join(cells)}\n")
            fh.write("".join(lines))


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
    write_json(path, {
        "version": SCHEMA_VERSION,
        "schema_sha256": SCHEMA_HASH,
        "full_schema": list(FULL_SCHEMA),
        "seed_schema": list(SEED_SCHEMA),
    })
