"""Transaction universe: parsing, validation and indexing.

The on-disk format is line-delimited JSON, one transaction per line::

    {"txid": "...", "time": 1600000000,
     "inputs":  [{"src": "<earlier txid>", "amount": 123, "owner": "addr"}],
     "outputs": [{"addr": "addr", "amount": 120}]}

``owner`` is optional ingestion metadata naming the address that spends the
referenced output; when absent the owner is recovered from the source
transaction's outputs by exact amount match.  Coinbase transactions carry an
empty input list.  Amounts are integer base units.  A time, or a
transaction's input or output total, above ``2**63 - 1`` rejects its line.

Labels live in a separate CSV with header ``address,label`` and label values
0 (regular) or 1 (malicious).
"""
from __future__ import annotations

import codecs
import gc
import itertools
import json
import zipfile
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NotFoundError
from .serialize import open_artifact, write_artifact

HOUR = 3600
INT64_MAX = 2**63 - 1

_INPUT_KEYS = {"src", "amount", "owner"}
_OUTPUT_KEYS = {"addr", "amount"}
_RECORD_KEYS = {"txid", "time", "inputs", "outputs"}


@dataclass(frozen=True, slots=True)
class TxInput:
    src: str
    amount: int
    owner: str | None = None


@dataclass(frozen=True, slots=True)
class TxOutput:
    addr: str
    amount: int


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    """One on-chain transaction.  ``inputs`` empty means coinbase."""

    tx_id: str
    timestamp: int
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]


@dataclass(slots=True)
class ParseReport:
    n_lines: int = 0
    n_accepted: int = 0
    line_errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    boundary_inputs: int = 0
    # Inputs whose owner came from an amount match that several distinct
    # addresses received; the first such output still names the owner.
    ambiguous_owners: int = 0


_scan_json = json.JSONDecoder().scan_once


def _parse_line(line: str):
    """One validated record as ``(txid, time, srcs, input amounts, owners,
    addrs, output amounts)``; an input without an owner has owner None."""
    # The decoder's scanner on its own: the line is stripped, so a value that
    # ends at the line's end is exactly what json.loads accepts.  Anything
    # else goes through json.loads for its error message.
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and over-long integer literals.
            raise DataError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError("record is not an object")
    if obj.keys() != _RECORD_KEYS:
        unknown = set(obj) - _RECORD_KEYS
        if unknown:
            raise DataError(f"unknown keys {sorted(unknown)}")
        raise DataError(f"missing keys {sorted(_RECORD_KEYS - set(obj))}")
    txid = obj["txid"]
    if not isinstance(txid, str) or not txid:
        raise DataError("txid must be a non-empty string")
    ts = obj["time"]
    if not isinstance(ts, int) or ts < 0:
        raise DataError("time must be a non-negative integer")
    raw_inputs, raw_outputs = obj["inputs"], obj["outputs"]
    if not isinstance(raw_inputs, list) or not isinstance(raw_outputs, list):
        raise DataError("inputs/outputs must be lists")
    srcs, in_amts, owners = [], [], []
    for item in raw_inputs:
        if (not isinstance(item, dict) or not item.keys() <= _INPUT_KEYS
                or "src" not in item or "amount" not in item):
            raise DataError("malformed input entry")
        src, amount = item["src"], item["amount"]
        if not isinstance(src, str) or not src:
            raise DataError("input src must be a non-empty string")
        if not isinstance(amount, int) or amount < 0:
            raise DataError("input amount must be a non-negative integer")
        owner = item.get("owner")
        if owner is not None and (not isinstance(owner, str) or not owner):
            raise DataError("input owner must be a non-empty string")
        srcs.append(src)
        in_amts.append(amount)
        owners.append(owner)
    addrs, out_amts = [], []
    for item in raw_outputs:
        if not isinstance(item, dict) or item.keys() != _OUTPUT_KEYS:
            raise DataError("malformed output entry")
        addr, amount = item["addr"], item["amount"]
        if not isinstance(addr, str) or not addr:
            raise DataError("output addr must be a non-empty string")
        if not isinstance(amount, int) or amount < 0:
            raise DataError("output amount must be a non-negative integer")
        addrs.append(addr)
        out_amts.append(amount)
    if not addrs:
        raise DataError("outputs must be non-empty")
    total_in, total_out = sum(in_amts), sum(out_amts)
    if srcs and total_out > total_in:
        raise DataError("output total exceeds input total on a non-coinbase tx")
    # Last, so that a line rejected before keeps its message.  Amounts are
    # non-negative, so a total in range keeps every amount and sum in range.
    if ts > INT64_MAX:
        raise DataError("time exceeds 2**63 - 1")
    if total_in > INT64_MAX:
        raise DataError("input total exceeds 2**63 - 1")
    if total_out > INT64_MAX:
        raise DataError("output total exceeds 2**63 - 1")
    return txid, ts, srcs, in_amts, owners, addrs, out_amts


class _Numbering(dict):
    """Names to numbers in first-seen order."""

    def __missing__(self, name: str) -> int:
        n = self[name] = len(self)
        return n


class _Columns:
    """Accepted transactions as flat columns in arrival order, every name
    numbered in first-seen order; :class:`TxStore` renumbers them.

    Inputs and outputs wait in plain lists and move into the columns a batch
    of lines at a time, so they cost a list append per line.
    """

    BATCH = 4096

    def __init__(self, report: ParseReport):
        self.report = report
        self.tx_names = _Numbering()
        self.accepted = bytearray()  # by tx name number; shorter means 0
        self.addr_names = _Numbering()
        self.row_tx = array("i")
        self.time = array("q")
        self.n_in = array("i")
        self.n_out = array("i")
        self.in_src = array("i")
        self.in_amt = array("q")
        self.in_owner = array("i")
        self.out_addr = array("i")
        self.out_amt = array("q")
        self._pending = ([], [], [], [], [])

    def add(self, txid, ts, srcs, in_amts, owners, addrs, out_amts) -> None:
        """Append one record; a txid seen before is dropped with a warning."""
        n = self.tx_names[txid]
        accepted = self.accepted
        if n < len(accepted):
            if accepted[n]:
                self.report.warnings.append(f"duplicate txid {txid} dropped")
                return
        else:
            accepted.extend(bytes(n + 1 - len(accepted)))
        accepted[n] = 1
        self.row_tx.append(n)
        self.time.append(ts)
        self.n_in.append(len(srcs))
        self.n_out.append(len(addrs))
        pending = self._pending
        pending[0].extend(srcs)
        pending[1].extend(in_amts)
        pending[2].extend(owners)
        pending[3].extend(addrs)
        pending[4].extend(out_amts)
        if len(self.row_tx) % self.BATCH == 0:
            self.flush()

    def flush(self) -> None:
        srcs, in_amts, owners, addrs, out_amts = self._pending
        address = self.addr_names
        self.in_src.fromlist(list(map(self.tx_names.__getitem__, srcs)))
        self.in_amt.fromlist(in_amts)
        self.in_owner.fromlist([-1 if owner is None else address[owner] for owner in owners])
        self.out_addr.fromlist(list(map(address.__getitem__, addrs)))
        self.out_amt.fromlist(out_amts)
        for pending in self._pending:
            pending.clear()


def _array(column: array) -> np.ndarray:
    return np.frombuffer(column, dtype=column.typecode)


def _renumber_names(names: dict[str, int], first=None) -> tuple[list[str], np.ndarray]:
    """Names in sorted order, those with ``first[n]`` set ahead of the rest,
    and the new number of each first-seen number.  Empties ``names``."""
    if first is None:
        order = sorted(names)
    else:
        order = (sorted(s for s, n in names.items() if first[n])
                 + sorted(s for s, n in names.items() if not first[n]))
    renumber = np.empty(len(order), dtype=np.int64)
    renumber[np.fromiter(map(names.__getitem__, order), np.int64, len(order))] = \
        np.arange(len(order))
    names.clear()
    return order, renumber


def _csr(key: np.ndarray, n_keys: int, *columns, then=None):
    """CSR offsets of ``n_keys`` segments, then ``columns`` grouped by ``key``;
    within a segment entries keep their order, or follow ``then``."""
    order = np.argsort(key, kind="stable") if then is None else np.lexsort((then, key))
    ptr = np.zeros(n_keys + 1, dtype=np.int32)
    np.cumsum(np.bincount(key, minlength=n_keys), out=ptr[1:])
    return (ptr, *(column[order] for column in columns))


def _sum_groups(tx: np.ndarray, key: np.ndarray, amount: np.ndarray):
    """Entries (in tx order) summed per (tx, key) pair.

    Returns each group's first entry and its sum, groups in order of their
    first entries (so by tx, then first seen), and each entry's group.
    """
    order = np.lexsort((key, tx))
    t, k = tx[order], key[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (t[1:] != t[:-1]) | (k[1:] != k[:-1])
    del t, k
    starts = order[new]
    by_first = np.argsort(starts)
    rank = np.empty(by_first.size, dtype=np.int32)
    rank[by_first] = np.arange(by_first.size)
    group = np.empty(order.size, dtype=np.int32)
    group[order] = rank[np.cumsum(new) - 1]
    del order, new, rank
    sums = np.zeros(starts.size, dtype=np.int64)
    np.add.at(sums, group, amount)
    return starts[by_first], sums, group


class TxStore:
    """Immutable columnar view of a transaction universe.

    Transactions are numbered ``0 .. len(store) - 1`` in sorted txid order,
    and addresses in sorted address order, so a tuple of ids sorts like the
    tuple of names.  A referenced source that is not in the store gets an id
    from ``len(store)`` on (sorted among such sources).  ``tx_name`` and
    ``address_name`` turn ids back into names.

    The hot readers use these columns, memoryviews whose items are Python
    ints (``np.asarray`` gives the array without a copy):

    * ``time[t]``: the timestamp of tx ``t``;
    * ``stats[4t : 4t + 4]``: its ``(total_in, total_out, n_agg_in, n_agg_out)``;
    * ``agg_src``/``agg_amt`` from ``agg_ptr[t]`` to ``agg_ptr[t + 1]``: its
      inputs summed per source, in first-seen order;
    * ``child_tx``/``child_amt`` from ``child_ptr[t]`` to ``child_ptr[t + 1]``:
      the transactions spending its outputs and what each drew, in
      (time, txid) order.

    Construction is single-writer (via :func:`parse_transactions`,
    :meth:`from_records` or :meth:`load`); afterwards the store is read-only
    and safe to share across workers.
    """

    # What :meth:`save` writes: the columns, each index as its (ptr, ids,
    # amounts) triple, and each name list packed with its ends.
    _COLUMNS = ("time", "stats", "in_ptr", "in_src", "in_amt", "in_owner",
                "out_ptr", "out_addr", "out_amt")
    _INDEXES = ("agg", "children", "receives", "spends")
    _PARTS = ("ptr", "ids", "amt")
    _NAMES = ("tx_names", "addr_names")
    _FORMAT = 1

    def __init__(self, cols: _Columns, labels: dict[str, int] | None = None):
        self.report = cols.report
        self.labels: dict[str, int] = dict(labels or {})
        self._renumber(cols)
        self._build_indexes()

    # -- construction -----------------------------------------------------

    def _renumber(self, cols: _Columns) -> None:
        """The raw columns in id order, each freed once it has been read."""
        cols.flush()
        cols.accepted.extend(bytes(len(cols.tx_names) - len(cols.accepted)))
        self._tx_names, tx_of = _renumber_names(cols.tx_names, cols.accepted)
        self._addr_names, addr_of = _renumber_names(cols.addr_names)
        rows = tx_of[_array(cols.row_tx)]
        n = rows.size
        self._time = np.empty(n, dtype=np.int64)
        self._time[rows] = _array(cols.time)
        owner = _array(cols.in_owner)
        named = owner >= 0
        owner[named] = addr_of[owner[named]]
        self._in_ptr, self._in_src, self._in_amt, self._in_owner = _csr(
            np.repeat(rows, _array(cols.n_in)), n,
            tx_of[_array(cols.in_src)].astype(np.int32), _array(cols.in_amt), owner)
        del owner, named
        cols.in_src = cols.in_amt = cols.in_owner = cols.n_in = None
        self._out_ptr, self._out_addr, self._out_amt = _csr(
            np.repeat(rows, _array(cols.n_out)), n,
            addr_of[_array(cols.out_addr)].astype(np.int32), _array(cols.out_amt))
        cols.out_addr = cols.out_amt = cols.n_out = cols.row_tx = cols.time = None

    def _build_indexes(self) -> None:
        """Every index, as if built in one pass over the transactions in
        (time, txid) order.

        Inputs are grouped by source tx and outputs by address, each in
        first-seen order; each input group's owner is the first explicit
        ``owner`` among its inputs, else the source output matching its
        amount.  A source that is missing or later than its spender is an
        external boundary.  Children, warnings and each address's receives
        and owned spends come in pass order.
        """
        report = self.report
        n, n_addr = len(self._time), len(self._addr_names)
        rank = np.empty(n, dtype=np.int32)
        rank[np.argsort(self._time, kind="stable")] = np.arange(n)
        tx_ids = np.arange(n, dtype=np.int32)

        stats = np.zeros((n, 4), dtype=np.int64)
        out_tx = np.repeat(tx_ids, np.diff(self._out_ptr))
        first, paid, _ = _sum_groups(out_tx, self._out_addr, self._out_amt)
        paid_tx = out_tx[first]
        del out_tx
        np.add.at(stats[:, 1], paid_tx, paid)
        stats[:, 3] = np.bincount(paid_tx, minlength=n)
        self._receives = _csr(self._out_addr[first], n_addr, paid_tx, paid, then=rank[paid_tx])
        del first, paid, paid_tx

        in_tx = np.repeat(tx_ids, np.diff(self._in_ptr))
        first, drawn, group = _sum_groups(in_tx, self._in_src, self._in_amt)
        agg_tx, agg_src = in_tx[first], self._in_src[first]
        del in_tx
        self._agg = _csr(agg_tx, n, agg_src, drawn)
        np.add.at(stats[:, 0], agg_tx, drawn)
        stats[:, 2] = np.diff(self._agg[0])
        owner = np.full(first.size, -1, dtype=np.int32)
        named = np.flatnonzero(self._in_owner >= 0)
        groups, first_named = np.unique(group[named], return_index=True)
        owner[groups] = self._in_owner[named[first_named]]
        del first, group, named, groups, first_named

        inside = agg_src < n
        later = inside & (self._time[np.where(inside, agg_src, 0)] > self._time[agg_tx])
        linked = inside & ~later
        del inside
        report.boundary_inputs += int(agg_src.size - np.count_nonzero(linked))
        names = self._tx_names
        for i in np.flatnonzero(later)[np.argsort(rank[agg_tx[later]], kind="stable")].tolist():
            report.warnings.append(f"{names[agg_tx[i]]}: input {names[agg_src[i]]} "
                                   "is later than spender; treated as boundary")
        self._children = _csr(agg_src[linked], n, agg_tx[linked], drawn[linked],
                              then=rank[agg_tx[linked]])
        unnamed = np.flatnonzero(linked & (owner < 0))
        owner[unnamed] = [self._match_owner(src, amount) for src, amount in
                          zip(agg_src[unnamed].tolist(), drawn[unnamed].tolist())]
        del later, linked, unnamed

        owns = owner >= 0
        agg_tx, owner, drawn = agg_tx[owns], owner[owns], drawn[owns]
        first, owned, _ = _sum_groups(agg_tx, owner, drawn)
        self._spends = _csr(owner[first], n_addr, agg_tx[first], owned, then=rank[agg_tx[first]])
        self._stats = stats
        self._views()

    def _views(self) -> None:
        """The hot readers' views: items and ``tolist`` give Python ints."""
        self.time = memoryview(self._time)
        self.stats = memoryview(self._stats.reshape(-1))
        self.agg_ptr, self.agg_src, self.agg_amt = map(memoryview, self._agg)
        self.child_ptr, self.child_tx, self.child_amt = map(memoryview, self._children)

    def _match_owner(self, src: int, amount: int) -> int:
        """The first output of ``src`` paying ``amount`` (-1: none); a second
        output of that amount to another address counts the input as
        ambiguous."""
        owner = -1
        lo, hi = self._out_ptr[src:src + 2].tolist()
        for addr, paid in zip(self._out_addr[lo:hi].tolist(), self._out_amt[lo:hi].tolist()):
            if paid == amount:
                if owner < 0:
                    owner = addr
                elif addr != owner:
                    self.report.ambiguous_owners += 1
                    break
        return owner

    @classmethod
    def from_records(cls, records, labels=None) -> "TxStore":
        report = ParseReport(n_lines=len(records), n_accepted=len(records))
        cols = _Columns(report)
        for rec in records:
            if max(rec.timestamp, sum(i.amount for i in rec.inputs),
                   sum(o.amount for o in rec.outputs)) > INT64_MAX:
                raise DataError(f"{rec.tx_id}: a time or total exceeds 2**63 - 1")
            cols.add(rec.tx_id, rec.timestamp,
                     [i.src for i in rec.inputs], [i.amount for i in rec.inputs],
                     [i.owner for i in rec.inputs],
                     [o.addr for o in rec.outputs], [o.amount for o in rec.outputs])
        return cls(cols, labels)

    # -- persistence -------------------------------------------------------

    def _saved_arrays(self):
        """What :meth:`save` writes, as (name, array) pairs; each name list is
        packed only when its turn comes."""
        yield "format", np.array([self._FORMAT])
        for name in self._COLUMNS:
            yield name, getattr(self, f"_{name}")
        for name in self._INDEXES:
            yield from zip((f"{name}_{part}" for part in self._PARTS), getattr(self, f"_{name}"))
        for name in self._NAMES:
            yield from zip((name, f"{name}_ends"), _pack_names(getattr(self, f"_{name}")))

    def save(self, path) -> None:
        """Write every column, index and name to ``path`` as an uncompressed
        ``.npz`` that :func:`numpy.load` reads, atomically.  Its entries carry
        zip's fixed default date, so the bytes depend only on the store.  The
        labels and the parse report are not saved."""
        with open_artifact(path, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
            for name, array in self._saved_arrays():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as entry:
                    np.lib.format.write_array(entry, array, allow_pickle=False)

    @classmethod
    def load(cls, path, labels: dict[str, int] | None = None) -> "TxStore":
        """The store :meth:`save` wrote to ``path``, with every index as
        built; its report is empty."""
        store = cls.__new__(cls)
        store.report = ParseReport()
        store.labels = dict(labels or {})
        try:
            with np.load(path) as saved:
                if saved["format"].tolist() != [cls._FORMAT]:
                    raise DataError(f"{path} has store format {saved['format'].tolist()}, "
                                    f"not [{cls._FORMAT}]")
                for name in cls._COLUMNS:
                    setattr(store, f"_{name}", saved[name])
                for name in cls._INDEXES:
                    setattr(store, f"_{name}",
                            tuple(saved[f"{name}_{part}"] for part in cls._PARTS))
                for name in cls._NAMES:
                    setattr(store, f"_{name}",
                            _unpack_names(saved[name], saved[f"{name}_ends"]))
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path} is not a transaction store: {exc}") from None
        store._views()
        return store

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.time)

    def tx_name(self, t: int) -> str:
        return self._tx_names[t]

    def address_name(self, a: int) -> str:
        return self._addr_names[a]

    def tx(self, t: int) -> TransactionRecord:
        """Transaction ``t`` rebuilt from the columns, names and all."""
        if not 0 <= t < len(self):
            raise NotFoundError(f"unknown transaction id {t!r}")
        names, addrs = self._tx_names, self._addr_names
        lo, hi = self._in_ptr[t:t + 2].tolist()
        inputs = tuple(TxInput(names[src], amount, addrs[owner] if owner >= 0 else None)
                       for src, amount, owner in zip(self._in_src[lo:hi].tolist(),
                                                     self._in_amt[lo:hi].tolist(),
                                                     self._in_owner[lo:hi].tolist()))
        lo, hi = self._out_ptr[t:t + 2].tolist()
        outputs = tuple(TxOutput(addrs[addr], amount)
                        for addr, amount in zip(self._out_addr[lo:hi].tolist(),
                                                self._out_amt[lo:hi].tolist()))
        return TransactionRecord(names[t], self.time[t], inputs, outputs)

    def addresses(self) -> list[str]:
        """Every address that receives, in id order."""
        return [self._addr_names[a]
                for a in np.flatnonzero(np.diff(self._receives[0])).tolist()]

    def _history(self, index, address: str) -> tuple[np.ndarray, np.ndarray]:
        ptr, txs, amounts = index
        a = bisect_left(self._addr_names, address)
        if a == len(self._addr_names) or self._addr_names[a] != address:
            return txs[:0], amounts[:0]
        lo, hi = ptr[a:a + 2].tolist()
        return txs[lo:hi], amounts[lo:hi]

    def receives(self, address: str) -> tuple[np.ndarray, np.ndarray]:
        """The txs paying ``address`` and what it received in each, in
        (time, txid) order."""
        return self._history(self._receives, address)

    def spends(self, address: str) -> tuple[np.ndarray, np.ndarray]:
        """The txs spending from ``address`` and the input amount it owned in
        each, in (time, txid) order."""
        return self._history(self._spends, address)

    def receive_txs(self, address: str) -> tuple[int, ...]:
        return tuple(self.receives(address)[0].tolist())

    def spend_txs(self, address: str) -> tuple[int, ...]:
        return tuple(self.spends(address)[0].tolist())


def _pack_names(names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The names as one UTF-8 byte array and each name's end, in characters.
    JSON strings may hold lone surrogates, which pass through unchanged."""
    ends = np.cumsum(np.fromiter(map(len, names), np.int64, len(names)))
    return np.frombuffer("".join(names).encode("utf-8", "surrogatepass"), np.uint8), ends


def _unpack_names(data: np.ndarray, ends: np.ndarray) -> list[str]:
    text, _ = codecs.utf_8_decode(data, "surrogatepass", True)
    # Bounds one at a time: a list of them all would briefly cost more than
    # the names.
    ends = memoryview(ends)
    return [text[lo:hi] for lo, hi in zip(itertools.chain((0,), ends), ends)]


def parse_transactions(lines, labels: dict[str, int] | None = None,
                       max_error_fraction: float = 0.5) -> TxStore:
    """Parse line-delimited records into an indexed store.

    Malformed lines are rejected individually and reported; first occurrence
    wins on duplicate txids.  If more than ``max_error_fraction`` of a
    non-trivial stream is malformed the schema is considered unresolvable and
    the whole parse fails.

    The parse and the index build create no reference cycles, so the cyclic
    garbage collector is paused for them (its passes over the growing store
    would find nothing) and left as it was found.  One full collection runs
    first: it clears the interpreter's free lists, whose few blocks would
    otherwise keep the memory pools of earlier work in the process mapped
    (about 11 MB after a ``synth`` of the 1,000-address universe).
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        report = ParseReport()
        cols = _Columns(report)
        for line_no, line in enumerate(lines, start=1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    report.n_lines += 1
                    report.line_errors.append((line_no, f"invalid UTF-8: {exc}"))
                    continue
            line = line.strip()
            if not line:
                continue
            report.n_lines += 1
            try:
                record = _parse_line(line)
            except DataError as exc:
                report.line_errors.append((line_no, str(exc)))
                continue
            report.n_accepted += 1
            cols.add(*record)
        if report.n_lines >= 10 and report.line_errors:
            if len(report.line_errors) / report.n_lines > max_error_fraction:
                raise DataError(
                    f"unresolvable schema: {len(report.line_errors)} of "
                    f"{report.n_lines} lines malformed"
                )
        return TxStore(cols, labels)
    finally:
        if gc_was_enabled:
            gc.enable()


def parse_transactions_file(path, labels=None) -> TxStore:
    # Binary lines, so a line that is not UTF-8 is rejected on its own.
    with open(path, "rb") as fh:
        return parse_transactions(fh, labels)


def serialize_transaction(rec: TransactionRecord) -> str:
    obj = {
        "txid": rec.tx_id,
        "time": rec.timestamp,
        "inputs": [
            {"src": i.src, "amount": i.amount, **({"owner": i.owner} if i.owner else {})}
            for i in rec.inputs
        ],
        "outputs": [{"addr": o.addr, "amount": o.amount} for o in rec.outputs],
    }
    return json.dumps(obj, separators=(",", ":"))


def load_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "address,label":
            raise DataError(f"labels file must start with 'address,label', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise DataError(f"labels line {line_no}: expected 'address,0|1', got {line!r}")
            labels[parts[0]] = int(parts[1])
    return labels


def write_labels(labels: dict[str, int], path) -> None:
    write_artifact(path, "address,label\n"
                   + "".join(f"{addr},{labels[addr]}\n" for addr in sorted(labels)))
