"""Transaction universe: parsing, validation and indexing.

The on-disk format is line-delimited JSON, one transaction per line::

    {"txid": "...", "time": 1600000000,
     "inputs":  [{"src": "<earlier txid>", "amount": 123, "owner": "addr"}],
     "outputs": [{"addr": "addr", "amount": 120}]}

``owner`` is optional ingestion metadata naming the address that spends the
referenced output; when absent the owner is recovered from the source
transaction's outputs by exact amount match.  Coinbase transactions carry an
empty input list.  Amounts are integer base units.

Labels live in a separate CSV with header ``address,label`` and label values
0 (regular) or 1 (malicious).
"""
from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import DataError, NotFoundError
from .serialize import write_artifact

HOUR = 3600

_INPUT_KEYS = {"src", "amount", "owner"}
_OUTPUT_KEYS = {"addr", "amount"}
_RECORD_KEYS = {"txid", "time", "inputs", "outputs"}
_order_key = attrgetter("timestamp", "tx_id")


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

    @property
    def is_coinbase(self) -> bool:
        return not self.inputs

    @property
    def total_input(self) -> int:
        return sum(i.amount for i in self.inputs)

    @property
    def total_output(self) -> int:
        return sum(o.amount for o in self.outputs)


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


def _parse_line(line: str, strings: dict[str, str]) -> TransactionRecord:
    """One validated record.  ``strings`` maps each id or address seen so far
    to its first string object, so repeated ids share one object."""
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
    intern = strings.setdefault
    inputs = []
    total_in = 0
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
        if owner is not None:
            if not isinstance(owner, str) or not owner:
                raise DataError("input owner must be a non-empty string")
            owner = intern(owner, owner)
        inputs.append(TxInput(intern(src, src), amount, owner))
        total_in += amount
    outputs = []
    total_out = 0
    for item in raw_outputs:
        if not isinstance(item, dict) or item.keys() != _OUTPUT_KEYS:
            raise DataError("malformed output entry")
        addr, amount = item["addr"], item["amount"]
        if not isinstance(addr, str) or not addr:
            raise DataError("output addr must be a non-empty string")
        if not isinstance(amount, int) or amount < 0:
            raise DataError("output amount must be a non-negative integer")
        outputs.append(TxOutput(intern(addr, addr), amount))
        total_out += amount
    if not outputs:
        raise DataError("outputs must be non-empty")
    if inputs and total_out > total_in:
        raise DataError("output total exceeds input total on a non-coinbase tx")
    return TransactionRecord(intern(txid, txid), ts, tuple(inputs), tuple(outputs))


def _group_outputs(outputs) -> tuple[tuple[tuple[str, int], ...], int]:
    """Outputs summed per address in first-seen order, and their total.

    A single output, or an address paid once, keeps its amount object, so the
    common case allocates no new ints.
    """
    if len(outputs) == 1:
        out = outputs[0]
        return ((out.addr, out.amount),), out.amount
    sums: dict[str, int] = {}
    for out in outputs:
        if out.addr in sums:
            sums[out.addr] += out.amount
        else:
            sums[out.addr] = out.amount
    return tuple(sums.items()), sum(sums.values())


def _group_inputs(inputs):
    """Inputs summed per source tx in first-seen order, each source's first
    explicit owner (or None), and the input total."""
    if len(inputs) == 1:
        inp = inputs[0]
        return ((inp.src, inp.amount),), (inp.owner,), inp.amount
    sums: dict[str, int] = {}
    owners: dict[str, str | None] = {}
    for inp in inputs:
        if inp.src in sums:
            sums[inp.src] += inp.amount
            if owners[inp.src] is None:
                owners[inp.src] = inp.owner
        else:
            sums[inp.src] = inp.amount
            owners[inp.src] = inp.owner
    return tuple(sums.items()), tuple(owners.values()), sum(sums.values())


class TxStore:
    """Immutable indexed view of a transaction universe.

    Construction is single-writer (via :func:`parse_transactions` or
    :meth:`from_records`); afterwards the store is read-only and safe to share
    across workers.
    """

    def __init__(self, records: list[TransactionRecord], report: ParseReport,
                 labels: dict[str, int] | None = None):
        self._txs: dict[str, TransactionRecord] = {}
        self.report = report
        self.labels: dict[str, int] = dict(labels or {})
        for rec in records:
            if rec.tx_id in self._txs:
                report.warnings.append(f"duplicate txid {rec.tx_id} dropped")
                continue
            self._txs[rec.tx_id] = rec
        self._build_indexes()

    # -- construction -----------------------------------------------------

    def _build_indexes(self) -> None:
        """Every index in one pass over the records in (timestamp, txid) order.

        Inputs are grouped by source tx and outputs by address; each group's
        owner is the first explicit ``owner`` among its inputs, else the
        source output matching its amount.  A source that is missing or later
        than its spender is an external boundary.  Each address's history is
        two flat sequences, ``tx, amount, tx, amount, ...``: its receives with
        the amount it received in each, and its spends with the input amount
        it owned in each.
        """
        txs = self._txs
        report = self.report
        agg_in_index: dict[str, tuple[tuple[str, int], ...]] = {}
        stats: dict[str, tuple[int, int, int, int]] = {}
        children: dict[str, list[tuple[str, int]]] = {}
        recv: dict[str, list] = {}
        spend: dict[str, list] = {}

        for rec in sorted(txs.values(), key=_order_key):
            tx_id, ts = rec.tx_id, rec.timestamp
            agg_out, total_out = _group_outputs(rec.outputs)
            # A new key gets a list literal sized for its first event;
            # setdefault's empty list would grow to four slots on extend.
            for addr, amount in agg_out:
                events = recv.get(addr)
                if events is None:
                    recv[addr] = [tx_id, amount]
                else:
                    events += tx_id, amount
            if rec.inputs:
                agg_in, explicit, total_in = _group_inputs(rec.inputs)
                owned: dict[str, int] = {}
                for (src, amount), owner in zip(agg_in, explicit):
                    src_rec = txs.get(src)
                    if src_rec is None or src_rec.timestamp > ts:
                        # Dangling or time-violating reference: external boundary.
                        report.boundary_inputs += 1
                        if src_rec is not None:
                            report.warnings.append(
                                f"{tx_id}: input {src} is later than spender; treated as boundary"
                            )
                    else:
                        if src in children:
                            children[src].append((tx_id, amount))
                        else:
                            children[src] = [(tx_id, amount)]
                        if owner is None:
                            owner = self._match_owner(src_rec, amount)
                    if owner is not None:
                        if owner in owned:
                            owned[owner] += amount
                        else:
                            owned[owner] = amount
                for owner, amount in owned.items():
                    events = spend.get(owner)
                    if events is None:
                        spend[owner] = [tx_id, amount]
                    else:
                        events += tx_id, amount
            else:
                agg_in, total_in = (), 0
            agg_in_index[tx_id] = agg_in
            stats[tx_id] = (total_in, total_out, len(agg_in), len(agg_out))

        # Lists become tuples in place, so one list at a time is freed.
        for history in (recv, spend):
            for address, events in history.items():
                history[address] = tuple(events)
        self._agg_in = agg_in_index
        self._stats = stats
        self._children = children
        self._receives = recv
        self._spends = spend

    def _match_owner(self, src_rec: TransactionRecord, amount: int) -> str | None:
        """The first output of ``src_rec`` paying ``amount``; a second output of
        that amount to another address counts the input as ambiguous."""
        owner = None
        for out in src_rec.outputs:
            if out.amount == amount:
                if owner is None:
                    owner = out.addr
                elif out.addr != owner:
                    self.report.ambiguous_owners += 1
                    break
        return owner

    @classmethod
    def from_records(cls, records, labels=None) -> "TxStore":
        report = ParseReport(n_lines=len(records), n_accepted=len(records))
        return cls(list(records), report, labels)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._txs

    def tx(self, tx_id: str) -> TransactionRecord:
        try:
            return self._txs[tx_id]
        except KeyError:
            raise NotFoundError(f"unknown transaction {tx_id!r}") from None

    def maybe_tx(self, tx_id: str) -> TransactionRecord | None:
        return self._txs.get(tx_id)

    def tx_ids(self):
        return self._txs.keys()

    def tx_stats(self, tx_id: str) -> tuple[int, int, int, int]:
        """``(total_in, total_out, n_agg_in, n_agg_out)`` of one transaction."""
        return self._stats[tx_id]

    def agg_inputs(self, tx_id: str) -> tuple[tuple[str, int], ...]:
        return self._agg_in[tx_id]

    def children(self, tx_id: str) -> list[tuple[str, int]]:
        """Transactions spending ``tx_id``'s outputs, with drawn amounts."""
        return self._children.get(tx_id, [])

    def addresses(self):
        return self._receives.keys()

    def receive_txs(self, address: str) -> tuple[str, ...]:
        return self._receives.get(address, ())[0::2]

    def spend_txs(self, address: str) -> tuple[str, ...]:
        return self._spends.get(address, ())[0::2]

    def receive_amounts(self, address: str) -> tuple[int, ...]:
        """What ``address`` received in each of its ``receive_txs``."""
        return self._receives.get(address, ())[1::2]

    def spend_amounts(self, address: str) -> tuple[int, ...]:
        """The input amount ``address`` owned in each of its ``spend_txs``."""
        return self._spends.get(address, ())[1::2]


def parse_transactions(lines, labels: dict[str, int] | None = None,
                       max_error_fraction: float = 0.5) -> TxStore:
    """Parse line-delimited records into an indexed store.

    Malformed lines are rejected individually and reported; first occurrence
    wins on duplicate txids.  If more than ``max_error_fraction`` of a
    non-trivial stream is malformed the schema is considered unresolvable and
    the whole parse fails.

    The parse and the index build create no reference cycles, so the cyclic
    garbage collector is paused for them (its passes over the growing store
    would find nothing) and left as it was found.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        report = ParseReport()
        records: list[TransactionRecord] = []
        strings: dict[str, str] = {}
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
                records.append(_parse_line(line, strings))
                report.n_accepted += 1
            except DataError as exc:
                report.line_errors.append((line_no, str(exc)))
        del strings
        if report.n_lines >= 10 and report.line_errors:
            if len(report.line_errors) / report.n_lines > max_error_fraction:
                raise DataError(
                    f"unresolvable schema: {len(report.line_errors)} of "
                    f"{report.n_lines} lines malformed"
                )
        return TxStore(records, report, labels)
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
