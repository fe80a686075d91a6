"""Seeded generator of the ``trace-deep`` universe: few anchors, deep paths.

Around each monitored address it builds

* mixer-style fan-in trees: every deposit is the root of a k-ary tree of
  transactions, two to four levels deep and all within two hours, so
  short-term backward tracing expands whole levels at once;
* single-input peel chains into the address, one hop every one to three
  hours over up to five days, so long-term backward paths run tens of hops
  deep;
* 90/10 peel chains out of the address (two by default), one hop every 40
  to 80 minutes and started a few hours apart, so they grow in the same
  hours and the forward traces gain paths almost every observed hour.

Malicious addresses (label 1, half of them) get more, wider and deeper trees
and longer chains than regular ones.  The generator only produces records;
the program sees them as ``transactions.jsonl`` and ``labels.csv``.
"""
from __future__ import annotations

import numpy as np

from chainsentry.chain import TransactionRecord, TxInput, TxOutput

HOUR = 3600
BASE_TIME = 1_700_000_000
COIN = 100_000_000


class _Builder:
    def __init__(self, rng: np.random.Generator, prefix: str):
        self.rng = rng
        self.prefix = prefix
        self.records: list[TransactionRecord] = []

    def tx(self, when: int, inputs, outputs) -> str:
        """``inputs`` are (source tx, amount, owner); ``outputs`` (addr, amount)."""
        tx_id = f"{self.prefix}t{len(self.records):05d}"
        self.records.append(TransactionRecord(
            tx_id, int(when),
            tuple(TxInput(src, amount, owner) for src, amount, owner in inputs),
            tuple(TxOutput(addr, amount) for addr, amount in outputs)))
        return tx_id

    def split(self, amount: int, parts: int) -> list[int]:
        weights = self.rng.dirichlet(np.full(parts, 4.0))
        shares = [int(amount * w) for w in weights[:-1]]
        return shares + [amount - sum(shares)]

    def fan_in(self, dest: str, amount: int, when: int, arity: int, depth: int) -> str:
        """A transaction at ``when`` paying ``amount`` to ``dest``, fed by a
        ``depth``-level tree of ``arity``-input transactions."""
        if depth == 0:
            return self.tx(when, [], [(dest, amount)])
        inputs = []
        for k, share in enumerate(self.split(amount, arity)):
            mid = f"{dest}.{k}"
            child_when = when - int(self.rng.integers(300, 1800))
            inputs.append((self.fan_in(mid, share, child_when, arity, depth - 1), share, mid))
        return self.tx(when, inputs, [(dest, amount)])

    def peel_in(self, dest: str, amount: int, when: int, hops: int) -> str:
        """A single-input chain of ``hops`` transactions ending in a payment of
        ``amount`` to ``dest`` at ``when``; each hop peels 5% to a side address."""
        gaps = self.rng.integers(1, 4, size=hops) * HOUR
        t = when - int(gaps.sum())
        value = int(amount / 0.95 ** hops) + 1
        holder = f"{dest}.in0"
        prev = self.tx(t - HOUR, [], [(holder, value)])
        for k in range(hops):
            t += int(gaps[k])
            nxt = dest if k == hops - 1 else f"{dest}.in{k + 1}"
            onward = amount if k == hops - 1 else int(value * 0.95)
            prev = self.tx(t, [(prev, value, holder)],
                           [(nxt, onward), (f"{dest}.side{k}", value - onward)])
            holder, value = nxt, onward
        return prev

    def peel_out(self, owner: str, source_tx: str, amount: int, when: int,
                 hops: int, tag: str) -> None:
        """Spend ``amount`` received in ``source_tx`` down a 90/10 peel chain."""
        holder, src, value, t = owner, source_tx, amount, when
        for k in range(hops):
            onward = int(value * 0.9)
            nxt = f"{owner}.{tag}{k}"
            src = self.tx(t, [(src, value, holder)],
                          [(nxt, onward), (f"{owner}.{tag}cash{k}", value - onward)])
            holder, value = nxt, onward
            t += int(self.rng.integers(40, 81)) * 60


# Fan-in tree shapes (arity, depth) per label, dealt round-robin so that every
# seed builds the same mix of trees and only amounts and timings vary.
_TREE_SHAPES = {1: ((3, 3), (4, 3), (3, 4), (4, 4)), 0: ((2, 2), (3, 2), (2, 3), (3, 3))}


def _address(b: _Builder, name: str, label: int, slot: int, start: int,
             n_spends: int) -> dict:
    """The universe around one monitored address; ``slot`` numbers the
    addresses of its label."""
    rng = b.rng
    malicious = label == 1
    n_trees = (2 if malicious else 1) + slot % 2
    deposits = []  # (tx, amount, hour)
    for k in range(n_trees):
        hour = 0 if k == 0 else int(rng.integers(1, 18))
        arity, depth = _TREE_SHAPES[label][(slot + k) % len(_TREE_SHAPES[label])]
        amount = int(rng.uniform(5, 50) * COIN)
        when = start + hour * HOUR + int(rng.integers(0, 600))
        deposits.append((b.fan_in(name, amount, when, arity, depth), amount, hour))
    hops_in = []
    for k in range(2 if malicious else 1):
        hops = int(rng.integers(30, 46)) if malicious else int(rng.integers(8, 16))
        amount = int(rng.uniform(1, 10) * COIN)
        hour = int(rng.integers(1, 12))
        deposits.append((b.peel_in(f"{name}", amount, start + hour * HOUR + 700, hops),
                         amount, hour))
        hops_in.append(hops)
    # Each spend drains one deposit, after it arrived, into a peel chain.
    deposits.sort(key=lambda d: d[2])
    for k, (tx, amount, hour) in enumerate(deposits[:n_spends]):
        spend_hour = hour + int(rng.integers(1, 6))
        b.peel_out(name, tx, amount, start + spend_hour * HOUR + 900,
                   int(rng.integers(24, 33)) if malicious else int(rng.integers(12, 20)),
                   f"p{k}.")
    return {"trees": n_trees, "peel_in_hops": hops_in, "spends": n_spends}


def generate(seed: int, n_addresses: int = 100, spends_per_address: int = 2):
    """(records, labels, meta) of a universe with ``n_addresses`` monitored
    addresses, half of them labelled 1, and ``spends_per_address`` peel
    chains out of each.  Deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    records: list[TransactionRecord] = []
    labels: dict[str, int] = {}
    meta: dict[str, dict] = {}
    for i in range(n_addresses):
        name = f"deep{i:04d}"
        label = i % 2
        b = _Builder(rng, f"{name}.")
        start = BASE_TIME + int(rng.integers(0, 30 * 24)) * HOUR
        meta[name] = {"label": label,
                      **_address(b, name, label, i // 2, start, spends_per_address)}
        labels[name] = label
        records.extend(b.records)
    records.sort(key=lambda r: (r.timestamp, r.tx_id))
    return records, labels, meta
