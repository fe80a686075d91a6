"""Deterministic synthetic transaction universes with labeled behavior templates.

Templates (amounts in integer base units, 1 coin = 1e8):

* hack: a large multi-input deposit at creation (default 71 equal inputs),
  a dormant stretch, a tiny coordination transfer hours later drawn from a
  splitter shared by all hack addresses in the scenario, then a bulk sweep
  of the whole balance.
* ransomware: a stream of small victim payments over the first hours, then
  a fast consolidation sweep.
* darknet: steady bidirectional churn across the whole window.
* exchange / merchant / gambling / mining: benign service churn, including
  multi-input deposits so volume alone does not separate the classes.

All timestamps sit on an hourly lattice with bounded jitter, every address
spends at most what it received, and generation is a pure function of the
scenario seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import serialize_transaction, TransactionRecord, TxInput, TxOutput, write_labels
from .errors import ConfigError, DataError
from .serialize import open_artifact, write_json

COIN = 100_000_000
HOUR = 3600

MALICIOUS_KINDS = ("hack", "ransomware", "darknet")
REGULAR_KINDS = ("exchange", "mining", "merchant", "gambling")
KINDS = MALICIOUS_KINDS + REGULAR_KINDS

BASE_TIME = 1_600_000_000


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    kind: str
    count: int
    amount_low: float = 1.0
    amount_high: float = 100.0
    sweep_hour: int = 16
    signal_hour: int = 13
    deposit_inputs: int = 71

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.count < 0:
            raise ConfigError("count must be >= 0")
        if not 0 < self.amount_low <= self.amount_high:
            raise ConfigError("need 0 < amount_low <= amount_high")
        if not 1 < self.signal_hour < self.sweep_hour <= 23:
            raise ConfigError("need 1 < signal_hour < sweep_hour <= 23")

    @property
    def label(self) -> int:
        return 1 if self.kind in MALICIOUS_KINDS else 0


@dataclass(slots=True)
class _Builder:
    rng: np.random.Generator
    jitter_seconds: int
    records: list[TransactionRecord] = field(default_factory=list)
    balances: dict[str, int] = field(default_factory=dict)
    utxo: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    counter: int = 0

    def _next_id(self, tag: str) -> str:
        self.counter += 1
        return f"{tag}{self.counter:08d}"

    def at_hour(self, hour: float) -> int:
        jitter = int(self.rng.integers(-self.jitter_seconds, self.jitter_seconds + 1))
        return int(BASE_TIME + hour * HOUR + jitter)

    def coinbase(self, addr: str, amount: int, when: int, tag: str = "cb") -> str:
        tx_id = self._next_id(tag)
        self.records.append(TransactionRecord(
            tx_id, when, (), (TxOutput(addr, amount),)
        ))
        self._credit(addr, tx_id, amount)
        return tx_id

    def _credit(self, addr: str, tx_id: str, amount: int) -> None:
        self.balances[addr] = self.balances.get(addr, 0) + amount
        self.utxo.setdefault(addr, []).append((tx_id, amount))

    def spend(self, owner: str, amount: int, outputs: list[tuple[str, int]],
              when: int, tag: str = "tx") -> str:
        """Spend ``amount`` from ``owner`` across explicit outputs (plus
        implicit change back to the owner)."""
        have = self.balances.get(owner, 0)
        if amount > have:
            raise DataError(f"{owner} cannot spend {amount} (balance {have})")
        taken = 0
        inputs: list[TxInput] = []
        pool = self.utxo.get(owner, [])
        while taken < amount:
            src, avail = pool.pop(0)
            use = min(avail, amount - taken)
            inputs.append(TxInput(src, use, owner))
            if use < avail:
                pool.insert(0, (src, avail - use))
            taken += use
        self.balances[owner] = have - amount
        out_total = sum(a for _, a in outputs)
        if out_total > amount:
            raise DataError("outputs exceed the spent amount")
        outs = [TxOutput(addr, amt) for addr, amt in outputs]
        change = amount - out_total
        if change > 0:
            outs.append(TxOutput(owner, change))
        tx_id = self._next_id(tag)
        self.records.append(TransactionRecord(tx_id, when, tuple(inputs), tuple(outs)))
        for out in outs:
            self._credit(out.addr, tx_id, out.amount)
        return tx_id

    def multi_spend(self, owners: list[str], dest: str, when: int,
                    tag: str = "tx") -> str:
        """One transaction consuming each owner's full balance into ``dest``."""
        inputs: list[TxInput] = []
        total = 0
        for owner in owners:
            bal = self.balances.get(owner, 0)
            for src, amount in self.utxo.get(owner, []):
                inputs.append(TxInput(src, amount, owner))
            self.utxo[owner] = []
            self.balances[owner] = 0
            total += bal
        tx_id = self._next_id(tag)
        self.records.append(TransactionRecord(
            tx_id, when, tuple(inputs), (TxOutput(dest, total),)
        ))
        self._credit(dest, tx_id, total)
        return tx_id


def _amount(rng, spec: ScenarioSpec) -> int:
    return int(rng.uniform(spec.amount_low, spec.amount_high) * COIN)


def _gen_hack(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int,
              signal_splitter: str):
    """Multi-input deposit, dormancy, shared tiny signal, bulk sweep."""
    rng = b.rng
    per_input = int(7.831 * COIN) if spec.deposit_inputs == 71 else _amount(rng, spec)
    feeders = []
    for k in range(spec.deposit_inputs):
        feeder = f"{name}_src{k}"
        when = b.at_hour(start_hour - float(rng.integers(2, 20)))
        b.coinbase(f"{name}_root{k}", per_input, when - 2 * HOUR, tag="hf")
        b.spend(f"{name}_root{k}", per_input, [(feeder, per_input)],
                when, tag="hf")
        feeders.append(feeder)
    deposit_time = b.at_hour(start_hour)
    b.multi_spend(feeders, name, deposit_time, tag="hd")
    # Tiny coordination transfer from the scenario-shared splitter.
    signal_amount = 8631
    b.spend(signal_splitter, signal_amount, [(name, signal_amount)],
            b.at_hour(start_hour + spec.signal_hour - 0.2), tag="hs")
    # Bulk sweep of everything, then one peel hop onward.
    sweep_dest = f"{name}_out"
    sweep_time = b.at_hour(start_hour + spec.sweep_hour - 0.2)
    balance = b.balances[name]
    b.spend(name, balance, [(sweep_dest, balance)], sweep_time, tag="hw")
    peel = int(balance * 0.95)
    b.spend(sweep_dest, balance, [(f"{name}_peel", peel)],
            sweep_time + HOUR // 2, tag="hw")


def _gen_ransomware(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int):
    rng = b.rng
    n_victims = int(rng.integers(12, 30))
    for k in range(n_victims):
        victim = f"{name}_v{k}"
        pay = int(rng.uniform(0.05, 0.5) * COIN)
        hour = start_hour + float(rng.uniform(0.0, spec.signal_hour - 2))
        b.coinbase(victim, pay, b.at_hour(hour - 1.0), tag="rv")
        b.spend(victim, pay, [(name, pay)], b.at_hour(hour), tag="rp")
    sweep_time = b.at_hour(start_hour + spec.sweep_hour - 4)
    balance = b.balances[name]
    hop1 = f"{name}_mix"
    b.spend(name, balance, [(hop1, balance)], sweep_time, tag="rw")
    b.spend(hop1, balance, [(f"{name}_cash", int(balance * 0.93))],
            sweep_time + HOUR, tag="rw")


def _gen_darknet(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int):
    rng = b.rng
    seedcoin = _amount(rng, spec)
    b.coinbase(f"{name}_till", seedcoin, b.at_hour(start_hour - 3), tag="dk")
    b.spend(f"{name}_till", seedcoin, [(name, seedcoin)],
            b.at_hour(start_hour), tag="dk")
    for hour in range(1, 23, 2):
        buyer = f"{name}_b{hour}"
        pay = int(rng.uniform(0.1, 2.0) * COIN)
        b.coinbase(buyer, pay, b.at_hour(start_hour + hour - 1), tag="dk")
        b.spend(buyer, pay, [(name, pay)], b.at_hour(start_hour + hour), tag="dk")
        if hour % 4 == 1 and b.balances[name] > COIN:
            out = int(b.balances[name] * rng.uniform(0.2, 0.5))
            b.spend(name, out, [(f"{name}_s{hour}", out)],
                    b.at_hour(start_hour + hour + 0.5), tag="dk")


def _gen_exchange(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int):
    rng = b.rng
    n_inputs = int(rng.integers(8, 18))
    feeders = []
    per = _amount(rng, spec) // n_inputs + 1
    for k in range(n_inputs):
        feeder = f"{name}_c{k}"
        b.coinbase(feeder, per, b.at_hour(start_hour - float(rng.integers(1, 18))),
                   tag="ex")
        feeders.append(feeder)
    b.multi_spend(feeders, name, b.at_hour(start_hour), tag="ex")
    for hour in range(2, 23, 3):
        cust = f"{name}_u{hour}"
        pay = int(rng.uniform(0.2, 3.0) * COIN)
        b.coinbase(cust, pay, b.at_hour(start_hour + hour - 1), tag="ex")
        b.spend(cust, pay, [(name, pay)], b.at_hour(start_hour + hour), tag="ex")
        out = int(min(b.balances[name] * 0.3, rng.uniform(0.2, 2.0) * COIN))
        if out > 0:
            b.spend(name, out, [(f"{name}_w{hour}", out)],
                    b.at_hour(start_hour + hour + 0.4), tag="ex")


def _gen_mining(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int):
    rng = b.rng
    for hour in range(0, 24, 2):
        b.coinbase(name, int(rng.uniform(0.8, 1.2) * COIN),
                   b.at_hour(start_hour + hour), tag="mi")
    if rng.uniform() < 0.8:
        out = int(b.balances[name] * 0.6)
        b.spend(name, out, [(f"{name}_pool", out)], b.at_hour(start_hour + 21),
                tag="mi")


def _gen_merchant(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int):
    rng = b.rng
    hours = sorted(rng.choice(np.arange(0, 20), size=6, replace=False))
    for k, hour in enumerate(hours):
        payer = f"{name}_p{k}"
        pay = int(rng.uniform(0.05, 1.5) * COIN)
        b.coinbase(payer, pay, b.at_hour(start_hour + float(hour) - 0.8), tag="me")
        b.spend(payer, pay, [(name, pay)], b.at_hour(start_hour + float(hour)),
                tag="me")
    out = int(b.balances[name] * 0.9)
    if out > 0:
        b.spend(name, out, [(f"{name}_bank", out)], b.at_hour(start_hour + 22),
                tag="me")


def _gen_gambling(b: _Builder, spec: ScenarioSpec, name: str, start_hour: int):
    rng = b.rng
    stake = _amount(rng, spec) // 4 + COIN
    b.coinbase(f"{name}_fund", stake, b.at_hour(start_hour - 1), tag="ga")
    b.spend(f"{name}_fund", stake, [(name, stake)], b.at_hour(start_hour), tag="ga")
    for hour in range(1, 22):
        if rng.uniform() < 0.5:
            gambler = f"{name}_g{hour}"
            pay = int(rng.uniform(0.01, 0.3) * COIN)
            b.coinbase(gambler, pay, b.at_hour(start_hour + hour - 0.5), tag="ga")
            b.spend(gambler, pay, [(name, pay)], b.at_hour(start_hour + hour),
                    tag="ga")
        elif b.balances[name] > COIN // 2:
            out = int(rng.uniform(0.01, 0.2) * COIN)
            b.spend(name, out, [(f"{name}_pay{hour}", out)],
                    b.at_hour(start_hour + hour), tag="ga")


_GENERATORS = {
    "ransomware": _gen_ransomware,
    "darknet": _gen_darknet,
    "exchange": _gen_exchange,
    "mining": _gen_mining,
    "merchant": _gen_merchant,
    "gambling": _gen_gambling,
}


def generate(specs: list[ScenarioSpec], seed: int, noise_level: float = 0.5,
             jitter_seconds: int = 300, stagger_hours: int = 72):
    """Build a labeled universe; returns (records, labels, meta).

    ``noise_level`` scales how many unlabeled background transactions are
    mixed in.  Deterministic for a fixed seed.
    """
    if jitter_seconds < 0 or jitter_seconds > 300:
        raise ConfigError("jitter_seconds must be in [0, 300]")
    rng = np.random.default_rng(seed)
    b = _Builder(rng, jitter_seconds)
    labels: dict[str, int] = {}
    meta: dict[str, dict] = {}

    n_hack = sum(s.count for s in specs if s.kind == "hack")
    signal_splitter = None
    if n_hack:
        # All hack signals draw equal outputs of one splitter transaction, so
        # every hack address traces back to the same source.
        signal_root = "signal_root"
        signal_amount = 8631
        total_signal = signal_amount * n_hack
        b.coinbase(signal_root, total_signal, b.at_hour(-30.0), tag="sg")
        signal_splitter = "signal_splitter"
        b.spend(signal_root, total_signal,
                [(signal_splitter, signal_amount)] * n_hack,
                b.at_hour(-29.0), tag="sg")

    serial = 0
    for spec in specs:
        for _ in range(spec.count):
            serial += 1
            name = f"{spec.kind[:4]}_{serial:04d}"
            start_hour = int(rng.integers(0, stagger_hours))
            if spec.kind == "hack":
                _gen_hack(b, spec, name, start_hour, signal_splitter)
            else:
                _GENERATORS[spec.kind](b, spec, name, start_hour)
            labels[name] = spec.label
            meta[name] = {"kind": spec.kind, "start_hour": start_hour,
                          "sweep_hour": spec.sweep_hour if spec.kind == "hack" else None,
                          "signal_hour": spec.signal_hour if spec.kind == "hack" else None}

    n_noise = int(noise_level * 3 * max(1, sum(s.count for s in specs)))
    for k in range(n_noise):
        addr = f"noise_{k:05d}"
        amount = int(rng.uniform(0.01, 5.0) * COIN)
        hour = float(rng.uniform(-10, stagger_hours + 24))
        b.coinbase(addr, amount, b.at_hour(hour), tag="nz")
        if rng.uniform() < 0.7:
            b.spend(addr, amount, [(f"{addr}_to", amount)],
                    b.at_hour(hour + float(rng.uniform(0.5, 6.0))), tag="nz")

    records = sorted(b.records, key=lambda r: (r.timestamp, r.tx_id))
    return records, labels, meta


def write_universe(out_dir, records, labels, meta, scenario_payload) -> None:
    """Write transactions.jsonl, labels.csv, and scenario.json."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open_artifact(out / "transactions.jsonl") as fh:
        for rec in records:
            fh.write(serialize_transaction(rec) + "\n")
    write_labels(labels, out / "labels.csv")
    write_json(out / "scenario.json", {"scenario": scenario_payload, "meta": meta})

