from pathlib import Path

import numpy as np
import pytest

from chainsentry.chain import TxStore, parse_transactions_file
from chainsentry.errors import ConfigError
from chainsentry.paths import PathParams, path_sets_for_address
from chainsentry.synth import COIN, ScenarioSpec, generate, write_universe
from oracles import agg_inputs, total_input

HOUR = 3600


def small_specs():
    return [
        ScenarioSpec("hack", 3),
        ScenarioSpec("ransomware", 2),
        ScenarioSpec("exchange", 4),
        ScenarioSpec("merchant", 3),
        ScenarioSpec("gambling", 2),
        ScenarioSpec("mining", 2),
        ScenarioSpec("darknet", 2),
    ]


def test_spec_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec("bogus", 1)
    with pytest.raises(ConfigError):
        ScenarioSpec("hack", -1)
    with pytest.raises(ConfigError):
        ScenarioSpec("hack", 1, signal_hour=20, sweep_hour=16)


def test_labels_follow_kind():
    assert ScenarioSpec("hack", 1).label == 1
    assert ScenarioSpec("ransomware", 1).label == 1
    assert ScenarioSpec("darknet", 1).label == 1
    for kind in ("exchange", "mining", "merchant", "gambling"):
        assert ScenarioSpec(kind, 1).label == 0


def test_hack_deposit_matches_case_profile():
    records, labels, meta = generate([ScenarioSpec("hack", 1)], seed=3,
                                     noise_level=0.0)
    store = TxStore.from_records(records, labels)
    hacks = [a for a, l in labels.items() if l == 1]
    assert len(hacks) == 1
    addr = hacks[0]
    deposit = store.receive_txs(addr)[0]
    assert store.tx(deposit).timestamp == min(
        store.tx(t).timestamp for t in store.receive_txs(addr) + store.spend_txs(addr))
    assert len(agg_inputs(store, deposit)) == 71
    total = int(store.receives(addr)[1][0])
    assert abs(total / COIN - 555.997) < 0.01


def test_deterministic_bytes(tmp_path):
    for run in ("a", "b"):
        records, labels, meta = generate(small_specs(), seed=11, noise_level=0.3)
        write_universe(tmp_path / run, records, labels, meta, {"seed": 11})
    for name in ("transactions.jsonl", "labels.csv", "scenario.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_universe_passes_chain_validation(tmp_path):
    records, labels, meta = generate(small_specs(), seed=4, noise_level=0.5)
    write_universe(tmp_path, records, labels, meta, {})
    store = parse_transactions_file(tmp_path / "transactions.jsonl")
    assert len(store.report.line_errors) == 0
    assert store.report.boundary_inputs == 0
    assert len(store) == len(records)


def test_value_conservation_no_overdraft():
    records, labels, _ = generate(small_specs(), seed=9, noise_level=0.5)
    store = TxStore.from_records(records, labels)
    # Replay every address's history in (time, txid) order, a transaction's
    # spends before its receives.
    events = []
    owned: dict[str, int] = {}
    for addr in {o.addr for rec in records for o in rec.outputs}:
        for tx_id, amount in zip(store.spend_txs(addr), store.spends(addr)[1].tolist()):
            events.append((store.tx(tx_id).timestamp, tx_id, 0, addr, -amount))
            name = store.tx_name(tx_id)
            owned[name] = owned.get(name, 0) + amount
        for tx_id, amount in zip(store.receive_txs(addr), store.receives(addr)[1].tolist()):
            events.append((store.tx(tx_id).timestamp, tx_id, 1, addr, amount))
    # Every input has an owner that received it.
    assert owned == {rec.tx_id: total_input(rec) for rec in records if rec.inputs}
    balance: dict[str, int] = {}
    for _, tx_id, _, addr, delta in sorted(events):
        balance[addr] = balance.get(addr, 0) + delta
        assert balance[addr] >= 0, f"{addr} overdrawn at {tx_id}"


def test_hack_template_path_signature():
    records, labels, meta = generate([ScenarioSpec("hack", 2)], seed=21,
                                     noise_level=0.0)
    store = TxStore.from_records(records, labels)
    params = PathParams()
    for addr, label in labels.items():
        if label != 1:
            continue
        creation = min(store.tx(t).timestamp for t in store.receive_txs(addr))
        sets_h1 = path_sets_for_address(store, addr, creation + 1 * HOUR, params)
        assert len(sets_h1["st_bk"]) >= 10
        sweep_hour = meta[addr]["sweep_hour"]
        before = path_sets_for_address(store, addr, creation + (sweep_hour - 1) * HOUR,
                                       params)
        assert len(before["st_fr"]) == 0 and len(before["lt_fr"]) == 0
        after = path_sets_for_address(store, addr, creation + 24 * HOUR, params)
        assert len(after["st_fr"]) > 0


def test_hack_addresses_share_signal_source():
    records, labels, _ = generate([ScenarioSpec("hack", 3)], seed=8,
                                  noise_level=0.0)
    store = TxStore.from_records(records, labels)
    hacks = sorted(a for a, l in labels.items() if l == 1)
    signal_sources = []
    for addr in hacks:
        recvs = store.receive_txs(addr)
        signals = [t for t, amount in zip(recvs, store.receives(addr)[1].tolist())
                   if amount < 10_000]
        assert len(signals) == 1
        srcs = [s for s, _ in agg_inputs(store, signals[0])]
        signal_sources.append(srcs[0])
    assert len(set(signal_sources)) == 1  # one shared splitter transaction


def test_class_balance_ratio():
    specs = [ScenarioSpec("hack", 1), ScenarioSpec("exchange", 216)]
    records, labels, _ = generate(specs, seed=2, noise_level=0.0)
    n_pos = sum(labels.values())
    ratio = n_pos / (len(labels) - n_pos)
    assert ratio == pytest.approx(0.0046, abs=0.0005)
