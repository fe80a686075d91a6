import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from chainsentry.chain import (TxInput, TxOutput, TxStore, parse_transactions,
                               parse_transactions_file, serialize_transaction)
from chainsentry.errors import DataError
from chainsentry.features import ADDRESS_FEATURES, _AddressEvents, address_features
from chainsentry.paths import path_sets_for_address
from conftest import HOUR, T0, tx
from oracles import (agg_inputs, bulk_chain_records, children, expand_pairs,
                     random_dag_records, reference_indexes, store_indexes, total_input,
                     tx_id, tx_ids, tx_stats)


def test_empty_stream():
    store = parse_transactions([])
    assert len(store) == 0
    assert list(store.addresses()) == []


def test_single_tx_store():
    line = json.dumps({
        "txid": "t1", "time": T0, "inputs": [{"src": "x0", "amount": 5}],
        "outputs": [{"addr": "a1", "amount": 5}],
    })
    store = parse_transactions([line])
    assert len(store) == 1
    assert list(store.addresses()) == ["a1"]
    assert [store.tx_name(t) for t in store.receive_txs("a1")] == ["t1"]
    assert store.spend_txs("a1") == ()


def test_malformed_lines_reported_not_fatal():
    good = json.dumps({"txid": "t1", "time": T0, "inputs": [],
                       "outputs": [{"addr": "a", "amount": 1}]})
    store = parse_transactions([good, "not json", good.replace("t1", "t2")])
    assert len(store) == 2
    assert len(store.report.line_errors) == 1
    assert store.report.line_errors[0][0] == 2


def _coinbase_line(txid, addr):
    return ('{"txid": "%s", "time": %d, "inputs": [], '
            '"outputs": [{"addr": "%s", "amount": 5}]}' % (txid, T0, addr)).encode("latin-1")


def test_non_utf8_line_is_a_line_error(tmp_path):
    path = tmp_path / "tx.jsonl"
    path.write_bytes(_coinbase_line("t1", "a") + b"\n" + _coinbase_line("t2", "b\xff\xfe") + b"\n")
    store = parse_transactions_file(path)
    assert store.report.n_lines == 2
    assert store.report.n_accepted == 1
    assert [line_no for line_no, _ in store.report.line_errors] == [2]
    assert "invalid UTF-8" in store.report.line_errors[0][1]
    assert tx_ids(store) == ["t1"]


def test_crlf_file_parses(tmp_path):
    path = tmp_path / "tx.jsonl"
    path.write_bytes(_coinbase_line("t1", "a") + b"\r\n" + _coinbase_line("t2", "b") + b"\r\n")
    store = parse_transactions_file(path)
    assert store.report.n_accepted == 2
    assert store.report.line_errors == []
    assert tx_ids(store) == ["t1", "t2"]


def test_unresolvable_schema_fatal():
    lines = ["garbage"] * 10 + [json.dumps({
        "txid": "t", "time": T0, "inputs": [],
        "outputs": [{"addr": "a", "amount": 1}]})]
    with pytest.raises(DataError, match="unresolvable schema"):
        parse_transactions(lines)


def test_duplicate_txid_first_wins():
    a = json.dumps({"txid": "t1", "time": T0, "inputs": [],
                    "outputs": [{"addr": "first", "amount": 1}]})
    b = json.dumps({"txid": "t1", "time": T0 + 10, "inputs": [],
                    "outputs": [{"addr": "second", "amount": 2}]})
    store = parse_transactions([a, b])
    assert len(store) == 1
    assert store.tx(tx_id(store, "t1")).outputs[0].addr == "first"
    assert any("duplicate" in w for w in store.report.warnings)


def test_output_exceeding_input_rejected():
    bad = json.dumps({"txid": "t1", "time": T0,
                      "inputs": [{"src": "x", "amount": 5}],
                      "outputs": [{"addr": "a", "amount": 6}]})
    store = parse_transactions([bad])
    assert len(store) == 0
    assert "exceeds" in store.report.line_errors[0][1]


def _line(txid, t, inputs, outputs):
    return json.dumps({"txid": txid, "time": t,
                       "inputs": [{"src": s, "amount": a} for s, a in inputs],
                       "outputs": [{"addr": d, "amount": a} for d, a in outputs]})


@pytest.mark.parametrize("line, reason", [
    pytest.param(_line("big", T0, [], [("a", 10**20)]), "output total exceeds 2**63 - 1",
                 id="coinbase-amount"),
    pytest.param(_line("big", T0, [], [("a", 2**62), ("b", 2**62)]),
                 "output total exceeds 2**63 - 1", id="coinbase-total"),
    pytest.param(_line("big", T0, [("cb", 10**20)], [("a", 1)]),
                 "input total exceeds 2**63 - 1", id="input-amount"),
    pytest.param(_line("big", T0, [("cb", 2**62), ("cb", 2**62)], [("a", 1)]),
                 "input total exceeds 2**63 - 1", id="input-total"),
    pytest.param(_line("big", 2**63, [], [("a", 1)]), "time exceeds 2**63 - 1", id="time"),
    # A line rejected for another reason keeps that reason.
    pytest.param(_line("big", T0, [("cb", 10**20)], [("a", 10**21)]),
                 "output total exceeds input total on a non-coinbase tx", id="older-rule-first"),
])
def test_values_outside_int64_are_line_errors(line, reason):
    edge = _line("edge", 2**63 - 1, [], [("a", 2**63 - 1)])
    store = parse_transactions([_line("cb", T0, [], [("a", 5)]), line, edge])
    assert store.report.line_errors == [(2, reason)]
    assert tx_ids(store) == ["cb", "edge"]
    assert store.tx(tx_id(store, "edge")).outputs[0].amount == 2**63 - 1


def test_records_outside_int64_are_refused():
    with pytest.raises(DataError, match="exceeds"):
        TxStore.from_records([tx("big", T0, [], [("a", 2**62), ("a", 2**62)])])


def test_store_keeps_under_400_bytes_per_transaction():
    """Retained heap of one parse of a fixed 4,696-tx universe; the store of
    frozen records it replaced kept about 830 B per transaction."""
    from chainsentry.synth import ScenarioSpec, generate

    specs = [("hack", 5), ("exchange", 60), ("merchant", 40), ("gambling", 30), ("mining", 15)]
    records, labels, _ = generate([ScenarioSpec(k, c) for k, c in specs], 5, 0.3)
    lines = [serialize_transaction(rec) for rec in records]
    del records
    gc.collect()
    tracemalloc.start()
    try:
        store = parse_transactions(lines, labels)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store) == 4696
    per_tx = retained / len(store)
    assert per_tx < 400, f"the store keeps {per_tx:.0f} B per transaction"


def test_dangling_source_is_boundary_not_error(chain_store):
    # "cb" is coinbase, "mid" resolves, a dangling ref would just stop paths.
    assert chain_store.report.boundary_inputs == 0
    records = [tx("t1", T0, [("ghost", 10, None)], [("a", 10)])]
    store = TxStore.from_records(records)
    assert store.report.boundary_inputs == 1


def test_time_travel_reference_becomes_boundary():
    records = [
        tx("later", T0 + 100, [], [("x", 50)]),
        tx("spender", T0, [("later", 50, "x")], [("y", 50)]),
    ]
    store = TxStore.from_records(records)
    assert store.report.boundary_inputs == 1
    assert children(store, tx_id(store, "later")) == []


def test_no_lookahead_raises(chain_store):
    with pytest.raises(DataError, match="no activity"):
        path_sets_for_address(chain_store, "alice", T0 - 1)


def test_history_respects_query_time():
    # Receives at hours 0 and 13, spend at 16, queried at hour 14.
    records = [
        tx("r1", T0, [], [("a", 100)]),
        tx("r2", T0 + 13 * HOUR, [], [("a", 50)]),
        tx("cash", T0 - HOUR, [], [("sink", 10)]),
        tx("s1", T0 + 16 * HOUR, [("r1", 100, "a")], [("sink", 100)]),
    ]
    store = TxStore.from_records(records)
    events = _AddressEvents.collect(store, "a")
    assert events.creation == T0
    receives = ADDRESS_FEATURES.index("addr__receive_count_total")
    spends = ADDRESS_FEATURES.index("addr__spend_count_total")
    hist = address_features(events, T0 + 14 * HOUR)
    assert (hist[receives], hist[spends]) == (2, 0)
    later = address_features(events, T0 + 16 * HOUR)
    assert (later[receives], later[spends]) == (2, 1)
    # Monotone: counts never fall as the query time moves on.
    hourly = address_features(events, T0 + HOUR * np.arange(24))
    assert (np.diff(hourly[:, [receives, spends]], axis=0) >= 0).all()


def test_71_input_deposit_pair_count(case_study_store):
    (deposit,) = [t for t in case_study_store.receive_txs("hack")
                  if case_study_store.tx(t).timestamp <= T0]
    assert len(agg_inputs(case_study_store, deposit)) == 71
    assert len(expand_pairs(case_study_store.tx(deposit))) == 71  # one output address
    assert all(case_study_store.tx(t).timestamp > T0
               for t in case_study_store.spend_txs("hack"))
    assert _AddressEvents.collect(case_study_store, "hack").creation == T0


def test_owner_resolution_falls_back_to_amount_match():
    records = [
        tx("src", T0, [], [("owner_a", 30), ("owner_b", 70)]),
        tx("sp", T0 + 10, [("src", 70, None)], [("c", 70)]),
    ]
    store = TxStore.from_records(records)
    assert store.spend_txs("owner_b") == (tx_id(store, "sp"),)
    assert store.spends("owner_b")[1].tolist() == [70]
    assert store.spend_txs("owner_a") == ()


def test_ambiguous_amount_match_is_counted_and_keeps_the_first_owner():
    def spend_from(outputs, owner=None):
        return TxStore.from_records([
            tx("src", T0, [], outputs),
            tx("sp", T0 + 10, [("src", 5, owner)], [("c", 5)]),
        ])

    def owners(store):
        return [a for a in ("x", "y") if store.spend_txs(a) == (tx_id(store, "sp"),)]

    split = spend_from([("x", 5), ("y", 5)])
    assert owners(split) == ["x"]
    assert split.report.ambiguous_owners == 1
    same = spend_from([("x", 5), ("x", 5)])
    assert owners(same) == ["x"]
    assert same.report.ambiguous_owners == 0
    # An explicit owner is not recovered by amount, so it is never ambiguous.
    named = spend_from([("x", 5), ("y", 5)], owner="y")
    assert owners(named) == ["y"]
    assert named.report.ambiguous_owners == 0


_INDEXES = ("txs", "agg_in", "children", "receives", "spends")


def _assert_store_matches_reference(records):
    store = TxStore.from_records(records)
    ref = reference_indexes(records)
    got = store_indexes(store)
    for name in _INDEXES:
        assert got[name] == ref[name], name
    assert store.report.warnings == ref["warnings"]
    assert store.report.boundary_inputs == ref["boundary_inputs"]
    for name, rec in ref["txs"].items():
        assert tx_stats(store, tx_id(store, name)) == (
            total_input(rec), sum(o.amount for o in rec.outputs),
            len(ref["agg_in"][name]), len(ref["agg_out"][name]))
    # Ids number txids, then sources outside the store, each in sorted order.
    assert tx_ids(store) == sorted(ref["txs"])
    return store, ref


@pytest.mark.parametrize("records", [
    pytest.param([tx("a", T0, [], [("x", 5)]),
                  tx("a", T0 + 1, [], [("y", 6)]),
                  tx("b", T0 + 2, [("a", 5, None)], [("z", 5)])], id="duplicate-txid"),
    pytest.param([tx("a", T0, [], [("x", 5)]),
                  tx("b", T0 + 1, [("ghost", 3, "g"), ("a", 5, None)], [("z", 8)])],
                 id="dangling-source"),
    pytest.param([tx("later", T0 + 100, [], [("x", 50)]),
                  tx("sp", T0, [("later", 20, "x"), ("later", 30, None)], [("y", 50)])],
                 id="time-violating-source"),
    pytest.param([tx("src", T0, [], [("x", 3), ("y", 4)]),
                  tx("sp", T0 + 10, [("src", 3, None), ("src", 4, "y")], [("c", 7)])],
                 id="explicit-owner-on-second-input"),
    pytest.param([tx("src", T0, [], [("x", 3), ("y", 4)]),
                  tx("sp", T0 + 10, [("src", 3, "y"), ("src", 4, "x")], [("c", 7)])],
                 id="explicit-owners-disagree"),
    pytest.param([tx("b", T0, [], [("x", 5)]),
                  tx("a", T0, [("b", 5, None)], [("y", 5)])],
                 id="same-second-source-sorted-after-spender"),
])
def test_store_indexes_match_the_two_pass_reference(records):
    _assert_store_matches_reference(records)


def test_store_indexes_match_the_two_pass_reference_on_random_dags():
    rng = np.random.default_rng(20)
    for trial in range(150):
        records = random_dag_records(rng, n_tx_max=40)
        if trial % 2:
            # Spend each source through one or two inputs and name the owner
            # on about half of them, from a small pool so that one source's
            # inputs can disagree.
            records = [dataclasses.replace(rec, inputs=tuple(
                dataclasses.replace(i, owner=f"own{int(rng.integers(3))}")
                if rng.random() < 0.5 else i
                for i in rec.inputs for _ in range(int(rng.integers(1, 3)))))
                for rec in records]
        _assert_store_matches_reference(records)


def _history_from_records(ref, address):
    """``address``'s receives and spends as (time, amount) lists, straight from
    the records in (time, txid) order; an input's owner is the oracle's."""
    txs = ref["txs"]
    recv, spend = [], []
    for tx_id in sorted(txs, key=lambda t: (txs[t].timestamp, t)):
        rec = txs[tx_id]
        paid = [o.amount for o in rec.outputs if o.addr == address]
        if paid:
            recv.append((rec.timestamp, sum(paid)))
        owned = [amount for (_, amount), owner in zip(ref["agg_in"][tx_id], ref["owners"][tx_id])
                 if owner == address]
        if owned:
            spend.append((rec.timestamp, sum(owned)))
    return recv, spend


def _assert_history_matches_records(records):
    store, ref = _assert_store_matches_reference(records)
    for address in sorted({*ref["receives"], *ref["spends"]}):
        recv, spend = _history_from_records(ref, address)
        events = _AddressEvents.collect(store, address)
        assert list(zip(events.recv_t.tolist(), events.recv_amt.tolist())) == recv, address
        assert list(zip(events.spend_t.tolist(), events.spend_amt.tolist())) == spend, address
        assert events.creation == min(t for t, _ in recv + spend)
    with pytest.raises(DataError, match="no activity"):
        _AddressEvents.collect(store, "never-seen")
    return store, ref


@pytest.mark.parametrize("records", [
    pytest.param([tx("src", T0, [], [("x", 5), ("y", 5)]),
                  tx("sp", T0 + 10, [("src", 5, None)], [("c", 5)])],
                 id="ambiguous-owner"),
    pytest.param([tx("a", T0, [], [("x", 5)]),
                  tx("b", T0 + 1, [("ghost", 3, "x"), ("a", 5, None)], [("z", 8)])],
                 id="boundary-input-with-explicit-owner"),
    pytest.param([tx("a", T0, [], [("x", 5), ("y", 2), ("x", 7)]),
                  tx("b", T0 + 1, [("a", 12, "x")], [("x", 4), ("x", 8)])],
                 id="paid-twice-in-one-tx"),
    pytest.param([tx("a", T0, [], [("x", 5)]),
                  tx("b", T0, [], [("x", 6), ("y", 1)]),
                  tx("c", T0 + 1, [("a", 5, None), ("b", 6, None), ("b", 1, "y")],
                     [("z", 12)])],
                 id="one-owner-of-several-inputs"),
    pytest.param([tx("r2", T0, [], [("x", 1)]), tx("r1", T0, [], [("x", 9)]),
                  tx("s", T0, [("r1", 9, "x"), ("r2", 1, "x")], [("y", 10)])],
                 id="events-in-one-second"),
])
def test_address_history_matches_the_records(records):
    _assert_history_matches_records(records)


def _with_history_cases(rng, records, owned):
    """``records`` reshaped so that addresses are paid twice in one tx and
    share an output pool, inputs draw amounts that name an owner (some of
    them two addresses), and some inputs are dangling with an explicit owner."""
    pool = [f"p{k}" for k in range(4)]

    def pick():
        return pool[int(rng.integers(len(pool)))]

    by_id = {}
    for rec in records:
        outputs = [TxOutput(pick(), o.amount) if rng.random() < 0.5 else o
                   for o in rec.outputs]
        if rng.random() < 0.3:
            outputs.append(TxOutput(pick(), outputs[0].amount))
        inputs = []
        for inp in rec.inputs:
            if owned:
                inp = dataclasses.replace(inp, owner=pick())
            elif rng.random() < 0.7:
                src_outputs = by_id[inp.src].outputs
                amount = src_outputs[int(rng.integers(len(src_outputs)))].amount
                inp = dataclasses.replace(inp, amount=amount)
            inputs.append(inp)
        if rng.random() < 0.2:
            inputs.append(TxInput(f"ghost_{rec.tx_id}", int(rng.integers(0, 100)), pick()))
        by_id[rec.tx_id] = dataclasses.replace(rec, inputs=tuple(inputs), outputs=tuple(outputs))
    return list(by_id.values())


@pytest.mark.parametrize("owned", [False, True])
def test_address_history_matches_the_records_on_random_dags(owned):
    rng = np.random.default_rng(21 + owned)
    seen = dict.fromkeys(("ambiguous", "boundary_owner", "paid_twice", "multi_input_owner"), 0)
    for _ in range(100):
        records = _with_history_cases(rng, random_dag_records(rng, n_tx_max=30, owned=owned),
                                      owned)
        store, ref = _assert_history_matches_records(records)
        seen["ambiguous"] += store.report.ambiguous_owners
        for rec in records:
            owners = [o for o in ref["owners"][rec.tx_id] if o is not None]
            seen["boundary_owner"] += sum(i.src not in ref["txs"] and i.owner is not None
                                          for i in rec.inputs)
            seen["paid_twice"] += len(rec.outputs) > len({o.addr for o in rec.outputs})
            seen["multi_input_owner"] += len(owners) > len(set(owners))
    if owned:
        del seen["ambiguous"]  # explicit owners are never recovered by amount
    assert all(seen.values()), seen


# -- the transaction-pair oracle (tests/oracles.py) ----------------------------


def test_expand_pairs_counts():
    five_two = tx("t", T0, [(f"i{k}", 10, None) for k in range(5)],
                  [("o1", 30), ("o2", 20)])
    assert len(expand_pairs(five_two)) == 10
    one_one = tx("s", T0, [("i", 10, None)], [("o", 10)])
    pairs = expand_pairs(one_one)
    assert len(pairs) == 1 and pairs[0].proportion == 1.0


def test_expand_pairs_proportions():
    t = tx("t", T0, [("i1", 5, None), ("i2", 70, None), ("i3", 25, None)],
           [("o1", 60), ("o2", 40)])
    pairs = expand_pairs(t)
    by_src = {}
    for p in pairs:
        by_src.setdefault(p.src, set()).add(p.proportion)
    assert by_src == {"i1": {0.05}, "i2": {0.70}, "i3": {0.25}}


def test_expand_pairs_conservation_random(rng):
    # Integer conservation per output: allocations sum to the input total.
    for _ in range(200):
        n_in = int(rng.integers(1, 8))
        n_out = int(rng.integers(1, 5))
        t = tx("t", T0,
               [(f"i{k}", int(rng.integers(0, 10**9)), None) for k in range(n_in)],
               [(f"o{k}", 0) for k in range(n_out)])
        pairs = expand_pairs(t)
        assert len(pairs) == n_in * n_out
        total_in = total_input(t)
        for out in {p.dst for p in pairs}:
            group = [p for p in pairs if p.dst == out]
            if t.inputs and total_in > 0:
                assert abs(sum(p.proportion for p in group) - 1.0) < 1e-9
            assert sum(p.allocated_amount for p in group) == total_in


def test_expand_pairs_zero_total_degenerate():
    t = tx("t", T0, [("i1", 0, None), ("i2", 0, None)], [("o", 0)])
    pairs = expand_pairs(t)
    assert all(p.degenerate for p in pairs)
    assert all(p.proportion == 0.5 for p in pairs)


def test_expand_pairs_rejects_coinbase():
    with pytest.raises(DataError):
        expand_pairs(tx("c", T0, [], [("o", 5)]))


def test_roundtrip_parse_serialize_parse(case_study_store):
    def serialize(store):
        # Ids sort like txids, so this is (time, txid) order.
        order = sorted(range(len(store)), key=lambda t: (store.tx(t).timestamp, t))
        return [serialize_transaction(store.tx(t)) for t in order]

    lines = serialize(case_study_store)
    store2 = parse_transactions(lines)
    assert len(store2) == len(case_study_store)
    assert tx_ids(store2) == tx_ids(case_study_store)
    for t in range(len(store2)):
        assert store2.tx(t) == case_study_store.tx(t)
    assert serialize(store2) == lines


def test_bulk_generation_count_matches_line_oracle(tmp_path):
    n = 299_767
    records = bulk_chain_records(n, seed=5)
    assert len(records) == n
    path = tmp_path / "bulk.jsonl"
    with open(path, "w") as fh:
        for rec in records:
            fh.write(serialize_transaction(rec) + "\n")
    with open(path, "rb") as fh:
        line_count = sum(1 for _ in fh)
    assert line_count == n
    store = parse_transactions_file(path)
    assert len(store) == n
