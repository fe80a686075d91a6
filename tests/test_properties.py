"""Property-based invariants over generated inputs."""
import gc
import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from chainsentry.chain import TransactionRecord, TxInput, TxOutput, parse_transactions
from chainsentry.errors import DataError
from chainsentry.features import aggregate_path_set
from chainsentry.intention import intention_index_of
from chainsentry.metrics import f1_consistency, f1_early
from oracles import expand_pairs

amounts = st.lists(st.integers(min_value=0, max_value=10**12),
                   min_size=1, max_size=8)


@settings(deadline=None, max_examples=100)
@given(in_amounts=amounts, n_out=st.integers(min_value=1, max_value=5))
def test_pair_expansion_conserves_input_total(in_amounts, n_out):
    record = TransactionRecord(
        "t", 0,
        tuple(TxInput(f"i{k}", a) for k, a in enumerate(in_amounts)),
        tuple(TxOutput(f"o{k}", 0) for k in range(n_out)),
    )
    pairs = expand_pairs(record)
    assert len(pairs) == len(in_amounts) * n_out
    total = sum(in_amounts)
    for out in {p.dst for p in pairs}:
        group = [p for p in pairs if p.dst == out]
        assert sum(p.allocated_amount for p in group) == total
        if total > 0:
            assert abs(sum(p.proportion for p in group) - 1.0) < 1e-9


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                   allow_nan=False, width=32),
                         min_size=12, max_size=12),
                min_size=1, max_size=30))
def test_aggregate_ordering_invariants(rows):
    agg = aggregate_path_set(np.array(rows, dtype=np.float64))
    assert agg[0] == len(rows)
    stats = agg[1:].reshape(12, 4)
    assert (stats[:, 1] >= stats[:, 0] - 1e-9).all()   # max >= avg
    assert (stats[:, 0] >= stats[:, 2] - 1e-9).all()   # avg >= min
    assert (stats[:, 3] >= 0.0).all()                  # population std


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=1, max_size=6))
def test_intention_index_bounds(z):
    idx = int(intention_index_of(np.array(z)))
    assert 1 <= idx <= 2 ** len(z)
    nonneg = [abs(v) for v in z]
    assert int(intention_index_of(np.array(nonneg))) == 1  # zeros count as +


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_weighted_scores_stay_in_unit_interval(n_steps, n_addr, seed):
    rng = np.random.default_rng(seed)
    f1_seq = rng.uniform(size=n_steps)
    preds = rng.uniform(size=(n_addr, n_steps))
    fe = f1_early(f1_seq)
    fc = f1_consistency(f1_seq, preds)
    assert 0.0 <= fe <= 1.0
    assert 0.0 <= fc <= 1.0
    assert min(f1_seq) - 1e-12 <= fe <= max(f1_seq) + 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_materialized_column_count_formula(seed):
    from chainsentry.selection import (COMPLEMENTABLE, SEED_FEATURE_NAMES,
                                       FeatureSpec, materialize_features)

    rng = np.random.default_rng(seed)
    names = list(SEED_FEATURE_NAMES)
    assignment = rng.integers(0, 3, size=len(names))
    complement, reserve, delete = [], [], []
    for name, a in zip(names, assignment):
        if a == 0 and name in COMPLEMENTABLE:
            complement.append(name)
        elif a == 2:
            delete.append(name)
        else:
            reserve.append(name)
    spec = FeatureSpec(tuple(complement), tuple(reserve), tuple(delete))
    out = materialize_features(spec, rng.normal(size=(2, 212)))
    assert out.shape[1] == len(reserve) + 4 * len(complement)


# Near-valid transaction lines: every field is usually well-typed, sometimes
# junk, sometimes missing, sometimes joined by an unknown key.
_junk = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                  st.lists(st.integers(), max_size=2), st.integers(-(10**20), 10**20))
_ids = st.sampled_from(["t0", "t1", "t2", "t3"])
_addrs = st.sampled_from(["a", "b", "c"])
_amounts = st.integers(min_value=-1, max_value=20)
_input = st.fixed_dictionaries({"src": _ids | _junk, "amount": _amounts | _junk},
                               optional={"owner": _addrs | _junk, "note": _junk})
_output = st.fixed_dictionaries({"addr": _addrs | _junk, "amount": _amounts | _junk},
                                optional={"note": _junk})
_record = st.fixed_dictionaries(
    {"txid": _ids | _junk, "time": st.integers(-1, 50) | _junk,
     "inputs": st.lists(_input, max_size=3) | _junk,
     "outputs": st.lists(_output, max_size=3) | _junk},
    optional={"note": _junk})
_record_lines = st.tuples(_record, st.sets(st.sampled_from(["txid", "time", "inputs", "outputs"]),
                                           max_size=1)).map(
    lambda rd: json.dumps({k: v for k, v in rd[0].items() if k not in rd[1]}))
_lines = st.one_of(_record_lines, _record_lines.map(lambda line: line[:-1]),
                   st.text(max_size=30), st.just(""),
                   _record_lines.map(str.encode), st.binary(max_size=30))


def _is_blank(line) -> bool:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return False
    return not line.strip()


@settings(deadline=None, max_examples=300)
@given(lines=st.lists(_lines, max_size=12), gc_on=st.booleans())
@example(lines=["[" * 100_000], gc_on=True)
@example(lines=['{"txid": "t", "time": ' + "1" * 5000 + "}"], gc_on=False)
@example(lines=["garbage"] * 10, gc_on=True)
@example(lines=["garbage"] * 10, gc_on=False)
@example(lines=[b'{"txid": "t\xff\xfe"}', b"\x80 \r\n"], gc_on=True)
def test_parser_reports_every_line_or_raises_data_error(lines, gc_on):
    was_enabled = gc.isenabled()
    (gc.enable if gc_on else gc.disable)()
    try:
        try:
            store = parse_transactions(lines)
        except DataError:
            pass
        else:
            report = store.report
            assert report.n_lines == sum(1 for line in lines if not _is_blank(line))
            assert report.n_accepted + len(report.line_errors) == report.n_lines
            assert len(store) <= report.n_accepted
        assert gc.isenabled() == gc_on
    finally:
        (gc.enable if was_enabled else gc.disable)()
