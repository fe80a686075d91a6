import numpy as np
import pytest

from chainsentry import features
from chainsentry.chain import TxStore
from chainsentry.features import (ADDRESS_FEATURES, FULL_SCHEMA, PATH_SET_NAMES,
                                  SEED_SCHEMA, SCHEMA_HASH, FeatureTimeline,
                                  _AddressEvents, _SetTracker, address_features,
                                  aggregate_path_set, feature_timeline,
                                  feature_timeline_rebuilt, path_features,
                                  read_feature_csv, write_feature_csv)
from chainsentry.paths import ForwardTrace, PathConfig, PathParams, backward_paths
from chainsentry.serialize import fmt_float
from chainsentry.synth import ScenarioSpec, generate
from conftest import HOUR, T0, tx
from oracles import (naive_aggregate, random_dag_records, reference_address_features,
                     reference_aggregate, reference_feature_timeline)

DAY = 86400


def test_schema_arity():
    assert len(FULL_SCHEMA) == 212
    assert len(SEED_SCHEMA) == 68
    assert len(ADDRESS_FEATURES) == 16
    assert len(set(FULL_SCHEMA)) == 212
    assert set(SEED_SCHEMA) <= set(FULL_SCHEMA)


def feature(vec, name, schema=ADDRESS_FEATURES):
    return vec[schema.index(name)]


def test_address_features_fresh_address():
    store = TxStore.from_records([tx("r", T0, [], [("a", 500)])])
    ev = _AddressEvents.collect(store, "a")
    vec = address_features(ev, T0)
    assert feature(vec, "addr__balance") == 500
    assert feature(vec, "addr__receive_count_total") == 1
    assert feature(vec, "addr__spend_count_total") == 0
    assert feature(vec, "addr__spend_receive_ratio_total") == 0.0
    assert feature(vec, "addr__active_hour_count") == 1
    assert feature(vec, "addr__active_hour_rate") == 1.0


def test_address_features_case_study_hour14(case_study_store):
    ev = _AddressEvents.collect(case_study_store, "hack")
    vec = address_features(ev, T0 + 14 * HOUR)
    assert feature(vec, "addr__receive_count_total") == 2
    assert feature(vec, "addr__spend_count_total") == 0
    assert feature(vec, "addr__balance") == 71 * 783_100_000 + 8631


def test_address_features_match_naive_recompute(rng):
    # Random schedule vs a per-event brute-force recount.
    events = []
    t = T0
    for _ in range(40):
        t += int(rng.integers(60, 5000))
        events.append((t, int(rng.integers(0, 3 * HOUR)), int(rng.integers(0, 100))))
    records = [tx("seed", T0 - HOUR, [], [("a", 10**9)])]
    recv, spend = [], []
    for k, (ts, _, amount) in enumerate(events):
        if k % 3 == 0 and recv:
            records.append(tx(f"s{k}", ts, [(records[0].tx_id, amount, "a")],
                              [("sink", amount)]))
            spend.append((ts, amount))
        else:
            records.append(tx(f"r{k}", ts, [], [("a", amount)]))
            recv.append((ts, amount))
    store = TxStore.from_records(records)
    ev = _AddressEvents.collect(store, "a")
    t_now = events[-1][0]
    vec = address_features(ev, t_now)
    # naive recount
    assert feature(vec, "addr__receive_count_total") == len([1 for s, _ in recv if s <= t_now]) + 1
    assert feature(vec, "addr__spend_count_total") == len(spend)
    naive_recent_spend = len([1 for s, _ in spend if t_now - HOUR < s <= t_now])
    assert feature(vec, "addr__spend_count_recent_hour") == naive_recent_spend
    buckets = set(s // HOUR for s, _ in recv + spend) | {(T0 - HOUR) // HOUR}
    assert feature(vec, "addr__active_hour_count") == len(buckets)
    balance = 10**9 + sum(a for _, a in recv) - sum(a for _, a in spend)
    assert feature(vec, "addr__balance") == balance


def _random_schedule_store(rng, case):
    """Events of address "a" on a random schedule with the awkward cases:
    times on the hour grid of creation, many events in one hour, tied busiest
    hours, zero amounts, change outputs, and accounts that only receive or
    only spend after creation."""
    creation = T0 + int(rng.integers(0, HOUR))
    kind = ("mixed", "receive_only", "spend_after_creation", "one_hour")[case % 4]
    n = int(rng.integers(1, 40))
    if kind == "one_hour":
        times = creation + rng.integers(0, HOUR, size=n)
    else:
        grid = creation + HOUR * rng.integers(0, 30, size=n)
        jitter = rng.choice([0, 0, 1, -1, 59, HOUR - 1], size=n)
        times = np.maximum(grid + jitter, creation)
    times = np.sort(times)
    times[0] = creation
    records = []
    for k, ts in enumerate(times.tolist()):
        amount = int(rng.choice([0, 0, 1, int(rng.integers(2, 10**6))]))
        if kind == "receive_only" or k == 0:
            role = "receive"
        elif kind == "spend_after_creation":
            role = "spend"
        else:
            role = rng.choice(["receive", "spend", "change"])
        if role == "receive":
            records.append(tx(f"r{k}", ts, [], [("a", amount)]))
        elif role == "spend":
            records.append(tx(f"s{k}", ts, [(f"ext{k}", amount, "a")], [("sink", amount)]))
        else:
            records.append(tx(f"c{k}", ts, [(f"ext{k}", amount + 5, "a")],
                              [("sink", 5), ("a", amount)]))
    return TxStore.from_records(records), times


def test_address_features_all_hours_match_per_hour_reference(rng):
    for case in range(200):
        store, times = _random_schedule_store(rng, case)
        ev = _AddressEvents.collect(store, "a")
        hours = ev.creation + HOUR * np.arange(-1, 31)
        cutoffs = np.concatenate([hours, times, times + HOUR, times - 1, times + HOUR + 1])
        got = address_features(ev, cutoffs)
        assert got.shape == (cutoffs.size, len(ADDRESS_FEATURES))
        for cutoff, row in zip(cutoffs.tolist(), got):
            want = reference_address_features(ev, cutoff)
            assert np.array_equal(row, want), (case, cutoff)
            assert np.array_equal(np.signbit(row), np.signbit(want)), (case, cutoff)
        one = address_features(ev, int(cutoffs[-1]))
        assert one.shape == (len(ADDRESS_FEATURES),) and np.array_equal(one, got[-1])


def test_address_features_peak_ties_pick_the_earliest_hour():
    creation = T0 - T0 % HOUR
    # Hours 0 and 2 both see three receives; hour 1 sees two.
    offsets = [0, 10, 20, HOUR, HOUR + 1, 2 * HOUR, 2 * HOUR + 5, 3 * HOUR - 1]
    store = TxStore.from_records([tx(f"r{k}", creation + o, [], [("a", 0)])
                                  for k, o in enumerate(offsets)])
    ev = _AddressEvents.collect(store, "a")
    rows = address_features(ev, creation + HOUR * np.arange(1, 4))
    assert feature(rows[-1], "addr__max_hourly_receive_count") == 3
    assert feature(rows[-1], "addr__peak_receive_hour_offset") == 0
    assert feature(rows[-1], "addr__zero_amount_receive_count") == len(offsets)
    assert feature(rows[0], "addr__receive_count_recent_hour") == 4  # closed window


def test_path_features_trivial_and_empty(chain_store):
    rows, empty = path_features(chain_store, [])
    assert empty and rows.shape == (0, 12)
    agg = aggregate_path_set(rows)
    assert agg.shape == (49,) and not agg.any()

    ps = backward_paths(chain_store, "cb", PathConfig("BK", "LT", 0.5, 7 * DAY))
    rows, empty = path_features(chain_store, ps.paths)
    assert not empty
    vec = dict(zip(["hop_length", "height_length", "max_input_amount",
                    "min_input_amount", "max_output_amount", "min_output_amount",
                    "max_input_tx_count", "min_input_tx_count",
                    "max_output_tx_count", "min_output_tx_count",
                    "max_activation_score", "min_activation_score"], rows[0]))
    assert vec["hop_length"] == 0
    assert vec["max_activation_score"] == vec["min_activation_score"] == 1.0


def test_path_features_three_hop_hand_table(chain_store):
    ps = backward_paths(chain_store, "dep", PathConfig("BK", "LT", 0.5, 7 * DAY))
    longest = max(ps.paths, key=lambda p: p.hop_length)
    row = path_features(chain_store, [longest])[0][0]
    # dep(in=900,out=900,|I|=1,|J|=1) <- mid(in=1000,out=1000,1in,2out) <- cb(0 in).
    want = [2, 3, 1000, 0, 1000, 900, 1, 0, 2, 1, 1.0, 1.0]
    assert row.tolist() == want


def test_aggregate_single_and_duplicates(rng):
    row = rng.uniform(0, 5, size=12)
    one = aggregate_path_set(row[None, :])
    assert one[0] == 1
    stats = one[1:].reshape(12, 4)
    assert np.allclose(stats[:, 0], row) and np.allclose(stats[:, 1], row)
    assert np.allclose(stats[:, 2], row) and np.allclose(stats[:, 3], 0.0)
    two = aggregate_path_set(np.vstack([row, row]))
    assert two[0] == 2
    assert np.allclose(two[1:], one[1:])


def test_aggregate_matches_two_pass_oracle(rng):
    rows = rng.uniform(-3, 9, size=(37, 12))
    got = aggregate_path_set(rows)
    want = naive_aggregate(rows)
    assert np.allclose(got, want, atol=1e-12)
    stats = got[1:].reshape(12, 4)
    assert (stats[:, 1] >= stats[:, 0]).all()  # max >= avg
    assert (stats[:, 0] >= stats[:, 2]).all()  # avg >= min
    assert (stats[:, 3] >= 0).all()


def test_timeline_dormant_address():
    store = TxStore.from_records([tx("r", T0, [], [("a", 500)])],
                                 labels={"a": 0})
    tl = feature_timeline(store, "a")
    assert tl.matrix.shape == (24, 212)
    recent = FULL_SCHEMA.index("addr__receive_count_recent_hour")
    assert tl.matrix[0, recent] == 1
    assert (tl.matrix[1:, recent] == 0).all()
    total = FULL_SCHEMA.index("addr__receive_count_total")
    assert (tl.matrix[:, total] == 1).all()


def test_timeline_case_study_fr_first_nonzero_at_16(case_study_store):
    tl = feature_timeline(case_study_store, "hack")
    col = FULL_SCHEMA.index("st_fr__path_count")
    nonzero_rows = np.flatnonzero(tl.matrix[:, col])
    assert nonzero_rows.size and nonzero_rows[0] == 15  # row 16, 0-based 15
    bk_col = FULL_SCHEMA.index("st_bk__path_count")
    assert tl.matrix[0, bk_col] == 143
    sig_col = tl.matrix[:, bk_col]
    assert sig_col[13 - 1] == 144  # signal adds its trivial path at row 13


def test_timeline_incremental_equals_rebuild(case_study_store):
    fast = feature_timeline(case_study_store, "hack")
    slow = feature_timeline_rebuilt(case_study_store, "hack")
    assert np.array_equal(fast.matrix, slow.matrix)


def test_timeline_incremental_equals_rebuild_whole_universe():
    # The seven scenario kinds of the 1,000-address benchmark universe.
    specs = [ScenarioSpec(kind, count) for kind, count in (
        ("hack", 3), ("ransomware", 3), ("darknet", 3), ("exchange", 4),
        ("merchant", 4), ("gambling", 3), ("mining", 3))]
    records, labels, _ = generate(specs, seed=13, noise_level=0.3)
    store = TxStore.from_records(records, labels)
    assert len(labels) == 23
    for address in sorted(labels):
        fast = feature_timeline(store, address)
        slow = feature_timeline_rebuilt(store, address)
        assert np.array_equal(fast.matrix, slow.matrix), address
        assert fast.truncated == slow.truncated, address


def test_timeline_no_lookahead(case_study_store):
    """Rows before a perturbation hour are bit-identical after it."""
    base = feature_timeline(case_study_store, "hack").matrix
    later = [r for r in case_study_store._txs.values()]
    extra = tx("late", T0 + 20 * HOUR + 10, [], [("hack", 777)])
    store2 = TxStore.from_records(later + [extra], labels={"hack": 1})
    pert = feature_timeline(store2, "hack").matrix
    assert np.array_equal(base[:20], pert[:20])
    assert not np.array_equal(base[20:], pert[20:])


def test_feature_csv_roundtrip(tmp_path, case_study_store):
    tl = feature_timeline(case_study_store, "hack")
    path = tmp_path / "features.csv"
    write_feature_csv(path, [tl])
    first = path.read_text().splitlines()[0]
    assert first == f"# schema_sha256={SCHEMA_HASH}"
    back = read_feature_csv(path)
    assert len(back) == 1
    assert back[0].address == "hack" and back[0].label == 1
    assert np.array_equal(back[0].matrix, tl.matrix)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_set_tracker_aggregate_follows_interleaved_adds(chain_store):
    ps = backward_paths(chain_store, "dep", PathConfig("BK", "ST", 0.01, 7 * DAY))
    assert len(ps.paths) >= 2
    tracker = _SetTracker()
    sizes = [len(tracker)]
    for batch in ([ps.paths[0]], [], ps.paths, [], [ps.paths[-1]]):
        tracker.add(chain_store, batch)
        sizes.append(len(tracker))
    assert sizes == [0, 1, 1, 1 + len(ps.paths), 1 + len(ps.paths), 2 + len(ps.paths)]
    rows = tracker.rows
    want = path_features(chain_store, [ps.paths[0], *ps.paths, ps.paths[-1]])[0]
    assert np.array_equal(rows, want)
    got = aggregate_path_set(rows, sizes)
    assert got.shape == (len(sizes), 49) and not got[0].any()
    for n, vec in zip(sizes, got):
        assert np.array_equal(_bits(vec), _bits(reference_aggregate(rows[:n])))


@pytest.mark.parametrize("block_rows", [2048, 7])
def test_aggregate_prefixes_match_per_prefix_reference(rng, monkeypatch, block_rows):
    # Values with many ties, both signed zeros and magnitudes far apart; the
    # sizes repeat, include 0 and the full set, and come in any order.  A
    # small block splits the std pass into many groups of sizes.
    monkeypatch.setattr(features, "_STD_BLOCK_ROWS", block_rows)
    pool = np.array([0.0, -0.0, 1.0, 0.1, 0.2, 0.3, 1e16, -3.5, 7 / 3, 5e-324, 2.0**53])
    for case in range(120):
        n = int(rng.integers(0, 60))
        rows = rng.choice(pool, size=(n, 12))
        if case % 3 == 0:
            rows += rng.normal(size=(n, 12)) * rng.choice([0.0, 1e-3, 1e8], size=(n, 12))
        if case % 5 == 0:
            rows[:, :4] = -0.0
        sizes = rng.integers(0, n + 1, size=int(rng.integers(1, 30)))
        sizes = np.concatenate([sizes, [0, n, n]])
        got = aggregate_path_set(rows, sizes)
        assert got.shape == (sizes.size, 49)
        for size, vec in zip(sizes.tolist(), got):
            assert np.array_equal(_bits(vec), _bits(reference_aggregate(rows[:size]))), (case, size)
        assert np.array_equal(_bits(aggregate_path_set(rows)), _bits(reference_aggregate(rows)))


def _dag_addresses(store, rng, k):
    active = sorted(store.addresses())  # every address that receives
    picks = rng.choice(len(active), size=min(k, len(active)), replace=False)
    return [active[i] for i in sorted(picks)]


@pytest.mark.parametrize("cap", [10_000, 1, 2, 3])
def test_timeline_matches_hourly_reference_on_random_dags(rng, cap):
    # The per-hour loop that extends every trace and aggregates every hour is
    # the reference, also under a cap where a fresh rebuild differs.
    for case in range(40):
        store = TxStore.from_records(random_dag_records(rng, n_tx_max=40, days=2, owned=True))
        span = float(rng.choice([0.1, 0.5, 2.0]) * DAY)
        params = PathParams(lt_threshold=0.3, lt_span=3 * span, st_threshold=0.01,
                            st_span=span, max_paths_per_set=cap)
        for address in _dag_addresses(store, rng, 4):
            tl = feature_timeline(store, address, 48, params)
            want, truncated = reference_feature_timeline(store, address, 48, params)
            assert np.array_equal(_bits(tl.matrix), _bits(want)), (case, address)
            assert tl.truncated == truncated, (case, address)


def test_timeline_matches_hourly_reference_on_case_study(case_study_store):
    for address in ("hack", "dest", "far"):
        for params in (PathParams(), PathParams(max_paths_per_set=3)):
            tl = feature_timeline(case_study_store, address, params=params)
            want, truncated = reference_feature_timeline(case_study_store, address,
                                                         params=params)
            assert np.array_equal(_bits(tl.matrix), _bits(want)), address
            assert tl.truncated == truncated, address


def _seed13_universe(specs=(("hack", 2), ("exchange", 3), ("gambling", 2))):
    records, labels, _ = generate([ScenarioSpec(kind, count) for kind, count in specs],
                                  seed=13, noise_level=0.3)
    return TxStore.from_records(records, labels), labels


def test_timeline_aggregates_each_set_once_per_change(monkeypatch):
    store, labels = _seed13_universe()
    calls = []

    def counted(rows, sizes=None):
        calls.append((rows.shape[0], None if sizes is None else np.asarray(sizes)))
        return aggregate_path_set(rows, sizes)

    monkeypatch.setattr(features, "aggregate_path_set", counted)
    count_cols = [FULL_SCHEMA.index(f"{name}__path_count") for name in PATH_SET_NAMES]
    for address in sorted(labels):
        calls.clear()
        tl = feature_timeline(store, address)
        # One call per set covers all hours; its row counts are the set's
        # path count per hour, so each change is one distinct size.
        assert len(calls) == len(PATH_SET_NAMES), address
        for (n_rows, sizes), col in zip(calls, count_cols):
            assert sizes.shape == (tl.hours,) and n_rows == sizes[-1], address
            assert np.array_equal(sizes, tl.matrix[:, col]), address


def test_forward_extends_outside_build_all_add_paths(monkeypatch):
    # Traces extend only in hours where a hidden hop is due, so apart from
    # the extend inside ``ForwardTrace.build`` every call adds paths.
    store, labels = _seed13_universe((("hack", 3), ("ransomware", 3), ("darknet", 3),
                                      ("exchange", 4), ("merchant", 4), ("gambling", 3),
                                      ("mining", 3)))
    extend, build = ForwardTrace.extend, ForwardTrace.build.__func__
    in_build, added = [False], []

    def watched_build(cls, *args):
        in_build[0] = True
        try:
            return build(cls, *args)
        finally:
            in_build[0] = False

    def watched_extend(self, store, t_now):
        out = extend(self, store, t_now)
        if not in_build[0]:
            added.append(len(out))
        return out

    monkeypatch.setattr(ForwardTrace, "build", classmethod(watched_build))
    monkeypatch.setattr(ForwardTrace, "extend", watched_extend)
    for address in sorted(labels):
        feature_timeline(store, address)
    assert added and min(added) > 0


def test_feature_csv_writer_matches_per_cell_format(tmp_path):
    awkward = [-0.0, 5e-324, 1e22, 0.1 + 0.2, float(2**53 + 1),
               float("inf"), float("nan"), -1.5, 0.0, 123456789.125]
    matrix = np.zeros((2, len(FULL_SCHEMA)))
    matrix[0, :len(awkward)] = awkward
    matrix[1, -len(awkward):] = awkward[::-1]
    # Consecutive hours in which a block changes only in the sign of a zero,
    # only in a NaN, or not at all; the writer reuses a cell's text only
    # while its bits repeat.
    blocks = np.ones((8, len(FULL_SCHEMA)))
    blocks[0:4, 70] = [0.0, -0.0, 0.0, -0.0]
    blocks[4:6, 120] = float("nan")
    blocks[1, 3] = blocks[2, 200] = -0.0
    # One cell changes inside an otherwise repeated row, then changes back.
    steady = np.tile(np.arange(len(FULL_SCHEMA), dtype=np.float64), (4, 1))
    steady[1, 100] = 0.1
    steady[2, 100] = 0.2
    # Single cells flip the sign of a zero or turn NaN and back.
    flips = np.full((5, len(FULL_SCHEMA)), 7.0)
    flips[:, 5] = [0.0, -0.0, -0.0, 0.0, -0.0]
    flips[:, 50] = [np.nan, 1.0, np.nan, np.nan, 1.0]
    flips[2, 211] = -0.0
    # A timeline whose first row repeats the previous timeline's last row,
    # then one whose first row differs from it in one cell only, then one
    # with no cell different from the row above.
    carried = np.vstack([flips[-1], flips[0]])
    nudged = carried[-1:].copy()
    nudged[0, 0] = -7.0
    cases = (("odd", 0, matrix), ("nolabel", None, matrix[::-1]), ("blocks", 2, blocks),
             ("steady", 1, steady), ("flips", 0, flips), ("carried", 0, carried),
             ("nudged", 1, nudged), ("repeated", None, np.vstack([nudged, nudged])))
    path = tmp_path / "features.csv"
    write_feature_csv(path, [FeatureTimeline(a, label, 0, m) for a, label, m in cases])
    want = [f"# schema_sha256={SCHEMA_HASH}",
            "address,t_index,label," + ",".join(FULL_SCHEMA)]
    for address, label, m in cases:
        for t in range(m.shape[0]):
            want.append(f"{address},{t + 1},{'' if label is None else label},"
                        + ",".join(fmt_float(v) for v in m[t]))
    assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"
    back = {tl.address: tl for tl in read_feature_csv(path)}
    assert back["odd"].label == 0 and back["nolabel"].label is None
    for address, _, m in cases:
        assert np.array_equal(back[address].matrix, m, equal_nan=True)
        assert np.array_equal(np.signbit(back[address].matrix), np.signbit(m))


def test_feature_csv_read_filtered_by_address(tmp_path, case_study_store):
    records = list(case_study_store._txs.values())
    store = TxStore.from_records(records, labels={"hack": 1, "dest": 0, "far": 0})
    timelines = [feature_timeline(store, a) for a in ("hack", "dest", "far")]
    path = tmp_path / "features.csv"
    write_feature_csv(path, timelines)
    full = {tl.address: tl for tl in read_feature_csv(path)}
    for address in ("hack", "dest", "far"):
        (only,) = read_feature_csv(path, {address})
        assert only.address == address and only.label == full[address].label
        assert np.array_equal(only.matrix, full[address].matrix)
    assert read_feature_csv(path, {"nobody"}) == []


class _FailingTimeline:
    address = "broken"
    label = 1

    @property
    def matrix(self):
        raise RuntimeError("timeline failed mid-write")


def test_feature_csv_write_failure_keeps_the_old_file(tmp_path, case_study_store):
    hack = feature_timeline(case_study_store, "hack")
    dest = feature_timeline(case_study_store, "dest")
    path = tmp_path / "features.csv"
    write_feature_csv(path, [hack])
    old = path.read_bytes()
    with pytest.raises(RuntimeError, match="mid-write"):
        write_feature_csv(path, [dest, _FailingTimeline(), hack])
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]
    write_feature_csv(path, [dest])
    assert [tl.address for tl in read_feature_csv(path)] == ["dest"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]
