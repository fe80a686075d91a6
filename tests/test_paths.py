import numpy as np
import pytest

from chainsentry import paths
from chainsentry.chain import TxStore
from chainsentry.errors import DataError
from chainsentry.paths import (ForwardTrace, PathConfig, PathParams,
                               backward_paths, forward_paths, path_sets_for_address)
from conftest import HOUR, T0, tx
from oracles import (ReferenceForwardTrace, dfs_backward_paths, dfs_forward_paths,
                     expand_pairs, pathset_as_dict, random_dag_records)

DAY = 86400


def bk(threshold=0.5, span=7 * DAY, cap=10_000):
    return PathConfig("BK", "LT", threshold, span, cap)


def fr(threshold=0.5, span=7 * DAY, cap=10_000):
    return PathConfig("FR", "LT", threshold, span, cap)


def test_config_validation():
    with pytest.raises(DataError):
        PathConfig("XX", "LT", 0.5, 10.0)
    with pytest.raises(DataError):
        PathConfig("BK", "LT", 0.0, 10.0)
    with pytest.raises(DataError):
        PathConfig("BK", "LT", 0.5, -1.0)
    lt = PathParams().config("LT", "BK")
    st = PathParams().config("ST", "FR")
    assert (lt.direction, lt.horizon, lt.threshold, lt.max_span) == ("BK", "LT", 0.5, 7 * DAY)
    assert (st.direction, st.horizon, st.threshold, st.max_span) == ("FR", "ST", 0.01, 1 * DAY)


def assert_backward_hops_match_pair_oracle(store, pathset):
    """Every hop's score is its parent's score times the oracle pair
    proportion of the source it steps to; returns the hops checked."""
    proportions = {}
    checked = 0
    for path in pathset.paths:
        for (_, parent_score, tip), (prev, score, src) in zip(path.hops, path.hops[1:]):
            assert prev == tip
            if tip not in proportions:
                proportions[tip] = {p.src: p.proportion for p in expand_pairs(store.tx(tip))}
            assert score == parent_score * proportions[tip][src]
            checked += 1
    return checked


def _sources_then(tip_inputs):
    """Coinbase sources for ``tip_inputs`` (name, amount), then the tip
    spending them into one output."""
    records = [tx(src, T0 - HOUR, [], [(f"w_{src}", amount)]) for src, amount in tip_inputs]
    records.append(tx("tip", T0, [(src, amount, None) for src, amount in tip_inputs],
                      [("o", sum(a for _, a in tip_inputs))]))
    return TxStore.from_records(records)


@pytest.mark.parametrize("inputs, threshold, want", [
    pytest.param([("i1", 5), ("i2", 70), ("i3", 25)], 0.5, {("tip", "i2"): 0.7},
                 id="split-5-70-25"),
    pytest.param([("i", 9)], 1.0, {("tip", "i"): 1.0}, id="sole-input-at-threshold-1"),
    pytest.param([("i1", 0), ("i2", 0)], 0.5, {("tip", "i1"): 0.5, ("tip", "i2"): 0.5},
                 id="zero-total-equal-shares"),
])
def test_backward_hop_scores_match_the_pair_oracle(inputs, threshold, want):
    store = _sources_then(inputs)
    ps = backward_paths(store, "tip", bk(threshold=threshold))
    assert {p.key: p.score for p in ps.paths if p.hop_length} == want
    assert assert_backward_hops_match_pair_oracle(store, ps) == len(want)


def test_backward_hop_scores_match_the_pair_oracle_on_the_71_input_deposit(case_study_store):
    ps = backward_paths(case_study_store, "dep", PathParams().config("ST", "BK"))
    # 1/71 ~ 0.0141 clears the 0.01 threshold: one hop per feeder, then one
    # more to each feeder's coinbase.
    assert sum(p.hop_length == 1 for p in ps.paths) == 71
    assert sum(p.hop_length == 2 for p in ps.paths) == 71
    assert assert_backward_hops_match_pair_oracle(case_study_store, ps) == 71 + 2 * 71


def test_backward_hop_scores_match_the_pair_oracle_on_random_dags(rng):
    checked = 0
    for case in range(60):
        store = TxStore.from_records(random_dag_records(rng))
        threshold, span = ((0.01, 1 * DAY), (0.2, 6 * DAY), (0.5, 7 * DAY))[case % 3]
        for seed in sorted(store.tx_ids()):
            ps = backward_paths(store, seed, bk(threshold=threshold, span=span))
            checked += assert_backward_hops_match_pair_oracle(store, ps)
    assert checked > 1000


def test_backward_trivial_on_coinbase_ancestry():
    store = TxStore.from_records([tx("c", T0, [], [("a", 10)])])
    ps = backward_paths(store, "c", bk())
    assert len(ps) == 1
    assert ps.paths[0].hops == ((None, 1.0, "c"),)


def test_backward_three_level_chain_scores(chain_store):
    # dep <- mid (share 1.0) <- cb (share 1.0): chain fixture is fully linear.
    ps = backward_paths(chain_store, "dep", bk(threshold=0.1))
    scores = sorted(p.score for p in ps.paths)
    assert scores == [1.0, 1.0, 1.0]


def test_backward_hand_unrolled_scores():
    records = [
        tx("g1", T0 - 3 * HOUR, [], [("x", 90)]),
        tx("g2", T0 - 3 * HOUR + 1, [], [("x", 10)]),
        tx("m", T0 - 2 * HOUR, [("g1", 90, None), ("g2", 10, None)], [("y", 100)]),
        tx("g3", T0 - 2 * HOUR, [], [("z", 20)]),
        tx("s", T0, [("m", 80, None), ("g3", 20, None)], [("a", 100)]),
    ]
    store = TxStore.from_records(records)
    ps = backward_paths(store, "s", bk(threshold=0.5))
    got = {p.key: p.score for p in ps.paths}
    # 0.8 to m, then 0.8*0.9=0.72 to g1; 0.2 and 0.8*0.1 fall below 0.5.
    assert got == {("s",): 1.0, ("s", "m"): 0.8, ("s", "m", "g1"): pytest.approx(0.72)}


def test_backward_prefix_closure_and_span(case_study_store):
    ps = backward_paths(case_study_store, "dep",
                        PathConfig("BK", "ST", 0.01, 1 * DAY))
    keys = ps.keys()
    for p in ps.paths:
        for k in range(1, len(p.hops) + 1):
            assert tuple(h[2] for h in p.hops[:k]) in keys
        # Score product law along hops.
        for prev_hop, hop in zip(p.hops, p.hops[1:]):
            agg = dict(case_study_store.agg_inputs(prev_hop[2]))
            total = sum(agg.values())
            assert hop[1] == pytest.approx(prev_hop[1] * agg[hop[2]] / total, rel=1e-12)
    # 71 feeders + 71 coinbases + seed
    assert len(ps) == 143


def test_backward_monotone_in_threshold(case_study_store):
    loose = backward_paths(case_study_store, "dep", PathConfig("BK", "ST", 0.01, DAY))
    tight = backward_paths(case_study_store, "dep", PathConfig("BK", "ST", 0.5, DAY))
    assert tight.keys() <= loose.keys()


def test_forward_trivial_when_unspent():
    store = TxStore.from_records([tx("c", T0, [], [("a", 10)])])
    ps = forward_paths(store, "c", fr(), T0 + DAY)
    assert len(ps) == 1


def test_forward_peeling_chain_scores():
    # Amounts divisible by 20 keep every hop's pass-through at exactly 95%.
    records = [tx("t0", T0, [], [("a0", 20 ** 5)])]
    amt = 20 ** 5
    for k in range(5):
        keep = amt // 20 * 19
        records.append(tx(
            f"t{k + 1}", T0 + (k + 1) * HOUR,
            [(f"t{k}", amt, f"a{k}")],
            [(f"a{k + 1}", keep), (f"chg{k}", amt - keep)],
        ))
        amt = keep
    store = TxStore.from_records(records)
    ps = forward_paths(store, "t1", fr(threshold=0.5), T0 + DAY)
    longest = max(ps.paths, key=lambda p: p.hop_length)
    assert longest.hop_length == 4
    assert longest.score == pytest.approx(0.95 ** 4, rel=1e-9)
    assert len(ps) == 5  # the seed plus four extensions (all prefixes)


def test_forward_incremental_equals_fresh():
    records = [tx("t0", T0, [], [("a0", 1000)])]
    for k in range(4):
        records.append(tx(
            f"t{k + 1}", T0 + (k + 1) * HOUR,
            [(f"t{k}", 1000, f"a{k}")], [(f"a{k + 1}", 1000)],
        ))
    store = TxStore.from_records(records)
    trace = ForwardTrace.build(store, "t1", fr(threshold=0.5), T0 + 2 * HOUR)
    assert len(trace.paths) == 2  # truncated at the observation time
    for t_now in (T0 + 3 * HOUR, T0 + 3 * HOUR, T0 + DAY):
        trace.extend(store, t_now)
        fresh = forward_paths(store, "t1", fr(threshold=0.5), t_now)
        assert {p.key for p in trace.paths} == fresh.keys()


def test_forward_extend_skips_hours_without_a_visible_hop(monkeypatch):
    records = [tx("t0", T0, [], [("a0", 1000)]),
               tx("t1", T0 + HOUR, [("t0", 1000, "a0")], [("a1", 1000)]),
               tx("t2", T0 + 5 * HOUR, [("t1", 1000, "a1")], [("a2", 1000)])]
    store = TxStore.from_records(records)
    trace = ForwardTrace.build(store, "t0", fr(), T0 + 2 * HOUR)
    assert [p.key for p in trace.paths] == [("t0",), ("t0", "t1")]
    before = list(trace.paths)
    scans = []
    real = paths._forward_expansions
    monkeypatch.setattr(paths, "_forward_expansions",
                        lambda *args: scans.append(args) or real(*args))
    for hours in (2, 3, 4):
        assert trace.extend(store, T0 + hours * HOUR + 1) == []
        assert trace.paths == before and trace.t_seen == T0 + hours * HOUR + 1
    assert scans == []  # no path was re-scanned on the quiet hours
    (added,) = trace.extend(store, T0 + 5 * HOUR)
    assert added.key == ("t0", "t1", "t2") and scans
    with pytest.raises(DataError):
        trace.extend(store, T0 + 4 * HOUR)


def _keys_and_scores(path_list):
    return [(p.key, tuple(h[1] for h in p.hops)) for p in path_list]


def test_forward_extend_hourly_matches_rescans_and_fresh_builds(rng):
    # Each random DAG is stepped hour by hour with and without a cap that
    # prunes.  Every step must equal a trace that re-scans all paths; without
    # a cut it must also equal a fresh build at the same time.
    for case in range(300):
        store = TxStore.from_records(random_dag_records(rng, n_tx_max=30))
        tx_ids = sorted(store.tx_ids())
        seed = tx_ids[int(rng.integers(0, len(tx_ids)))]
        t_seed = store.tx(seed).timestamp
        t_end = max(store.tx(t).timestamp for t in tx_ids)
        threshold, span = ((0.01, 2 * DAY), (0.2, 6 * DAY))[case % 2]
        for cap in (2, 10_000):
            config = PathConfig("FR", "ST", threshold, span, cap)
            trace = ForwardTrace.build(store, seed, config, t_seed)
            ref = ReferenceForwardTrace(store, seed, threshold, span, cap, t_seed)
            prev_keys = {p.key for p in trace.paths}
            for t_now in range(t_seed + HOUR, t_end + 2 * HOUR, HOUR):
                added = trace.extend(store, t_now)
                assert _keys_and_scores(added) == ref.extend(t_now)
                assert _keys_and_scores(trace.paths) == ref.paths
                assert trace.truncated == ref.truncated
                if cap == 10_000:
                    fresh = ForwardTrace.build(store, seed, config, t_now)
                    fresh_keys = {p.key for p in fresh.paths}
                    assert {p.key for p in trace.paths} == fresh_keys
                    assert trace.truncated == fresh.truncated
                    assert {p.key for p in added} == fresh_keys - prev_keys
                    prev_keys = fresh_keys
            with pytest.raises(DataError):
                trace.extend(store, trace.t_seen - 1)


def test_frontier_pruning_flags_truncation():
    fan = [tx(f"i{k}", T0 - 10, [], [("w", 10)]) for k in range(30)]
    big = tx("t", T0, [(f"i{k}", 10, None) for k in range(30)], [("a", 300)])
    store = TxStore.from_records(fan + [big])
    ps = backward_paths(store, "t", PathConfig("BK", "ST", 0.01, DAY, max_paths_per_set=5))
    assert ps.truncated
    assert len(ps) == 6  # seed + capped frontier
    scores = [p.score for p in ps.paths[1:]]
    assert all(s == pytest.approx(1 / 30) for s in scores)


def test_path_sets_for_address(case_study_store):
    params = PathParams()
    sets = path_sets_for_address(case_study_store, "hack", T0 + 1 * HOUR, params)
    assert len(sets["st_bk"]) == 143
    assert len(sets["lt_bk"]) == 1  # 1/71 < 0.5: seed only
    assert len(sets["lt_fr"]) == 0 and len(sets["st_fr"]) == 0
    # After the sweep the forward sets come alive.
    later = path_sets_for_address(case_study_store, "hack", T0 + 17 * HOUR, params)
    assert len(later["st_fr"]) >= 2
    assert len(later["lt_fr"]) >= 2


def test_oracle_equivalence_random_dags(rng):
    params_list = [(0.5, 7 * DAY), (0.01, 1 * DAY), (0.3, 2 * DAY)]
    for _ in range(60):
        store = TxStore.from_records(random_dag_records(rng))
        tx_ids = sorted(store.tx_ids())
        seed = tx_ids[int(rng.integers(0, len(tx_ids)))]
        for threshold, span in params_list:
            got = pathset_as_dict(backward_paths(
                store, seed, PathConfig("BK", "LT", threshold, span)))
            want = dfs_backward_paths(store, seed, threshold, span)
            assert got == want
            t_now = store.tx(seed).timestamp + int(rng.integers(0, 3 * DAY))
            got_f = pathset_as_dict(forward_paths(
                store, seed, PathConfig("FR", "LT", threshold, span), t_now))
            want_f = dfs_forward_paths(store, seed, threshold, span, t_now)
            assert got_f == want_f
