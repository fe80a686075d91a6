"""Independent reference implementations used as test oracles.

These deliberately avoid the library's traversal and aggregation code:
recursive DFS instead of frontier BFS, explicit loops instead of vectorized
numpy, a from-first-principles booster instead of the production one.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

HOUR = 3600


# -- the store read through its public columns and names ----------------------


def total_input(rec):
    return sum(i.amount for i in rec.inputs)


def total_output(rec):
    return sum(o.amount for o in rec.outputs)


def tx_ids(store):
    """Every transaction's txid, in id order (sorted)."""
    return [store.tx_name(t) for t in range(len(store))]


def tx_id(store, name):
    """The id of txid ``name``."""
    return tx_ids(store).index(name)


def agg_inputs(store, t):
    """Transaction ``t``'s inputs summed per source as (source id, amount)."""
    lo, hi = store.agg_ptr[t], store.agg_ptr[t + 1]
    return list(zip(store.agg_src[lo:hi].tolist(), store.agg_amt[lo:hi].tolist()))


def children(store, t):
    """The transactions spending ``t``'s outputs as (child id, amount drawn)."""
    lo, hi = store.child_ptr[t], store.child_ptr[t + 1]
    return list(zip(store.child_tx[lo:hi].tolist(), store.child_amt[lo:hi].tolist()))


def tx_stats(store, t):
    return tuple(store.stats[4 * t:4 * t + 4].tolist())


def store_indexes(store):
    """The store's indexes by name, in the layout of :func:`reference_indexes`."""
    name = store.tx_name

    def named(pairs):
        return [(name(t), amount) for t, amount in pairs]

    def history(address, side):
        txs, amounts = side(address)
        return tuple(x for t, a in zip(txs.tolist(), amounts.tolist()) for x in (name(t), a))

    addresses = _address_names(store)
    return {
        "txs": {name(t): store.tx(t) for t in range(len(store))},
        "agg_in": {name(t): tuple(named(agg_inputs(store, t))) for t in range(len(store))},
        "children": {name(t): named(c) for t in range(len(store)) if (c := children(store, t))},
        "receives": {a: h for a in addresses if (h := history(a, store.receives))},
        "spends": {a: h for a in addresses if (h := history(a, store.spends))},
    }


def _address_names(store):
    """Every address the store numbers, in id order."""
    names = []
    while True:
        try:
            names.append(store.address_name(len(names)))
        except IndexError:
            return names


def dfs_backward_paths(store, seed_tx, threshold, max_span):
    """Exhaustive prefix enumeration over influence hops (no pruning cap)."""
    anchor_time = store.tx(seed_tx).timestamp
    results = {}

    def recurse(hops, score):
        results[tuple(tx for _, _, tx in hops)] = tuple(s for _, s, _ in hops)
        tip = hops[-1][2]
        tip_time = store.tx(tip).timestamp
        agg = agg_inputs(store, tip)
        total = sum(a for _, a in agg)
        for src, amount in agg:
            # Sources outside the store are numbered past its end.
            if src >= len(store) or store.tx(src).timestamp > tip_time:
                continue
            prop = (amount / total) if total else (1.0 / len(agg))
            s = score * prop
            if s >= threshold and anchor_time - store.tx(src).timestamp <= max_span:
                recurse(hops + [(tip, s, src)], s)

    recurse([(None, 1.0, seed_tx)], 1.0)
    return results


def dfs_forward_paths(store, seed_tx, threshold, max_span, t_now):
    """Exhaustive prefix enumeration over trust hops (no pruning cap)."""
    anchor_time = store.tx(seed_tx).timestamp
    results = {}

    def recurse(hops, score):
        results[tuple(tx for _, _, tx in hops)] = tuple(s for _, s, _ in hops)
        tip = hops[-1][2]
        total_out = total_output(store.tx(tip))
        spenders = children(store, tip)
        for child, amount in spenders:
            ct = store.tx(child).timestamp
            if ct > t_now:
                continue
            prop = (amount / total_out) if total_out else (1.0 / max(1, len(spenders)))
            s = score * prop
            if s >= threshold and ct - anchor_time <= max_span:
                recurse(hops + [(tip, s, child)], s)

    recurse([(None, 1.0, seed_tx)], 1.0)
    return results


@dataclass(frozen=True)
class TransactionPair:
    """One edge (source tx -> output address) of a transaction's bipartite
    input/output expansion: the paper's influence pair."""

    tx_id: str
    src: str
    dst: str
    proportion: float
    allocated_amount: int
    degenerate: bool = False


def expand_pairs(tx):
    """Bipartite |I| x |J| expansion with input-share proportions.

    Inputs are aggregated by source transaction and outputs by address, so
    |I| and |J| count distinct counterparties.  Proportions are the input's
    share of the total input amount (identical for every output, and equal
    shares when the total is zero); allocated amounts conserve the total
    input exactly per output, with any rounding residue assigned to the
    largest pair.
    """
    from chainsentry.errors import DataError

    if not tx.inputs:
        raise DataError(f"cannot expand coinbase transaction {tx.tx_id}")
    in_agg: dict[str, int] = {}
    for inp in tx.inputs:
        in_agg[inp.src] = in_agg.get(inp.src, 0) + inp.amount
    out_agg: dict[str, int] = {}
    for out in tx.outputs:
        out_agg[out.addr] = out_agg.get(out.addr, 0) + out.amount
    total_in = sum(in_agg.values())
    degenerate = total_in == 0
    srcs = list(in_agg.items())
    if degenerate:
        proportions = [1.0 / len(srcs)] * len(srcs)
    else:
        proportions = [amount / total_in for _, amount in srcs]
    pairs = []
    for addr in out_agg:
        allocs = [round(p * total_in) for p in proportions]
        residue = total_in - sum(allocs)
        if residue:
            largest = max(range(len(srcs)), key=lambda k: (proportions[k], -k))
            allocs[largest] += residue
        for (src, _), prop, alloc in zip(srcs, proportions, allocs):
            pairs.append(TransactionPair(tx.tx_id, src, addr, prop, alloc, degenerate))
    return pairs


class ReferenceForwardTrace:
    """Forward paths of one anchor, brought up to date by re-scanning every
    path's children on each ``extend`` (no quiet call is skipped).

    Paths are (tx ids, cumulative scores) pairs.  The frontier cap follows the
    library's incremental rule: each call keeps, per level, the ``cap`` new
    hops with the highest score (ties by tx ids), and a hop that was cut is
    never offered again.  Without a cut the paths equal a fresh build.
    """

    def __init__(self, store, seed_tx, threshold, max_span, cap, t_now):
        self.store = store
        self.threshold = threshold
        self.max_span = max_span
        self.cap = cap
        self.anchor_time = store.tx(seed_tx).timestamp
        self.paths = [((seed_tx,), (1.0,))]
        self.offered = {(seed_tx,)}
        self.truncated = False
        self.t_seen = self.anchor_time - 1
        self.extend(t_now)

    def extend(self, t_now):
        store = self.store
        t_prev, self.t_seen = self.t_seen, t_now
        added = []
        frontier = list(self.paths)
        fresh = False
        while frontier:
            found = []
            for txs, scores in frontier:
                total_out = total_output(store.tx(txs[-1]))
                spenders = children(store, txs[-1])
                for child, amount in spenders:
                    ct = store.tx(child).timestamp
                    if ct > t_now or (not fresh and ct <= t_prev):
                        continue
                    prop = (amount / total_out) if total_out else (1.0 / max(1, len(spenders)))
                    s = scores[-1] * prop
                    key = txs + (child,)
                    if (s >= self.threshold and ct - self.anchor_time <= self.max_span
                            and key not in self.offered):
                        self.offered.add(key)
                        found.append((key, scores + (s,)))
            if len(found) > self.cap:
                found = sorted(found, key=lambda p: (-p[1][-1], p[0]))[:self.cap]
                self.truncated = True
            self.paths += found
            added += found
            frontier = found
            fresh = True
        return added


def pathset_as_dict(pathset):
    return {p.key: tuple(h[1] for h in p.hops) for p in pathset.paths}


def naive_change_ratio(f_curr, f_prev, delta):
    n, m = f_curr.shape
    total = 0.0
    for i in range(n):
        for j in range(m):
            total += (f_curr[i, j] - f_prev[i, j]) / (f_prev[i, j] + delta)
    return total / (n * m)


def naive_aggregate(rows):
    """Two-pass mean/extrema/population-std per column, plus leading count."""
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return np.zeros(1 + 4 * 12)
    out = [float(rows.shape[0])]
    for j in range(rows.shape[1]):
        col = rows[:, j]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        out.extend([mean, max(col), min(col), var ** 0.5])
    return np.array(out)


def reference_aggregate(rows):
    """One path set's 49 values as numpy's own sum, max, min and two-pass
    population std give them; the library's prefix aggregate must match it
    to the bit."""
    out = np.zeros(1 + 4 * 12)
    n = rows.shape[0]
    if n == 0:
        return out
    mean = rows.sum(axis=0) / n
    stats = np.empty((12, 4))
    stats[:, 0] = mean
    stats[:, 1] = rows.max(axis=0)
    stats[:, 2] = rows.min(axis=0)
    stats[:, 3] = np.sqrt(((rows - mean) ** 2).sum(axis=0) / n)
    out[0] = n
    out[1:] = stats.reshape(-1)
    return out


def reference_feature_timeline(store, address, hours=24, params=None):
    """The hourly feature matrix by the plain loop: every hour, take in the
    newly visible anchors, extend every forward trace and aggregate every
    set from its rows so far.

    The library skips the hours in which nothing becomes visible, extends
    only the traces whose next hop is due and aggregates each set once; its
    rows must arrive in the same order as here.  Path building, path rows
    and address features are the library's own.
    """
    from chainsentry.features import (FULL_SCHEMA, PATH_SET_NAMES, _AddressEvents,
                                      address_features, path_feature_row)
    from chainsentry.paths import ForwardTrace, PathParams, backward_paths

    params = params or PathParams()
    events = _AddressEvents.collect(store, address)
    cutoffs = [events.creation + HOUR * t for t in range(1, hours + 1)]
    rows = {name: [] for name in PATH_SET_NAMES}
    truncated = {name: False for name in PATH_SET_NAMES}
    traces = {"lt_fr": [], "st_fr": []}
    recv_ids, spend_ids = store.receive_txs(address), store.spend_txs(address)
    seen_recv = seen_spend = 0
    matrix = np.zeros((hours, len(FULL_SCHEMA)))
    matrix[:, :16] = address_features(events, np.array(cutoffs))
    for t, cutoff in enumerate(cutoffs):
        while seen_recv < len(recv_ids) and store.tx(recv_ids[seen_recv]).timestamp <= cutoff:
            for horizon, name in (("LT", "lt_bk"), ("ST", "st_bk")):
                ps = backward_paths(store, recv_ids[seen_recv], params.config(horizon, "BK"))
                rows[name] += [path_feature_row(store, p) for p in ps.paths]
                truncated[name] |= ps.truncated
            seen_recv += 1
        while seen_spend < len(spend_ids) and store.tx(spend_ids[seen_spend]).timestamp <= cutoff:
            for horizon, name in (("LT", "lt_fr"), ("ST", "st_fr")):
                trace = ForwardTrace.build(store, spend_ids[seen_spend],
                                           params.config(horizon, "FR"), cutoff)
                traces[name].append(trace)
                rows[name] += [path_feature_row(store, p) for p in trace.paths]
                truncated[name] |= trace.truncated
            seen_spend += 1
        for name, fr in traces.items():
            for trace in fr:
                rows[name] += [path_feature_row(store, p) for p in trace.extend(store, cutoff)]
                truncated[name] |= trace.truncated
        for k, name in enumerate(PATH_SET_NAMES):
            lo = 16 + 49 * k
            matrix[t, lo:lo + 49] = reference_aggregate(
                np.array(rows[name], dtype=np.float64).reshape(-1, 12))
    return matrix, any(truncated.values())


class NaiveBooster:
    """Line-for-line second-order logistic boosting with plain loops."""

    def __init__(self, n_rounds, max_depth, learning_rate, reg_lambda,
                 min_samples_leaf=1, pos_weight=1.0, base_score=0.0):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.min_samples_leaf = min_samples_leaf
        self.pos_weight = pos_weight
        self.base_score = base_score
        self.trees = []

    @staticmethod
    def _sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def _build(self, X, g, h, counts, idx, depth):
        G = sum(g[i] for i in idx)
        H = sum(h[i] for i in idx)
        node = {"value": -G / (H + self.reg_lambda), "feature": None}
        n_here = sum(counts[i] for i in idx)
        if depth >= self.max_depth or n_here < 2 * self.min_samples_leaf:
            return node
        parent = G * G / (H + self.reg_lambda)
        best_gain, best = 1e-12, None
        for f in range(X.shape[1]):
            values = sorted(set(X[i, f] for i in idx))
            for a, b in zip(values[:-1], values[1:]):
                thr = (a + b) / 2.0
                if not a <= thr < b:
                    thr = a
                left = [i for i in idx if X[i, f] <= thr]
                right = [i for i in idx if X[i, f] > thr]
                nl = sum(counts[i] for i in left)
                nr = sum(counts[i] for i in right)
                if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
                    continue
                GL = sum(g[i] for i in left)
                HL = sum(h[i] for i in left)
                GR, HR = G - GL, H - HL
                gain = (GL * GL / (HL + self.reg_lambda)
                        + GR * GR / (HR + self.reg_lambda) - parent)
                if gain > best_gain:
                    best_gain, best = gain, (f, thr, left, right)
        if best is None:
            return node
        f, thr, left, right = best
        node["feature"] = f
        node["threshold"] = thr
        node["left"] = self._build(X, g, h, counts, left, depth + 1)
        node["right"] = self._build(X, g, h, counts, right, depth + 1)
        return node

    @staticmethod
    def _tree_predict(node, x):
        while node["feature"] is not None:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["value"]

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        rows = [tuple(list(X[i]) + [y[i]]) for i in range(len(y))]
        uniq = sorted(set(rows))
        counts = [float(rows.count(u)) for u in uniq]
        Xu = np.array([u[:-1] for u in uniq])
        yu = np.array([u[-1] for u in uniq])
        w = [c * (self.pos_weight if t == 1 else 1.0) for c, t in zip(counts, yu)]
        mean_w = sum(w) / len(w)
        w = [wi / mean_w for wi in w]
        margin = np.full(len(uniq), self.base_score)
        for _ in range(self.n_rounds):
            p = self._sigmoid(margin)
            g = np.array([wi * (pi - ti) for wi, pi, ti in zip(w, p, yu)])
            h = np.array([wi * pi * (1 - pi) for wi, pi in zip(w, p)])
            tree = self._build(Xu, g, h, counts, list(range(len(uniq))), 0)
            self.trees.append(tree)
            margin = margin + self.learning_rate * np.array(
                [self._tree_predict(tree, x) for x in Xu])
        return self

    def predict_proba1(self, X):
        X = np.asarray(X, dtype=float)
        margin = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            margin = margin + self.learning_rate * np.array(
                [self._tree_predict(tree, x) for x in X])
        return self._sigmoid(margin)



# -- per-node argsort tree growth ---------------------------------------------
# The tree learners as they were before the shared presorted kernel: every
# node sorts each of its columns with its own stable argsort.  The kernel
# must reproduce these trees bit for bit, not just to a tolerance.

@dataclass
class RefNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    n: int = 0
    counts: np.ndarray | None = None
    value: float = 0.0


def _ref_link(nodes, parent, is_right):
    node_id = len(nodes)
    node = RefNode()
    nodes.append(node)
    if parent >= 0:
        if is_right:
            nodes[parent].right = node_id
        else:
            nodes[parent].left = node_id
    return node_id, node



def node_bits(nodes):
    """Each node's links, row count and exact float bits, for comparing
    trees node for node."""
    return [(nd.feature, float(nd.threshold).hex(), nd.left, nd.right, nd.n,
             None if nd.counts is None else nd.counts.tobytes(),
             float(nd.value).hex()) for nd in nodes]

def reference_cart(X, y, max_depth, min_samples_leaf, random_state):
    """Gini CART growth; returns (classes, nodes, feature importances)."""
    X = np.asarray(X, dtype=np.float64)
    classes, y_enc = np.unique(y, return_inverse=True)
    n, d = X.shape
    feature_order = np.random.default_rng(random_state).permutation(d)
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), y_enc] = 1.0
    nodes, raw = [], np.zeros(d)
    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node_id, node = _ref_link(nodes, parent, is_right)
        counts = onehot[idx].sum(axis=0)
        total = idx.size
        p = counts / total if total else counts
        impurity = 1.0 - float(np.sum(p * p)) if total else 0.0
        node.n, node.counts = total, counts
        if (depth >= max_depth or total < 2 * min_samples_leaf
                or impurity <= 0.0):
            continue
        best_gain, best = 0.0, None
        for f in feature_order:
            vals = X[idx, f]
            order = np.argsort(vals, kind="stable")
            v = vals[order]
            if v[0] == v[-1]:
                continue
            left_counts = np.cumsum(onehot[idx[order]], axis=0)[:-1]
            n_left = np.arange(1, total)
            n_right = total - n_left
            valid = ((v[1:] != v[:-1]) & (n_left >= min_samples_leaf)
                     & (n_right >= min_samples_leaf))
            if not valid.any():
                continue
            right_counts = counts[None, :] - left_counts
            gl = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
            gr = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
            gain = impurity - (n_left * gl + n_right * gr) / total
            gain[~valid] = -np.inf
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain + 1e-15:
                best_gain = float(gain[pos])
                thr = float((v[pos] + v[pos + 1]) / 2.0)
                best = (int(f), thr if v[pos] <= thr < v[pos + 1] else float(v[pos]))
        if best is None:
            continue
        node.feature, node.threshold = best
        raw[node.feature] += total * best_gain / n
        mask = X[idx, node.feature] <= node.threshold
        stack.append((idx[~mask], depth + 1, node_id, True))
        stack.append((idx[mask], depth + 1, node_id, False))
    s = raw.sum()
    return classes, nodes, (raw / s if s > 0 else raw.copy())


def reference_newton_tree(X, g, h, counts, max_depth, min_samples_leaf,
                          reg_lambda):
    """One boosting round's tree over (g, h) with row multiplicities."""
    nodes = []
    stack = [(np.arange(X.shape[0]), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node_id, node = _ref_link(nodes, parent, is_right)
        G = g[idx].sum()
        H = h[idx].sum()
        node.value = -G / (H + reg_lambda)
        node.n = idx.size
        n_here = counts[idx].sum()
        if depth >= max_depth or n_here < 2 * min_samples_leaf:
            continue
        parent_score = G * G / (H + reg_lambda)
        best_gain, best = 1e-12, None
        for f in range(X.shape[1]):
            vals = X[idx, f]
            order = np.argsort(vals, kind="stable")
            v = vals[order]
            if v[0] == v[-1]:
                continue
            gl = np.cumsum(g[idx[order]])[:-1]
            hl = np.cumsum(h[idx[order]])[:-1]
            nl = np.cumsum(counts[idx[order]])[:-1]
            valid = ((v[1:] != v[:-1]) & (nl >= min_samples_leaf)
                     & (n_here - nl >= min_samples_leaf))
            if not valid.any():
                continue
            gr = G - gl
            hr = H - hl
            gain = (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda)
                    - parent_score)
            gain[~valid] = -np.inf
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                thr = float((v[pos] + v[pos + 1]) / 2.0)
                best = (f, thr if v[pos] <= thr < v[pos + 1] else float(v[pos]))
        if best is None:
            continue
        node.feature, node.threshold = best
        mask = X[idx, node.feature] <= node.threshold
        stack.append((idx[~mask], depth + 1, node_id, True))
        stack.append((idx[mask], depth + 1, node_id, False))
    return nodes


def _ref_tree_values(nodes, X):
    out = np.zeros(X.shape[0])
    for i, x in enumerate(X):
        node = nodes[0]
        while node.feature >= 0:
            node = nodes[node.left if x[node.feature] <= node.threshold
                         else node.right]
        out[i] = node.value
    return out


def reference_boosted_trees(X, y, n_rounds, max_depth, learning_rate,
                            reg_lambda, min_samples_leaf, pos_weight):
    """The trees of a boosting fit from ``reference_newton_tree``, grouping
    identical (row, label) pairs into multiplicities as the booster does."""
    rows = np.hstack([np.asarray(X, dtype=np.float64),
                      np.asarray(y, dtype=np.float64)[:, None]])
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    Xu, yu = uniq[:, :-1], uniq[:, -1]
    w = counts.astype(np.float64) * np.where(yu == 1, pos_weight, 1.0)
    w = w / w.mean()
    cnt = counts.astype(np.float64)
    margin = np.zeros(Xu.shape[0])
    trees = []
    for _ in range(n_rounds):
        p = _ref_sigmoid(margin)
        nodes = reference_newton_tree(Xu, w * (p - yu), w * p * (1.0 - p), cnt,
                                      max_depth, min_samples_leaf, reg_lambda)
        trees.append(nodes)
        margin = margin + learning_rate * _ref_tree_values(nodes, Xu)
    return trees

def _ref_hourly_peak(times, creation_bucket):
    """(max per-bucket count, offset of the earliest peak bucket from creation)."""
    if times.size == 0:
        return 0.0, 0.0
    buckets = times // HOUR - creation_bucket
    counts = np.bincount(buckets.astype(np.int64))
    peak = int(counts.max())
    return float(peak), float(int(np.argmax(counts)))


def reference_address_features(events, t_now):
    """The 16 address features at one cutoff, recounted from the events seen
    so far with ``bincount`` and ``unique``."""
    nr = bisect_right(events.recv_t, t_now)
    ns = bisect_right(events.spend_t, t_now)
    recv_t = events.recv_t[:nr]
    spend_t = events.spend_t[:ns]
    recv_amt = events.recv_amt[:nr]
    spend_amt = events.spend_amt[:ns]

    balance = float(recv_amt.sum() - spend_amt.sum())
    recent_lo = t_now - HOUR
    nr_recent = nr - bisect_left(recv_t, recent_lo)
    ns_recent = ns - bisect_left(spend_t, recent_lo)
    ratio_total = ns / nr if nr else 0.0
    ratio_recent = ns_recent / nr_recent if nr_recent else 0.0

    creation_bucket = events.creation // HOUR
    max_spend, peak_spend = _ref_hourly_peak(spend_t, creation_bucket)
    max_recv, peak_recv = _ref_hourly_peak(recv_t, creation_bucket)
    zero_spend = float(np.count_nonzero(spend_amt == 0))
    zero_recv = float(np.count_nonzero(recv_amt == 0))

    all_buckets = np.concatenate([recv_t // HOUR, spend_t // HOUR])
    active_hours = float(np.unique(all_buckets).size) if all_buckets.size else 0.0
    hours_elapsed = (t_now - events.creation) // HOUR + 1
    active_rate = active_hours / hours_elapsed if hours_elapsed > 0 else 0.0

    return np.array(
        [
            balance,
            float(ns), float(nr),
            float(ns_recent), float(nr_recent),
            ratio_total, ratio_recent,
            max_spend, max_recv,
            zero_spend, zero_recv,
            peak_spend, peak_recv,
            peak_spend - peak_recv,
            active_hours, active_rate,
        ],
        dtype=np.float64,
    )


def reference_indexes(records):
    """The transaction store's indexes, built as two separate passes.

    First occurrence wins on duplicate txids.  The first pass aggregates
    every transaction's inputs by source and outputs by address, and gives
    each address what it received; the second resolves each aggregated
    input's source, rescanning the spender's inputs for an explicit owner
    before falling back to the first source output with the same amount,
    and gives each owner the sum of the inputs it owned.  Returns every index
    as a dict in insertion order (a spender's distinct owners enter the spend
    index in input order), plus the warnings and the boundary-input count
    the build reports.  An address's ``receives`` and ``spends`` are flat
    ``tx, amount, ...`` tuples, as in the store; ``agg_out`` and ``owners``
    are per transaction and have no counterpart in the store.
    """
    txs = {}
    warnings = []
    for rec in records:
        if rec.tx_id in txs:
            warnings.append(f"duplicate txid {rec.tx_id} dropped")
            continue
        txs[rec.tx_id] = rec
    order = sorted(txs, key=lambda t: (txs[t].timestamp, t))
    agg_in, agg_out, owners_index, children, recv, spend = {}, {}, {}, {}, {}, {}
    for tx_id in order:
        in_agg, out_agg = {}, {}
        for inp in txs[tx_id].inputs:
            in_agg[inp.src] = in_agg.get(inp.src, 0) + inp.amount
        for out in txs[tx_id].outputs:
            out_agg[out.addr] = out_agg.get(out.addr, 0) + out.amount
        agg_in[tx_id] = tuple(in_agg.items())
        agg_out[tx_id] = tuple(out_agg.items())
        for addr, amount in out_agg.items():
            recv.setdefault(addr, []).append((tx_id, amount))

    def explicit_owner(rec, src):
        for inp in rec.inputs:
            if inp.src == src and inp.owner is not None:
                return inp.owner
        return None

    boundary = 0
    for tx_id in order:
        rec = txs[tx_id]
        owners = []
        for src, amount in agg_in[tx_id]:
            src_rec = txs.get(src)
            if src_rec is None or src_rec.timestamp > rec.timestamp:
                boundary += 1
                if src_rec is not None:
                    warnings.append(
                        f"{tx_id}: input {src} is later than spender; treated as boundary")
                owners.append(explicit_owner(rec, src))
                continue
            children.setdefault(src, []).append((tx_id, amount))
            owner = explicit_owner(rec, src)
            if owner is None:
                owner = next((o.addr for o in src_rec.outputs if o.amount == amount), None)
            owners.append(owner)
        owners_index[tx_id] = tuple(owners)
        for owner in dict.fromkeys(o for o in owners if o is not None):
            spend.setdefault(owner, []).append((tx_id, sum(
                amount for (_, amount), o in zip(agg_in[tx_id], owners) if o == owner)))

    def flat(history):
        return {a: tuple(x for event in events for x in event) for a, events in history.items()}

    return {
        "txs": txs, "agg_in": agg_in, "agg_out": agg_out, "owners": owners_index,
        "children": children, "receives": flat(recv), "spends": flat(spend),
        "warnings": warnings, "boundary_inputs": boundary,
    }


def random_dag_records(rng, n_tx_max=50, days=6, owned=False):
    """A random ancestry DAG of transactions for path-oracle checks, stamped
    over ``days``.  With ``owned``, every input names the first output address
    of the transaction it spends as its owner, so addresses spend too."""
    from chainsentry.chain import TransactionRecord, TxInput, TxOutput

    n = int(rng.integers(2, n_tx_max + 1))
    base = 1_500_000_000
    records = []
    times = np.sort(rng.integers(0, days * 86400, size=n))
    for i in range(n):
        tx_id = f"d{i:04d}"
        n_parents = int(rng.integers(0, min(i, 4) + 1)) if i else 0
        inputs = []
        if n_parents:
            parents = rng.choice(i, size=n_parents, replace=False)
            for p in parents:
                amount = int(rng.integers(0, 1000))
                inputs.append(TxInput(f"d{p:04d}", amount, f"a{p}_0" if owned else None))
        outputs = [TxOutput(f"a{i}_{k}", int(rng.integers(0, 800)))
                   for k in range(int(rng.integers(1, 4)))]
        records.append(TransactionRecord(tx_id, int(base + times[i]),
                                         tuple(inputs), tuple(outputs)))
    return records


def bulk_chain_records(n_transactions, seed=0):
    """A minimal high-volume universe: independent 2-hop spend chains, with
    an exact transaction count."""
    from chainsentry.chain import TransactionRecord, TxInput, TxOutput

    rng = np.random.default_rng(seed)
    records = []
    counter = 0
    when = 1_600_000_000
    while len(records) < n_transactions:
        counter += 1
        addr = f"bulk_{counter:07d}"
        amount = int(rng.integers(1, 1000)) * 1000
        when += int(rng.integers(1, 30))
        cb = TransactionRecord(f"bc{counter:08d}", when, (), (TxOutput(addr, amount),))
        records.append(cb)
        if len(records) >= n_transactions:
            break
        records.append(TransactionRecord(
            f"bs{counter:08d}", when + int(rng.integers(5, 120)),
            (TxInput(cb.tx_id, amount, addr),),
            (TxOutput(f"{addr}_to", amount),),
        ))
    return records[:n_transactions]


# -- intention network: the per-step reference ---------------------------------
#
# One timestep at a time and one LSTM branch at a time, with every per-step
# intermediate kept in ``steps``.  The library computes the same network with
# the non-recurrent layers over all steps at once and the three branch LSTMs
# stacked; tests compare the two to a relative tolerance, because the
# batched GEMMs and sums accumulate in another order.

_BRANCHES = ("f", "s", "a")


def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_intention_index(z):
    bits = (np.asarray(z) < 0).astype(np.int64)
    return 1 + bits @ (2 ** np.arange(bits.shape[-1], dtype=np.int64))


def _ref_lstm_forward(params, br, inp, h_prev, c_prev, d_h):
    pre = inp @ params[f"lstm_{br}_W"].T + h_prev @ params[f"lstm_{br}_U"].T \
        + params[f"lstm_{br}_b"]
    i = _ref_sigmoid(pre[:, :d_h])
    f = _ref_sigmoid(pre[:, d_h:2 * d_h])
    o = _ref_sigmoid(pre[:, 2 * d_h:3 * d_h])
    g = np.tanh(pre[:, 3 * d_h:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return {"inp": inp, "h_prev": h_prev, "c_prev": c_prev, "i": i, "f": f,
            "o": o, "g": g, "c": c, "tc": tc, "h": h}


def _ref_lstm_backward(params, grads, br, cache, gh, gc_in):
    i, f, o, g, tc = cache["i"], cache["f"], cache["o"], cache["g"], cache["tc"]
    gc = gc_in + gh * o * (1.0 - tc * tc)
    go = gh * tc
    gf = gc * cache["c_prev"]
    gi = gc * g
    gg = gc * i
    gc_prev = gc * f
    gpre = np.concatenate(
        [gi * i * (1 - i), gf * f * (1 - f), go * o * (1 - o), gg * (1 - g * g)],
        axis=1,
    )
    grads[f"lstm_{br}_W"] += gpre.T @ cache["inp"]
    grads[f"lstm_{br}_U"] += gpre.T @ cache["h_prev"]
    grads[f"lstm_{br}_b"] += gpre.sum(axis=0)
    ginp = gpre @ params[f"lstm_{br}_W"]
    gh_prev = gpre @ params[f"lstm_{br}_U"]
    return ginp, gh_prev, gc_prev


class ReferenceForward:
    """Per-step caches plus the (B, T) outputs of the reference pass."""

    def __init__(self, B, T, d_z):
        self.steps = []
        self.y = np.zeros((B, T))
        self.p_hat = np.zeros((B, T))
        self.survival = np.zeros((B, T))
        self.hazard = np.zeros((B, T))
        self.alphas = np.zeros((B, T, 3))
        self.z = np.zeros((B, T, d_z))
        self.intention_idx = np.zeros((B, T), dtype=np.int64)


def reference_forward_pass(params, batch, dims, noise=None):
    """The network one step at a time; ``noise`` is (T, B, d_z) or None."""
    B, T = batch.n_addresses, batch.n_steps
    d_h, d_z = dims.d_h, dims.d_z
    fw = ReferenceForward(B, T, d_z)
    h = {br: np.zeros((B, d_h)) for br in _BRANCHES}
    c = {br: np.zeros((B, d_h)) for br in _BRANCHES}
    Lam = np.zeros(B)
    p_hat_prev = np.full(B, 0.5)

    for t in range(T):
        sidx = batch.status_idx[:, t]
        aidx = batch.action_idx[:, t]
        u = np.concatenate([params["emb_s"][sidx], params["emb_a"][aidx]], axis=1)
        x = np.tanh(u @ params["enc_W"].T + params["enc_b"])
        mu = x @ params["mu_W"].T + params["mu_b"]
        sg = x @ params["sg_W"].T + params["sg_b"]
        e = noise[t] if noise is not None else np.zeros((B, d_z))
        z = mu + np.exp(sg) * e
        dh = np.tanh(z @ params["dec_W1"].T + params["dec_b1"])
        xh = dh @ params["dec_W2"].T + params["dec_b2"]
        iidx = _ref_intention_index(z)
        if dims.use_idx:
            zeff = np.concatenate([z, params["emb_i"][iidx - 1]], axis=1)
        else:
            zeff = z

        f_t = batch.features[:, t, :]
        sv = batch.status_vec[:, t, :]
        av = batch.action_vec[:, t, :]
        lstm_in = {"f": np.concatenate([zeff, f_t], axis=1),
                   "s": np.concatenate([zeff, sv], axis=1),
                   "a": np.concatenate([zeff, av], axis=1)}
        lstm = {}
        for br in _BRANCHES:
            lstm[br] = _ref_lstm_forward(params, br, lstm_in[br], h[br], c[br], d_h)
            h[br] = lstm[br]["h"]
            c[br] = lstm[br]["c"]

        haz_pre = np.stack(
            [lstm[br]["h"] @ params["haz_w"][k] + params["haz_b"][k]
             for k, br in enumerate(_BRANCHES)], axis=1)
        lam = np.logaddexp(0.0, haz_pre).sum(axis=1)
        Lam = Lam + lam
        S = np.exp(-Lam)

        att_in = {"s": np.concatenate([f_t, sv], axis=1),
                  "a": np.concatenate([f_t, av], axis=1),
                  "i": np.concatenate([f_t, zeff], axis=1)}
        q = {}
        a_scores = np.zeros((B, 3))
        for k, br in enumerate(("s", "a", "i")):
            q[br] = np.tanh(att_in[br] @ params[f"att_w_{br}"].T)
            a_scores[:, k] = q[br] @ params["att_v"]
        expa = np.exp(a_scores - a_scores.max(axis=1, keepdims=True))
        alpha = expa / expa.sum(axis=1, keepdims=True)

        y = alpha[:, 0] * batch.p_status[:, t] + alpha[:, 1] * batch.p_action[:, t] \
            + alpha[:, 2] * (1.0 - S)
        p_hat = S * y + (1.0 - S) * p_hat_prev

        fw.steps.append(dict(u=u, x=x, mu=mu, sg=sg, e=e, z=z, dh=dh, xh=xh,
                             iidx=iidx, zeff=zeff, lstm=lstm, haz_pre=haz_pre,
                             S=S, att_in=att_in, q=q, alpha=alpha, y=y,
                             sidx=sidx, aidx=aidx))
        fw.y[:, t] = y
        fw.p_hat[:, t] = p_hat
        fw.survival[:, t] = S
        fw.hazard[:, t] = lam
        fw.alphas[:, t] = alpha
        fw.z[:, t] = z
        fw.intention_idx[:, t] = iidx
        p_hat_prev = p_hat
    return fw


def reference_loss_terms(batch, fw, config):
    """Per-term sqrt(t)-weighted sums, accumulated step by step."""
    labels = batch.labels.astype(np.float64)
    terms = {"pred": 0.0, "vae_kl": 0.0, "recon": 0.0, "consistency": 0.0,
             "consistency_01": 0.0, "earliness": 0.0}
    for t in range(batch.n_steps):
        w = np.sqrt(t + 1.0)
        step = fw.steps[t]
        y = step["y"]
        terms["pred"] += w * float(np.sum(
            -labels * np.log(y) - (1.0 - labels) * np.log(1.0 - y)))
        mu, sg = step["mu"], step["sg"]
        terms["vae_kl"] += w * float(np.sum(np.exp(sg) - (1.0 + sg) + mu * mu))
        diff = step["xh"] - step["u"]
        terms["recon"] += w * float(np.sum(diff * diff))
        if t > 0:
            v = -(y - 0.5) * (fw.steps[t - 1]["y"] - 0.5)
            terms["consistency"] += w * float(np.sum(np.maximum(v, 0.0)))
            terms["consistency_01"] += w * float(np.sum(v > 0.0))
        s_term = np.where(labels == 1, step["S"], -step["S"])
        terms["earliness"] += w * float(np.sum(s_term))
    terms["total"] = (terms["pred"]
                      + config.gamma_v * (terms["vae_kl"] + config.recon_weight * terms["recon"])
                      + config.gamma_c * terms["consistency"]
                      + config.gamma_e * terms["earliness"])
    return terms


def reference_loss_and_grads(params, batch, dims, config, noise=None):
    """(terms, grads, fw): gradients back-propagated one step at a time."""
    fw = reference_forward_pass(params, batch, dims, noise)
    terms = reference_loss_terms(batch, fw, config)
    B, T = batch.n_addresses, batch.n_steps
    d_h, d_z, d_e = dims.d_h, dims.d_z, dims.d_e
    labels = batch.labels.astype(np.float64)
    sign_e = np.where(labels == 1, 1.0, -1.0)

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    gh_next = {br: np.zeros((B, d_h)) for br in _BRANCHES}
    gc_next = {br: np.zeros((B, d_h)) for br in _BRANCHES}
    gLam_next = np.zeros(B)
    gy_from_next = np.zeros(B)

    for t in range(T - 1, -1, -1):
        w = np.sqrt(t + 1.0)
        step = fw.steps[t]
        y, S, alpha = step["y"], step["S"], step["alpha"]

        gy = w * (-labels / y + (1.0 - labels) / (1.0 - y)) + gy_from_next
        if t > 0:
            y_prev = fw.steps[t - 1]["y"]
            active = (-(y - 0.5) * (y_prev - 0.5)) > 0.0
            gy += w * config.gamma_c * active * (-(y_prev - 0.5))
            gy_from_next = w * config.gamma_c * active * (-(y - 0.5))
        else:
            gy_from_next = np.zeros(B)

        galpha = np.column_stack([gy * batch.p_status[:, t],
                                  gy * batch.p_action[:, t],
                                  gy * (1.0 - S)])
        gS = -gy * alpha[:, 2] + w * config.gamma_e * sign_e
        gLam = gS * (-S) + gLam_next
        glam = gLam
        gLam_next = gLam

        sig_h = _ref_sigmoid(step["haz_pre"])
        gh = {br: gh_next[br].copy() for br in _BRANCHES}
        for k, br in enumerate(_BRANCHES):
            gpre = glam * sig_h[:, k]
            grads["haz_w"][k] += gpre @ step["lstm"][br]["h"]
            grads["haz_b"][k] += gpre.sum()
            gh[br] += gpre[:, None] * params["haz_w"][k][None, :]

        row = (galpha * alpha).sum(axis=1, keepdims=True)
        ga = alpha * (galpha - row)
        gzeff = np.zeros((B, step["zeff"].shape[1]))
        for k, br in enumerate(("s", "a", "i")):
            q = step["q"][br]
            gq = ga[:, k][:, None] * params["att_v"][None, :]
            grads["att_v"] += (q * ga[:, k][:, None]).sum(axis=0)
            gqpre = gq * (1.0 - q * q)
            grads[f"att_w_{br}"] += gqpre.T @ step["att_in"][br]
            gcat = gqpre @ params[f"att_w_{br}"]
            if br == "i":
                gzeff += gcat[:, dims.d_f:]

        for br in _BRANCHES:
            ginp, gh_prev, gc_prev = _ref_lstm_backward(
                params, grads, br, step["lstm"][br], gh[br], gc_next[br])
            gzeff += ginp[:, :dims.z_eff]
            gh_next[br] = gh_prev
            gc_next[br] = gc_prev

        gz = gzeff[:, :d_z].copy()
        if dims.use_idx:
            np.add.at(grads["emb_i"], step["iidx"] - 1, gzeff[:, d_z:])

        coef_r = w * config.gamma_v * config.recon_weight
        gxh = coef_r * 2.0 * (step["xh"] - step["u"])
        gu = -gxh.copy()
        grads["dec_W2"] += gxh.T @ step["dh"]
        grads["dec_b2"] += gxh.sum(axis=0)
        gdec_pre = (gxh @ params["dec_W2"]) * (1.0 - step["dh"] ** 2)
        grads["dec_W1"] += gdec_pre.T @ step["z"]
        grads["dec_b1"] += gdec_pre.sum(axis=0)
        gz += gdec_pre @ params["dec_W1"]

        coef_kl = w * config.gamma_v
        gmu = coef_kl * 2.0 * step["mu"] + gz
        gsg = coef_kl * (np.exp(step["sg"]) - 1.0) + gz * np.exp(step["sg"]) * step["e"]
        gx = gmu @ params["mu_W"] + gsg @ params["sg_W"]
        grads["mu_W"] += gmu.T @ step["x"]
        grads["mu_b"] += gmu.sum(axis=0)
        grads["sg_W"] += gsg.T @ step["x"]
        grads["sg_b"] += gsg.sum(axis=0)

        genc_pre = gx * (1.0 - step["x"] ** 2)
        grads["enc_W"] += genc_pre.T @ step["u"]
        grads["enc_b"] += genc_pre.sum(axis=0)
        gu += genc_pre @ params["enc_W"]

        np.add.at(grads["emb_s"], step["sidx"], gu[:, :d_e])
        np.add.at(grads["emb_a"], step["aidx"], gu[:, d_e:])

    return terms, grads, fw
