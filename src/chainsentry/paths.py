"""Asset-transfer paths: BK/FR path construction.

A path is a chain of (previous tx, cumulative activation score, tx) hops
anchored at one of an address's receive transactions (backward tracing, BK)
or spend transactions (forward tracing, FR).  Expansion is a breadth-first
frontier walk: a hop survives only while the running product of per-hop
amount proportions stays at or above the activation threshold and the hop's
timestamp stays within the configured span of the anchor.  Every frontier
state is retained, so the returned set is closed under prefixes.

Long-term (LT) tracing uses a high threshold over a wide window to find the
dominant source or destination of funds; short-term (ST) tracing uses a low
threshold over a narrow window to expose local transfer structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chain import TxStore
from .errors import DataError

DAY = 86400.0

LT_THRESHOLD = 0.5
LT_SPAN = 7 * DAY
ST_THRESHOLD = 0.01
ST_SPAN = 1 * DAY

DIRECTIONS = ("BK", "FR")
HORIZONS = ("LT", "ST")
SET_NAMES = ("lt_bk", "st_bk", "lt_fr", "st_fr")


@dataclass(frozen=True, slots=True)
class PathConfig:
    direction: str
    horizon: str
    threshold: float
    max_span: float
    max_paths_per_set: int = 10_000

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise DataError(f"direction must be BK or FR, got {self.direction!r}")
        if self.horizon not in HORIZONS:
            raise DataError(f"horizon must be LT or ST, got {self.horizon!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise DataError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.max_span <= 0:
            raise DataError("max_span must be positive")
        if self.max_paths_per_set < 1:
            raise DataError("max_paths_per_set must be >= 1")


@dataclass(frozen=True, slots=True)
class AssetTransferPath:
    """Hops are (prev tx id or None, cumulative score, tx id); hops[0] is the
    anchor.  Store ids sort like txids, so keys sort like their names."""

    hops: tuple[tuple[int | None, float, int], ...]
    direction: str
    horizon: str

    @property
    def anchor_tx(self) -> int:
        return self.hops[0][2]

    @property
    def tip_tx(self) -> int:
        return self.hops[-1][2]

    @property
    def score(self) -> float:
        return self.hops[-1][1]

    @property
    def hop_length(self) -> int:
        return len(self.hops) - 1

    @property
    def key(self) -> tuple[int, ...]:
        return tuple([h[2] for h in self.hops])

    def extended(self, score: float, tx: int) -> "AssetTransferPath":
        return AssetTransferPath(
            self.hops + ((self.tip_tx, score, tx),), self.direction, self.horizon
        )


@dataclass(slots=True)
class PathSet:
    paths: list[AssetTransferPath]
    direction: str
    horizon: str
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.paths)

    def keys(self):
        return {p.key for p in self.paths}


def _backward_expansions(store: TxStore, path: AssetTransferPath, config: PathConfig,
                         anchor_time: int):
    """Every admissible hop from the path's tip to a source, as (score, source,
    source time)."""
    tip = path.tip_tx
    lo, hi = store.agg_ptr[tip], store.agg_ptr[tip + 1]
    if lo == hi:
        return
    total_in = store.stats[4 * tip]
    n = hi - lo
    time = store.time
    n_tx, tip_time = len(time), time[tip]
    for src, amount in zip(store.agg_src[lo:hi].tolist(), store.agg_amt[lo:hi].tolist()):
        # A source outside the store (an id past its end) or later than the
        # tip is an external boundary: tracing stops here.
        src_time = time[src] if src < n_tx else math.inf
        if src_time > tip_time:
            continue
        prop = (amount / total_in) if total_in else (1.0 / n)
        score = path.score * prop
        if score >= config.threshold and anchor_time - src_time <= config.max_span:
            yield score, src, src_time


def _forward_expansions(store: TxStore, path: AssetTransferPath, config: PathConfig,
                        anchor_time: int):
    """Every admissible hop from the path's tip as (score, child, child time),
    whether or not the child is visible yet."""
    tip = path.tip_tx
    total_out = store.stats[4 * tip + 1]
    lo, hi = store.child_ptr[tip], store.child_ptr[tip + 1]
    n = max(1, hi - lo)
    time = store.time
    for child, amount in zip(store.child_tx[lo:hi].tolist(), store.child_amt[lo:hi].tolist()):
        child_time = time[child]
        prop = (amount / total_out) if total_out else (1.0 / n)
        score = path.score * prop
        if score >= config.threshold and child_time - anchor_time <= config.max_span:
            yield score, child, child_time


def _prune_frontier(frontier: list[AssetTransferPath], cap: int):
    if len(frontier) <= cap:
        return frontier, False
    frontier.sort(key=lambda p: (-p.score, p.key))
    return frontier[:cap], True


def _walk(store: TxStore, frontier: list[AssetTransferPath], config: PathConfig,
          anchor_time: int, keys: set, t_prev: float = -math.inf, t_now: float = math.inf):
    """The breadth-first frontier walk both directions share.

    Hops stamped after ``t_now`` are hidden; the earliest of them is
    returned as the next hop.  The first frontier holds old paths, which
    only grow through hops stamped after ``t_prev``; paths found by the walk
    expand in full.  A path whose key is in ``keys`` is dropped, and each
    new frontier is pruned to the cap.  Returns (new paths, cut, next hop).
    """
    # Looked up at call time, so a wrapper set on the module is the one run.
    expansions = _backward_expansions if config.direction == "BK" else _forward_expansions
    added: list[AssetTransferPath] = []
    truncated = False
    next_hop = math.inf
    while frontier:
        nxt: list[AssetTransferPath] = []
        for path in frontier:
            for score, tx, tx_time in expansions(store, path, config, anchor_time):
                if tx_time > t_now:
                    next_hop = min(next_hop, tx_time)
                    continue
                if tx_time <= t_prev:
                    continue  # already explored from this path
                ext = path.extended(score, tx)
                if ext.key not in keys:
                    keys.add(ext.key)
                    nxt.append(ext)
        nxt, cut = _prune_frontier(nxt, config.max_paths_per_set)
        truncated = truncated or cut
        added.extend(nxt)
        frontier = nxt
        t_prev = -math.inf
    return added, truncated, next_hop


def backward_paths(store: TxStore, seed_tx: int, config: PathConfig) -> PathSet:
    """Frontier walk over influence pairs from a receive transaction: a hop
    to a source scores that source's share of the tip's input total.

    Returns all frontier states (the seed plus every accepted prefix),
    deduplicated by hop sequence.  Frontiers larger than the configured cap
    are pruned deterministically (highest score first, ties by hop sequence)
    and the result is flagged truncated.
    """
    if config.direction != "BK":
        raise DataError("backward_paths requires a BK config")
    seed = AssetTransferPath(((None, 1.0, seed_tx),), config.direction, config.horizon)
    added, truncated, _ = _walk(store, [seed], config, store.time[seed_tx], {seed.key})
    return PathSet([seed, *added], config.direction, config.horizon, truncated)


def forward_paths(store: TxStore, seed_tx: int, config: PathConfig, t_now: int) -> PathSet:
    """Forward mirror of :func:`backward_paths`: a hop to a spending child
    scores the child's drawn amount over the tip's output total.

    The effective span is the smaller of the configured span and the time
    elapsed since the seed (future data cannot be observed).
    """
    if config.direction != "FR":
        raise DataError("forward_paths requires an FR config")
    trace = ForwardTrace.build(store, seed_tx, config, t_now)
    return trace.pathset()


@dataclass(slots=True)
class ForwardTrace:
    """Incremental forward-path state for one anchor.

    ``extend`` brings the trace up to a later observation time and returns
    the newly added paths; unless the frontier cap cut paths, the accumulated
    set equals a fresh build at the current time.  The trace keeps the
    earliest time after ``t_seen`` at which any path could take an admissible
    hop, so an ``extend`` before that time returns at once.
    """

    anchor_tx: int
    config: PathConfig
    t_seen: int
    paths: list[AssetTransferPath] = field(default_factory=list)
    truncated: bool = False
    _keys: set = field(default_factory=set)
    _next_hop: float = -math.inf

    @classmethod
    def build(cls, store: TxStore, seed_tx: int, config: PathConfig, t_now: int):
        if config.direction != "FR":
            raise DataError("ForwardTrace requires an FR config")
        anchor_time = store.time[seed_tx]
        seed = AssetTransferPath(((None, 1.0, seed_tx),), config.direction, config.horizon)
        trace = cls(seed_tx, config, anchor_time - 1)
        trace.paths.append(seed)
        trace._keys.add(seed.key)
        trace.extend(store, t_now)
        return trace

    @property
    def next_hop(self) -> float:
        """The earliest time at which ``extend`` can add a path (``inf``: never)."""
        return self._next_hop

    def extend(self, store: TxStore, t_now: int) -> list[AssetTransferPath]:
        if t_now < self.t_seen:
            raise DataError("observation time may not move backwards")
        t_prev = self.t_seen
        self.t_seen = t_now
        if t_now < self._next_hop:
            return []  # no hop became visible
        # Every path passes through a frontier once, so its hops that are
        # still hidden set the next time worth extending at.
        added, cut, self._next_hop = _walk(
            store, self.paths, self.config, store.time[self.anchor_tx],
            self._keys, t_prev, t_now)
        self.truncated = self.truncated or cut
        self.paths.extend(added)
        return added

    def pathset(self) -> PathSet:
        return PathSet(list(self.paths), self.config.direction, self.config.horizon,
                       self.truncated)


@dataclass(frozen=True, slots=True)
class PathParams:
    """Thresholds and spans for the four per-address path sets."""

    lt_threshold: float = LT_THRESHOLD
    lt_span: float = LT_SPAN
    st_threshold: float = ST_THRESHOLD
    st_span: float = ST_SPAN
    max_paths_per_set: int = 10_000

    def config(self, horizon: str, direction: str) -> PathConfig:
        if horizon == "LT":
            return PathConfig(direction, "LT", self.lt_threshold, self.lt_span,
                              self.max_paths_per_set)
        return PathConfig(direction, "ST", self.st_threshold, self.st_span,
                          self.max_paths_per_set)


def path_sets_for_address(store: TxStore, address: str, t_now: int,
                          params: PathParams | None = None) -> dict[str, PathSet]:
    """The four merged path sets (lt_bk, st_bk, lt_fr, st_fr) at ``t_now``.

    Backward sets anchor every visible receive transaction; forward sets
    anchor every visible spend transaction.  A path's key starts with its
    anchor and an address's anchors are distinct, so the merged per-anchor
    sets share no key.
    """
    params = params or PathParams()
    time = store.time
    anchors = {
        "BK": [t for t in store.receive_txs(address) if time[t] <= t_now],
        "FR": [t for t in store.spend_txs(address) if time[t] <= t_now],
    }
    if not anchors["BK"] and not anchors["FR"]:
        raise DataError(f"address {address!r} has no activity at t={t_now}")
    out: dict[str, PathSet] = {}
    for name in SET_NAMES:
        horizon, direction = name.upper().split("_")
        cfg = params.config(horizon, direction)
        merged = PathSet([], direction, horizon)
        for anchor in anchors[direction]:
            ps = (backward_paths(store, anchor, cfg) if direction == "BK"
                  else forward_paths(store, anchor, cfg, t_now))
            merged.paths += ps.paths
            merged.truncated = merged.truncated or ps.truncated
        out[name] = merged
    return out
