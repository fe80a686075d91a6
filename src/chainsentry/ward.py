"""Ward linkage by the nearest-neighbour chain (Müllner 2011, arXiv:1109.2378).

The merge matrix has scipy's layout (``[a, b, height, size]`` rows sorted by
height, new clusters numbered from n) and is bit-identical to
``scipy.cluster.hierarchy.linkage(X, method="ward")``: the distances, the
chain walk, its tie-breaks and the Lance-Williams update run the same
floating-point operations in the same order.  Distances live in one condensed
vector, updated in place.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError


def pdist(V: np.ndarray) -> np.ndarray:
    """Condensed euclidean distances, row-major over the pairs i < j.

    Squared differences are added column by column, as a sequential loop
    adds them, so the result equals ``scipy.spatial.distance.pdist``.
    """
    return _distances(V)[:-1]


def _distances(V: np.ndarray) -> np.ndarray:
    """:func:`pdist` followed by one +inf slot, filled in place."""
    n, m = V.shape
    out = np.empty(n * (n - 1) // 2 + 1)
    out[-1] = np.inf
    step = max(1, (1 << 20) // max(n, 1))  # rows per block of about 8 MB
    pos = 0
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        acc = np.zeros((hi - lo, n - lo - 1))
        for j in range(m):
            diff = V[lo:hi, j, None] - V[None, lo + 1:, j]
            diff *= diff
            acc += diff
        upper = np.arange(lo + 1, n)[None, :] > np.arange(lo, hi)[:, None]
        vals = np.sqrt(acc[upper])
        out[pos:pos + vals.size] = vals
        pos += vals.size
    return out


def linkage(V: np.ndarray) -> np.ndarray:
    """Ward merge matrix of the rows of ``V`` (n >= 2)."""
    n = V.shape[0]
    with np.errstate(over="ignore"):
        D = _distances(V)  # the last slot stands for d(x, x)
    if not np.isfinite(D[:-1].max()):
        raise DataError("ward distances overflow to infinity")
    ar = np.arange(n)
    start = ar * n - ar * (ar + 1) // 2 - ar - 1  # d(i, j) = D[start[i] + j], i < j

    def row(x: int) -> np.ndarray:
        """Positions in D of d(x, i) for every i."""
        idx = start[x] + ar
        idx[:x] = start[:x] + x
        idx[x] = -1
        return idx

    size = np.ones(n, dtype=np.int64)
    Z = np.empty((n - 1, 4))
    chain: list[int] = []
    for k in range(n - 1):
        if not chain:
            chain.append(int(np.argmax(size > 0)))
        while True:
            x = chain[-1]
            dist = D[row(x)]
            y = int(np.argmin(dist))
            # The previous chain element wins unless another is strictly nearer.
            if len(chain) > 1 and dist[chain[-2]] <= dist[y]:
                y = chain[-2]
                break
            chain.append(y)
        d = float(dist[y])
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = int(size[x]), int(size[y])
        Z[k] = x, y, d, nx + ny
        size[x] = 0
        size[y] = nx + ny
        ix, iy = row(x), row(y)
        live = size > 0
        live[y] = False
        dxi, dyi, ni = D[ix[live]], D[iy[live]], size[live]
        t = 1.0 / (nx + ny + ni)
        D[iy[live]] = np.sqrt((ni + nx) * t * dxi * dxi + (ni + ny) * t * dyi * dyi
                              - ni * t * d * d)
        D[ix] = np.inf
    Z = Z[np.argsort(Z[:, 2], kind="mergesort")]
    _label(Z, n)
    return Z


def _label(Z: np.ndarray, n: int) -> None:
    """Rename each merge's clusters to their union-find roots, in place."""
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)
    for k in range(n - 1):
        roots = []
        for x in (int(Z[k, 0]), int(Z[k, 1])):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            roots.append(root)
        a, b = sorted(roots)
        parent[a] = parent[b] = n + k
        size[n + k] = size[a] + size[b]
        Z[k, 0], Z[k, 1], Z[k, 3] = a, b, size[n + k]


def maxclust(Z: np.ndarray, k: int) -> np.ndarray:
    """Flat labels (0-based) of scipy's ``fcluster(Z, k, "maxclust")``.

    The cut applies every merge no higher than merge n - k, so tied heights
    there leave fewer than k clusters, as in scipy.
    """
    n = Z.shape[0] + 1
    cut = 0 if k >= n else int(np.searchsorted(Z[:, 2], Z[n - k - 1, 2], side="right"))
    parent = np.arange(2 * n - 1)
    parent[Z[:cut, :2].astype(np.int64).ravel()] = np.repeat(np.arange(n, n + cut), 2)
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            break
        parent = hop
    return np.unique(parent[:n], return_inverse=True)[1]
