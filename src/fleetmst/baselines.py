"""Independent oracles: Kruskal, Prim, exhaustive search and a
cycle-property certificate for a claimed spanning forest.

These never share logic with the staged engine; they only read graphs
through the graph module, so an engine bug cannot cancel out here.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .engine import MstResult
from .errors import NotASpanningForest, TooLarge
from .graph import Graph, Weight


class DisjointSet:
    """Union-find with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def kruskal(g: Graph) -> MstResult:
    """Classic ascending-weight greedy; deterministic under ties via
    the (weight, u, v) sort order.  The half arcs u < v are stored in
    (u, v) order, so a stable sort on weight gives it."""
    src = g.arc_sources()
    keep = src < g.leaves
    w = g.weights[keep]
    order = np.argsort(w, kind="stable")
    u = src[keep][order].tolist()
    v = g.leaves[keep][order].tolist()
    w = w[order].tolist()
    ds = DisjointSet(g.n)
    picked: list[tuple[int, int, int]] = []
    total = 0
    scanned = 0
    for a, b, ww in zip(u, v, w):
        scanned += 1
        if ds.union(a, b):
            picked.append((a, b, ww))
            total += ww
            if len(picked) == g.n - 1:
                break
    return MstResult(
        edges=sorted((a, b, g.unscale(ww)) for a, b, ww in picked),
        total=g.unscale(total),
        k_after_node_stage=0,
        rounds=0,
        comparisons=scanned,
        per_round=[],
        node_arc_touches=0,
        mode="kruskal",
    )


def prim(g: Graph, seed: int = 0) -> MstResult:
    """Binary-heap frontier growth from seed; covers seed's component only."""
    g._check_id(seed)
    visited = [False] * g.n
    visited[seed] = True
    indptr = g.indptr
    leaves = g.leaves.tolist()
    weights = g.weights.tolist()
    heap: list[tuple[int, int, int]] = []

    def push_frontier(x: int) -> None:
        for i in range(int(indptr[x]), int(indptr[x + 1])):
            if not visited[leaves[i]]:
                heapq.heappush(heap, (weights[i], x, leaves[i]))

    push_frontier(seed)
    picked: list[tuple[int, int, int]] = []
    total = 0
    scanned = 0
    while heap:
        w, a, b = heapq.heappop(heap)
        scanned += 1
        if visited[b]:
            continue
        visited[b] = True
        picked.append((a, b, w) if a < b else (b, a, w))
        total += w
        push_frontier(b)
    return MstResult(
        edges=sorted((a, b, g.unscale(w)) for a, b, w in picked),
        total=g.unscale(total),
        k_after_node_stage=0,
        rounds=0,
        comparisons=scanned,
        per_round=[],
        node_arc_touches=0,
        mode="prim",
    )


# Largest number of (n - c)-subsets brute_force will enumerate.
MAX_SUBSETS = 100_000


# Acyclic (n - c)-subsets per graph topology, keyed by the node count and
# the edge pairs.  The enumeration is the oracle; caching only avoids
# redoing it for identical topologies with different weights.
@functools.lru_cache(maxsize=16)
def _spanning_subsets(n: int, pairs: tuple[tuple[int, int], ...], size: int) -> np.ndarray:
    rows = []
    for combo in itertools.combinations(range(len(pairs)), size):
        ds = DisjointSet(n)
        if all(ds.union(*pairs[i]) for i in combo):
            row = np.zeros(len(pairs), dtype=np.int8)
            row[list(combo)] = 1
            rows.append(row)
    matrix = np.array(rows) if rows else np.zeros((1, len(pairs)), np.int8)
    matrix.flags.writeable = False
    return matrix


def brute_force(g: Graph) -> Weight:
    """Minimum spanning-forest weight by enumerating all acyclic edge
    subsets of size n - c.  Ground truth for tiny instances only: refuses
    n > 10 or more than MAX_SUBSETS subsets."""
    if g.n > 10:
        raise TooLarge(f"brute force refuses n={g.n} > 10")
    edges = g.edge_list()
    pairs = tuple((u, v) for u, v, _ in edges)
    weights = np.array([w for _, _, w in edges], dtype=np.int64)
    if not pairs:
        return 0
    ds = DisjointSet(g.n)
    for a, b in pairs:
        ds.union(a, b)
    size = g.n - len({ds.find(v) for v in range(g.n)})
    count = math.comb(len(pairs), size)
    if count > MAX_SUBSETS:
        raise TooLarge(f"brute force refuses C({len(pairs)}, {size}) = {count} > {MAX_SUBSETS} subsets")
    subsets = _spanning_subsets(g.n, pairs, size)
    return g.unscale(int((subsets @ weights).min()))


Witness = tuple[tuple[int, int, Weight], tuple[int, int, Weight]]


def _scaled_claims(ws, scale: int) -> np.ndarray | None:
    """Claimed weights in units of 1/scale as int64, or None unless each
    is an integer there that fits."""
    out = []
    for w in ws:
        if type(w) is not int:
            try:
                f = Fraction(w) * scale
            except (TypeError, ValueError, OverflowError):
                return None
            if f.denominator != 1:
                return None
            w = f.numerator
        else:
            w *= scale
        out.append(w)
    try:
        return np.array(out, dtype=np.int64)
    except OverflowError:
        return None


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every node with the smallest id of its component under the
    edges (a, b): hook each root onto the smallest root it touches, then
    pointer-jump until every node points at its root."""
    label = np.arange(n, dtype=a.dtype)
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[cross], np.minimum(la, lb)[cross])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _root(n, roots, a, b, w):
    """Parent, parent-edge weight and depth of every node of the forest
    (a, b, w), found breadth first from ``roots`` one level at a time.
    Roots are their own parents, with weight 0."""
    ends = np.concatenate((a, b))
    order = np.argsort(ends, kind="stable")
    nbr = np.concatenate((b, a))[order]
    nw = np.concatenate((w, w))[order]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=ptr[1:])
    del ends, order
    parent = np.arange(n, dtype=a.dtype)
    pw = np.zeros(n, dtype=w.dtype)
    depth = np.zeros(n, dtype=a.dtype)
    frontier, level = roots, 0
    while frontier.size:
        lo = ptr[frontier]
        cnt = ptr[frontier + 1] - lo
        arcs = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        src = np.repeat(frontier, cnt)
        child = nbr[arcs]
        down = child != parent[src]
        child = child[down]
        parent[child] = src[down]
        pw[child] = nw[arcs[down]]
        level += 1
        depth[child] = level
        frontier = child
    return parent, pw, depth


def _path_max(parent, pw, depth, a, b):
    """Heaviest forest edge on the path between a[i] and b[i], for nodes
    of one component, by binary lifting over ancestor tables."""
    up, mx = [parent], [pw]
    for _ in range(1, int(depth.max()).bit_length()):
        p = up[-1]
        mx.append(np.maximum(mx[-1], mx[-1][p]))
        up.append(p[p])
    swap = depth[a] < depth[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    diff = depth[a] - depth[b]
    best = np.zeros(a.size, dtype=pw.dtype)
    for j in range(len(up)):
        lift = np.flatnonzero((diff >> j) & 1)
        la = a[lift]
        best[lift] = np.maximum(best[lift], mx[j][la])
        a[lift] = up[j][la]
    # Same depth now; climb both while their ancestors differ.
    live = np.flatnonzero(a != b)
    a, b, acc = a[live], b[live], best[live]
    for j in reversed(range(len(up))):
        ua, ub = up[j][a], up[j][b]
        split = np.flatnonzero(ua != ub)
        sa, sb = a[split], b[split]
        acc[split] = np.maximum(acc[split], np.maximum(mx[j][sa], mx[j][sb]))
        a[split], b[split] = ua[split], ub[split]
    best[live] = np.maximum(acc, np.maximum(pw[a], pw[b]))
    return best


def minimality_witness(
    g: Graph, edges: list[tuple[int, int, Weight]]
) -> Witness | None:
    """Certify a claimed spanning forest by the cycle property.

    A spanning forest is minimum iff no non-tree edge (u, v, w) is
    lighter than the heaviest forest edge on the forest path u-v (King
    1997).  Returns None for a minimum forest, else ((u, v, w), (x, y,
    w')): the first such non-tree edge, u < v, and a heaviest forest
    edge on its path, x < y.

    Raises NotASpanningForest naming the first failed structure check:
    'unknown edge' (a claim that is not an edge of g with that weight;
    either orientation), 'cycle' or 'not spanning' (some graph edge
    joins two forest components).
    """
    n = g.n
    if edges:
        us, vs, ws = (list(map(itemgetter(i), edges)) for i in range(3))
        if min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= n:
            raise NotASpanningForest("unknown edge")
        ends = np.array((us, vs))
        cw = _scaled_claims(ws, g.scale)
        if ends.dtype.kind not in "iu" or cw is None:
            raise NotASpanningForest("unknown edge")
        ends.sort(axis=0)
    else:
        ends = np.zeros((2, 0), dtype=np.int64)
        cw = np.zeros(0, dtype=np.int64)
    ca, cb = ends
    src = g.arc_sources()
    half = src < g.leaves
    ga, gb, gw = src[half], g.leaves[half], g.weights[half]
    # Arcs are sorted by (source, leaf), so the keys of the a < b half are too.
    keys = ga * n + gb
    claimed = ca * n + cb
    pos = np.searchsorted(keys, claimed)
    if np.any(pos >= keys.size) or np.any(keys[pos] != claimed) or np.any(gw[pos] != cw):
        raise NotASpanningForest("unknown edge")

    label = _components(n, ca, cb)
    roots = np.flatnonzero(label == np.arange(n))
    if len(edges) != n - roots.size:
        raise NotASpanningForest("cycle")
    if np.any(label[ga] != label[gb]):
        raise NotASpanningForest("not spanning")
    if not edges:
        return None

    # Only a non-tree edge lighter than the heaviest tree edge can fail.
    query = gw < cw.max()
    query[pos] = False
    qa, qb, qw = ga[query], gb[query], gw[query]
    # Free the per-edge arrays before the lifting tables are built.
    del half, ga, gb, gw, keys, claimed, pos, label, query
    if qw.size == 0:
        return None
    cw = cw.astype(np.min_scalar_type(int(cw.max())))
    parent, pw, depth = _root(n, roots, ca, cb, cw)
    bad = np.flatnonzero(_path_max(parent, pw, depth, qa, qb) > qw)
    if bad.size == 0:
        return None

    i = int(bad[0])
    x, y = int(qa[i]), int(qb[i])
    heavy = None
    while x != y:
        if depth[x] < depth[y]:
            x, y = y, x
        if heavy is None or pw[x] > heavy[2]:
            heavy = (x, int(parent[x]), int(pw[x]))
        x = int(parent[x])
    hx, hy, hw = heavy
    return (
        (int(qa[i]), int(qb[i]), g.unscale(int(qw[i]))),
        (min(hx, hy), max(hx, hy), g.unscale(hw)),
    )


def verify_spanning_forest(
    g: Graph,
    edges: list[tuple[int, int, Weight]],
    expected_total: Weight | None = None,
) -> list[str]:
    """Check a claimed tree/forest against the graph.

    Returns the violated property, in check order: 'unknown edge',
    'cycle', 'not spanning', 'not minimum'.  Empty list means valid.
    Minimality is certified by ``minimality_witness``, without any
    reference MST; a forest whose total differs from ``expected_total``,
    when given, is also 'not minimum'."""
    try:
        witness = minimality_witness(g, edges)
    except NotASpanningForest as exc:
        return [exc.problem]
    if witness is not None:
        return ["not minimum"]
    if expected_total is not None:
        total = sum(_scaled_claims([w for _, _, w in edges], g.scale).tolist())
        if g.unscale(total) != expected_total:
            return ["not minimum"]
    return []
