"""Independent oracles: Kruskal, Prim, exhaustive search and a
cycle-property certificate for a claimed spanning forest.

These never share logic with the staged engine; they only read graphs
through the graph module, so an engine bug cannot cancel out here.  The
certificate contracts the claimed forest once, into its own Borůvka
tree (King 1997) with its own hooking and pointer jumping, not the
engine's; that one contraction gives the cycle and spanning checks
their components and the minimality check its path maxima and the
heaviest edge it names.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .engine import EdgeColumns, MstResult
from .errors import GraphError, NotASpanningForest, TooLarge
from .graph import Graph, Weight, edge_columns, exact_sum


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


def _finish(g: Graph, u, v, w, mode: str, comparisons: int) -> MstResult:
    """The picked edges as int64 columns (u, v, scaled w), u < v, made a
    result: sorted on u * n + v in one argsort into an EdgeColumns, and
    summed exactly."""
    order = np.argsort(u * g.n + v)
    w = w[order]
    return MstResult(
        edges=EdgeColumns(u[order], v[order], w, g.scale),
        total=g.unscale(exact_sum(w)),
        k_after_node_stage=0,
        rounds=0,
        comparisons=comparisons,
        per_round=[],
        node_arc_touches=0,
        mode=mode,
    )


def kruskal(g: Graph) -> MstResult:
    """Classic ascending-weight greedy; deterministic under ties via
    the (weight, u, v) sort order.  The half arcs u < v are stored in
    (u, v) order, so a stable sort on weight gives it.  Weights that
    span fewer than 2**16 values are sorted as uint16 offsets from the
    lightest, which numpy's stable sort orders by radix sort.

    One loop scans that order over a plain parent list: each end finds
    its root by path halving, and the larger end's root links under the
    smaller end's, without ranks (still O(log n) amortised per find;
    Tarjan and van Leeuwen 1984).  It records only the scan position of
    each pick and stops at n - 1 picks; the picked columns are then
    gathered, sorted and summed in arrays.

    The scan goes in chunks of n positions, filtered as in
    Filter-Kruskal (Osipov, Sanders and Singler 2009): before each chunk
    after the first, ``_join_labels`` folds the picks made since the
    last chunk into array labels of the picked forest's components, and
    the loop sees only the chunk's edges whose ends carry different
    labels.  The edges dropped would close a cycle, so the picks are
    the same; each pass costs O(n) array work, so all of them together
    stay within O(m).  ``comparisons`` counts the edges scanned up to
    and including the (n-1)-th pick, or all m when the graph is
    disconnected."""
    src = g.arc_sources()
    half = g.half_arcs()
    w = g.weights[half]
    if w.size and w.max() - w.min() < 2**16:
        w = (w - w.min()).astype(np.uint16)
    order = half[np.argsort(w, kind="stable")]
    del half, w
    parent = list(range(g.n))
    label = np.arange(g.n)
    picks: list[int] = []
    labelled = 0
    need = g.n - 1
    step = max(g.n, 1)
    for start in range(0, order.size, step):
        arcs = order[start : start + step]
        a_s, b_s = src[arcs], g.leaves[arcs]
        at = np.arange(start, start + arcs.size)
        if start:
            new = order[picks[labelled:]]
            labelled = len(picks)
            label = _join_labels(label, src[new], g.leaves[new])
            keep = np.flatnonzero(label[a_s] != label[b_s])
            a_s, b_s, at = a_s[keep], b_s[keep], keep + start
        done = _scan(parent, picks, need, at, a_s, b_s)
        # Free the chunk's arrays before the next chunk or the result is
        # gathered, so that those reuse the space; left in place, they
        # moved later allocations up the heap, onto fresh pages.
        del a_s, b_s, at
        if done:
            break
    scanned = picks[-1] + 1 if picks and len(picks) == need else order.size
    arcs = order[picks]
    return _finish(g, src[arcs], g.leaves[arcs], g.weights[arcs], "kruskal", scanned)


def _scan(parent: list[int], picks: list[int], need: int, at, a_s, b_s) -> bool:
    """The union-find loop over the edges (a_s, b_s) at the scan
    positions ``at``, three int64 arrays: it links each edge that joins
    two trees of ``parent`` and appends its position to ``picks``, and
    returns True as soon as ``need`` edges are picked."""
    # A memoryview makes each end's int only when the scan reaches it,
    # not one for every edge up front.
    for i, a, b in zip(memoryview(at), memoryview(a_s), memoryview(b_s)):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            picks.append(i)
            if len(picks) == need:
                return True
    return False


def _join_labels(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``label`` maps every node to its component's smallest node;
    returns that map (overwriting ``label``) after the edges (a, b),
    which join distinct components, are added.  Each round every
    component root crossed by an edge hooks onto the smallest root
    across its edges, and pointer jumping flattens the hooks.  A root
    that does not hook is hooked onto, or hooks in the next round, so
    the crossed components at least halve every two rounds."""
    x, y = label[a], label[b]
    while x.size:
        np.minimum.at(label, np.maximum(x, y), np.minimum(x, y))
        label = _jump(label)
        x, y = label[x], label[y]
        apart = np.flatnonzero(x != y)
        x, y = x[apart], y[apart]
    return label


def _jump(parent: np.ndarray) -> np.ndarray:
    """Every node's root in the forest ``parent`` (roots point to
    themselves, other pointers never close a cycle), by pointer
    jumping: O(log depth) whole-array passes."""
    while True:
        jump = parent[parent]
        if np.array_equal(jump, parent):
            return parent
        parent = jump


def prim(g: Graph, seed: int = 0) -> MstResult:
    """Binary-heap frontier growth: a minimum spanning forest, seed's
    tree first, then a restart from the smallest unvisited node until
    every node is visited."""
    if g.n:
        g._check_id(seed)  # the empty graph has no node to seed from
    visited = [False] * g.n
    # Memoryviews make an arc's ints only when the search reaches it,
    # not a list of all 2m arcs up front.
    indptr, leaves, weights = memoryview(g.indptr), memoryview(g.leaves), memoryview(g.weights)
    heap: list[tuple[int, int, int]] = []

    def push_frontier(x: int) -> None:
        for i in range(indptr[x], indptr[x + 1]):
            if not visited[leaves[i]]:
                heapq.heappush(heap, (weights[i], x, leaves[i]))

    picked: list[tuple[int, int, int]] = []
    scanned = 0
    for start in itertools.chain((seed,), range(g.n)) if g.n else ():
        if visited[start]:
            continue
        visited[start] = True
        push_frontier(start)
        while heap:
            w, a, b = heapq.heappop(heap)
            scanned += 1
            if visited[b]:
                continue
            visited[b] = True
            picked.append((a, b, w))
            push_frontier(b)
    a, b, w = np.array(picked, dtype=np.int64).reshape(-1, 3).T
    return _finish(g, np.minimum(a, b), np.maximum(a, b), w, "prim", scanned)


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


def _claim_columns(edges, n: int, scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The claims as int64 columns: the smaller end, the larger end and
    the weight in units of 1/scale.  Raises NotASpanningForest('unknown
    edge') unless every claim is (u, v, w) with integer ids in range and
    w a positive integer at that scale that fits in int64.  An
    EdgeColumns gives its columns as they are, with one exact integer
    rescale of its weights when its scale is another; any other claim
    goes through graph.edge_columns first."""
    unknown = NotASpanningForest("unknown edge")
    if isinstance(edges, EdgeColumns):
        u, v, cw, at_scale = edges.u, edges.v, edges.w, edges.scale
    else:
        try:
            u, v, cw, at_scale = edge_columns(n, edges)
        except GraphError:
            raise unknown from None
    if at_scale != scale and cw.size:
        # Scales are powers of ten, so one divides the other; graph
        # weights are positive, so a claim that is not cannot match.
        mul, div = max(scale // at_scale, 1), max(at_scale // scale, 1)
        top = np.iinfo(np.int64).max
        if max(mul, div) > top or cw.min() <= 0 or np.any(cw % div) or cw.max() // div > top // mul:
            raise unknown
        cw = cw // div * mul
    if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise unknown
    return np.minimum(u, v), np.maximum(u, v), cw


def _boruvka_tree(n, a, b, w) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """King's Borůvka tree of the claimed edges (a, b, w) with positive
    weights on the nodes 0..n-1, as one (up, top, edge) triple per
    round, and every node's component id, 0..c-1 for c components.

    A round's clusters are numbered 0..k-1 (round 0: the nodes).  Each
    cluster with an edge leaving it hooks across its least one in
    (weight, position) order: ``top`` is that weight and ``edge`` that
    edge's position in (a, b, w), 0 and -1 for a cluster that is a
    whole component, and ``up`` maps the cluster to its cluster of the
    next round, -1 if it is a whole component (it takes no further
    part).  An edge left inside a cluster without being picked closed a
    cycle and is dropped, so the edges picked number n - c exactly when
    (a, b) is a forest.  Every live cluster merges, so a component of s
    nodes is one cluster after at most ceil(log2 s) rounds.  For a
    forest, the heaviest edge on the path between two nodes is the
    heaviest ``top`` met while climbing from both until they share a
    cluster (King 1997)."""
    rounds = []
    k = n
    idx = np.arange(a.size)
    while a.size:
        top = np.full(k, np.iinfo(w.dtype).max, dtype=w.dtype)
        np.minimum.at(top, a, w)
        np.minimum.at(top, b, w)
        # The order is strict, so the hooks close no cycle other than
        # both ends of one edge picking it, where the smaller id stays
        # root.  Live clusters are those the edges touch: the largest
        # weight is a legal one, so it cannot also mark "no edge".
        at_a = np.flatnonzero(w == top[a])
        at_b = np.flatnonzero(w == top[b])
        pick = np.full(k, a.size)
        np.minimum.at(pick, np.concatenate((a[at_a], b[at_b])), np.concatenate((at_a, at_b)))
        ids = np.arange(k)
        live = pick < a.size
        e = pick[live]
        hook = ids.copy()
        hook[live] = a[e] + b[e] - ids[live]
        hook = _jump(np.where((hook[hook] == ids) & (ids < hook), ids, hook))
        fresh = np.cumsum((hook == ids) & live) - 1
        up = np.where(live, fresh[hook], -1)
        top[~live] = 0
        rounds.append((up, top, np.append(idx, -1)[pick]))
        a, b = up[a], up[b]
        keep = np.flatnonzero(a != b)
        a, b, w, idx = a[keep], b[keep], w[keep], idx[keep]
        k = int(fresh[-1]) + 1
    # Top down: the last round's clusters are components 0..k-1, and a
    # cluster that left with up == -1 takes the next fresh id (its
    # gather through -1 reads a value it then overwrites).
    label = np.arange(k)
    for up, _, _ in reversed(rounds):
        done = np.flatnonzero(up < 0)
        label = label[up]
        label[done] = np.arange(k, k + done.size)
        k += done.size
    return rounds, label


def _tree_path_max(rounds, a, b) -> np.ndarray:
    """Heaviest forest edge on the path between a[i] != b[i], two nodes
    of one component, read off the Borůvka tree ``rounds``."""
    best = np.zeros(a.size, dtype=rounds[0][1].dtype)
    live = np.arange(a.size)
    for up, top, _ in rounds:
        best[live] = np.maximum(best[live], np.maximum(top[a], top[b]))
        a, b = up[a], up[b]
        apart = np.flatnonzero(a != b)
        a, b, live = a[apart], b[apart], live[apart]
    return best


def _path_argmax(rounds, x: int, y: int) -> int:
    """Position of the heaviest forest edge, in (weight, position)
    order, on the path between x != y, two nodes of one component.  The
    cluster whose picked edge is largest in that strict order holds one
    end of the path, so the edge it picked lies on the path."""
    best = (0, -1)
    for up, top, edge in rounds:
        if x == y:
            break
        best = max(best, (int(top[x]), int(edge[x])), (int(top[y]), int(edge[y])))
        x, y = int(up[x]), int(up[y])
    return best[1]


def _certify(g: Graph, edges) -> tuple[Witness | None, np.ndarray]:
    """``minimality_witness``, plus the claimed weights scaled to int64."""
    n = g.n
    ca, cb, cw = _claim_columns(edges, n, g.scale)
    half = g.half_arcs()
    ga, gb, gw = g.arc_sources()[half], g.leaves[half], g.weights[half]
    # Arcs are sorted by (source, leaf), so the keys of the a < b half are too;
    # they fit in int64 because graph_from_arrays keeps n <= MAX_NODES.
    keys = ga * n + gb
    claimed = ca * n + cb
    pos = np.searchsorted(keys, claimed)
    if np.any(pos >= keys.size) or np.any(keys[pos] != claimed) or np.any(gw[pos] != cw):
        raise NotASpanningForest("unknown edge")
    del half, keys, claimed

    rounds, label = _boruvka_tree(n, ca, cb, cw)
    components = int(label.max(initial=-1)) + 1
    if cw.size != n - components:
        raise NotASpanningForest("cycle")
    if np.any(label[ga] != label[gb]):
        raise NotASpanningForest("not spanning")
    if cw.size == 0:
        return None, cw

    # Only a non-tree edge lighter than the heaviest tree edge can fail.
    query = gw < cw.max()
    query[pos] = False
    query = np.flatnonzero(query)
    qa, qb, qw = ga[query], gb[query], gw[query]
    del ga, gb, gw, pos, query
    if qw.size == 0:
        return None, cw
    bad = np.flatnonzero(_tree_path_max(rounds, qa, qb) > qw)
    if bad.size == 0:
        return None, cw

    i = int(bad[0])
    e = _path_argmax(rounds, int(qa[i]), int(qb[i]))
    witness = (
        (int(qa[i]), int(qb[i]), g.unscale(int(qw[i]))),
        (int(ca[e]), int(cb[e]), g.unscale(int(cw[e]))),
    )
    return witness, cw


def minimality_witness(
    g: Graph, edges: Sequence[tuple[int, int, Weight]]
) -> Witness | None:
    """Certify a claimed spanning forest by the cycle property.

    A spanning forest is minimum iff no non-tree edge (u, v, w) is
    lighter than the heaviest forest edge on the forest path u-v.  The
    path maxima are read off King's (1997) Borůvka tree of the claimed
    forest, O(log n) array rounds whatever the forest's depth.  Returns
    None for a minimum forest, else ((u, v, w), (x, y, w')): the first
    such non-tree edge, u < v, and the heaviest forest edge on its path
    in (weight, claim position) order, x < y.  The same tree names that
    edge in one climb of at most as many rounds, so a failing claim
    also costs O(log n) array rounds.

    Raises NotASpanningForest naming the first failed structure check:
    'unknown edge' (a claim that is not an edge of g with that weight;
    either orientation), 'cycle' or 'not spanning' (some graph edge
    joins two forest components).
    """
    return _certify(g, edges)[0]


def verify_spanning_forest(
    g: Graph,
    edges: Sequence[tuple[int, int, Weight]],
    expected_total: Weight | None = None,
) -> list[str]:
    """Check a claimed tree/forest against the graph.

    Returns the violated property, in check order: 'unknown edge',
    'cycle', 'not spanning', 'not minimum'.  Empty list means valid.
    Minimality is certified by ``minimality_witness``, without any
    reference MST; a forest whose total differs from ``expected_total``,
    when given, is also 'not minimum'."""
    try:
        witness, cw = _certify(g, edges)
    except NotASpanningForest as exc:
        return [exc.problem]
    if witness is not None:
        return ["not minimum"]
    if expected_total is not None and g.unscale(exact_sum(cw)) != expected_total:
        return ["not minimum"]
    return []
