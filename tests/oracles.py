"""Shared test oracles and graph builders.

``sequential_stage`` is the node stage as the engine first defined it:
one FIFO reap per cluster, in founding order, in plain Python.  The
array stage in ``fleetmst.engine`` must reproduce its forest (parent
array, cluster ids, cluster count and arcs touched) in every mode.
``_components`` is the component labeller that ``fleet.beam_components``
must agree with.  ``lexsort_graph`` is the two-lexsort graph builder
that ``graph.graph_from_arrays`` must reproduce, graph and error alike.
``loop_gnm`` is the one-draw-at-a-time G(n, m) sampler that
``generators.random_gnm`` must reproduce graph for graph.
"""

from collections import deque

import numpy as np

from fleetmst.engine import EdgeColumns, Forest, _check_model, _forest, _forward_arcs
from fleetmst.errors import DuplicateEdge, IdOutOfRange, NonPositiveWeight, SelfLoop
from fleetmst.fleet import FleetModel, half_beams
from fleetmst.generators import _GOLDEN, _MASK, _weights_for, lattice8, mix64, random_gnm
from fleetmst.graph import Graph, graph_from_arrays


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every node with the smallest id of its component under the
    edges (a, b): hook each root onto the smallest root it touches, then
    pointer-jump until every node points at its root."""
    label = np.arange(n, dtype=a.dtype)
    while True:
        la, lb = label[a], label[b]
        cross = np.flatnonzero(la != lb)
        if cross.size == 0:
            return label
        la, lb = la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def sequential_stage(g: Graph, f: FleetModel, mode: str, kernels=()) -> Forest:
    """The node stage of ``mode`` as one FIFO reap per cluster, in
    founding order.  Each of ``kernels`` (whole beam components) founds a
    cluster first: a BFS along its beams from its smallest member, then
    a reap of its subjection chains without beam crossing.  Then, from
    node 0 up: under ``ooag`` every unclaimed non-isolated node climbs
    its target chain to its flotilla top and founds a cluster on that
    beam; in the other modes ``_beam_loop`` runs over every beam.  These
    reaps cross beams peer-to-peer.  The nodes left unclaimed, exactly
    the isolated ones, become singleton clusters last."""
    _check_model(g, f)
    t = f.chase_tables()
    fwd_ptr, fwd = (a.tolist() for a in _forward_arcs(f))
    cl = [-1] * g.n
    parent = [-1] * g.n
    touches = 0
    for k, kernel in enumerate(kernels):
        cl[kernel[0]] = k
        _reap(kernel[:1], t["beam_ptr"], t["beam_flat"], cl, parent)
        touches += _reap(kernel, t["rev_ptr"], t["rev_flat"], cl, parent)
    k = len(kernels)

    if mode == "ooag":
        target, mvc, iso = t["target"], t["mvc"], t["isolated"]
        for v in range(g.n):
            if cl[v] >= 0 or iso[v]:
                continue
            x, y = v, target[v]
            touches += 1
            while mvc[y] != mvc[x]:  # climb until the edge to the target is a beam
                x, y = y, target[y]
                touches += 1
            cl[x] = cl[y] = k
            parent[x] = y
            touches += _reap((x, y), fwd_ptr, fwd, cl, parent)
            k += 1
    else:
        a, b = half_beams(f)
        k, more = _beam_loop(zip(a.tolist(), b.tolist()), fwd_ptr, fwd, cl, parent, k)
        touches += more
    return _forest(g, f, np.array(cl, dtype=np.int64), np.array(parent, dtype=np.int64), k, touches)


def _reap(seeds, ptr: list, flat: list, cl: list, parent: list) -> int:
    """Claim for the seeds' cluster every unclaimed node reachable from
    them along the arcs ``flat[ptr[y]:ptr[y + 1]]``, first in, first
    out.  Already-claimed nodes are skipped, which is the cycle guard.
    Returns the number of arcs touched."""
    cid = cl[seeds[0]]
    queue = deque(seeds)
    touches = 0
    while queue:
        y = queue.popleft()
        arcs = flat[ptr[y] : ptr[y + 1]]
        touches += len(arcs)
        for r in arcs:
            if cl[r] < 0:
                cl[r] = cid
                parent[r] = y
                queue.append(r)
    return touches


def _beam_loop(beams, ptr: list, flat: list, cl: list, parent: list, k: int) -> tuple[int, int]:
    """The beam loop of ``oag_then_merge`` and ``koag_seeded``.  For each
    beam (a, b), a < b, in order: a beam with both ends free founds
    cluster k and reaps from both; a beam with one claimed end joins the
    free end to that end's cluster and reaps from it.  The reaps follow
    ``ptr``/``flat``: reverse-subjection children, then beam partners.
    Returns the next cluster id and the arcs touched."""
    touches = 0
    for a, b in beams:
        if cl[a] < 0 and cl[b] < 0:
            cl[a] = cl[b] = k
            parent[b] = a
            touches += _reap((a, b), ptr, flat, cl, parent)
            k += 1
        elif cl[a] < 0 or cl[b] < 0:
            claimed, free = (a, b) if cl[a] >= 0 else (b, a)
            cl[free] = cl[claimed]
            parent[free] = claimed
            touches += _reap((free,), ptr, flat, cl, parent)
    return k, touches


def lexsort_graph(
    n: int, u: np.ndarray, v: np.ndarray, w_scaled: np.ndarray, scale: int
) -> Graph:
    """``graph_from_arrays`` as first written: one lexsort over the m
    edges finds duplicates, a second over the 2m arcs orders the rows."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w_scaled = np.asarray(w_scaled, dtype=np.int64)
    if u.size:
        if u.min(initial=0) < 0 or v.min(initial=0) < 0 or max(u.max(), v.max()) >= n:
            bad = np.nonzero((u < 0) | (v < 0) | (u >= n) | (v >= n))[0][0]
            raise IdOutOfRange(
                f"edge ({u[bad]}, {v[bad]}) has an id outside [0, {n})"
            )
        loops = np.nonzero(u == v)[0]
        if loops.size:
            raise SelfLoop(f"self loop at node {int(u[loops[0]])}")
        nonpos = np.nonzero(w_scaled <= 0)[0]
        if nonpos.size:
            raise NonPositiveWeight(
                f"edge ({int(u[nonpos[0]])}, {int(v[nonpos[0]])}) has non-positive weight"
            )
        a = np.minimum(u, v)
        b = np.maximum(u, v)
        order = np.lexsort((b, a))
        aa, bb = a[order], b[order]
        dup = np.nonzero((aa[1:] == aa[:-1]) & (bb[1:] == bb[:-1]))[0]
        if dup.size:
            raise DuplicateEdge(
                f"edge ({int(aa[dup[0]])}, {int(bb[dup[0]])}) appears more than once"
            )

    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    ww = np.concatenate([w_scaled, w_scaled])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    ww = ww[order]
    counts = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(n, indptr, dst, ww, scale)


def equal_path(n):
    u = np.arange(n - 1)
    return graph_from_arrays(n, u, u + 1, np.ones(n - 1, dtype=np.int64), 1)


def increasing_path(n):
    u = np.arange(n - 1)
    return graph_from_arrays(n, u, u + 1, u + 1, 1)


def random_id_path(n, weights, seed):
    """A path through all n nodes in a random order of ids; edge i of
    the path weighs ``weights[i]``."""
    order = np.random.default_rng(seed).permutation(n)
    return graph_from_arrays(n, order[:-1], order[1:], weights, 1)


def chain(k):
    """k beam pairs a_i = 3k-i, b_i = 3k+i-1 (weight 1); v_i = i-1 joins
    a_i and a_(i-1), w_i = k+i-1 joins a_i (weight 2).  Under ooag each
    founder decides the next one, so the founders' fixpoint needs about
    k rounds."""
    i = np.arange(1, k + 1)
    a, b, v, w = 3 * k - i, 3 * k + i - 1, i - 1, k + i - 1
    u = np.concatenate([a, v, v[1:], w])
    x = np.concatenate([b, a, a[:-1], a])
    wt = np.concatenate([np.ones(k, dtype=np.int64), np.full(3 * k - 1, 2)])
    return graph_from_arrays(4 * k, u, x, wt, 1)


def deep_inputs():
    """Inputs that run the array stage's loops long: one 5,000-node
    cluster (BFS levels), a 4,999-arc subjection chain (label passes),
    founders that each decide the next (founder rounds under ``ooag``),
    and equal and increasing paths laid through 2^14 nodes in a random
    order of ids."""
    n = 2**14
    return [
        ("equal_path", equal_path(5000)),
        ("increasing_path", increasing_path(5000)),
        ("chain", chain(2000)),
        ("random_id_equal_path", random_id_path(n, np.ones(n - 1, dtype=np.int64), seed=1)),
        ("random_id_increasing_path", random_id_path(n, np.arange(1, n), seed=2)),
    ]


def bench_lattices():
    """The eight graphs of the benchmark's seed-7 runs (p=200)."""
    return [lattice8(200, tuple(range(1, q + 1)), s) for q in (10, 2) for s in range(28, 32)]


def loop_gnm(n: int, m: int, weight_set, seed: int) -> Graph:
    """random_gnm as first written: one mix64 draw at a time, skipping
    self loops and pairs already drawn, until m pairs are found."""
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    i = 0
    while len(pairs) < m:
        r = mix64((seed & _MASK) + (i + 1) * _GOLDEN)
        i += 1
        u = r % n
        v = (r >> 32) % n
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    u_arr = np.array([p[0] for p in pairs], dtype=np.int64)
    v_arr = np.array([p[1] for p in pairs], dtype=np.int64)
    w, scale = _weights_for(m, weight_set, seed ^ 0x5DEECE66D)
    return graph_from_arrays(n, u_arr, v_arr, w, scale)


def gnm_graphs():
    qs = [(1,), (1, 2), (1, 2, 3), tuple(range(1, 11)), tuple(range(1, 1001))]
    return [random_gnm(200 + 150 * i, 600 + 700 * i, qs[i % 5], seed=i) for i in range(20)]


def columns_of(edges, scale: int) -> EdgeColumns:
    """Public (u, v, w) edges, as given, as an EdgeColumns at ``scale``."""
    u, v, w = zip(*edges) if edges else ((), (), ())
    scaled = [int(x * scale) for x in w]
    return EdgeColumns(*(np.array(c, dtype=np.int64) for c in (u, v, scaled)), scale)
