"""Staged minimum-spanning-forest engine.

The node stage reaps clusters out of the fleet model: beam-seeded
(``oag_then_merge``), from each node's flotilla top (``ooag``), or
kernel-seeded (``koag_seeded``: the kernels found first, then the beam
loop of ``oag_then_merge`` runs over the nodes they leave free).  Each
mode is defined by one FIFO reap per cluster in founding order
(``tests/oracles.py`` keeps it, in plain Python, as the oracle);
``array_stage`` computes the same forest in whole-array steps: beam
components by hooking and pointer jumping (``fleet._hook``), the
founders as a fixpoint of min-label passes over the DAG that strict
subjection forms on them (MVC falls along it), the picks by one BFS
over all clusters.  Hooking and pointer jumping end within O(log n)
rounds; the founder rounds and label passes need not (founding order
is a lexicographically first greedy choice, and the DAG can be deep),
so each has a budget, past which one ascending pass
(``_claim_upstream``) finishes exactly.  The founder rounds are an
alternating fixpoint whose fresh sets nest, so each starts warm from
the labels of the last odd round; under ``ooag`` only each beam
component's smallest member nominates.  The BFS has no budget: a
level with a small frontier is expanded in Python (``_small_level``),
so a deep cluster costs little per level, and a larger one claims by
one max-scatter of stamps that fall in arc order, an arc that leaves
its cluster stamped -1, with no compaction.
``mode="boruvka"`` skips the node stage (every node its own cluster),
as a reference line.  The cluster stage then merges clusters
Boruvka-style, and every round numbers its clusters 0..k-1.  A round
lists every edge that crosses two clusters once, as its stored arc
(a, b) with a < b, in arc order, which is (a, b) order.  A listed edge
is three values: an int64 rank key ``rank(w) * 2m + arc``, whose order
is (weight, a, b), so nothing is sorted, and whose ``key % 2m`` names
the arc; and the cluster ids of its two ends, uint32 (k <= n <=
MAX_NODES < 2**32).  Each round every cluster with a crossing edge
hooks onto the one with the least key, reads that edge's ends off the
graph, and one renumbering table flattens the hooks into the next
round's ids 0..k'-1.  With melioration on, the list contracts: the
first round builds it from all 2m arcs, and each later round drops for
good the keys of edges now inside a cluster, which only shrinks what
later rounds examine and never changes a choice.  With it off, every
round rebuilds the list from all 2m arcs.

Picked edges stay arrays, in the result too.  Every node-stage pick has
the form "node z joins through p with weight mvc[z]", so the node stage
only writes ``parent[z] = p``; each merge round appends the arcs of the
edges it chooses.  ``materialise`` reads their ends and weights off the
graph, sorts both kinds into one set of int64 columns, ``u < v``,
sorted on (u, v), with scaled weights, and sums them exactly.
``MstResult.edges`` is those columns as an ``EdgeColumns``, which reads
like the list of ``(u, v, w)`` tuples and which the verifier reads
without building one; ``Forest.picked`` gives the same edges as
``(u, v, scaled w)`` tuples.

``perfbench/tracing.py`` re-drives ``run`` step by step, so these names
keep their meaning: ``merge_round(g, forest)``; ``Forest.cluster_count``,
``done`` (the clusters with no crossing edge; only its length is read),
``cluster_of`` (the current id of each node), ``picked``,
``picked_edges()``, ``rounds``, ``comparisons``, ``per_round`` and the
settable ``melioration``, read when each round runs.
"""

from __future__ import annotations

import operator
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import InconsistentModel, NoProgress, TooLarge
from .fleet import FleetModel, _hook, _indptr, _jump, beam_components, build_fleet, half_beams
from .graph import MAX_NODES, Graph, Weight, exact_sum, unscale, weight_text, write_edges

MODES = ("oag_then_merge", "ooag", "koag_seeded")


@dataclass
class RoundStats:
    clusters_before: int
    clusters_after: int
    arcs_scanned: int
    elapsed: float


class EdgeColumns(Sequence):
    """Edges as read-only int64 columns ``u``, ``v`` and weights ``w`` in
    units of 1/``scale``: a result's with ``u < v``, sorted on (u, v), a
    tree file's (``cli._tree_file``) in file order, the ends as written.

    It reads like the list of (u, v, w) tuples it stands for: ``len``,
    indexing, slicing (which gives a list), ``in`` and iteration yield
    Python ints, the weights unscaled as ``Graph.unscale`` does (an int
    at scale 1, an int or Fraction otherwise).  It is equal to a list,
    tuple or EdgeColumns holding the same edges, and unhashable.  It
    takes the columns over and makes them read-only.
    """

    __slots__ = ("u", "v", "w", "scale")
    __hash__ = None

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray, scale: int):
        for arr in (u, v, w):
            arr.flags.writeable = False
        self.u, self.v, self.w, self.scale = u, v, w, scale

    def __len__(self) -> int:
        return self.u.size

    def __iter__(self):
        ws = self.w.tolist()
        if self.scale != 1:
            ws = [unscale(x, self.scale) for x in ws]
        return zip(self.u.tolist(), self.v.tolist(), ws)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(EdgeColumns(self.u[i], self.v[i], self.w[i], self.scale))
        i = operator.index(i)
        return int(self.u[i]), int(self.v[i]), unscale(self.w[i], self.scale)

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeColumns) and other.scale == self.scale:
            return all(map(np.array_equal, (self.u, self.v, self.w), (other.u, other.v, other.w)))
        if isinstance(other, (list, tuple, EdgeColumns)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EdgeColumns({list(self)!r})"


@dataclass
class MstResult:
    edges: Sequence[tuple[int, int, Weight]]  # an EdgeColumns from run, kruskal and prim; write_tree needs one
    total: Weight
    k_after_node_stage: int
    rounds: int
    comparisons: int
    per_round: list[RoundStats]
    node_arc_touches: int
    mode: str
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def record(self) -> dict:
        """The run in plain JSON types: the edge count, the exact total as
        its minimal decimal, k after the node stage, the merge rounds, A,
        the phase timings and each merge round's RoundStats."""
        return {
            "mode": self.mode,
            "edges": len(self.edges),
            "total": weight_text(self.total),
            "k": self.k_after_node_stage,
            "rounds": self.rounds,
            "comparisons_A": self.comparisons,
            "node_arc_touches": self.node_arc_touches,
            "phase_seconds": dict(self.phase_seconds),
            "per_round": [asdict(rs) for rs in self.per_round],
        }


class Forest:
    """Cluster bookkeeping during one engine execution.

    Cluster ids are always 0..cluster_count-1; ``cluster_of`` holds each
    node's current id.  ``parent[z] = p`` records that the node stage
    joined z to its cluster through the edge {z, p} of weight ``mvc[z]``
    (-1: no such pick).  The merge rounds renumber ``cluster_of``, keep
    their crossing-edge list here and append the arcs (a, b), a < b, of
    the edges they choose to ``merged``; the picked columns read ends
    and weights off the graph.
    Confined to a single execution context; not thread safe.
    """

    def __init__(self, graph: Graph, cluster_of: np.ndarray, parent: np.ndarray, mvc: np.ndarray):
        self.graph = graph
        self.cluster_of = cluster_of
        self.parent = parent
        self.mvc = mvc  # scaled MVC per node
        self.cluster_count = int(cluster_of.max(initial=-1)) + 1
        self.rounds = 0
        self.merged: list[np.ndarray] = []  # per round: the chosen arcs
        self.done = np.empty(0, dtype=np.int64)
        self.melioration = True
        self.comparisons = 0
        self.node_arc_touches = 0
        self.per_round: list[RoundStats] = []
        # Merge-stage edge list, three columns: int64 rank keys in
        # (w, a, b) order (key % 2m is the arc (a, b)) and the cluster
        # ids of each key's ends a and b, uint32.
        self.edge_key: Optional[np.ndarray] = None
        self.label_a: Optional[np.ndarray] = None
        self.label_b: Optional[np.ndarray] = None

    # -- picked edges ----------------------------------------------------

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ends u < v and scaled weights of the picked edges as int64
        columns, sorted on (u, v)."""
        g = self.graph
        z = np.flatnonzero(self.parent >= 0)
        p = self.parent[z]
        arcs = np.concatenate([np.empty(0, dtype=np.int64), *self.merged])
        u = np.concatenate((np.minimum(z, p), g.arc_sources()[arcs]))
        v = np.concatenate((np.maximum(z, p), g.leaves[arcs]))
        w = np.concatenate((self.mvc[z], g.weights[arcs]))
        order = np.argsort(u * g.n + v)  # < 2**63: n <= MAX_NODES
        return u[order], v[order], w[order]

    @property
    def picked(self) -> list[tuple[int, int, int]]:
        """Every picked edge as (u, v, scaled w) with u < v, sorted."""
        return list(zip(*(c.tolist() for c in self._columns())))

    def materialise(self) -> tuple[EdgeColumns, Weight]:
        """The picked edges as sorted columns, and their total, summed
        exactly."""
        u, v, w = self._columns()
        return EdgeColumns(u, v, w, self.graph.scale), self.graph.unscale(exact_sum(w))

    def picked_edges(self) -> EdgeColumns:
        """The picked edges as sorted columns."""
        return self.materialise()[0]


# ---------------------------------------------------------------------------
# node stage
# ---------------------------------------------------------------------------


# Budgets of the two array-stage loops that need not settle quickly
# (module docstring); past either, ``_claim_upstream`` finishes exactly.
# A BFS level with fewer than SMALL_FRONTIER nodes is expanded in Python.
MAX_FOUNDER_ROUNDS = 8
MAX_LABEL_PASSES = 32
SMALL_FRONTIER = 16


def _check_model(g: Graph, f: FleetModel) -> None:
    if f.graph is not g and f.graph != g:
        raise InconsistentModel("fleet model was not built from this graph")


def _forest(g: Graph, f: FleetModel, cl: np.ndarray, parent: np.ndarray, k: int, touches: int) -> Forest:
    """The stage's forest; the nodes left unclaimed (cl < 0) take the ids
    from k up."""
    free = np.flatnonzero(cl < 0)
    cl[free] = k + np.arange(free.size)
    forest = Forest(g, cl, parent, f.mvc_scaled)
    forest.node_arc_touches = touches
    return forest


def _forward_arcs(f: FleetModel) -> tuple[np.ndarray, np.ndarray]:
    """The arcs a reap across beams follows, as CSR: each node's
    reverse-subjection children, then its beam partners, each ascending."""
    rev_ptr, beam_ptr = f.rev_indptr, f.beam_indptr
    ptr = rev_ptr + beam_ptr
    fwd = np.empty(int(ptr[-1]), dtype=np.int64)
    fwd[np.arange(f.rev_children.size) + np.repeat(beam_ptr[:-1], np.diff(rev_ptr))] = f.rev_children
    fwd[np.arange(f.beam_leaves.size) + np.repeat(rev_ptr[1:], np.diff(beam_ptr))] = f.beam_leaves
    return ptr, fwd


def _settle(m: np.ndarray, src: np.ndarray, dst: np.ndarray) -> bool:
    """Lower each m to the least m downstream of it along the acyclic
    arcs src -> dst, in place, by synchronous passes; False when that
    takes more than MAX_LABEL_PASSES passes.  Any start settles to the
    least seed downstream as long as each label is n or the value of
    some seed downstream of it, so a round may start warm, from an
    earlier round's settled labels plus its added seeds."""
    for _ in range(MAX_LABEL_PASSES):
        val = m[dst]
        lower = val < m[src]
        if not lower.any():
            return True
        np.minimum.at(m, src[lower], val[lower])
    return False


def _claim_upstream(
    n: int, src: np.ndarray, dst: np.ndarray, starts: np.ndarray, gates: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exact finisher of the label passes and founder rounds, one
    pass in Python over the upstream CSR of the arcs src -> dst.  In
    order, each i whose node ``gates[i]`` is still unset gives
    ``values[i]`` to ``starts[i]`` and every unset node upstream of it;
    a search stops at set nodes.  The set nodes stay closed upstream, so
    each node gets the value of the first start it lies upstream of.
    Returns the labels (n where unset) and which i claimed."""
    up_ptr = _indptr(dst, n).tolist()
    up = src[np.argsort(dst, kind="stable")].tolist()
    m = [n] * n
    took = []
    for s, gate, val in zip(starts.tolist(), gates.tolist(), values.tolist()):
        took.append(m[gate] == n)
        if not took[-1]:
            continue
        m[s] = val
        stack = [s]
        while stack:
            y = stack.pop()
            for x in up[up_ptr[y] : up_ptr[y + 1]]:
                if m[x] == n:
                    m[x] = val
                    stack.append(x)
    return np.array(m, dtype=np.int64), np.array(took, dtype=bool)


def _founders(
    n: int, nominators: np.ndarray, nominee: np.ndarray, home: np.ndarray, down: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The founding nominators, ascending, and m: for each component the
    founder of the earliest-founded component downstream of it.  The
    fixpoint of: c(B) is the smallest fresh nominator of B; m(u) is the
    least c downstream of u; v (whose component is ``home``) is fresh iff
    m(v) >= v.  Whether v founds depends only on the founders below v,
    so the fixpoint is unique.  The rounds F -> now(F) from every
    nominator form an alternating fixpoint (Van Gelder): now is
    antitone, so the fresh sets nest, F1 <= F3 <= ... <= F4 <= F2 <= F0,
    and each round starts warm from the settled labels of the last odd
    round, seeding only the nominators added since (``_settle``).  Past
    a budget, nominators in ascending order found while their home is
    unclaimed, each claiming upstream of its nominee."""
    fresh = np.ones(nominators.size, dtype=bool)
    odd, labels = np.zeros(nominators.size, dtype=bool), np.full(n, n)  # the last odd round
    for r in range(MAX_FOUNDER_ROUNDS):
        m = labels if r % 2 else labels.copy()
        add = fresh & ~odd
        np.minimum.at(m, nominee[add], nominators[add])
        if not _settle(m, *down):
            break
        if r % 2:
            odd = fresh
        now = m[home] >= nominators
        if np.array_equal(now, fresh):
            return nominators[fresh], m
        fresh = now
    m, took = _claim_upstream(n, *down, nominee, home, nominators)
    return nominators[took], m


_CLAIMED = np.iinfo(np.int64).max  # a reaped node's claim, above every stamp


def _small_level(
    frontier, ptr: np.ndarray, fwd: np.ndarray, cl: np.ndarray, claim: np.ndarray, parent: np.ndarray
) -> list:
    """One level of ``_reap_parents`` node by node, in frontier order:
    the same next level as the numpy step, cheaper on a few nodes."""
    nxt = []
    for y in frontier:
        for x in fwd[ptr[y] : ptr[y + 1]].tolist():
            if not claim[x] and cl[x] == cl[y]:
                claim[x] = _CLAIMED
                parent[x] = y
                nxt.append(x)
    return nxt


def _reap_parents(
    ptr: np.ndarray, fwd: np.ndarray, cl: np.ndarray, frontier: np.ndarray, parent: np.ndarray
) -> None:
    """Each node's first claimer in its cluster's FIFO reap, written into
    ``parent``, by one level-synchronous BFS over all clusters at once.
    ``frontier`` lists the seeds, cluster by cluster in reap order.  A
    node's forward arcs are ``fwd[ptr[y]:ptr[y + 1]]``; only nodes of
    the same cluster are claimed, each by the first arc of a level that
    reaches it from its cluster.  A level claims by one max-scatter,
    with no compaction: ``claim`` holds 0 for a free node and _CLAIMED
    for a reaped one, each arc of the level gets a stamp that falls in
    arc order, or -1 when it leaves its cluster, and an arc claims its
    target exactly when its stamp is the target's maximum."""
    deg = np.diff(ptr)
    claim = np.zeros(cl.size, dtype=np.int64)
    claim[frontier] = _CLAIMED
    while len(frontier):
        if len(frontier) < SMALL_FRONTIER:
            frontier = _small_level(frontier, ptr, fwd, cl, claim, parent)
            continue
        frontier = np.asarray(frontier)
        d = deg[frontier]
        src = frontier.repeat(d)  # the methods skip numpy's function wrappers
        pos = np.arange(src.size)
        dst = fwd[(ptr[frontier] - (d.cumsum() - d)).repeat(d) + pos]
        stamp = np.where(cl[dst] == cl[src], src.size - pos, -1)
        np.maximum.at(claim, dst, stamp)
        won = claim[dst] == stamp
        frontier = dst[won]
        parent[frontier] = src[won]
        claim[frontier] = _CLAIMED


def array_stage(g: Graph, f: FleetModel, mode: str, kernel_of: Optional[np.ndarray] = None) -> Forest:
    """The node stage of ``mode``, one FIFO reap per cluster in founding
    order, in whole-array steps and in the oracle's order: under
    ``koag_seeded`` the kernels that ``kernel_of`` numbers found the
    first clusters (``_kernel_phase``); then ``_beam_loop`` runs over the
    nodes left free, except under ``ooag``, where every non-isolated
    node, in id order, climbs its target chain to its flotilla top and,
    if that is still free, founds a cluster on the beam there.  Such a
    claim takes every free node upstream of the top's beam component,
    along the subjection DAG, so each node joins the earliest claim
    downstream of it (``_founders``).  Only a home's smallest member
    nominates its top: if it founds, its claim covers its home, so no
    larger member of that home is ever fresh.
    """
    _check_model(g, f)
    n = g.n
    cl = np.full(n, -1)
    parent = np.full(n, -1)
    k = touches = 0
    if mode == "koag_seeded":
        k, touches = _kernel_phase(f, kernel_of, cl, parent)
    if mode != "ooag":
        k, more = _beam_loop(f, cl, parent, k)
        return _forest(g, f, cl, parent, k, touches + more)

    ids = np.arange(n)
    iso = f.isolated
    comp = beam_components(f)
    down = (comp[f.rev_children], comp[np.repeat(ids, np.diff(f.rev_indptr))])
    live = np.flatnonzero(~iso)
    climb = live[f.mvc_scaled[f.target[live]] != f.mvc_scaled[live]]
    top = ids.copy()
    top[climb] = f.target[climb]
    chain = np.zeros(n, dtype=np.int64)
    chain[climb] = 1
    top = _jump(top, chain)
    reps = np.flatnonzero(~iso & (comp == ids))
    founders, m = _founders(n, reps, comp[top[reps]], reps, down)

    k = founders.size
    touches = f.rev_children.size + f.beam_leaves.size + int(chain[founders].sum()) + k
    order = np.empty(n, dtype=np.int64)
    order[founders] = np.arange(k)
    cl[~iso] = order[m[comp[~iso]]]
    a = top[founders]
    b = f.target[a]
    parent[a] = b
    del ids, comp, down, live, climb, top, chain, reps, m, order  # dead: the reap is the stage's peak
    _reap_parents(*_forward_arcs(f), cl, np.stack((a, b), axis=1).ravel(), parent)
    return _forest(g, f, cl, parent, k, touches)


def _kernel_phase(f: FleetModel, kernel_of: np.ndarray, cl: np.ndarray, parent: np.ndarray) -> tuple[int, int]:
    """Each kernel (``kernel_of[v]`` its index, numbered by smallest
    member, -1 outside) founds a cluster: a BFS along its beams from its
    smallest member, then a reap of its subjection chains without beam
    crossing.  Kernels are sinks of the subjection DAG (no member
    subjects strictly to anything), so each node joins the least kernel
    downstream of it, by label passes (past their budget, by
    ``_claim_upstream`` over the kernels in order), and the claimed
    nodes are closed upstream.  Fills ``cl`` and ``parent``; returns the
    kernel count and the arcs touched."""
    n = f.n
    members = np.flatnonzero(kernel_of >= 0)
    k = int(kernel_of.max(initial=-1)) + 1
    roots = np.full(k, n)
    np.minimum.at(roots, kernel_of[members], members)
    down = (f.rev_children, np.repeat(np.arange(n), np.diff(f.rev_indptr)))
    m = np.full(n, n)
    m[members] = kernel_of[members]
    if not _settle(m, *down):
        seeds = members[np.argsort(kernel_of[members], kind="stable")]
        m = _claim_upstream(n, *down, seeds, seeds, kernel_of[seeds])[0]
    claimed = m < n
    cl[claimed] = m[claimed]
    _reap_parents(f.beam_indptr, f.beam_leaves, cl, roots, parent)
    _reap_parents(f.rev_indptr, f.rev_children, cl, members, parent)
    return k, int(np.diff(f.rev_indptr)[claimed].sum())


def _beam_loop(f: FleetModel, cl: np.ndarray, parent: np.ndarray, k: int) -> tuple[int, int]:
    """The beam loop over the nodes still free (``cl < 0``), after k
    clusters.  For each beam (a, b), a < b, in order: one with both ends
    free founds cluster k (b the child of a) and claims from both; one
    with a claimed end joins the free end to that end's cluster, as its
    child, and claims from it.  A claim takes every free node reachable
    from its seeds along ``_forward_arcs``: its free end's whole free
    beam component (its home) and everything free upstream.  So only
    the first loose beam of each home can claim, and does when no
    earlier claim reached its home; those beams, numbered in beam order,
    nominate their homes to ``_founders``.  The BFS of ``_reap_parents``
    runs over claim numbers, so a join's BFS stays out of the cluster it
    joins.  Fills ``cl`` and ``parent``; returns the next cluster id and
    the arcs touched."""
    n = f.n
    free = cl < 0
    a, b = half_beams(f)
    fa, fb = free[a], free[b]
    loose = fa | fb
    if not loose.any():
        return k, 0
    both = np.flatnonzero(fa & fb)
    ea, eb = a[both], b[both]
    lab = np.arange(n)
    np.minimum.at(lab, eb, ea)
    comp = _hook(lab, ea, eb)
    home = comp[np.where(fa, a, b)]  # beams with no free end drop out below
    beam = np.arange(a.size)
    first = np.full(n, a.size)
    np.minimum.at(first, home, beam)
    nominated = np.flatnonzero((first[home] == beam) & loose)
    home = home[nominated]
    del fa, fb, loose, both, ea, eb, lab, beam, first  # dead: the reap is the stage's peak
    r, l = f.rev_children, np.repeat(np.arange(n), np.diff(f.rev_indptr))
    up = free[r]
    claimers, m = _founders(n, np.arange(home.size), home, home, (comp[r[up]], comp[l[up]]))

    a, b = a[nominated[claimers]], b[nominated[claimers]]
    found = free[a] & free[b]
    cid = np.empty(home.size, dtype=np.int64)
    cid[claimers] = np.where(found, k + np.cumsum(found) - 1, np.maximum(cl[a], cl[b]))
    joins_a = ~free[b]
    parent[np.where(joins_a, a, b)] = np.where(joins_a, b, a)
    seeds = np.stack((a, b), axis=1).ravel()
    claim = np.where(free, m[comp], n)
    ptr, fwd = _forward_arcs(f)
    _reap_parents(ptr, fwd, claim, seeds[free[seeds]], parent)
    mine = claim < n
    cl[mine] = cid[claim[mine]]
    return k + int(found.sum()), int(np.diff(ptr)[mine].sum())


def node_stage(g: Graph, f: FleetModel) -> Forest:
    """The ``oag_then_merge`` node stage: ``array_stage``'s beam loop over
    all nodes.  Isolated nodes end up as singleton clusters."""
    return array_stage(g, f, "oag_then_merge")


def inheritance_stage(g: Graph, f: FleetModel) -> Forest:
    """Node stage driven by the inheritance chase from every unclaimed node."""
    return array_stage(g, f, "ooag")


# ---------------------------------------------------------------------------
# cluster stage
# ---------------------------------------------------------------------------

_NO_KEY = np.iinfo(np.int64).max  # above every rank key
assert MAX_NODES < 2**32  # cluster ids fit the uint32 labels


def _build_edge_list(g: Graph, forest: Forest) -> None:
    """Every edge that crosses clusters once, as its arc (a, b) with
    a < b, in stored arc order, which is (a, b) order.  The edge of arc i
    gets the rank key (w - wmin) * 2m + i, so keys order the edges by
    (w, a, b) and ``key % 2m`` names the arc.  When that key range does
    not fit in int64, dense weight ranks stand in for w - wmin; those
    keep every key below distinct weights * 2m, and a graph where even
    that overflows int64 is TooLarge rather than given wrapped keys.
    Each key's ends get their cluster ids as uint32: ids stay below
    n <= MAX_NODES < 2**32, and the 2m-wide gathers, the largest arrays
    of the merge stage, are cheaper to fill half as wide."""
    src = g.arc_sources()
    arcs = g.arc_count
    cl = forest.cluster_of.astype(np.uint32)
    ca, cb = cl[src], cl[g.leaves]
    keep = np.flatnonzero((src < g.leaves) & (ca != cb))  # index gathers beat mask gathers here
    forest.label_a, forest.label_b = ca[keep], cb[keep]
    del ca, cb  # the key column can reuse their memory
    key = g.weights[keep]
    lo, hi = (int(key.min()), int(key.max())) if key.size else (0, 0)
    if (hi - lo + 1) * arcs <= _NO_KEY:
        key -= lo
    else:
        ranks, key = np.unique(key, return_inverse=True)
        if ranks.size * arcs > _NO_KEY:
            raise TooLarge(f"{ranks.size} distinct weights on {arcs // 2} edges overflow the int64 rank keys")
    key *= arcs
    key += keep
    forest.edge_key = key


def merge_round(g: Graph, forest: Forest) -> Forest:
    """One Boruvka round over the crossing-edge list.

    Every cluster hooks onto the other end of its crossing edge with the
    least rank key; keys follow (w, a, b), so ties break on the smaller,
    then the larger endpoint.  Mutual pairs keep the smaller id as root,
    pointer jumping flattens the hooks, and the roots are renumbered
    0..k'-1, which relabels ``cluster_of`` and the list's ends.  When no
    cluster hooks, every cluster is Done.  The round counts the arcs it
    examines: all 2m when it builds the list, else twice the keys it
    weighs.  With melioration on, only the first round builds the list
    and each later one first drops for good the keys of edges that ended
    up inside a cluster; off, every round rebuilds it.
    """
    t0 = time.perf_counter()
    arcs = g.arc_count
    if forest.edge_key is None or not forest.melioration:
        _build_edge_list(g, forest)
        scanned = arcs
    else:
        keep = np.flatnonzero(forest.label_a != forest.label_b)
        forest.edge_key = forest.edge_key[keep]
        forest.label_a = forest.label_a[keep]
        forest.label_b = forest.label_b[keep]
        scanned = 2 * forest.edge_key.size
    forest.comparisons += scanned

    k, key = forest.cluster_count, forest.edge_key
    la, lb = forest.label_a, forest.label_b
    # Least crossing key per cluster; _NO_KEY marks none.
    best = np.full(k, _NO_KEY, dtype=np.int64)
    np.minimum.at(best, la, key)
    np.minimum.at(best, lb, key)
    ids = np.arange(k)
    hooked = best < _NO_KEY
    if not hooked.any():
        forest.done = ids
        return forest
    arc = best % arcs  # the chosen edge's arc (a, b)
    parent = ids.copy()
    h = arc[hooked]
    ea = forest.cluster_of[g.arc_sources()[h]]
    eb = forest.cluster_of[g.leaves[h]]
    parent[hooked] = np.where(ea == ids[hooked], eb, ea)
    mutual = (parent[parent] == ids) & (ids < parent)
    parent[mutual] = ids[mutual]
    forest.merged.append(arc[parent != ids])
    parent = _jump(parent)

    roots = np.flatnonzero(parent == ids)
    fresh = np.empty(k, dtype=la.dtype)
    fresh[roots] = np.arange(roots.size)
    fresh = fresh[parent]  # each cluster's id in the next round
    forest.cluster_of = fresh.astype(np.int64)[forest.cluster_of]
    forest.label_a, forest.label_b = fresh[la], fresh[lb]
    forest.done = fresh[~hooked]
    forest.cluster_count = roots.size

    forest.rounds += 1
    forest.per_round.append(
        RoundStats(
            clusters_before=k,
            clusters_after=roots.size,
            arcs_scanned=scanned,
            elapsed=time.perf_counter() - t0,
        )
    )
    return forest


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(g: Graph, mode: str = "ooag", melioration: bool = True) -> MstResult:
    """Full execution: fleet build, node stage per mode, merge rounds,
    then the picked edges and their total (the ``materialise`` phase).

    ``mode="boruvka"`` is the reference line: no fleet model, every node
    starts as its own cluster (k = n) and the merge rounds do all the
    work.  ``melioration=False`` rebuilds the crossing-edge list from
    all 2m arcs every round; the output is the same either way."""
    known = MODES + ("boruvka",)
    if mode not in known:
        raise ValueError(f"unknown mode {mode!r}; expected one of {known}")
    phases: dict[str, float] = {}

    t0 = time.perf_counter()
    f = None if mode == "boruvka" else build_fleet(g)
    phases["fleet_build"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if mode == "oag_then_merge":
        forest = node_stage(g, f)
    elif mode == "ooag":
        forest = inheritance_stage(g, f)
    elif mode == "boruvka":
        forest = Forest(g, np.arange(g.n), np.full(g.n, -1), np.zeros(0, dtype=np.int64))
    else:
        from .kernels import detect_kernels, koag_seed

        forest = koag_seed(g, f, detect_kernels(f))
    forest.melioration = melioration
    phases["node_stage"] = time.perf_counter() - t1
    k_after = forest.cluster_count
    fleet_touches = f.arc_touches if f else 0
    del f  # the merge rounds read the forest only; the model's arrays go first

    t2 = time.perf_counter()
    while forest.cluster_count - len(forest.done) >= 2:
        prev_done = len(forest.done)
        prev_count = forest.cluster_count
        merge_round(g, forest)
        if forest.cluster_count == prev_count and len(forest.done) == prev_done:
            raise NoProgress("merge loop stalled")  # pragma: no cover
    phases["merge_rounds"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    edges, total = forest.materialise()
    phases["materialise"] = time.perf_counter() - t3
    return MstResult(
        edges=edges,
        total=total,
        k_after_node_stage=k_after,
        rounds=forest.rounds,
        comparisons=forest.comparisons,
        per_round=forest.per_round,
        node_arc_touches=forest.node_arc_touches + fleet_touches,
        mode=mode,
        phase_seconds=phases,
    )


def write_tree(result: MstResult, n: int, path) -> None:
    """Tree output format: 'n k total rounds' then one sorted edge per
    line.  ``result.edges`` must be an EdgeColumns; weights and total
    are written exactly, as minimal decimals."""
    edges = result.edges
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {result.k_after_node_stage} {weight_text(result.total)} {result.rounds}\n")
        write_edges(fh, edges.u, edges.v, edges.w, edges.scale)
