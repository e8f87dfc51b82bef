"""Staged minimum-spanning-forest engine.

The node stage reaps clusters out of the fleet model (beam-seeded, or
via the inheritance chase, or kernel-seeded).  The cluster stage then
merges clusters Boruvka-style over one contracting edge list: the first
round lists every edge once, sorted by (weight, smaller endpoint, larger
endpoint); each round every live cluster hooks onto its lowest-ranked
crossing edge, the hooks are flattened into fresh cluster ids, and the
edges now inside a cluster are dropped for good.  Dropping them (the
melioration) only shrinks what later rounds examine; it never changes
a choice.

``perfbench/tracing.py`` re-drives ``run`` step by step, so these names
keep their meaning: ``merge_round(g, forest)``; ``Forest.cluster_count``,
``done`` (ids of clusters with no crossing edge), ``cluster_of`` (the
current id of each node), ``picked``, ``picked_edges()``, ``rounds``,
``comparisons``, ``per_round`` and the settable ``melioration``, read
when each round runs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AlreadyClaimed,
    InconsistentModel,
    NoProgress,
)
from .fleet import FleetModel, build_fleet
from .graph import Graph, Weight

MODES = ("oag_then_merge", "ooag", "koag_seeded")


@dataclass
class RoundStats:
    clusters_before: int
    clusters_after: int
    arcs_scanned: int
    elapsed: float


@dataclass
class MstResult:
    edges: list[tuple[int, int, Weight]]
    total: Weight
    k_after_node_stage: int
    rounds: int
    comparisons: int
    per_round: list[RoundStats]
    node_arc_touches: int
    mode: str
    phase_seconds: dict[str, float] = field(default_factory=dict)


class Forest:
    """Mutable cluster bookkeeping during one engine execution.

    Live cluster ids are always the dense range [base, counter).  The
    node stage writes ``cluster_list`` in place and then calls
    ``invalidate``; the merge rounds assign ``cluster_of`` and keep
    their contracting edge list here.
    Confined to a single execution context; not thread safe.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._cluster_list: Optional[list[int]] = [-1] * graph.n
        self._cluster_np: Optional[np.ndarray] = None
        self.base = 0
        self.counter = 0
        self.rounds = 0
        self.picked: list[tuple[int, int, int]] = []  # (u, v, scaled w), u < v
        self.done: set[int] = set()
        self.melioration = True
        self.comparisons = 0
        self.node_arc_touches = 0
        self.per_round: list[RoundStats] = []
        # Merge-stage edge list, sorted by (w, a, b): endpoints (2, L)
        # with a < b, scaled weights, and current cluster ids (2, L).
        self.edge_ends: Optional[np.ndarray] = None
        self.edge_w: Optional[np.ndarray] = None
        self.edge_labels: Optional[np.ndarray] = None

    # -- cluster ids -----------------------------------------------------

    def new_cluster(self) -> int:
        cid = self.counter
        self.counter += 1
        return cid

    @property
    def cluster_list(self) -> list[int]:
        if self._cluster_list is None:
            self._cluster_list = self._cluster_np.tolist()
        return self._cluster_list

    @property
    def cluster_of(self) -> np.ndarray:
        if self._cluster_np is None:
            self._cluster_np = np.array(self._cluster_list, dtype=np.int64)
        return self._cluster_np

    @cluster_of.setter
    def cluster_of(self, arr: np.ndarray) -> None:
        self._cluster_np = arr
        self._cluster_list = None

    @property
    def cluster_count(self) -> int:
        return self.counter - self.base

    def picked_edges(self) -> list[tuple[int, int, Weight]]:
        g = self.graph
        return sorted((u, v, g.unscale(w)) for u, v, w in self.picked)

    def invalidate(self) -> None:
        """Call after writing ``cluster_list`` directly."""
        self._cluster_np = None


# ---------------------------------------------------------------------------
# node stage
# ---------------------------------------------------------------------------


def _check_model(g: Graph, f: FleetModel) -> None:
    if f.graph is not g and f.graph != g:
        raise InconsistentModel("fleet model was not built from this graph")


def _reap(forest: Forest, tables: dict, queue: deque, cid: int, cross_beams: bool) -> None:
    """Claim everything reachable from the queue by reverse-subjection
    arcs (cluster absorbs whoever subjects to it) and, optionally,
    peer-to-peer beam crossings.  Already-claimed nodes are skipped,
    which is the cycle guard."""
    cl = forest.cluster_list
    rev_ptr = tables["rev_ptr"]
    rev_flat = tables["rev_flat"]
    beam_ptr = tables["beam_ptr"]
    beam_flat = tables["beam_flat"]
    mvc = tables["mvc"]
    picked = forest.picked
    touches = 0
    while queue:
        y = queue.popleft()
        for i in range(rev_ptr[y], rev_ptr[y + 1]):
            touches += 1
            r = rev_flat[i]
            if cl[r] < 0:
                cl[r] = cid
                picked.append((r, y, mvc[r]) if r < y else (y, r, mvc[r]))
                queue.append(r)
        if cross_beams:
            for i in range(beam_ptr[y], beam_ptr[y + 1]):
                touches += 1
                b = beam_flat[i]
                if cl[b] < 0:
                    cl[b] = cid
                    picked.append((y, b, mvc[b]) if y < b else (b, y, mvc[b]))
                    queue.append(b)
    forest.node_arc_touches += touches


def _claim_isolated(forest: Forest, tables: dict) -> None:
    cl = forest.cluster_list
    for v, iso in enumerate(tables["isolated"]):
        if iso and cl[v] < 0:
            cl[v] = forest.new_cluster()


def node_stage(g: Graph, f: FleetModel, forest: Optional[Forest] = None) -> Forest:
    """Beam-seeded reaping: every still-unclaimed beam pair founds a
    cluster, which then absorbs its subjection chains and crosses beams
    peer-to-peer.  Isolated nodes end up as singleton clusters."""
    _check_model(g, f)
    if forest is None:
        forest = Forest(g)
    tables = f.chase_tables()
    cl = forest.cluster_list
    beam_ptr = tables["beam_ptr"]
    beam_flat = tables["beam_flat"]
    mvc = tables["mvc"]
    for a in range(g.n):
        for i in range(beam_ptr[a], beam_ptr[a + 1]):
            b = beam_flat[i]
            if b < a:
                continue
            if cl[a] < 0 and cl[b] < 0:
                cid = forest.new_cluster()
                cl[a] = cid
                cl[b] = cid
                forest.picked.append((a, b, mvc[a]))
                _reap(forest, tables, deque((a, b)), cid, cross_beams=True)
    _claim_isolated(forest, tables)
    forest.invalidate()
    return forest


def inheritance_chase(g: Graph, f: FleetModel, start: int, forest: Forest) -> int:
    """Climb from start along towboat/beam links to a flotilla top, then
    reap downward and peer-to-peer exactly as the node stage does.

    The upward moves never pick edges; they only relocate the inheritor,
    so the invert pitfall cannot occur.  Returns the cluster id that
    ends up owning start."""
    _check_model(g, f)
    g._check_id(start)
    if forest.cluster_list[start] >= 0:
        raise AlreadyClaimed(f"node {start} already belongs to a cluster")
    tables = f.chase_tables()
    cl = forest.cluster_list
    if tables["isolated"][start]:
        cid = forest.new_cluster()
        cl[start] = cid
        return cid
    target = tables["target"]
    mvc = tables["mvc"]

    x = start
    while True:
        t = target[x]
        forest.node_arc_touches += 1
        if cl[t] >= 0:
            # Climb hits claimed territory: that cluster absorbs x.
            cid = cl[t]
            cl[x] = cid
            forest.picked.append((x, t, mvc[x]) if x < t else (t, x, mvc[x]))
            _reap(forest, tables, deque((x,)), cid, cross_beams=True)
            return cl[start]
        if mvc[t] == mvc[x]:
            # The edge to the target is a beam: we are at a top.
            cid = forest.new_cluster()
            cl[x] = cid
            cl[t] = cid
            forest.picked.append((x, t, mvc[x]) if x < t else (t, x, mvc[x]))
            _reap(forest, tables, deque((x, t)), cid, cross_beams=True)
            return cl[start]
        x = t


def inheritance_stage(g: Graph, f: FleetModel, forest: Optional[Forest] = None) -> Forest:
    """Node stage driven by the inheritance chase from every unclaimed node."""
    _check_model(g, f)
    if forest is None:
        forest = Forest(g)
    tables = f.chase_tables()
    cl = forest.cluster_list
    iso = tables["isolated"]
    for v in range(g.n):
        if cl[v] < 0 and not iso[v]:
            inheritance_chase(g, f, v, forest)
    _claim_isolated(forest, tables)
    forest.invalidate()
    return forest


# ---------------------------------------------------------------------------
# cluster stage
# ---------------------------------------------------------------------------


def _build_edge_list(g: Graph, forest: Forest) -> None:
    """Every edge once as (a, b) with a < b, sorted by (w, a, b).  Arcs
    are stored in (src, dst) order, so a stable sort on w suffices."""
    src = g.arc_sources()
    keep = src < g.leaves
    ends = np.stack((src[keep], g.leaves[keep]))
    w = g.weights[keep]
    order = np.argsort(w, kind="stable")
    forest.edge_ends = ends[:, order]
    forest.edge_w = w[order]
    forest.edge_labels = forest.cluster_of[forest.edge_ends]


def merge_round(g: Graph, forest: Forest) -> Forest:
    """One Boruvka round over the contracting edge list.

    Every cluster hooks onto the other end of its lowest-ranked crossing
    edge; ranks follow (w, a, b), so ties break on the smaller, then the
    larger endpoint.  Mutual pairs keep the smaller id as root, pointer
    jumping flattens the hooks, and roots get fresh ids from the
    counter.  Clusters without a crossing edge are Done.  The round
    counts the arcs it examines: all 2m when it builds the list, else
    twice the edges left in it.  With melioration on, edges that end up
    inside a cluster are dropped for good; off, every round rescans all.
    """
    t0 = time.perf_counter()
    if forest.edge_ends is None:
        _build_edge_list(g, forest)
    scanned = 2 * forest.edge_w.size
    forest.comparisons += scanned

    base, k = forest.base, forest.cluster_count
    lab = forest.edge_labels - base
    live = np.flatnonzero(lab[0] != lab[1])
    if live.size == 0:
        forest.done = set(range(base, forest.counter))
        return forest

    # Lowest-ranked crossing edge per cluster; the list length marks none.
    best = np.full(k, forest.edge_w.size, dtype=np.int64)
    np.minimum.at(best, lab[0, live], live)
    np.minimum.at(best, lab[1, live], live)
    ids = np.arange(k)
    hooked = best < forest.edge_w.size
    parent = ids.copy()
    e = best[hooked]
    parent[hooked] = np.where(lab[0, e] == ids[hooked], lab[1, e], lab[0, e])
    mutual = (parent[parent] == ids) & (ids < parent)
    parent[mutual] = ids[mutual]
    child = parent != ids
    e = best[child]
    forest.picked.extend(zip(*forest.edge_ends[:, e].tolist(), forest.edge_w[e].tolist()))
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up

    roots = np.flatnonzero(parent == ids)
    fresh = np.empty(k, dtype=np.int64)
    fresh[roots] = forest.counter + np.arange(roots.size)
    fresh = fresh[parent]
    forest.cluster_of = fresh[forest.cluster_of - base]
    forest.edge_labels = fresh[lab]
    forest.done = set(fresh[~hooked].tolist())
    forest.base = forest.counter
    forest.counter += roots.size
    if forest.melioration:
        keep = forest.edge_labels[0] != forest.edge_labels[1]
        forest.edge_ends = forest.edge_ends[:, keep]
        forest.edge_w = forest.edge_w[keep]
        forest.edge_labels = forest.edge_labels[:, keep]

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
    """Full execution: fleet build, node stage per mode, merge rounds.

    ``melioration=False`` keeps every edge in the list, so each round
    rescans all 2m arcs; the output is the same either way."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    phases: dict[str, float] = {}

    t0 = time.perf_counter()
    f = build_fleet(g)
    phases["fleet_build"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if mode == "oag_then_merge":
        forest = node_stage(g, f)
    elif mode == "ooag":
        forest = inheritance_stage(g, f)
    else:
        from .kernels import detect_kernels, koag_seed

        forest = koag_seed(g, f, detect_kernels(f))
    forest.melioration = melioration
    phases["node_stage"] = time.perf_counter() - t1
    k_after = forest.cluster_count

    t2 = time.perf_counter()
    while forest.cluster_count - len(forest.done) >= 2:
        prev_done = len(forest.done)
        prev_count = forest.cluster_count
        merge_round(g, forest)
        if forest.cluster_count == prev_count and len(forest.done) == prev_done:
            raise NoProgress("merge loop stalled")  # pragma: no cover
    phases["merge_rounds"] = time.perf_counter() - t2

    total_scaled = sum(w for _, _, w in forest.picked)
    return MstResult(
        edges=forest.picked_edges(),
        total=g.unscale(total_scaled),
        k_after_node_stage=k_after,
        rounds=forest.rounds,
        comparisons=forest.comparisons,
        per_round=forest.per_round,
        node_arc_touches=forest.node_arc_touches + f.arc_touches,
        mode=mode,
        phase_seconds=phases,
    )


def _fmt(w: Weight) -> str:
    """Render an exact weight as a decimal string."""
    if isinstance(w, int):
        return str(w)
    from .graph import format_weight

    from fractions import Fraction

    f = Fraction(w)
    scale = 1
    while (f * scale).denominator != 1:
        scale *= 10
    return format_weight(int(f * scale), scale)


def write_tree(result: MstResult, n: int, path) -> None:
    """Tree output format: 'n k total rounds' then one sorted edge per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{n} {result.k_after_node_stage} {_fmt(result.total)} {result.rounds}\n"
        )
        for u, v, w in result.edges:
            fh.write(f"{u} {v} {_fmt(w)}\n")
