"""Cutting-graph model: per-node MVC, subjection arcs, beams, chains.

For every non-isolated node we record the minimum weight in its star
subgraph (its MVC) and a single subjection target: the smallest-id leaf
achieving that minimum.  Beams are detected by weight equality on the
shared edge (the edge weight equals both endpoints' MVCs), independent
of which target each endpoint happened to choose, so beams stay
well-defined under duplicate weights.

The build makes one pass over all 2m arcs for the MVCs and one to find
the arcs at their root's MVC; everything else (targets, the beam and
reverse-subjection indexes, the towboat and boat flags) is read off
those arcs alone.  Each such arc (r, l) is a beam when w = mvc(l), else
r subjects strictly to l, since mvc(l) <= w always.  The half beams,
each beam once as (a, b) with a < b, are read off the beam arcs there
too, once per model, for the beam components and the beam loop.

Components are labelled in one place: ``_hook`` (hooking and pointer
jumping, no round budget) gives the beam components the node stage and
kernel detection start from.

Compactions gather by index: a mask with scattered true entries becomes
its indices once (``np.flatnonzero``), which numpy gathers through 3-5x
faster; one that is a run or nearly all true (``~iso``) stays a mask.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import IsolatedNode
from .graph import Graph

_NO_NODE = -1


class FleetModel:
    """Immutable view of all subjection/beam relations of one graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        g = graph
        n = g.n
        w = g.weights
        leaves = g.leaves
        indptr = g.indptr
        src = g.arc_sources()

        sentinel = np.iinfo(np.int64).max
        deg = np.diff(indptr)
        isolated = deg == 0
        rows = np.nonzero(deg > 0)[0]
        mvc = np.full(n, sentinel, dtype=np.int64)
        target = np.full(n, _NO_NODE, dtype=np.int64)
        if rows.size:
            # reduceat over nonempty rows only: consecutive nonempty row
            # starts delimit exactly one row each.
            mvc[rows] = np.minimum.reduceat(w, indptr[rows])
        # The arcs (r, l) at their root's MVC, in (r, l) order: each is a
        # beam or a strict subjection (module docstring).  A row's first
        # one holds its smallest target leaf; every nonempty row has one.
        at_min = np.flatnonzero(w == mvc[src])
        root, leaf = src[at_min], leaves[at_min]
        first = np.ones(at_min.size, dtype=bool)
        first[1:] = root[1:] != root[:-1]
        target[rows] = leaf[np.flatnonzero(first)]
        is_beam = w[at_min] == mvc[leaf]
        half = np.flatnonzero(is_beam & (root < leaf))
        self._half_beams = (root[half], leaf[half])
        for ends in self._half_beams:
            ends.flags.writeable = False  # shared by every half_beams caller
        beam, strict = np.flatnonzero(is_beam), np.flatnonzero(~is_beam)
        del at_min, first, is_beam, half  # the build's peak is what it holds at its end
        self.beam_indptr = _indptr(root[beam], n)
        self.beam_leaves = leaf[beam]  # already sorted by (src, leaf)

        # Reverse index of strict subjection: rev_children under leaf l
        # lists every root r with an arc (r, l) of weight mvc(r) and
        # mvc(l) < mvc(r), ascending (a stable sort of arcs already in
        # root order).  Subjection is existential (any minimum-weight arc
        # qualifies), so one node can appear under several leaves; beams
        # are kept in their own index above.
        sl = leaf[strict]
        self.rev_children = root[strict][np.argsort(sl, kind="stable")]
        self.rev_indptr = _indptr(sl, n)

        # r has a towboat iff it subjects strictly to some leaf, and a boat
        # (an arc (r, l) with w = mvc(l) > mvc(r)) iff some l subjects
        # strictly to r.
        self.has_towboat = np.bincount(self.rev_children, minlength=n) > 0
        self.has_boat = np.diff(self.rev_indptr) > 0

        self.mvc_scaled = mvc
        self.target = target
        self.isolated = isolated
        # Arc-touch audit: one pass for MVCs, one for beams/classification.
        self.arc_touches = 2 * g.arc_count
        self._tables = None

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return self.graph.n

    def in_beam(self, r: int) -> bool:
        self.graph._check_id(r)
        return self.beam_indptr[r + 1] > self.beam_indptr[r]

    # -- plain-list tables ---------------------------------------------------

    def chase_tables(self) -> dict:
        """Plain-list copies of the model's arrays, for loops in plain
        Python (cached)."""
        if self._tables is None:
            self._tables = {
                "target": self.target.tolist(),
                "mvc": self.mvc_scaled.tolist(),
                "rev_ptr": self.rev_indptr.tolist(),
                "rev_flat": self.rev_children.tolist(),
                "beam_ptr": self.beam_indptr.tolist(),
                "beam_flat": self.beam_leaves.tolist(),
                "isolated": self.isolated.tolist(),
            }
        return self._tables


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers over n rows for entries in rows ``rows``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def build_fleet(g: Graph) -> FleetModel:
    """Compute MVCs, subjection arcs, beams and classifications for g."""
    return FleetModel(g)


def trace_chain(f: FleetModel, start: int) -> list[int]:
    """Follow subjection targets from start until a beam member is hit.

    The MVC sequence along the returned path is non-increasing and the
    path has at most n nodes.
    """
    f.graph._check_id(start)
    if f.isolated[start]:
        raise IsolatedNode(f"node {start} has no neighbors")
    path = [start]
    cur = start
    while not f.in_beam(cur):
        cur = int(f.target[cur])
        path.append(cur)
        if len(path) > f.n:  # pragma: no cover - Theorem 1 forbids this
            raise RuntimeError("subjection chain did not converge")
    return path


def half_beams(f: FleetModel) -> tuple[np.ndarray, np.ndarray]:
    """Every beam once as (a, b) with a < b, sorted; read-only arrays
    that the model keeps."""
    return f._half_beams


def _jump(p: np.ndarray, dist: Optional[np.ndarray] = None) -> np.ndarray:
    """Pointer jumping: every node of the forest p (roots point at
    themselves) pointed straight at its root.  Each pass halves every
    depth, so it ends within ceil(log2 n) + 1 passes.  With ``dist`` (1
    per non-root, 0 per root) it becomes each node's distance to its
    root, in place (list ranking)."""
    while True:
        up = p[p]
        if np.array_equal(up, p):
            return p
        if dist is not None:
            dist += dist[p]
        p = up


def _hook(lab: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The components of the edges (a, b), each node labelled by its
    smallest member (Shiloach & Vishkin).  ``lab`` is a forest in which
    every node points at a member of its component no larger than
    itself.  Each round pointer jumping flattens it and every root hooks
    onto the smallest root across an edge, if that is smaller.  A root
    with such an edge hooks, is hooked onto, or is a local minimum whose
    neighbours all hooked onto smaller roots, and then hooks the next
    round; so the unfinished components at least halve every two rounds,
    and the loop ends within 2 * ceil(log2 n) + 2 rounds."""
    while True:
        lab = _jump(lab)
        la, lb = lab[a], lab[b]
        cross = np.flatnonzero(la != lb)
        if not cross.size:
            return lab
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))


def beam_components(f: FleetModel) -> np.ndarray:
    """Each node's beam component, labelled by its smallest member.
    Every node first hooks onto its smallest partner if that is smaller;
    ``_hook`` joins the rest."""
    ptr, partner = f.beam_indptr, f.beam_leaves
    lab = np.arange(f.n)
    member = np.flatnonzero(np.diff(ptr))
    lab[member] = np.minimum(member, partner[ptr[member]])
    return _hook(lab, *half_beams(f))
