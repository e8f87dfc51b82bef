"""Canonical graph representation: one star subgraph per node.

An undirected simple graph is stored as a CSR adjacency over arcs, i.e.
every edge {u, v} appears as the two opposite arcs (u, v) and (v, u).
Weights are exact: integers, or fixed-precision decimals held as scaled
integers (scale is a power of ten shared by the whole graph).  Binary
floats are rejected because downstream tie detection relies on exact
weight equality.
"""

from __future__ import annotations

import numbers
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DuplicateEdge,
    IdOutOfRange,
    InvalidWeight,
    NonPositiveWeight,
    ParseError,
    SelfLoop,
    UnknownEdge,
)

Weight = Union[int, Fraction]
WeightLike = Union[int, str, Fraction, Decimal]


class Awt(NamedTuple):
    """One arc of a star subgraph: root, leaf and the shared edge weight."""

    root: int
    leaf: int
    weight: Weight


def _as_fraction(w: WeightLike) -> Fraction:
    if isinstance(w, bool):
        raise InvalidWeight(f"bool is not a weight: {w!r}")
    if isinstance(w, (int, np.integer)):
        return Fraction(int(w))
    if isinstance(w, Fraction):
        return w
    if isinstance(w, Decimal):
        return Fraction(w)
    if isinstance(w, str):
        try:
            return Fraction(Decimal(w))
        except Exception:
            raise InvalidWeight(f"cannot parse weight {w!r}") from None
    if isinstance(w, float):
        raise InvalidWeight(
            f"binary float weight {w!r} rejected; pass an int or a decimal string"
        )
    raise InvalidWeight(f"unsupported weight type {type(w).__name__}")


def _decimal_places(f: Fraction) -> int:
    """Number of decimal digits needed, or raise if not a decimal."""
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise InvalidWeight(f"{f} is not representable as a fixed-precision decimal")
    return max(twos, fives)


def scale_weights(raw: Sequence[WeightLike]) -> tuple[np.ndarray, int]:
    """Convert weights to (scaled int64 array, scale) with minimal scale."""
    fracs = [_as_fraction(w) for w in raw]
    places = 0
    for f in fracs:
        places = max(places, _decimal_places(f))
    scale = 10**places
    vals = [int(f * scale) for f in fracs]
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    if vals and not lo <= min(vals) <= max(vals) <= hi:
        f = next(f for f, v in zip(fracs, vals) if not lo <= v <= hi)
        raise InvalidWeight(f"weight {f} at scale {scale} does not fit in 64 bits")
    return np.array(vals, dtype=np.int64), scale


def format_weight(scaled: int, scale: int) -> str:
    """Render a scaled weight as its minimal decimal string."""
    if scale == 1:
        return str(int(scaled))
    q, r = divmod(int(scaled), scale)
    if r == 0:
        return str(q)
    digits = str(r).rjust(len(str(scale)) - 1, "0").rstrip("0")
    return f"{q}.{digits}"


def unscale(scaled: int, scale: int) -> Weight:
    """Scaled integer back to an exact public weight value."""
    if scale == 1:
        return int(scaled)
    f = Fraction(int(scaled), scale)
    return int(f) if f.denominator == 1 else f


class Graph:
    """Immutable undirected weighted simple graph.

    Safe for shared concurrent reads; construction is single-threaded.
    """

    __slots__ = ("n", "m", "indptr", "leaves", "weights", "scale", "_arc_src")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        leaves: np.ndarray,
        weights: np.ndarray,
        scale: int,
    ):
        self.n = n
        self.m = leaves.size // 2
        self.indptr = indptr
        self.leaves = leaves
        self.weights = weights
        self.scale = scale
        self._arc_src = None

    @property
    def arc_count(self) -> int:
        """Total arcs, i.e. sum of leaf-set sizes (= 2m)."""
        return int(self.leaves.size)

    def degree(self, r: int) -> int:
        self._check_id(r)
        return int(self.indptr[r + 1] - self.indptr[r])

    def arc_sources(self) -> np.ndarray:
        """Per-arc root id, aligned with .leaves / .weights (cached)."""
        if self._arc_src is None:
            counts = np.diff(self.indptr)
            self._arc_src = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        return self._arc_src

    def weight_between(self, u: int, v: int) -> int | None:
        """Scaled weight of edge {u, v}, or None if absent."""
        self._check_id(u)
        self._check_id(v)
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        pos = lo + int(np.searchsorted(self.leaves[lo:hi], v))
        if pos < hi and self.leaves[pos] == v:
            return int(self.weights[pos])
        return None

    def edge_list(self) -> list[tuple[int, int, int]]:
        """All edges as (u, v, scaled weight) with u < v, sorted."""
        src = self.arc_sources()
        keep = src < self.leaves
        u = src[keep]
        v = self.leaves[keep]
        w = self.weights[keep]
        return list(zip(u.tolist(), v.tolist(), w.tolist()))

    def unscale(self, scaled: int) -> Weight:
        return unscale(scaled, self.scale)

    def _check_id(self, r: int) -> None:
        if not 0 <= r < self.n:
            raise IdOutOfRange(f"node id {r} not in [0, {self.n})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.scale == other.scale
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.leaves, other.leaves)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.scale))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, scale={self.scale})"


def graph_from_arrays(
    n: int, u: np.ndarray, v: np.ndarray, w_scaled: np.ndarray, scale: int
) -> Graph:
    """Validating fast path used by generators and build_graph."""
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


def build_graph(
    n: int, edges: Iterable[tuple[int, int, WeightLike]]
) -> Graph:
    """Build a validated Graph from an (u, v, w) edge list.

    Rejects duplicate unordered pairs, self loops, non-positive weights
    and out-of-range ids.  The result is independent of edge order.
    """
    if n < 0:
        raise IdOutOfRange(f"negative node count {n}")
    edges = list(edges)
    us = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    vs = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    ws, scale = scale_weights([e[2] for e in edges])
    return graph_from_arrays(n, us, vs, ws, scale)


def united_subgraph(g: Graph, r: int) -> list[Awt]:
    """All arcs rooted at r, ascending by leaf id (empty for isolated r)."""
    g._check_id(r)
    lo, hi = int(g.indptr[r]), int(g.indptr[r + 1])
    return [
        Awt(r, int(leaf), g.unscale(int(w)))
        for leaf, w in zip(g.leaves[lo:hi], g.weights[lo:hi])
    ]


def total_weight(g: Graph, edges: Iterable[tuple[int, int]]) -> Weight:
    """Sum of weights over the given unordered edge pairs (duplicate-free)."""
    seen = set()
    acc = 0
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        w = g.weight_between(u, v)
        if w is None:
            raise UnknownEdge(f"({u}, {v}) is not an edge of the graph")
        acc += w
    return g.unscale(acc)


def read_graph(path) -> Graph:
    """Parse the edge-list text format (see write_graph)."""
    n = m = None
    us: list[int] = []
    vs: list[int] = []
    ws: list[WeightLike] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2:
                    raise ParseError(line_no, f"expected 'n m', got {line!r}")
                try:
                    n, m = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError(line_no, f"bad header {line!r}") from None
                if n < 0 or m < 0:
                    raise ParseError(line_no, "negative n or m")
                continue
            if len(parts) != 3:
                raise ParseError(line_no, f"expected 'u v w', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad node id in {line!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise IdOutOfRange(
                    f"id out of range [0, {n}) at line {line_no}: {line!r}"
                )
            if u == v:
                raise SelfLoop(f"self loop at line {line_no}: {line!r}")
            try:
                w = _as_fraction(parts[2])
            except InvalidWeight:
                raise ParseError(line_no, f"bad weight {parts[2]!r}") from None
            if w <= 0:
                raise NonPositiveWeight(
                    f"non-positive weight at line {line_no}: {line!r}"
                )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"duplicate edge at line {line_no}: {line!r}")
            seen.add(key)
            us.append(u)
            vs.append(v)
            ws.append(w)
    if n is None:
        raise ParseError(1, "empty file, missing 'n m' header")
    if len(us) != m:
        raise ParseError(line_no if us or m else 1, f"expected {m} edges, found {len(us)}")
    w_arr, scale = scale_weights(ws)
    return graph_from_arrays(
        n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), w_arr, scale
    )


def write_graph(g: Graph, path, comments: Sequence[str] = ()) -> None:
    """Write the edge-list format: 'n m' header, then 'u v w' per edge.

    Edges are emitted with u < v, sorted lexicographically, so that
    read_graph(write_graph(g)) reproduces g exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"{g.n} {g.m}\n")
        out = [
            f"{u} {v} {format_weight(w, g.scale)}"
            for u, v, w in g.edge_list()
        ]
        if out:
            fh.write("\n".join(out))
            fh.write("\n")
