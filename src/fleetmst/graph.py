"""Canonical graph representation: one star subgraph per node.

An undirected simple graph is stored as a CSR adjacency over arcs, i.e.
every edge {u, v} appears as the two opposite arcs (u, v) and (v, u).
Weights are exact: integers, or fixed-precision decimals held as scaled
integers (scale is a power of ten shared by the whole graph).  Binary
floats are rejected because downstream tie detection relies on exact
weight equality.

Every graph (from the generators, build_graph or read_graph) is built by
graph_from_arrays with one sort of its 2m int64 arc keys ``u * n + v``;
for those keys to fit in int64, n is at most MAX_NODES.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    DuplicateEdge,
    GraphError,
    IdOutOfRange,
    InvalidWeight,
    NonPositiveWeight,
    ParseError,
    SelfLoop,
    TooLarge,
)

Weight = Union[int, Fraction]
WeightLike = Union[int, str, Fraction, Decimal]

# The largest n with n * n < 2**63, so that every arc key u * n + v fits
# in int64 (the verifier and Forest key edges the same way).
MAX_NODES = 3_037_000_499


def _as_fraction(w: WeightLike) -> Fraction:
    if isinstance(w, str):  # first: the file readers pass tokens
        try:
            return Fraction(Decimal(w))
        except Exception:
            raise InvalidWeight(f"cannot parse weight {w!r}") from None
    if isinstance(w, bool):
        raise InvalidWeight(f"bool is not a weight: {w!r}")
    if isinstance(w, (int, np.integer)):
        return Fraction(int(w))
    if isinstance(w, Fraction):
        return w
    if isinstance(w, Decimal):
        return Fraction(w)
    if isinstance(w, float):
        raise InvalidWeight(
            f"binary float weight {w!r} rejected; pass an int or a decimal string"
        )
    raise InvalidWeight(f"unsupported weight type {type(w).__name__}")


def _show(w: Weight) -> str:
    """The weight as text, or its order of magnitude when it has more
    than about 38 digits."""
    if max(abs(w.numerator), w.denominator).bit_length() <= 128:
        return str(w)
    return f"of about 1e{round(math.log10(abs(w.numerator)) - math.log10(w.denominator))}"


def decimal_places(w: Weight) -> int:
    """Number of decimal digits needed to write w exactly, or raise if
    it is not a finite decimal.  Its denominator must be 2**a * 5**b,
    and the count is max(a, b); no loop over the digits."""
    den = w.denominator
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = round(math.log(rest, 5))
    if 5**fives != rest:
        raise InvalidWeight(f"{_show(w)} is not representable as a fixed-precision decimal")
    return max(twos, fives)


def scale_weights(raw: Sequence[WeightLike], lines: Sequence[int] = ()) -> tuple[np.ndarray, int]:
    """Convert weights to (scaled int64 array, scale) with minimal scale.
    Python ints and Fractions are taken as they are, any other weight
    through _as_fraction.  A weight beyond int64 at the scale is an
    InvalidWeight, naming its line when ``lines`` gives each weight's."""
    ws = [w if type(w) in (int, Fraction) else _as_fraction(w) for w in raw]
    places = max((decimal_places(w) for w in ws if type(w) is not int), default=0)
    scale = 10**places
    # Exact, and no Fraction multiply: every denominator divides the scale.
    vals = [w.numerator * (scale // w.denominator) for w in ws]
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    if vals and not lo <= min(vals) <= max(vals) <= hi:
        i = next(i for i, v in enumerate(vals) if not lo <= v <= hi)
        at = f" at line {lines[i]}" if lines else ""
        raise InvalidWeight(f"weight {_show(ws[i])} at scale 1e{places} does not fit in 64 bits{at}")
    return np.array(vals, dtype=np.int64), scale


def format_weight(scaled: int, scale: int) -> str:
    """Render a scaled weight as its minimal decimal string; scale is a
    power of ten."""
    if scale == 1:
        return str(int(scaled))
    q, r = divmod(int(scaled), scale)
    if r == 0:
        return str(q)
    places = round(math.log10(scale))
    digits = str(r).rjust(places, "0").rstrip("0")
    return f"{q}.{digits}"


def exact_sum(w: np.ndarray) -> int:
    """The sum of positive int64 weights as a Python int, without
    overflow: in int64 when max(w) * count < 2**63, else as Python ints."""
    if w.size == 0 or int(w.max()) * w.size < 2**63:
        return int(w.sum())
    return sum(w.tolist())


def unscale(scaled: int, scale: int) -> Weight:
    """Scaled integer back to an exact public weight value."""
    if scale == 1:
        return int(scaled)
    f = Fraction(int(scaled), scale)
    return int(f) if f.denominator == 1 else f


class Graph:
    """Immutable undirected weighted simple graph.

    Its arrays are read-only (``writeable=False``), so an in-place write
    raises ValueError instead of desynchronising models built from it.
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
        for arr in (indptr, leaves, weights):
            arr.flags.writeable = False
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

    def arc_sources(self) -> np.ndarray:
        """Per-arc root id, aligned with .leaves / .weights (cached)."""
        if self._arc_src is None:
            counts = np.diff(self.indptr)
            self._arc_src = np.repeat(np.arange(self.n, dtype=np.int64), counts)
            self._arc_src.flags.writeable = False
        return self._arc_src

    def half_arcs(self) -> np.ndarray:
        """Indices of the arcs (u, v) with u < v: every edge once, sorted
        on (u, v) (not cached)."""
        return np.flatnonzero(self.arc_sources() < self.leaves)

    def edge_list(self) -> list[tuple[int, int, int]]:
        """All edges as (u, v, scaled weight) with u < v, sorted."""
        half = self.half_arcs()
        cols = (self.arc_sources()[half], self.leaves[half], self.weights[half])
        return list(zip(*(c.tolist() for c in cols)))

    def unscale(self, scaled: int) -> Weight:
        return unscale(scaled, self.scale)

    def _check_id(self, r: int) -> None:
        if not _is_id(r, self.n):
            raise IdOutOfRange(f"node id {r!r} is not an integer in [0, {self.n})")

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
    n: int, u: np.ndarray, v: np.ndarray, w_scaled: np.ndarray, scale: int, lines: Sequence[int] = ()
) -> Graph:
    """Validating fast path behind the generators, build_graph and
    read_graph, and the only self-loop, sign and duplicate check.

    After the id, self-loop and weight checks, in that order, n must be
    at most MAX_NODES.  Each edge gives two arc keys ``u * n + v`` and
    ``v * n + u``, and one stable argsort of those 2m keys orders the
    CSR rows.  Equal neighbouring keys are a duplicate edge; the first
    is the smallest duplicated pair (a, b) with a < b.  When ``lines``
    gives each edge's line, an error names the line of the edge it
    reports: the first self loop or non-positive weight, or the second
    copy of that duplicated pair.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w_scaled = np.asarray(w_scaled, dtype=np.int64)

    def at(i) -> str:
        return f" at line {lines[i]}" if lines else ""

    if u.size:
        if u.min(initial=0) < 0 or v.min(initial=0) < 0 or max(u.max(), v.max()) >= n:
            bad = np.nonzero((u < 0) | (v < 0) | (u >= n) | (v >= n))[0][0]
            raise IdOutOfRange(
                f"edge ({u[bad]}, {v[bad]}) has an id outside [0, {n})"
            )
        loops = np.nonzero(u == v)[0]
        if loops.size:
            raise SelfLoop(f"self loop at node {int(u[loops[0]])}{at(loops[0])}")
        nonpos = np.nonzero(w_scaled <= 0)[0]
        if nonpos.size:
            raise NonPositiveWeight(
                f"edge ({int(u[nonpos[0]])}, {int(v[nonpos[0]])}) has non-positive weight{at(nonpos[0])}"
            )
    if n > MAX_NODES:
        raise TooLarge(f"{n} nodes exceed the limit of {MAX_NODES}")
    key = np.concatenate([u * n + v, v * n + u])
    order = np.argsort(key, kind="stable")
    key = key[order]
    dup = np.flatnonzero(key[1:] == key[:-1])
    if dup.size:
        a, b = divmod(int(key[dup[0]]), n)
        copies = np.sort(order[key == key[dup[0]]] % u.size)
        raise DuplicateEdge(f"edge ({a}, {b}) appears more than once{at(copies[1])}")
    leaves = np.concatenate([v, u])[order]
    weights = np.concatenate([w_scaled, w_scaled])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=indptr[1:])
    return Graph(n, indptr, leaves, weights, scale)


def build_graph(n: int, edges: Iterable[tuple[int, int, WeightLike]]) -> Graph:
    """Build a validated Graph from (u, v, w) triples (see edge_columns).

    Rejects duplicate unordered pairs, self loops, non-positive weights
    and ids that are not integers in [0, n): an id must be a Python or
    numpy integer, never a bool, float, str or Fraction, so nothing is
    truncated.  n must be such an integer, at most MAX_NODES, too.  The
    result is independent of edge order.
    """
    if not _is_id(n, math.inf):
        raise IdOutOfRange(f"node count {n!r} is not a non-negative integer")
    if n > MAX_NODES:
        raise TooLarge(f"{n} nodes exceed the limit of {MAX_NODES}")
    return graph_from_arrays(n, *edge_columns(n, edges))


def edge_columns(n: int, edges: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The edges as int64 columns (u, v, w in units of 1/scale) and
    their scale, by scale_weights.  Each edge must be a (u, v, w)
    triple whose ids are integers in [0, n) (see _is_id); anything else
    is a GraphError."""
    us, vs, ws = [], [], []
    for e in edges:
        try:
            u, v, w = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a (u, v, w) triple") from None
        if not (_is_id(u, n) and _is_id(v, n)):
            raise IdOutOfRange(f"edge ({u!r}, {v!r}) has an id that is not an integer in [0, {n})")
        us.append(u)
        vs.append(v)
        ws.append(w)
    w_arr, scale = scale_weights(ws)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), w_arr, scale


def _is_id(r, n: int) -> bool:
    """Whether r is a Python or numpy integer, not a bool, in [0, n)."""
    return not isinstance(r, bool) and isinstance(r, (int, np.integer)) and 0 <= r < n


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a text file that is
    not blank or a '#' comment; bytes that are not UTF-8 read as U+FFFD."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line_no, line


def _exact(token: str) -> Weight:
    """An exact weight token's value: int(token), with no Fraction, for up
    to 18 decimal digits (always within int64), else _as_fraction(token)."""
    return int(token) if token.isdecimal() and len(token) <= 18 else _as_fraction(token)


def read_header(path, form: str, kind: str) -> tuple[int, list, Iterator[tuple[int, str]]]:
    """The header line number, the header fields and the remaining lines
    of an edge file.  The header is its first line (see read_lines), of the
    given form, such as 'n m': non-negative integers and exact 'total'."""
    lines = read_lines(path)
    line_no, line = next(lines, (1, ""))
    parts, names = line.split(), form.split()
    if not parts:
        raise ParseError(1, f"no header {form!r} in the {kind} file")
    if len(parts) != len(names):
        raise ParseError(line_no, f"expected {form!r}, got {line!r}")
    try:
        vals = [_exact(t) if name == "total" else int(t) for name, t in zip(names, parts)]
        if min(vals) >= 0:
            return line_no, vals, lines
    except (ValueError, InvalidWeight):
        pass
    raise ParseError(line_no, f"bad header {line!r}")


def read_edges(lines, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, list[int]]:
    """The (line number, 'u v w' line) pairs of an edge file (see
    read_lines) as int64 columns in file order, the ends as written:
    (u, v, w in units of 1/scale, scale, each edge's line number).  A
    line needs integer ids in [0, n) and an exact weight; the weights
    are scaled by scale_weights.  Errors name their line: parse and
    range errors in file order, then a weight beyond int64 at the scale."""
    us, vs, ws, at = [], [], [], []
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"bad node id in {line!r}") from None
        try:
            w = _exact(parts[2])
        except InvalidWeight:
            raise ParseError(line_no, f"bad weight {parts[2]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise IdOutOfRange(f"id out of range [0, {n}) at line {line_no}: {line!r}")
        us.append(u)
        vs.append(v)
        ws.append(w)
        at.append(line_no)
    w_arr, scale = scale_weights(ws, at)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), w_arr, scale, at


def _counted(lines, m: int, line_no: int) -> Iterator[tuple[int, str]]:
    """The lines, then a ParseError at the last one unless there were m."""
    count = 0
    for count, (line_no, line) in enumerate(lines, start=1):
        yield line_no, line
    if count != m:
        raise ParseError(line_no, f"expected {m} edges, found {count}")


def read_graph(path) -> Graph:
    """Parse the edge-list text format (see write_graph); non-UTF-8
    bytes read as U+FFFD.  The edge lines go through read_edges and
    graph_from_arrays, so of several faults the first reported is a
    parse or range error (in file order), then a wrong edge count, then
    a weight beyond int64, then a self loop, a non-positive weight and
    a duplicate edge; each names its line."""
    line_no, (n, m), lines = read_header(path, "n m", "graph")
    if n > MAX_NODES:
        raise TooLarge(f"{n} nodes exceed the limit of {MAX_NODES}")
    return graph_from_arrays(n, *read_edges(_counted(lines, m, line_no), n))


def write_graph(g: Graph, path, comments: Sequence[str] = ()) -> None:
    """Write the edge-list format: 'n m' header, then 'u v w' per edge.

    Edges are emitted with u < v, sorted lexicographically, so that
    read_graph(write_graph(g)) reproduces g exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"{g.n} {g.m}\n")
        half = g.half_arcs()
        write_edges(fh, g.arc_sources()[half], g.leaves[half], g.weights[half], g.scale)


def write_edges(fh, u: np.ndarray, v: np.ndarray, w: np.ndarray, scale: int) -> None:
    """Write one 'u v w' line per edge of the columns, each weight (in
    units of 1/scale) as its minimal decimal; each distinct weight is
    formatted once."""
    ws = w.tolist()
    text = {x: format_weight(x, scale) for x in set(ws)}
    fh.writelines(f"{a} {b} {text[x]}\n" for a, b, x in zip(u.tolist(), v.tolist(), ws))
