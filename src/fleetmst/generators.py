"""Deterministic graph generators for experiments and test corpora.

All randomness comes from splitmix64 used in counter mode: draw i of a
stream is mix64(seed + (i + 1) * GOLDEN).  The generator is fixed and
documented here precisely so that corpora are bit-identical across
platforms and languages; no platform-default RNG is ever used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidSize, TooLarge, TooManyEdges
from .graph import MAX_NODES, Graph, graph_from_arrays, scale_weights

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# The generators of this module that GenSpec.build calls, by name.
FAMILIES = ("lattice8", "random_gnm", "complete", "path", "cycle")


def mix64(x: int) -> int:
    """splitmix64 finalizer (scalar)."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws offset..offset+count-1 of the stream, vectorized as uint64
    and mixed in place with one scratch array."""
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


@dataclass(frozen=True)
class GenSpec:
    family: str
    size: dict = field(default_factory=dict)  # p for lattice8, n/m otherwise
    weight_set: tuple[int, ...] = (1,)
    seed: int = 0

    def token(self) -> str:
        """Compact self-describing string, echoed into files and CSV rows."""
        size = ";".join(f"{k}={v}" for k, v in sorted(self.size.items()))
        q = ",".join(str(q) for q in self.weight_set)
        return f"{self.family};{size};q={q};seed={self.seed}"

    def build(self) -> Graph:
        """The family's generator called with the size as keywords (p, or
        n and m, or n)."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        return globals()[self.family](**self.size, weight_set=self.weight_set, seed=self.seed)


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise InvalidSize(f"{name} must be >= {least}, got {value}")


def _node_count(n: int) -> None:
    """Refuse a bad n before any n-sized array is allocated."""
    _at_least("n", n, 0)
    if n > MAX_NODES:
        raise TooLarge(f"{n} nodes exceed the limit of {MAX_NODES}")


def _weights_for(count: int, weight_set: Sequence, seed: int) -> tuple[np.ndarray, int]:
    scaled, scale = scale_weights(list(weight_set))
    draws = splitmix_stream(seed, count)
    np.remainder(draws, np.uint64(len(scaled)), out=draws)
    return scaled.take(draws.view(np.int64)), scale


def lattice8(p: int, weight_set: Sequence, seed: int) -> Graph:
    """p x p grid with 8-neighbor connectivity (king moves).

    Node id = row * p + col.  Edges are enumerated per node in the fixed
    order E, S, SE, SW so weight assignment is reproducible; the edge
    count is 4p^2 - 6p + 2.
    """
    _at_least("lattice side", p, 2)
    if p * p > 2**31:
        raise TooLarge(f"lattice p={p} would overflow node ids")
    # has[row, col, d]: whether the node has its edge in direction d;
    # flat index node * 4 + d, in node order and E, S, SE, SW within it.
    has = np.ones((p, p, 4), dtype=bool)
    has[-1, :, 1:] = False
    has[:, -1, [0, 2]] = False
    has[:, 0, 3] = False
    idx = np.flatnonzero(has)
    u = idx >> 2
    v = np.array([1, p, p + 1, p - 1]).take(np.bitwise_and(idx, 3, out=idx))
    v += u
    w, scale = _weights_for(u.size, weight_set, seed)
    return graph_from_arrays(p * p, u, v, w, scale)


def random_gnm(n: int, m: int, weight_set: Sequence, seed: int) -> Graph:
    """Uniform-ish simple graph with exactly m edges, reproducible.

    Draw r of the stream names the pair (r % n, (r >> 32) % n); the edges
    are the first m distinct pairs that are not self loops, in draw
    order.  Each chunk of draws is at least as long as all the chunks
    before it, so even m = n(n-1)/2 takes O(log m) chunks."""
    _node_count(n)
    _at_least("m", m, 0)
    limit = n * (n - 1) // 2
    if m > limit:
        raise TooManyEdges(f"m={m} exceeds {limit} for n={n}")
    keys = np.empty(0, dtype=np.int64)  # distinct pairs a * n + b, a < b, in draw order
    drawn = 0
    while keys.size < m:
        r = splitmix_stream(seed, max(m + (m >> 4), drawn) + 64, drawn)
        drawn += r.size
        a = (r % np.uint64(n)).view(np.int64)
        b = np.remainder(r >> np.uint64(32), np.uint64(n), out=r).view(np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = np.concatenate([keys, (lo * n + hi)[lo != hi]])
        first = np.unique(keys, return_index=True)[1]
        keys = keys[np.sort(first)]
    u, v = np.divmod(keys[:m], n)
    # Weight stream is independent of the pair-sampling stream.
    w, scale = _weights_for(m, weight_set, seed ^ 0x5DEECE66D)
    return graph_from_arrays(n, u, v, w, scale)


def complete(n: int, weight_set: Sequence, seed: int) -> Graph:
    _node_count(n)
    iu = np.triu_indices(n, k=1)
    u = iu[0].astype(np.int64)
    v = iu[1].astype(np.int64)
    w, scale = _weights_for(u.size, weight_set, seed)
    return graph_from_arrays(n, u, v, w, scale)


def path(n: int, weight_set: Sequence, seed: int) -> Graph:
    _node_count(n)
    u = np.arange(n - 1, dtype=np.int64) if n > 1 else np.empty(0, np.int64)
    v = u + 1
    w, scale = _weights_for(u.size, weight_set, seed)
    return graph_from_arrays(n, u, v, w, scale)


def cycle(n: int, weight_set: Sequence, seed: int) -> Graph:
    _node_count(n)
    if n < 3:
        return path(n, weight_set, seed)
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    w, scale = _weights_for(n, weight_set, seed)
    return graph_from_arrays(n, u, v, w, scale)
