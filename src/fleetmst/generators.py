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

FAMILIES = ("lattice8", "random_gnm", "complete", "path", "cycle")


def mix64(x: int) -> int:
    """splitmix64 finalizer (scalar)."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws offset..offset+count-1 of the stream, vectorized as uint64."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        if self.family == "lattice8":
            return lattice8(self.size["p"], self.weight_set, self.seed)
        if self.family == "random_gnm":
            return random_gnm(self.size["n"], self.size["m"], self.weight_set, self.seed)
        if self.family == "complete":
            return complete(self.size["n"], self.weight_set, self.seed)
        if self.family == "path":
            return path(self.size["n"], self.weight_set, self.seed)
        if self.family == "cycle":
            return cycle(self.size["n"], self.weight_set, self.seed)
        raise ValueError(f"unknown family {self.family!r}")


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
    draws = splitmix_stream(seed, count) % np.uint64(len(scaled))
    return scaled[draws.astype(np.int64)], scale


def lattice8(p: int, weight_set: Sequence, seed: int) -> Graph:
    """p x p grid with 8-neighbor connectivity (king moves).

    Node id = row * p + col.  Edges are enumerated per node in the fixed
    order E, S, SE, SW so weight assignment is reproducible; the edge
    count is 4p^2 - 6p + 2.
    """
    _at_least("lattice side", p, 2)
    if p * p > 2**31:
        raise TooLarge(f"lattice p={p} would overflow node ids")
    n = p * p
    ids = np.arange(n, dtype=np.int64)
    row = ids // p
    col = ids % p
    # Candidate targets per node, direction-major within each node.
    cand = np.full((n, 4), -1, dtype=np.int64)
    east = col < p - 1
    south = row < p - 1
    cand[east, 0] = ids[east] + 1
    cand[south, 1] = ids[south] + p
    se = south & east
    cand[se, 2] = ids[se] + p + 1
    sw = south & (col > 0)
    cand[sw, 3] = ids[sw] + p - 1
    flat = cand.reshape(-1)
    valid = flat >= 0
    u = np.repeat(ids, 4)[valid]
    v = flat[valid]
    w, scale = _weights_for(u.size, weight_set, seed)
    return graph_from_arrays(n, u, v, w, scale)


def random_gnm(n: int, m: int, weight_set: Sequence, seed: int) -> Graph:
    """Uniform-ish simple graph with exactly m edges, reproducible."""
    _node_count(n)
    _at_least("m", m, 0)
    limit = n * (n - 1) // 2
    if m > limit:
        raise TooManyEdges(f"m={m} exceeds {limit} for n={n}")
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
    # Weight stream is independent of the pair-sampling stream.
    w, scale = _weights_for(m, weight_set, seed ^ 0x5DEECE66D)
    return graph_from_arrays(n, u_arr, v_arr, w, scale)


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
