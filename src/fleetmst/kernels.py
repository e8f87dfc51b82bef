"""Kernel detection and kernel-seeded clustering.

A kernel is a beam-connected group of nodes in which no member subjects
to anything lighter (every member has an empty towboat component S).
Detection walks beam links peer to peer; meeting any member with a
non-empty S abandons the whole group.  The number of completed groups
is the intrinsic k value of the instance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .engine import Forest, sequential_stage
from .fleet import FleetModel
from .graph import Graph


@dataclass
class KernelReport:
    kernels: list[tuple[int, ...]]
    k: int
    arc_touches: int
    strict: bool = False


def detect_kernels(f: FleetModel, strict: bool = False) -> KernelReport:
    """Walk beam links from every unvisited beam member.

    A walk that completes without meeting a disqualified member yields
    one kernel and bumps the counter.  With strict=True the pure-beam
    rule applies: members must have J and S both empty.
    """
    tables = f.chase_tables()
    beam_ptr = tables["beam_ptr"]
    beam_flat = tables["beam_flat"]
    bad = f.has_towboat | f.has_boat if strict else f.has_towboat
    bad = bad.tolist()
    visited = [False] * f.n
    kernels: list[tuple[int, ...]] = []
    touches = 0
    for start in range(f.n):
        if visited[start] or beam_ptr[start] == beam_ptr[start + 1]:
            continue
        group = [start]
        visited[start] = True
        ok = not bad[start]
        queue = deque((start,))
        while queue:
            y = queue.popleft()
            for i in range(beam_ptr[y], beam_ptr[y + 1]):
                touches += 1
                b = beam_flat[i]
                if not visited[b]:
                    visited[b] = True
                    if bad[b]:
                        ok = False
                    group.append(b)
                    queue.append(b)
        if ok:
            kernels.append(tuple(sorted(group)))
    return KernelReport(kernels=kernels, k=len(kernels), arc_touches=touches, strict=strict)


def k_value(g: Graph, strict: bool = False) -> int:
    from .fleet import build_fleet

    return detect_kernels(build_fleet(g), strict=strict).k


def koag_seed(g: Graph, f: FleetModel, report: KernelReport) -> Forest:
    """Kernels become the initial clusters; everything else is absorbed
    strictly top-to-bottom along subjection arcs.  Parts of the graph
    not reachable that way (components whose beams were all abandoned,
    or beams shielded behind their own mutual targets) fall back to
    plain beam seeding so coverage is preserved."""
    return sequential_stage(g, f, "koag_seeded", report.kernels)
