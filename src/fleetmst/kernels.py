"""Kernel detection and kernel-seeded clustering.

A kernel is a beam component in which no member subjects to anything
lighter (every member has an empty towboat component S).  Detection
labels the beam components by hooking and pointer jumping
(``fleet.beam_components``) and drops every component with a
disqualified member, in whole-array steps.  The number of kernels is
the intrinsic k value of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import Forest, array_stage
from .fleet import FleetModel, beam_components
from .graph import Graph


@dataclass(eq=False)
class KernelReport:
    """``kernel_of[v]`` is the index of v's kernel, -1 outside every
    kernel; kernels are numbered by their smallest member.
    ``arc_touches`` counts the beam arcs."""

    kernel_of: np.ndarray
    k: int
    arc_touches: int
    strict: bool = False

    @property
    def sizes(self) -> np.ndarray:
        """The number of members of each kernel."""
        return np.bincount(self.kernel_of[self.kernel_of >= 0], minlength=self.k)

    @cached_property
    def kernels(self) -> list[tuple[int, ...]]:
        """Each kernel's members, ascending, in kernel order."""
        members = np.flatnonzero(self.kernel_of >= 0)
        flat = members[np.argsort(self.kernel_of[members], kind="stable")].tolist()
        ends = np.cumsum(self.sizes).tolist()
        return [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]


def detect_kernels(f: FleetModel, strict: bool = False) -> KernelReport:
    """The beam components none of whose members has a towboat.  With
    strict=True the pure-beam rule applies: members must have J and S
    both empty."""
    n = f.n
    lab = beam_components(f)
    member = np.diff(f.beam_indptr) > 0
    bad = f.has_towboat | f.has_boat if strict else f.has_towboat
    spoilt = np.zeros(n, dtype=bool)
    spoilt[lab[bad & member]] = True
    ok = member & ~spoilt[lab]
    roots = np.flatnonzero(ok & (lab == np.arange(n)))
    kernel_of = np.full(n, -1)
    kernel_of[roots] = np.arange(roots.size)
    kernel_of[ok] = kernel_of[lab[ok]]
    return KernelReport(kernel_of, k=roots.size, arc_touches=f.beam_leaves.size, strict=strict)


def koag_seed(g: Graph, f: FleetModel, report: KernelReport) -> Forest:
    """The ``koag_seeded`` node stage: the kernels found the first
    clusters, then the beam loop of ``oag_then_merge`` runs over the
    nodes they leave free (``engine.array_stage``)."""
    return array_stage(g, f, "koag_seeded", report.kernel_of)
