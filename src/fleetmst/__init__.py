"""Minimum-spanning-tree and graph-clustering library.

Graphs are stored as per-node star subgraphs with exact weights; the
engine reaps clusters from mutual-minimum (beam) seeds and merges them
Boruvka-style, with independent Kruskal/Prim/exhaustive oracles, a
cycle-property certificate and a benchmark CLI on top.
"""

from .baselines import (
    DisjointSet,
    brute_force,
    kruskal,
    minimality_witness,
    prim,
    verify_spanning_forest,
)
from .engine import (
    EdgeColumns,
    Forest,
    MstResult,
    merge_round,
    node_stage,
    run,
)
from .fleet import (
    FleetModel,
    build_fleet,
    trace_chain,
)
from .generators import GenSpec, complete, cycle, lattice8, path, random_gnm
from .graph import (
    Graph,
    build_graph,
    read_graph,
    write_graph,
)
from .kernels import KernelReport, detect_kernels, koag_seed

__all__ = [
    "DisjointSet",
    "EdgeColumns",
    "FleetModel",
    "Forest",
    "GenSpec",
    "Graph",
    "KernelReport",
    "MstResult",
    "brute_force",
    "build_fleet",
    "build_graph",
    "complete",
    "cycle",
    "detect_kernels",
    "koag_seed",
    "kruskal",
    "lattice8",
    "merge_round",
    "minimality_witness",
    "node_stage",
    "path",
    "prim",
    "random_gnm",
    "read_graph",
    "run",
    "trace_chain",
    "verify_spanning_forest",
    "write_graph",
]

__version__ = "0.1.0"
