"""Minimum-spanning-tree and graph-clustering library.

Graphs are stored as per-node star subgraphs with exact weights; the
engine reaps clusters from mutual-minimum (beam) seeds and merges them
Boruvka-style, with independent Kruskal/Prim/exhaustive oracles and a
benchmark CLI on top.
"""

from .baselines import DisjointSet, brute_force, kruskal, prim, verify_spanning_forest
from .engine import (
    Forest,
    MstResult,
    inheritance_chase,
    merge_round,
    node_stage,
    run,
)
from .fleet import (
    FleetModel,
    Flotilla,
    MvcEntry,
    build_fleet,
    compute_mvc,
    flotillas,
    trace_chain,
)
from .generators import GenSpec, complete, cycle, lattice8, path, random_gnm
from .graph import (
    Awt,
    Graph,
    build_graph,
    read_graph,
    total_weight,
    united_subgraph,
    write_graph,
)
from .kernels import KernelReport, detect_kernels, k_value, koag_seed

__all__ = [
    "Awt",
    "DisjointSet",
    "FleetModel",
    "Flotilla",
    "Forest",
    "GenSpec",
    "Graph",
    "KernelReport",
    "MstResult",
    "MvcEntry",
    "brute_force",
    "build_fleet",
    "build_graph",
    "complete",
    "compute_mvc",
    "cycle",
    "detect_kernels",
    "flotillas",
    "inheritance_chase",
    "k_value",
    "koag_seed",
    "kruskal",
    "lattice8",
    "merge_round",
    "node_stage",
    "path",
    "prim",
    "random_gnm",
    "read_graph",
    "run",
    "total_weight",
    "trace_chain",
    "united_subgraph",
    "verify_spanning_forest",
    "write_graph",
]

__version__ = "0.1.0"
