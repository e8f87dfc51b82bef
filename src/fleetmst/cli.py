"""Command-line front end: gen, build, verify, bench, kvalue.

Exit codes: 0 ok, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

from . import baselines, engine, generators, kernels
from .errors import GraphError
from .fleet import build_fleet
from .graph import read_graph, write_graph

CSV_HEADER = [
    "spec",
    "algo",
    "n",
    "arcs",
    "k",
    "rounds",
    "comparisons_A",
    "ratio",
    "phase1_ms",
    "phase2_ms",
    "phase3_ms",
    "total_weight",
]

ENGINE_ALGOS = list(engine.MODES)
ALL_ALGOS = ENGINE_ALGOS + ["kruskal", "prim"]


def _parse_q(text: str) -> tuple[int, ...]:
    """Weight set: 'a:b' is the inclusive range, else comma-separated."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.split(","))


def _spec_from_args(args) -> generators.GenSpec:
    family = {"lattice": "lattice8", "gnm": "random_gnm"}.get(args.family, args.family)
    if family == "lattice8":
        size = {"p": args.p}
    elif family == "random_gnm":
        size = {"n": args.n, "m": args.m}
    else:
        size = {"n": args.n}
    return generators.GenSpec(family=family, size=size, weight_set=_parse_q(args.q), seed=args.seed)


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    g = spec.build()
    write_graph(g, args.out, comments=[spec.token()])
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _run_algo(g, algo: str):
    if algo in ENGINE_ALGOS:
        return engine.run(g, mode=algo)
    if algo == "kruskal":
        return baselines.kruskal(g)
    if algo == "prim":
        return baselines.prim(g, seed=0)
    raise ValueError(f"unknown algorithm {algo!r}")


def _write_stats(result, g, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"algo={result.mode}\n")
        fh.write(f"n={g.n}\n")
        fh.write(f"arcs={g.arc_count}\n")
        fh.write(f"k={result.k_after_node_stage}\n")
        fh.write(f"rounds={result.rounds}\n")
        fh.write(f"comparisons_A={result.comparisons}\n")
        fh.write(f"total_weight={engine._fmt(result.total)}\n")
        for name, sec in result.phase_seconds.items():
            fh.write(f"{name}_ms={sec * 1e3:.3f}\n")
        for i, rs in enumerate(result.per_round):
            fh.write(
                f"round{i}={rs.clusters_before}->{rs.clusters_after}"
                f" arcs={rs.arcs_scanned} ms={rs.elapsed * 1e3:.3f}\n"
            )


def cmd_build(args) -> int:
    try:
        g = read_graph(args.input)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _run_algo(g, args.algo)
    engine.write_tree(result, g.n, args.out)
    if args.stats:
        _write_stats(result, g, args.stats)
    print(f"{args.algo}: {len(result.edges)} edges, total {result.total}")
    return 0


def _read_tree(path):
    edges = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                header = parts
                continue
            u, v, w = int(parts[0]), int(parts[1]), parts[2]
            wv = Fraction(w)
            edges.append((u, v, int(wv) if wv.denominator == 1 else wv))
    return edges


def cmd_verify(args) -> int:
    try:
        g = read_graph(args.input)
        edges = _read_tree(args.tree)
    except (GraphError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = baselines.verify_spanning_forest(g, edges)
    if problems:
        print(f"FAIL: {problems[0]}")
        return 1
    print("OK")
    return 0


def cmd_kvalue(args) -> int:
    try:
        g = read_graph(args.input)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = kernels.detect_kernels(build_fleet(g), strict=args.strict)
    print(f"k={report.k}")
    hist = Counter(len(k) for k in report.kernels)
    for size in sorted(hist):
        print(f"size {size}: {hist[size]} kernels")
    if args.dump:
        for i, kern in enumerate(report.kernels):
            print(f"{i} {len(kern)} " + " ".join(str(v) for v in kern))
    return 0


def _bench_row(spec, algo, g, repeats):
    results = []
    elapsed = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = _run_algo(g, algo)
        elapsed.append(time.perf_counter() - t0)
        results.append(res)
    res = results[0]
    phases = res.phase_seconds or {}
    ratio = g.n / res.comparisons if res.comparisons else ""
    return {
        "spec": spec.token(),
        "algo": algo,
        "n": g.n,
        "arcs": g.arc_count,
        "k": res.k_after_node_stage,
        "rounds": res.rounds,
        "comparisons_A": res.comparisons,
        "ratio": f"{ratio:.6f}" if ratio != "" else "",
        "phase1_ms": f"{phases.get('fleet_build', 0) * 1e3:.3f}",
        "phase2_ms": f"{phases.get('node_stage', 0) * 1e3:.3f}",
        "phase3_ms": f"{statistics.median(elapsed) * 1e3:.3f}"
        if algo not in ENGINE_ALGOS
        else f"{phases.get('merge_rounds', 0) * 1e3:.3f}",
        "total_weight": engine._fmt(res.total),
    }


def cmd_bench(args) -> int:
    sizes = [int(t) for t in args.grid.split(",")]
    algos = [a.strip() for a in args.algos.split(",")]
    q = _parse_q(args.q)
    rows = []
    failed = 0
    for size in sizes:
        if args.family in ("lattice", "lattice8"):
            spec = generators.GenSpec("lattice8", {"p": size}, q, args.seed)
        elif args.family in ("gnm", "random_gnm"):
            spec = generators.GenSpec(
                "random_gnm", {"n": size, "m": args.m or 2 * size}, q, args.seed
            )
        else:
            spec = generators.GenSpec(args.family, {"n": size}, q, args.seed)
        g = spec.build()
        for algo in algos:
            try:
                rows.append(_bench_row(spec, algo, g, args.repeats))
            except Exception as exc:  # keep going, mark the row failed
                print(f"warn: {spec.token()} {algo} failed: {exc}", file=sys.stderr)
                row = {col: "" for col in CSV_HEADER}
                row.update(spec=spec.token(), algo=algo, total_weight="FAILED")
                rows.append(row)
                failed += 1
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    if failed:
        print(f"error: {failed} of {len(rows)} rows failed", file=sys.stderr)
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetmst", description="MST / graph-clustering benchmark tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("family", choices=["lattice", "lattice8", "gnm", "random_gnm", "complete", "path", "cycle"])
    p.add_argument("--p", type=int, default=10, help="lattice side length")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--q", default="1:10", help="weight set, 'a:b' range or comma list")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="compute a spanning forest")
    p.add_argument("input")
    p.add_argument("--algo", choices=ALL_ALGOS, default="ooag")
    p.add_argument("--out", required=True, help="tree output file")
    p.add_argument("--stats", help="flat key/value stats file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check a tree file against its graph")
    p.add_argument("input")
    p.add_argument("tree")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark grid, CSV output")
    p.add_argument("--family", default="lattice")
    p.add_argument("--grid", required=True, help="comma-separated sizes (p or n)")
    p.add_argument("--algos", default="ooag")
    p.add_argument("--q", default="1:10")
    p.add_argument("--m", type=int, default=0, help="edge count for gnm")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("kvalue", help="kernel count and size histogram")
    p.add_argument("input")
    p.add_argument("--strict", action="store_true", help="pure-beam kernel rule")
    p.add_argument("--dump", action="store_true", help="print kernel member lists")
    p.set_defaults(func=cmd_kvalue)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
