"""Command-line front end: gen, build, verify, bench, kvalue.

Exit codes: 0 ok, 1 verification failure, 2 input error.  ``main``
turns every GraphError, OSError and MemoryError into exit 2, so a graph
too large to allocate is an input error too.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from . import baselines, engine, generators, kernels
from .errors import GraphError, NotASpanningForest, ParseError
from .fleet import build_fleet
from .graph import decimal_places, exact_sum, format_weight, read_edges, read_graph, read_header, write_graph

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
    "materialise_ms",
    "wall_ms",
]

ENGINE_ALGOS = list(engine.MODES) + ["boruvka"]
FAMILIES = ["lattice", "lattice8", "gnm", "random_gnm", "complete", "path", "cycle"]
ALL_ALGOS = ENGINE_ALGOS + ["kruskal", "prim"]


def _parse_q(text: str) -> tuple[int, ...]:
    """Weight set (an argparse type): 'a:b' is the inclusive range, else
    a comma-separated list; every weight a positive integer."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            q = tuple(range(int(lo), int(hi) + 1))
        else:
            q = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a:b' or a comma list of integers, got {text!r}") from None
    if not q or min(q) <= 0:
        raise argparse.ArgumentTypeError(f"expected positive weights, got {text!r}")
    return q


def _parse_grid(text: str) -> list[int]:
    """Grid sizes (an argparse type): comma-separated integers."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _positive(text: str) -> int:
    """A count of at least 1 (an argparse type)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_algos(text: str) -> list[str]:
    """Algorithm names (an argparse type): a comma list from ALL_ALGOS."""
    algos = [a.strip() for a in text.split(",")]
    unknown = [a for a in algos if a not in ALL_ALGOS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown algorithm {unknown[0]!r}; choose from {', '.join(ALL_ALGOS)}")
    return algos


def _spec(family: str, p: int, n: int, m: int, q, seed: int) -> generators.GenSpec:
    """The generator spec of a CLI family name: a lattice takes side p,
    gnm n nodes and m edges, the rest n nodes."""
    family = {"lattice": "lattice8", "gnm": "random_gnm"}.get(family, family)
    size = {"lattice8": {"p": p}, "random_gnm": {"n": n, "m": m}}.get(family, {"n": n})
    return generators.GenSpec(family=family, size=size, weight_set=q, seed=seed)


def cmd_gen(args) -> int:
    spec = _spec(args.family, args.p, args.n, args.m, args.q, args.seed)
    g = spec.build()
    write_graph(g, args.out, comments=[spec.token()])
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _run_algo(g, algo: str):
    if algo == "kruskal":
        return baselines.kruskal(g)
    if algo == "prim":
        return baselines.prim(g, seed=0)
    return engine.run(g, mode=algo)


def _weight_text(w) -> str:
    """An exact decimal weight as its minimal decimal."""
    scale = 10 ** decimal_places(w)
    return format_weight(int(w * scale), scale)


def _write_stats(result, g, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"algo={result.mode}\n")
        fh.write(f"n={g.n}\n")
        fh.write(f"arcs={g.arc_count}\n")
        fh.write(f"k={result.k_after_node_stage}\n")
        fh.write(f"rounds={result.rounds}\n")
        fh.write(f"comparisons_A={result.comparisons}\n")
        fh.write(f"total_weight={_weight_text(result.total)}\n")
        for name, sec in result.phase_seconds.items():
            fh.write(f"{name}_ms={sec * 1e3:.3f}\n")
        for i, rs in enumerate(result.per_round):
            fh.write(
                f"round{i}={rs.clusters_before}->{rs.clusters_after}"
                f" arcs={rs.arcs_scanned} ms={rs.elapsed * 1e3:.3f}\n"
            )


def cmd_build(args) -> int:
    g = read_graph(args.input)
    result = _run_algo(g, args.algo)
    engine.write_tree(result, g.n, args.out)
    if args.stats:
        _write_stats(result, g, args.stats)
    print(f"{args.algo}: {len(result.edges)} edges, total {_weight_text(result.total)}")
    return 0


def _tree_file(path, n=None):
    """The header total and the edges of a tree file: the header 'n k total
    rounds' with the given n, then 'u v w' lines read as in graph files
    (read_edges), as an EdgeColumns in file order at the file's scale."""
    line_no, (tree_n, _, total, _), lines = read_header(path, "n k total rounds", "tree")
    if n is not None and tree_n != n:
        raise ParseError(line_no, f"tree header has n={tree_n}, the graph has n={n}")
    return total, engine.EdgeColumns(*read_edges(lines, tree_n)[:4])


def _read_tree(path, n=None):
    """The edges of a tree file, as _tree_file reads them."""
    return _tree_file(path, n)[1]


def cmd_verify(args) -> int:
    g = read_graph(args.input)
    total, edges = _tree_file(args.tree, g.n)
    try:
        witness, cw = baselines._certify(g, edges)
    except NotASpanningForest as exc:
        print(f"FAIL: {exc.problem}")
        return 1
    if witness is not None:
        (u, v, w), (x, y, wt) = witness
        print(
            f"FAIL: not minimum: non-tree edge ({u}, {v}, {_weight_text(w)}) is lighter"
            f" than tree edge ({x}, {y}, {_weight_text(wt)}) on its path"
        )
        return 1
    claimed = g.unscale(exact_sum(cw))
    if claimed != total:
        print(f"FAIL: header total {_weight_text(total)} is not the edges' total {_weight_text(claimed)}")
        return 1
    print("OK")
    return 0


def cmd_kvalue(args) -> int:
    g = read_graph(args.input)
    report = kernels.detect_kernels(build_fleet(g), strict=args.strict)
    print(f"k={report.k}")
    hist = np.bincount(report.sizes)
    for size in np.flatnonzero(hist).tolist():
        print(f"size {size}: {hist[size]} kernels")
    if args.dump:
        for i, kern in enumerate(report.kernels):
            print(f"{i} {len(kern)} " + " ".join(str(v) for v in kern))
    return 0


def _bench_row(spec, algo, g, repeats):
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = _run_algo(g, algo)
        runs.append((time.perf_counter() - t0, res))
    # The median run (the lower one for an even count) gives every column.
    wall, res = sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2]
    if baselines.minimality_witness(g, res.edges) is not None:
        raise NotASpanningForest("not minimum")
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
        "phase3_ms": f"{wall * 1e3:.3f}"
        if algo not in ENGINE_ALGOS
        else f"{phases.get('merge_rounds', 0) * 1e3:.3f}",
        "total_weight": _weight_text(res.total),
        "materialise_ms": f"{phases.get('materialise', 0) * 1e3:.3f}",
        "wall_ms": f"{wall * 1e3:.3f}",
    }


def cmd_bench(args) -> int:
    rows = []
    failed = 0
    for size in args.grid:
        spec = _spec(args.family, size, size, args.m or 2 * size, args.q, args.seed)
        g = spec.build()
        for algo in args.algos:
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


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other input error: one line
    ``error: ...`` on stderr and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fleetmst", description="MST / graph-clustering benchmark tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--p", type=int, default=10, help="lattice side length")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--q", type=_parse_q, default="1:10", help="weight set, 'a:b' range or comma list")
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
    p.add_argument("--family", choices=FAMILIES, default="lattice")
    p.add_argument("--grid", type=_parse_grid, required=True, help="comma-separated sizes (p or n)")
    p.add_argument("--algos", type=_parse_algos, default="ooag", help="comma list of algorithms")
    p.add_argument("--q", type=_parse_q, default="1:10")
    p.add_argument("--m", type=int, default=0, help="edge count for gnm")
    p.add_argument("--repeats", type=_positive, default=1)
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
    try:
        return args.func(args)
    except (GraphError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
