"""Outside-in tracing for the benchmark.

Spans are recorded from the benchmark's own code, around calls into the
public functions of each fleetmst layer; nothing inside ``src/`` is
touched.  ``traced_run`` drives the engine through the same public steps
``engine.run`` takes, one span per step, so the trace can split a run
into fleet build, node stage, merge rounds and result building.  The
caller compares its result with ``engine.run``'s, which makes a change to
the engine's internals fail loudly instead of being mis-attributed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from fleetmst import baselines, cli, engine
from fleetmst.errors import NoProgress
from fleetmst.fleet import build_fleet
from fleetmst.kernels import detect_kernels, koag_seed

# Short mode names used in metric names.
MODE_TAG = {"ooag": "ooag", "oag_then_merge": "oag", "koag_seeded": "koag"}


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process.

    Each span is a dict with id, name, parent id, run id, start and end
    (``time.perf_counter`` seconds).  Spans opened while another is open
    become its children.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_time(self, span: dict) -> float:
        """Duration minus the part covered by direct children."""
        covered = sum(c["end"] - c["start"] for c in self.children(span["id"]))
        return (span["end"] - span["start"]) - covered


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def traced_run(g, mode: str, tr: Tracer, melioration: bool = True, probe: dict | None = None):
    """``engine.run`` step by step, each step in its own span.

    The calls, their order and the ``cluster_count`` reads of ``run``'s
    loop condition are the same as in ``engine.run``, so the result and
    the cost are the same.  When ``probe`` is given, the cluster map at
    the start of every round is kept there, outside any span, so that
    crossing arcs can be counted after the run.
    """
    tag = MODE_TAG[mode]
    with tr.span(f"engine.run.{tag}") as root:
        with tr.span("fleet.build"):
            f = build_fleet(g)
        with tr.span("fleet.chase_tables"):
            f.chase_tables()
        with tr.span(f"engine.node_stage.{tag}"):
            if mode == "oag_then_merge":
                forest = engine.node_stage(g, f)
            elif mode == "ooag":
                forest = engine.inheritance_stage(g, f)
            else:
                with tr.span("kernels.detect"):
                    report = detect_kernels(f)
                with tr.span("kernels.seed"):
                    forest = koag_seed(g, f, report)
            forest.melioration = melioration
        with tr.span("engine.loop_guard"):
            k_after = forest.cluster_count
        i = 0
        while True:
            with tr.span("engine.loop_guard"):
                go = forest.cluster_count - len(forest.done) >= 2
                if go:
                    prev_done = len(forest.done)
                    prev_count = forest.cluster_count
            if not go:
                break
            if probe is not None:
                probe.setdefault("cluster_maps", []).append(forest.cluster_of.copy())
            with tr.span(f"engine.merge.r{i}"):
                engine.merge_round(g, forest)
            with tr.span("engine.loop_guard"):
                stalled = forest.cluster_count == prev_count and len(forest.done) == prev_done
            if stalled:
                raise NoProgress("merge loop stalled")
            i += 1
        with tr.span("engine.materialise"):
            total_scaled = sum(w for _, _, w in forest.picked)
            edges = forest.picked_edges()
            total = g.unscale(total_scaled)
    if probe is not None:
        probe["root"] = root
        probe["fleet"] = f
        if mode == "koag_seeded":
            probe["kernels"] = report
    return engine.MstResult(
        edges=edges,
        total=total,
        k_after_node_stage=k_after,
        rounds=forest.rounds,
        comparisons=forest.comparisons,
        per_round=forest.per_round,
        node_arc_touches=forest.node_arc_touches + f.arc_touches,
        mode=mode,
    )


@contextmanager
def traced_cli(tr: Tracer, probes: list):
    """Route the CLI's calls into graph, engine and baselines through spans.

    ``engine.run`` is replaced by ``traced_run``; each call appends its
    (mode, result, probe) to ``probes``.  Everything is restored on exit.
    """
    saved = (
        cli.read_graph,
        engine.run,
        engine.write_tree,
        baselines.kruskal,
        baselines.verify_spanning_forest,
    )
    read_graph, _, write_tree, kruskal, verify = saved

    def t_read_graph(path):
        with tr.span("graph.read"):
            return read_graph(path)

    def t_run(g, mode="ooag", melioration=True):
        probe: dict = {}
        res = traced_run(g, mode, tr, melioration, probe)
        probes.append((mode, res, probe))
        return res

    def t_write_tree(result, n, path):
        with tr.span("engine.write_tree"):
            return write_tree(result, n, path)

    def t_kruskal(g):
        with tr.span("baselines.kruskal"):
            return kruskal(g)

    def t_verify(g, edges, expected_total=None):
        with tr.span("baselines.verify"):
            return verify(g, edges, expected_total)

    cli.read_graph = t_read_graph
    engine.run = t_run
    engine.write_tree = t_write_tree
    baselines.kruskal = t_kruskal
    baselines.verify_spanning_forest = t_verify
    try:
        yield
    finally:
        (
            cli.read_graph,
            engine.run,
            engine.write_tree,
            baselines.kruskal,
            baselines.verify_spanning_forest,
        ) = saved
