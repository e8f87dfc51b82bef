#!/usr/bin/env python3
"""fleetmst benchmark: closed loop, one caller, one operation at a time.

    python3 perfbench/run.py --workload lattice-q10 --seed 7 --seconds 50 --trace 0

Generates the workload's graph from ``--seed`` (set-up, timed at least
five times and for two seconds), then repeats the workload's operations
until ``--seconds`` have passed, checking every answer.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` it
drives the engine step by step under spans and reports the per-layer
metrics instead.  Gated times are calibrated against a fixed loop run
between operations (see ``Clock``), so that the host's changing speed
cancels out.  The last line of standard output is one JSON object; the
lines before it print every metric with its unit, sample count and
spread.  ``--workload all`` runs each workload in a fresh process, one
after another.

Exit status: 0 when every operation succeeded and every answer checked,
1 when any failed, 2 when fleetmst cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"

MODES = ("ooag", "oag_then_merge", "koag_seeded")
ALGOS = MODES + ("kruskal",)
# Set-up is repeated at least this often and for at least this long.
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0
# Gated times are scaled to a host on which calibrate() takes this long
# (about its time on an uncontended 2-core Xeon); see Clock.
CALIBRATION_S = 0.035
CALIBRATION_UNIONS = 50_000


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "lattice8" or "random_gnm"
    size: dict  # {"p": side} for lattice8, {"n": nodes, "m": edges} for random_gnm
    q: tuple[int, int]  # inclusive integer weight range
    graphs: int  # graphs per run, used in turn

    def label(self) -> str:
        size = " ".join(f"{k}={v}" for k, v in self.size.items())
        return f"{self.graphs} x {self.family} {size} q={self.q[0]}:{self.q[1]}"

    def graph_seeds(self, seed: int) -> list[int]:
        """One generator seed per graph; runs on different seeds share no graph."""
        return [seed * self.graphs + j for j in range(self.graphs)]

    def build_graph(self, graph_seed: int):
        spec = generators.GenSpec(
            self.family,
            self.size,
            tuple(range(self.q[0], self.q[1] + 1)),
            graph_seed,
        )
        return spec.build()

    def build(self, seed: int) -> list:
        """Every graph of a run on ``seed``."""
        return [self.build_graph(s) for s in self.graph_seeds(seed)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Several graphs per run: how much of the edge list Kruskal scans before
# the forest is complete varies by up to 25% between graphs, and a run
# on a single graph would carry that into the spread across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice-q10", "lattice8", {"p": 200}, (1, 10), 4),
        Workload("lattice-q2", "lattice8", {"p": 200}, (1, 2), 4),
    )
}

# Gated metrics, name -> unit.
END_TO_END = {
    "setup_s": "s",
    "mst_ooag_s": "s",
    "mst_oag_s": "s",
    "mst_koag_s": "s",
    "kruskal_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}
OP_METRIC = {
    "ooag": "mst_ooag_s",
    "oag_then_merge": "mst_oag_s",
    "koag_seeded": "mst_koag_s",
    "kruskal": "kruskal_s",
}

# Traced-run metrics, name -> unit.
PER_LAYER = {
    "generators.build_s": "s",
    "graph.write_s": "s",
    "graph.read_s": "s",
    "graph.file_bytes": "bytes",
    "graph.nbytes": "bytes",
    "fleet.build_s": "s",
    "fleet.chase_tables_s": "s",
    "fleet.arc_touches": "count",
    "fleet.beam_arcs": "count",
    "fleet.rev_arcs": "count",
    "engine.node_stage.ooag_s": "s",
    "engine.node_stage.oag_s": "s",
    "engine.node_stage.koag_s": "s",
    "engine.k_after_node.ooag": "count",
    "engine.k_after_node.oag": "count",
    "engine.k_after_node.koag": "count",
    "engine.node_arc_touches.ooag": "count",
    "engine.node_arc_touches.oag": "count",
    "engine.node_arc_touches.koag": "count",
    "kernels.detect_s": "s",
    "kernels.seed_s": "s",
    "kernels.k": "count",
    "kernels.arc_touches": "count",
    "kernels.fallback_clusters": "count",
    "engine.merge_s": "s",
    "engine.merge.r0_s": "s",
    "engine.merge.r0.clusters": "count",
    "engine.merge.r0.arcs_scanned": "count",
    "engine.merge.rounds": "count",
    "engine.merge.arcs_scanned": "count",
    "engine.merge.cross_arcs": "count",
    "engine.merge.useful_frac": "frac",
    "engine.merge.clusters_in": "count",
    "engine.n_over_A": "frac",
    "engine.loop_guard_s": "s",
    "engine.materialise_s": "s",
    "engine.write_tree_s": "s",
    "engine.unattributed_s": "s",
    "engine.span_coverage": "frac",
    "engine.trace_overhead_s": "s",
    "baselines.kruskal_s": "s",
    "baselines.kruskal_scanned_frac": "frac",
    "baselines.verify_structure_s": "s",
    "baselines.prim_s": "s",
    "cli.unattributed_s": "s",
    "fleet.self_share": "frac",
    "engine.self_share": "frac",
    "kernels.self_share": "frac",
    "baselines.self_share": "frac",
}
LAYERS = ("generators", "graph", "fleet", "engine", "kernels", "baselines", "cli")
LOOP_LAYERS = ("fleet", "engine", "kernels", "baselines")  # the layers the loop calls
MIN_COVERAGE = 0.95


# ---------------------------------------------------------------------------
# answers and checks
# ---------------------------------------------------------------------------


@dataclass
class Answer:
    total: object
    k: int
    rounds: int
    edges: list

    def digest(self) -> str:
        h = hashlib.sha256()
        for u, v, w in self.edges:
            h.update(f"{u} {v} {w}\n".encode())
        return h.hexdigest()[:16]

    @classmethod
    def of(cls, res) -> "Answer":
        return cls(res.total, res.k_after_node_stage, res.rounds, res.edges)

    @classmethod
    def from_tree_file(cls, path) -> "Answer":
        """Parse a tree file written by ``fleetmst build``: header, then edges."""
        with open(path, encoding="utf-8") as fh:
            _, k, total, rounds = fh.readline().split()
        return cls(_exact(total), int(k), int(rounds), cli._read_tree(path))


def _exact(text: str):
    from fractions import Fraction

    f = Fraction(text)
    return int(f) if f.denominator == 1 else f


class Checker:
    """Counts attempted and failed operations; prints the first few failures."""

    def __init__(self, workload: Workload, seed: int):
        self.attempted = 0
        self.failed = 0
        self.pins = None
        pins = json.loads(PINS.read_text()).get(workload.name) if PINS.exists() else None
        if pins and pins["seed"] == seed and pins["graph"] == workload.label():
            self.pins = pins["answers"]

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op}: {why}", file=sys.stderr)

    def answers(self, answers: dict, ref: "Answer | None" = None, graph: int = 0) -> set:
        """Check one iteration's answers on the run's graph number
        ``graph``; returns the algorithms that failed.

        Every engine total must equal the Kruskal total of the same
        iteration (or ``ref``).  On the pinned seed, total, k, rounds and
        edge digest must also equal the pinned ones.
        """
        bad = set()
        ref = answers.get("kruskal", ref)
        for algo, ans in answers.items():
            if ans is None:
                continue
            why = None
            if algo != "kruskal" and ref is not None and ans.total != ref.total:
                why = f"total {ans.total} != kruskal {ref.total}"
            elif algo != "kruskal" and ref is None and self.pins is None:
                why = "no kruskal answer to check against"
            elif self.pins is not None:
                pin = self.pins[graph][algo]
                got = {"total": str(ans.total), "k": ans.k, "rounds": ans.rounds, "digest": ans.digest()}
                diff = {key: (got[key], pin[key]) for key in pin if got[key] != pin[key]}
                if diff:
                    why = f"differs from pinned answer: {diff}"
            if why:
                self.fail(algo, why)
                bad.add(algo)
        return bad


def timed(fn):
    """Run fn once after a full collection; returns (result, seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def calibrate() -> int:
    """A fixed pure-Python union-find workload that shares no code with
    fleetmst; returns the number of unions made (always the same)."""
    n = 1 << 16
    parent = list(range(n))
    x = 12345
    joined = 0
    for _ in range(CALIBRATION_UNIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a = x >> 15
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        b = x >> 15
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a
            joined += 1
    return joined


class Clock:
    """Times operations in calibrated seconds.

    The host's speed swings by up to 2x within seconds, and every
    operation moves with it.  So after each operation the clock runs
    ``calibrate()`` and divides the operation's wall time by the mean of
    the calibration times just before and just after it, then multiplies
    by ``CALIBRATION_S``.  A change to fleetmst moves the result as it
    moves the wall time; a slower host moves both and cancels out.
    """

    def __init__(self) -> None:
        self.prev = self._calibration()

    @staticmethod
    def _calibration() -> float:
        gc.collect()
        t0 = time.perf_counter()
        calibrate()
        return time.perf_counter() - t0

    def timed(self, fn):
        """Run fn once after a full collection; returns
        (result, calibrated seconds, wall seconds)."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = fn()
            wall = time.perf_counter() - t0
        finally:
            cal = self._calibration()
            ref = (self.prev + cal) / 2
            self.prev = cal
        return out, wall / ref * CALIBRATION_S, wall


def summary(values: list[float]) -> tuple[float, str, float, int]:
    """(median, tail label, tail value, count).  The tail is the highest
    percentile with at least ten samples beyond it, or the maximum."""
    vals = sorted(values)
    n = len(vals)
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        return statistics.median(vals), f"p{pct}", vals[min(n - 1, math.ceil(pct / 100 * n) - 1)], n
    return statistics.median(vals), "max", vals[-1], n


# ---------------------------------------------------------------------------
# workload operations
# ---------------------------------------------------------------------------


class Session:
    """One workload's graph, files and operations."""

    def __init__(self, workload: Workload, seed: int, checker: Checker):
        self.w = workload
        self.seed = seed
        self.check = checker
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.graph_path = OUT / f"{stem}.graph.txt"
        self.tree_path = OUT / f"{stem}.ooag.tree.txt"
        self.graphs: list = []
        self.g = None  # the graph the current operation works on
        self.rounds: list = []  # per-round detail of the last traced ooag run
        self.self_time: dict = {}  # traced self seconds per layer

    def build(self) -> list:
        """Generate the run's graphs."""
        return self.w.build(self.seed)

    def cleanup(self) -> None:
        for p in (self.graph_path, self.tree_path):
            p.unlink(missing_ok=True)

    def solve(self, algo: str) -> Answer:
        """One MST computation."""
        if algo == "kruskal":
            return Answer.of(baselines.kruskal(self.g))
        return Answer.of(engine.run(self.g, algo))

    def verify(self, answers: dict) -> str | None:
        """Verify the ooag forest; returns a problem or None."""
        problems = baselines.verify_spanning_forest(self.g, answers["ooag"].edges)
        return problems[0] if problems else None

    def cli_build(self) -> None:
        """`fleetmst build --algo ooag` in-process; the answer is in the tree file."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["build", str(self.graph_path), "--algo", "ooag", "--out", str(self.tree_path)])
        if rc != 0:
            raise RuntimeError(f"fleetmst build exited {rc}")

    def cli_verify(self) -> str | None:
        """`fleetmst verify` of the ooag tree file; returns a problem or None."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", str(self.graph_path), str(self.tree_path)])
        if rc != 0 or out.getvalue().strip() != "OK":
            return f"fleetmst verify exited {rc}: {out.getvalue().strip()}"
        return None

    def iteration(self, it: int, clock: Clock, samples: dict, wall: dict) -> dict:
        """Every operation once, in a fixed order, on graph ``it`` modulo the
        number of graphs; appends good timings, calibrated to ``samples``
        and wall-clock to ``wall``."""
        graph = it % len(self.graphs)
        self.g = self.graphs[graph]
        answers: dict = {}
        times: dict = {}
        for algo in ALGOS:
            self.check.attempted += 1
            try:
                answers[algo], dt, dt_wall = clock.timed(lambda: self.solve(algo))
                times[algo] = (dt, dt_wall)
            except Exception as exc:  # a failed operation is counted, the run goes on
                self.check.fail(algo, f"{type(exc).__name__}: {exc}")
                answers[algo] = None
        bad = self.check.answers(answers, graph=graph)
        for algo, (dt, dt_wall) in times.items():
            if algo not in bad and answers[algo] is not None:
                samples[OP_METRIC[algo]].append(dt)
                wall[OP_METRIC[algo]].append(dt_wall)

        self.check.attempted += 1
        if answers.get("ooag") is None or "ooag" in bad:
            self.check.fail("verify", "no valid ooag forest to verify")
        else:
            try:
                problem, dt, dt_wall = clock.timed(lambda: self.verify(answers))
            except Exception as exc:
                self.check.fail("verify", f"{type(exc).__name__}: {exc}")
            else:
                if problem:
                    self.check.fail("verify", problem)
                else:
                    samples["verify_s"].append(dt)
                    wall["verify_s"].append(dt_wall)
        return answers


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """Untraced run; returns (calibrated samples, wall-clock samples)."""
    samples = {name: [] for name in END_TO_END}
    wall = {name: [] for name in END_TO_END}
    clock = Clock()
    while len(wall["setup_s"]) < SETUP_REPEATS or sum(wall["setup_s"]) < SETUP_SECONDS:
        session.graphs = []
        session.graphs, dt, dt_wall = clock.timed(session.build)
        samples["setup_s"].append(dt)
        wall["setup_s"].append(dt_wall)
    deadline = time.perf_counter() + seconds
    it = 0
    while True:  # until the deadline, and every graph at least once
        session.iteration(it, clock, samples, wall)
        it += 1
        if it >= len(session.graphs) and time.perf_counter() >= deadline:
            break
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return samples, wall


def traced(session: Session, seconds: float) -> tuple[dict, tracing.Tracer]:
    """Per-layer run on the run's first graph: every engine call goes
    through tracing.traced_run.

    Unlike the untraced loop, an exception here ends the run; run_one
    counts it as a failure."""
    tr = tracing.Tracer()
    chk = session.check
    tr.run_id = "setup"
    with tr.span("generators.build"):
        session.g = session.w.build_graph(session.w.graph_seeds(session.seed)[0])
    g = session.g
    with tr.span("graph.write"):
        write_graph(g, session.graph_path)

    runs: list = []  # (mode, traced result, probe)
    untraced: dict = {m: [] for m in MODES}

    def compare(mode, res, probe):
        ref, dt = timed(lambda: engine.run(g, mode))
        untraced[mode].append(dt)
        chk.attempted += 1
        same = (
            res.edges == ref.edges
            and res.total == ref.total
            and res.k_after_node_stage == ref.k_after_node_stage
            and res.rounds == ref.rounds
            and res.comparisons == ref.comparisons
            and res.node_arc_touches == ref.node_arc_touches
        )
        if not same:
            chk.fail(f"trace {mode}", "traced run does not reproduce engine.run")
        runs.append((mode, res, probe))

    tr.run_id = "once"
    gc.collect()
    with tr.span("baselines.prim"):
        baselines.prim(g, 0)
    # The loop works on arrays; one CLI round trip (build, then verify)
    # gives the text path's graph, write_tree and cli figures.
    probes: list = []
    with tracing.traced_cli(tr, probes):
        chk.attempted += 2
        gc.collect()
        with tr.span("cli.build"):
            session.cli_build()
        gc.collect()
        with tr.span("cli.verify"):
            problem = session.cli_verify()
    if problem:
        chk.fail("verify", problem)
    chk.answers({"ooag": Answer.from_tree_file(session.tree_path)}, Answer.of(baselines.kruskal(g)))
    for mode, res, probe in probes:
        compare(mode, res, probe)

    deadline = time.perf_counter() + seconds
    it = 0
    while True:
        tr.run_id = f"it{it}"
        answers = {}
        for mode in MODES:
            chk.attempted += 1
            gc.collect()
            probe: dict = {}
            res = tracing.traced_run(g, mode, tr, probe=probe)
            answers[mode] = Answer.of(res)
            compare(mode, res, probe)
        chk.attempted += 1
        gc.collect()
        with tr.span("baselines.kruskal"):
            kr = baselines.kruskal(g)
        answers["kruskal"] = Answer.of(kr)
        chk.answers(answers)
        chk.attempted += 1
        gc.collect()
        with tr.span("baselines.verify_structure"):
            problems = baselines.verify_spanning_forest(g, answers["ooag"].edges, kr.total)
        if problems:
            chk.fail("verify_structure", problems[0])
        it += 1
        if time.perf_counter() >= deadline:
            break

    return layer_samples(session, tr, runs, untraced), tr


def layer_samples(session: Session, tr: tracing.Tracer, runs: list, untraced: dict) -> dict:
    """Per-layer metric samples from the spans and the traced results."""
    g, chk = session.g, session.check
    dur = tracing.duration
    by_name: dict = {}
    for s in tr.spans:
        by_name.setdefault(s["name"], []).append(dur(s))

    def under(root, prefix):
        return [s for s in tr.spans if s["parent"] == root["id"] and s["name"].startswith(prefix)]

    out: dict = {name: [] for name in PER_LAYER}
    for key in ("generators.build", "graph.write", "graph.read", "fleet.build", "fleet.chase_tables",
                "kernels.detect", "kernels.seed", "engine.materialise", "engine.write_tree",
                "baselines.kruskal", "baselines.verify_structure", "baselines.prim"):
        out[key + "_s"] = by_name.get(key, [])
    for tag in tracing.MODE_TAG.values():
        out[f"engine.node_stage.{tag}_s"] = by_name.get(f"engine.node_stage.{tag}", [])
    out["cli.unattributed_s"] = [tr.self_time(s) for s in tr.spans if s["name"].startswith("cli.")]
    out["graph.file_bytes"] = [session.graph_path.stat().st_size]
    out["graph.nbytes"] = [g.indptr.nbytes + g.leaves.nbytes + g.weights.nbytes]

    covered = wall = 0.0
    traced_ooag = []
    for mode, res, probe in runs:
        root = probe["root"]
        kids = tr.children(root["id"])
        covered += sum(dur(c) for c in kids)
        wall += dur(root)
        tag = tracing.MODE_TAG[mode]
        f = probe["fleet"]
        out[f"engine.k_after_node.{tag}"] = [res.k_after_node_stage]
        out[f"engine.node_arc_touches.{tag}"] = [res.node_arc_touches - f.arc_touches]
        out["fleet.arc_touches"] = [f.arc_touches]
        out["fleet.beam_arcs"] = [int(f.beam_leaves.size)]
        out["fleet.rev_arcs"] = [int(f.rev_children.size)]
        if mode == "koag_seeded":
            rep = probe["kernels"]
            out["kernels.k"] = [rep.k]
            out["kernels.arc_touches"] = [rep.arc_touches]
            out["kernels.fallback_clusters"] = [res.k_after_node_stage - rep.k]
        if mode != "ooag":
            continue
        traced_ooag.append(dur(root))
        out["engine.merge_s"].append(sum(dur(s) for s in under(root, "engine.merge.")))
        out["engine.merge.r0_s"] += [dur(s) for s in under(root, "engine.merge.r0")]
        out["engine.loop_guard_s"].append(sum(dur(s) for s in under(root, "engine.loop_guard")))
        out["engine.unattributed_s"].append(tr.self_time(root))
        src, leaves = g.arc_sources(), g.leaves
        cross = sum(int((cl[src] != cl[leaves]).sum()) for cl in probe["cluster_maps"])
        a = res.comparisons
        out["engine.merge.rounds"] = [res.rounds]
        out["engine.merge.arcs_scanned"] = [a]
        out["engine.merge.cross_arcs"] = [cross]
        out["engine.merge.useful_frac"] = [cross / a if a else 0.0]
        out["engine.merge.clusters_in"] = [sum(r.clusters_before for r in res.per_round)]
        out["engine.merge.r0.clusters"] = [res.per_round[0].clusters_before if res.per_round else 0]
        out["engine.merge.r0.arcs_scanned"] = [res.per_round[0].arcs_scanned if res.per_round else 0]
        out["engine.n_over_A"] = [g.n / a if a else 0.0]
        session.rounds = [
            (i, r.clusters_before, r.clusters_after, r.arcs_scanned,
             dur(under(root, f"engine.merge.r{i}")[0]))
            for i, r in enumerate(res.per_round)
        ]

    coverage = covered / wall if wall else 0.0
    out["engine.span_coverage"] = [coverage]
    chk.attempted += 1
    if coverage < MIN_COVERAGE:
        chk.fail("trace", f"spans cover {coverage:.3f} of traced engine time, below {MIN_COVERAGE}")
    out["engine.trace_overhead_s"] = [statistics.median(traced_ooag) - statistics.median(untraced["ooag"])]
    kr = baselines.kruskal(g)
    out["baselines.kruskal_scanned_frac"] = [kr.comparisons / g.m if g.m else 0.0]

    # Shares of the loop iterations only; set-up and one-off calls are
    # left out so the shares describe one iteration of the workload.
    self_time = {layer: 0.0 for layer in LAYERS}
    for s in tr.spans:
        if s["run"].startswith("it"):
            self_time[s["name"].split(".")[0]] += tr.self_time(s)
    total = sum(self_time.values())
    for layer in LOOP_LAYERS:
        out[f"{layer}.self_share"] = [self_time[layer] / total]
    session.self_time = self_time
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    env = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": "unknown",
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(samples: dict, units: dict, wall: dict | None = None) -> dict:
    """Print every metric and return the result's metrics.  Where ``wall``
    has samples for a metric, their median is printed too (not gated)."""
    metrics = {}
    for name, unit in units.items():
        vals = samples.get(name) or []
        if not vals:
            print(f"metric {name}: no good samples")
            continue
        med, tail, tail_v, n = summary(vals)
        extra = f"; wall median {_fmt(statistics.median(wall[name]))} {unit}" if wall and wall.get(name) else ""
        print(f"metric {name} = {_fmt(med)} {unit} (median; {tail} {_fmt(tail_v)}; n={n}{extra})")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    chk = Checker(w, args.seed)
    session = Session(w, args.seed, chk)
    env = environment()
    print(f"workload {w.name}: {w.label()} seed={args.seed} "
          f"pinned={'yes' if chk.pins else 'no'}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics: dict = {}
    try:
        if args.trace:
            samples, tr = traced(session, args.seconds)
            for i, before, after, scanned, sec in session.rounds:
                print(f"round r{i}: clusters {before} -> {after}, arcs_scanned {scanned}, {sec:.6g} s")
            for layer, sec in session.self_time.items():
                print(f"self time {layer} (loop iterations): {sec:.6g} s")
            spans_path = OUT / f"trace-{w.name}-seed{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"env": env, "workload": w.name, "seed": args.seed}) + "\n")
                for s in tr.spans:
                    fh.write(json.dumps(s) + "\n")
            print(f"spans: {len(tr.spans)} written to {os.path.relpath(spans_path, ROOT)}")
            metrics = report(samples, PER_LAYER)
        else:
            samples, wall = measure(session, args.seconds)
            metrics = report(samples, END_TO_END, wall)
    except Exception as exc:  # report the failure as a result, not a bare traceback
        traceback.print_exc()
        chk.attempted += 1
        chk.fail("run", f"{type(exc).__name__}: {exc}")
    finally:
        session.cleanup()
    failed_frac = chk.failed / chk.attempted if chk.attempted else 1.0
    print(f"metric failed_frac = {failed_frac:.6g} frac (failed {chk.failed} of {chk.attempted} attempted)")
    ok = chk.failed == 0 and chk.attempted > 0
    print(json.dumps({"correct": ok, "attempted": chk.attempted, "failed": chk.failed, "metrics": metrics}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    attempted = failed = 0
    ok = True
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        for line in lines[:-1]:
            print(line)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_fleetmst() -> None:
    """Load fleetmst from this checkout's src/ (no install step)."""
    global baselines, cli, engine, generators, write_graph, np, tracing
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        from fleetmst import baselines, cli, engine, generators
        from fleetmst.graph import write_graph

        import tracing
    except ImportError as exc:
        print(f"error: cannot import fleetmst from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_fleetmst()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
