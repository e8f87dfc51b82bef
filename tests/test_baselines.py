import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fleetmst import baselines, engine, fleet, graph
from fleetmst.baselines import (
    DisjointSet,
    brute_force,
    kruskal,
    minimality_witness,
    prim,
    verify_spanning_forest,
)
from fleetmst.engine import EdgeColumns
from fleetmst.errors import IdOutOfRange, NotASpanningForest, TooLarge
from fleetmst.generators import complete, lattice8, random_gnm
from fleetmst.graph import build_graph, graph_from_arrays
from oracles import columns_of

INT64_MAX = 2**63 - 1
TRIANGLE = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])


def test_disjoint_set_basics():
    ds = DisjointSet(4)
    assert ds.union(0, 1)
    assert not ds.union(1, 0)
    assert ds.union(2, 3)
    assert ds.find(0) == ds.find(1)
    assert ds.find(0) != ds.find(2)
    assert ds.union(1, 3)
    assert len({ds.find(v) for v in range(4)}) == 1


def test_kruskal_simple():
    g = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 10)])
    res = kruskal(g)
    assert res.total == 6
    assert res.edges == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]
    assert res.mode == "kruskal"


def test_kruskal_is_deterministic_under_ties():
    g = complete(8, (1, 2), seed=4)
    assert kruskal(g).edges == kruskal(g).edges


def reference_kruskal(g):
    """Kruskal over DisjointSet on the edges stably sorted on weight:
    (sorted edges, total, number of edges scanned)."""
    ds = DisjointSet(g.n)
    picked = []
    scanned = 0
    for u, v, w in sorted(g.edge_list(), key=lambda e: e[2]):
        if len(picked) >= g.n - 1:
            break
        scanned += 1
        if ds.union(u, v):
            picked.append((u, v, w))
    edges = [(u, v, g.unscale(w)) for u, v, w in sorted(picked)]
    return edges, g.unscale(sum(w for *_, w in picked)), scanned


def test_kruskal_counts_the_edges_it_scans():
    # Connected: the scan stops at the third pick, before the two heavy edges.
    early = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 10), (0, 2, 11)])
    # Disconnected: n - 1 picks never happen, so every edge is scanned.
    split = build_graph(5, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (3, 4, 1)])
    cases = [
        (early, 3),
        (split, 4),
        (build_graph(0, []), 0),
        (build_graph(1, []), 0),
        (build_graph(3, []), 0),
        (lattice8(15, (1, 2, 3), seed=2), None),
    ]
    for g, scanned in cases:
        res = kruskal(g)
        assert (res.edges, res.total, res.comparisons) == reference_kruskal(g)
        assert scanned is None or res.comparisons == scanned
        assert (res.mode, res.k_after_node_stage, res.rounds) == ("kruskal", 0, 0)


def test_kruskal_links_a_deep_chain():
    # Descending weights along a path: Kruskal scans it from the far end
    # and every link puts one more node on top of the same chain.
    n = 2**16
    u = np.arange(n - 1)
    g = graph_from_arrays(n, u, u + 1, n - 1 - u, 1)
    res = kruskal(g)
    assert (res.edges, res.total, res.comparisons) == reference_kruskal(g)
    ref = prim(g)
    assert (res.edges, res.total) == (ref.edges, ref.total)
    assert res.comparisons == n - 1


@pytest.mark.parametrize("scale", [10, 100])
def test_kruskal_weights_at_decimal_scales(scale):
    step = Fraction(1, scale)
    # The total is 1 at scale 10 (an int) and 1/10 at scale 100 (a
    # Fraction); the lattice weighs 1/2, 1, 3/2, 2 and 5/2.
    tiny = build_graph(3, [(0, 1, 3 * step), (1, 2, 7 * step), (0, 2, 1)])
    base = lattice8(12, (1, 2, 3, 4, 5), seed=scale)
    src = base.arc_sources()
    keep = src < base.leaves
    mixed = graph_from_arrays(base.n, src[keep], base.leaves[keep], base.weights[keep] * (scale // 2), scale)
    for g in (tiny, mixed):
        assert g.scale == scale
        edges, total, _ = reference_kruskal(g)
        for res in (kruskal(g), prim(g)):
            assert (res.edges, res.total) == (edges, total)
            assert [type(w) for *_, w in res.edges] == [type(w) for *_, w in edges]
            assert type(res.total) is type(total)
    assert type(kruskal(tiny).total) is (int if scale == 10 else Fraction)
    assert {type(w) for *_, w in kruskal(mixed).edges} == {int, Fraction}


def test_kruskal_and_prim_totals_are_exact_beyond_int64():
    big = 2**62
    g = build_graph(4, [(0, 1, big), (1, 2, big + 1), (2, 3, big + 2), (0, 3, big + 3)])
    for res in (kruskal(g), prim(g)):
        assert res.total == 3 * big + 3
        assert type(res.total) is int


def test_prim_matches_kruskal_on_connected_graphs():
    for seed in range(20):
        g = complete(2 + seed % 9, (1, 2, 3), seed=seed)
        assert prim(g).total == kruskal(g).total


def test_prim_grows_a_spanning_forest():
    # Two trees and an isolated node; distinct weights, so the forest is unique.
    g = build_graph(6, [(0, 1, 2), (2, 3, 5), (3, 4, 1), (2, 4, 3)])
    ref = kruskal(g)
    assert ref.total == 6
    for seed in range(g.n):
        res = prim(g, seed=seed)
        assert (res.edges, res.total) == (ref.edges, ref.total), seed
    assert prim(build_graph(0, [])).edges == []


@pytest.mark.parametrize("seed", [1.5, True, "0", -1, 3])
def test_prim_rejects_seeds_that_are_not_node_ids(seed):
    with pytest.raises(IdOutOfRange):
        prim(TRIANGLE, seed=seed)


def test_brute_force_tiny_graphs():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert brute_force(g) == 3
    forest = build_graph(5, [(0, 1, 2), (3, 4, 1)])
    assert brute_force(forest) == 3
    assert brute_force(build_graph(2, [])) == 0


def test_brute_force_refuses_large_inputs():
    with pytest.raises(TooLarge):
        brute_force(random_gnm(11, 10, (1,), seed=0))
    # K10 has n <= 10 but C(45, 9) ~ 8.9e8 subsets: refused before enumerating.
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="C\\(45, 9\\)"):
        brute_force(complete(10, (1, 2, 3), seed=0))
    assert time.perf_counter() - t0 < 1.0


def test_brute_force_cache_is_bounded():
    for n in range(3, 8):
        for seed in range(6):
            brute_force(random_gnm(n, n, (1, 2), seed=seed))
    info = baselines._spanning_subsets.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize


def test_brute_force_agrees_with_kruskal():
    for seed in range(40):
        n = 2 + seed % 6
        m = (seed * 7) % (n * (n - 1) // 2 + 1)
        g = random_gnm(n, m, (1, 2, 3), seed=seed)
        assert brute_force(g) == kruskal(g).total


def test_verify_reports_unknown_edge_first():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert verify_spanning_forest(g, [(0, 1, 9), (1, 2, 2)]) == ["unknown edge"]
    assert verify_spanning_forest(g, [(0, 3, 1)]) == ["unknown edge"]


def test_verify_reports_cycle():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    claimed = [(0, 1, 1), (1, 2, 2), (0, 2, 3)]
    assert verify_spanning_forest(g, claimed) == ["cycle"]
    # Every weight tied around a cycle longer than two: the Borůvka
    # tree's hooks must still end, and the cycle shows in the count.
    square = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
    assert verify_spanning_forest(build_graph(4, square), square) == ["cycle"]
    # A cycle is reported before an uncovered node.
    g = build_graph(5, square + [(3, 4, 1)])
    assert verify_spanning_forest(g, square) == ["cycle"]
    with pytest.raises(NotASpanningForest) as exc:
        minimality_witness(g, square)
    assert exc.value.problem == "cycle"


def test_verify_reports_not_spanning():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert verify_spanning_forest(g, [(0, 1, 1)]) == ["not spanning"]


def test_verify_reports_not_minimum():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert verify_spanning_forest(g, [(0, 1, 1), (0, 2, 3)]) == ["not minimum"]


def test_verify_accepts_a_minimum_forest():
    g = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert verify_spanning_forest(g, [(0, 1, 1), (1, 2, 2)]) == []


def reference_verdict(g, edges, minimum):
    """The loop version: union-find structure checks, then minimality by
    comparing the total with a reference MST total ``minimum``."""
    weight = {(u, v): w for u, v, w in g.edge_list()}
    total = 0
    ds = DisjointSet(g.n)
    acyclic = True
    for u, v, w in edges:
        gw = weight.get((min(u, v), max(u, v)))
        if gw is None or g.unscale(gw) != w:
            return ["unknown edge"]
        total += gw
        acyclic &= ds.union(u, v)
    if not acyclic:
        return ["cycle"]
    full = DisjointSet(g.n)
    for u, v, _ in g.edge_list():
        full.union(u, v)
    if len(edges) != g.n - len({full.find(x) for x in range(g.n)}):
        return ["not spanning"]
    return [] if g.unscale(total) == minimum else ["not minimum"]


def test_verify_multi_component_forest_with_isolated_nodes():
    # Components {0, 1, 2}, {3, 4}, and the isolated nodes 5 and 6.
    g = build_graph(7, [(0, 1, 4), (1, 2, 1), (0, 2, 2), (3, 4, 7)])
    forest = [(1, 2, 1), (0, 2, 2), (3, 4, 7)]
    assert verify_spanning_forest(g, forest) == []
    assert minimality_witness(g, forest) is None
    assert verify_spanning_forest(g, [(0, 1, 4), (0, 2, 2), (3, 4, 7)]) == ["not minimum"]
    assert verify_spanning_forest(g, forest[:2]) == ["not spanning"]


def test_verify_accepts_reversed_claims():
    assert verify_spanning_forest(TRIANGLE, [(2, 1, 2), (1, 0, 1)]) == []
    assert verify_spanning_forest(TRIANGLE, [(1, 0, 1), (2, 0, 3)]) == ["not minimum"]


@pytest.mark.parametrize("scale", [10, 100])
def test_verify_decimal_weights(scale):
    step = Fraction(1, scale)
    g = build_graph(3, [(0, 1, 3 * step), (1, 2, 7 * step), (0, 2, 1)])
    assert g.scale == scale
    assert verify_spanning_forest(g, [(0, 1, 3 * step), (1, 2, 7 * step)]) == []
    assert verify_spanning_forest(g, [(0, 1, 3 * step), (0, 2, Fraction(1))]) == ["not minimum"]
    assert verify_spanning_forest(g, [(0, 1, 3 * step), (0, 2, 1)]) == ["not minimum"]
    assert verify_spanning_forest(g, [(0, 1, 4 * step), (1, 2, 7 * step)]) == ["unknown edge"]
    assert verify_spanning_forest(g, [(0, 1, Fraction(3, 10 * scale)), (1, 2, 7 * step)]) == [
        "unknown edge"
    ]


def test_verify_rescales_columns_at_another_scale_exactly():
    g = build_graph(3, [(0, 1, "0.4"), (1, 2, "0.6"), (0, 2, 3)])

    def verdict(claim, scale):
        u, v, w = (np.array(c, dtype=np.int64) for c in zip(*claim))
        return verify_spanning_forest(g, EdgeColumns(u, v, w, scale))

    assert verdict([(0, 1, 40), (1, 2, 60)], 100) == []
    assert verdict([(0, 1, 40), (0, 2, 300)], 100) == ["not minimum"]
    # Unknown: 0.45 is not at the graph's scale 10; at scale 1, ten times
    # the weight wraps in int64 to the 4 of (0, 1) or the 6 of (1, 2); a
    # ratio of scales beyond int64.
    for claim, scale in [
        ([(0, 1, 45), (0, 2, 300)], 100),
        ([(0, 1, (4 + 2**64) // 10), (0, 2, 3)], 1),
        ([(1, 2, (6 - 2**64) // 10), (0, 2, 3)], 1),
        ([(0, 1, 4), (0, 2, 30)], 10**30),
    ]:
        assert verdict(claim, scale) == ["unknown edge"], claim


def test_verify_fraction_claims_on_integer_weights():
    assert verify_spanning_forest(TRIANGLE, [(0, 1, Fraction(1)), (1, 2, Fraction(4, 2))]) == []
    assert verify_spanning_forest(TRIANGLE, [(0, 1, Fraction(1, 2)), (1, 2, 2)]) == ["unknown edge"]


@pytest.mark.parametrize("bad", [-1, 3, 2**70])
def test_verify_out_of_range_ids_are_unknown_edges(bad):
    assert verify_spanning_forest(TRIANGLE, [(0, 1, 1), (bad, 2, 2)]) == ["unknown edge"]
    assert verify_spanning_forest(TRIANGLE, [(0, 1, 1), (2, bad, 2)]) == ["unknown edge"]


@pytest.mark.parametrize(
    "claims",
    [
        [(0, 1, 1), ("1", 2, 2)],
        [(0, 1, 1), (1, 2)],
        [(0, 1)],
        [(0, 1, 1), (1, 2, 2, 0)],
        [(0, 1, 1), None],
        [(0, 1, 1), "12"],
        [(0, 1, 1), (1.0, 2, 2)],
        [(0, 1, 1), (1, 2, [2])],
        [(0, 1, 1), (True, 2, 2)],
        [(0, 1, 1.0)],
        [(0, 1, True)],
    ],
)
def test_verify_malformed_claims_are_unknown_edges(claims):
    assert verify_spanning_forest(TRIANGLE, claims) == ["unknown edge"]
    with pytest.raises(NotASpanningForest) as exc:
        minimality_witness(TRIANGLE, claims)
    assert exc.value.problem == "unknown edge"


def test_verify_reads_an_array_claim_as_python_ints(monkeypatch):
    def no_fraction(w):
        raise AssertionError(f"weight {w!r} went through _as_fraction")

    monkeypatch.setattr(graph, "_as_fraction", no_fraction)
    claim = np.array([(0, 1, 1), (1, 2, 2)], dtype=np.int64)
    assert verify_spanning_forest(TRIANGLE, claim) == []
    monkeypatch.undo()
    for dtype in (np.float64, bool):
        assert verify_spanning_forest(TRIANGLE, claim.astype(dtype)) == ["unknown edge"], dtype


def test_verify_duplicated_claim_is_a_cycle():
    assert verify_spanning_forest(TRIANGLE, [(0, 1, 1), (1, 2, 2), (1, 0, 1)]) == ["cycle"]
    assert verify_spanning_forest(TRIANGLE, [(0, 1, 1), (0, 1, 1)]) == ["cycle"]


def test_verify_degenerate_sizes():
    empty = build_graph(0, [])
    assert verify_spanning_forest(empty, []) == []
    assert verify_spanning_forest(empty, [(0, 0, 1)]) == ["unknown edge"]
    single = build_graph(1, [])
    assert verify_spanning_forest(single, []) == []
    assert verify_spanning_forest(single, [(0, 0, 1)]) == ["unknown edge"]


def test_verify_accepts_a_tied_alternative_tree():
    g = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 2), (0, 3, 2), (0, 2, 5)])
    assert kruskal(g).edges == [(0, 1, 1), (0, 3, 2), (1, 2, 2)]
    for tree in ([(0, 1, 1), (1, 2, 2), (2, 3, 2)], [(0, 1, 1), (2, 3, 2), (0, 3, 2)]):
        assert verify_spanning_forest(g, tree) == []


def test_verify_never_calls_kruskal(monkeypatch):
    def broken(g):
        raise AssertionError("kruskal must not be called")

    monkeypatch.setattr(baselines, "kruskal", broken)
    g = random_gnm(30, 80, (1, 2, 3), seed=5)
    tree = prim(g).edges
    assert verify_spanning_forest(g, tree) == []
    assert verify_spanning_forest(g, tree, prim(g).total) == []
    assert verify_spanning_forest(g, tree[1:]) == ["not spanning"]


def test_verify_checks_the_expected_total():
    tree = [(0, 1, 1), (1, 2, 2)]
    assert verify_spanning_forest(TRIANGLE, tree, 3) == []
    assert verify_spanning_forest(TRIANGLE, tree, 4) == ["not minimum"]


def test_verify_expected_total_on_a_decimal_scale(monkeypatch):
    calls = []
    intake = baselines.edge_columns

    def counted(n, edges):
        calls.append(n)
        return intake(n, edges)

    monkeypatch.setattr(baselines, "edge_columns", counted)
    step = Fraction(1, 10)
    g = build_graph(3, [(0, 1, 3 * step), (1, 2, 7 * step), (0, 2, 1)])
    tree = [(0, 1, 3 * step), (1, 2, 7 * step)]
    assert verify_spanning_forest(g, tree, Fraction(1)) == []
    assert verify_spanning_forest(g, tree, Fraction(11, 10)) == ["not minimum"]
    # The claims are converted once per call, by the shared intake.
    assert calls == [3, 3]


def test_verify_expected_total_beyond_int64():
    big = 2**62
    g = build_graph(4, [(0, 1, big), (1, 2, big + 1), (2, 3, big + 2), (0, 3, big + 3)])
    tree = [(0, 1, big), (1, 2, big + 1), (2, 3, big + 2)]
    assert verify_spanning_forest(g, tree) == []
    assert verify_spanning_forest(g, tree, 3 * big + 3) == []
    assert verify_spanning_forest(g, tree, 3 * big + 2) == ["not minimum"]
    # What an int64 sum would wrap to.
    assert verify_spanning_forest(g, tree, 3 * big + 3 - 2**64) == ["not minimum"]


def _verdicts(g, claim, total):
    """What the verifier says of a claim: its problems, its problems
    against ``total``, and its witness or the structure check it fails."""
    try:
        witness = minimality_witness(g, claim)
    except NotASpanningForest as exc:
        witness = exc.problem
    return verify_spanning_forest(g, claim), verify_spanning_forest(g, claim, total), witness


def test_verifier_reads_columns_as_their_list(monkeypatch):
    """Columns at the graph's scale and at ten times it are read as
    arrays, with the verdicts and witnesses of their list: valid, not
    minimum, cycle, not spanning and unknown claims."""
    cases = []  # (graph, columns, their list)
    graphs = (
        lattice8(9, (1, 2, 3), seed=4),
        random_gnm(30, 90, (1, 2), seed=8),
        graph_from_arrays(4, [0, 1, 2, 0, 1], [1, 2, 3, 2, 3], [3, 12, 5, 7, 4], 10),
    )
    for g in graphs:
        rng = random.Random(g.n)
        tree = kruskal(g).edges
        for res in (kruskal(g), prim(g)):
            assert isinstance(res.edges, EdgeColumns) and res.edges.scale == g.scale
        cases.append((g, tree, list(tree)))
        ends = {(u, v) for u, v, _ in tree}
        others = [(u, v, g.unscale(w)) for u, v, w in g.edge_list() if (u, v) not in ends]
        claims = []
        for _ in range(8):
            i = rng.randrange(len(tree))
            rest = tree[:i] + tree[i + 1 :]
            u, v, w = tree[i]
            claims += [rest, rest + [rng.choice(others)], list(tree) + [rng.choice(others)]]
            claims.append(rest + [(u, v, w + 1)])
        # Ids out of range: (a - 1, b + n) has the key a * n + b of a
        # graph edge (a, b) with its weight, so only the range check
        # stops it; and an id below 0.
        a, b, w = max(e for e in g.edge_list() if e[0] >= 1)
        claims += [[(a - 1, b + g.n, g.unscale(w))], [(a, -1, g.unscale(w))]]
        for claim in claims:
            cases.append((g, columns_of(claim, g.scale), claim))
            cases.append((g, columns_of(claim, 10 * g.scale), claim))

    totals = [sum(w for *_, w in claim) for _, _, claim in cases]
    want = [_verdicts(g, claim, t) for (g, _, claim), t in zip(cases, totals)]
    assert {v[0][0] if v[0] else "ok" for v in want} == {
        "ok", "not minimum", "cycle", "not spanning", "unknown edge"
    }

    def unread(self, *args):
        raise AssertionError("columns are read as arrays")

    monkeypatch.setattr(EdgeColumns, "__iter__", unread)
    monkeypatch.setattr(EdgeColumns, "__getitem__", unread)
    for (g, cols, claim), t, verdicts in zip(cases, totals, want):
        assert _verdicts(g, cols, t) == verdicts, claim
    monkeypatch.undo()
    for (g, cols, claim), t, verdicts in zip(cases, totals, want):
        assert list(cols) == claim
        assert _verdicts(g, cols, t) == verdicts, claim


def test_verifier_reads_an_int64_array_claim_as_its_list():
    """A (k, 3) int64 array claim gets the verdicts and witness of its
    list: valid, not minimum and unknown-edge claims among others."""
    seen = set()
    for g in (lattice8(9, (1, 2, 3), seed=4), random_gnm(30, 90, (1, 2), seed=8)):
        rng = random.Random(g.n)
        tree = list(kruskal(g).edges)
        in_tree = set(tree)
        others = [e for e in g.edge_list() if e not in in_tree]
        claims = [tree]
        for _ in range(8):
            i = rng.randrange(len(tree))
            u, v, w = tree[i]
            rest = tree[:i] + tree[i + 1 :]
            ds = DisjointSet(g.n)
            for a, b, _ in rest:
                ds.union(a, b)
            heavier = [e for e in others if ds.find(e[0]) != ds.find(e[1]) and e[2] > w]
            claims += [rest + [rng.choice(others)], rest + heavier[:1], rest + [(u, v, w + 1)]]
        for claim in claims:
            total = sum(w for *_, w in claim)
            want = _verdicts(g, claim, total)
            assert _verdicts(g, np.array(claim, dtype=np.int64), total) == want, claim
            seen.add(want[0][0] if want[0] else "ok")
    assert {"ok", "not minimum", "unknown edge"} <= seen


def test_verify_shares_no_code_with_the_engine(monkeypatch):
    g = lattice8(12, (1, 2, 3), seed=5)
    tree = kruskal(g).edges

    def boom(*args, **kwargs):
        raise AssertionError("the verifier must not call the engine")

    for module, name in ((fleet, "_jump"), (fleet, "_hook"), (engine, "merge_round")):
        monkeypatch.setattr(module, name, boom)
    assert verify_spanning_forest(g, tree) == []
    assert verify_spanning_forest(g, tree[1:]) == ["not spanning"]
    g4 = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 5), (1, 3, 4)])
    assert minimality_witness(g4, [(0, 1, 1), (0, 2, 5), (2, 3, 3)]) == ((1, 2, 2), (0, 2, 5))


def _random_forest(rng, n, weights):
    """Edges of a random forest on n nodes: several trees and isolated
    nodes, weights drawn from a small set so that ties are common."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.85:
            u = rng.randrange(max(0, v - rng.choice((1, 3, n))), v)
            edges.append((ids[u], ids[v], rng.choice(weights)))
    return edges


def _path_max_by_walk(n, edges):
    """Weight of the heaviest edge on the forest path between every
    connected pair, and the positions in ``edges`` of the path's edges."""
    adj = [[] for _ in range(n)]
    for i, (u, v, w) in enumerate(edges):
        adj[u].append((v, w, i))
        adj[v].append((u, w, i))
    heaviest = {}
    for s in range(n):
        stack, seen = [(s, 0, ())], {s}
        while stack:
            x, best, path = stack.pop()
            heaviest[s, x] = best, path
            for y, w, i in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append((y, max(best, w), path + (i,)))
    return heaviest


def test_boruvka_tree_path_max_matches_a_path_walk():
    rng = random.Random(11)
    for trial in range(1200):
        n = rng.randint(1, 40)
        edges = _random_forest(rng, n, (1, 2, 3) if trial % 2 else (1, 2, INT64_MAX))
        a, b, w = (np.array([e[i] for e in edges], dtype=np.int64) for i in range(3))
        rounds, label = baselines._boruvka_tree(n, a, b, w)
        assert len(rounds) <= math.ceil(math.log2(n)) + 1
        ds = DisjointSet(n)
        for x, y, _ in edges:
            ds.union(x, y)
        # The same partition: label and root determine each other, and
        # the labels are 0..c-1.
        roots = [ds.find(v) for v in range(n)]
        both = set(zip(label.tolist(), roots))
        assert len(both) == len(set(roots)) == len(set(label.tolist())) == label.max() + 1, (trial, edges)
        assert label.min() == 0
        walk = _path_max_by_walk(n, edges)
        pairs = [(x, y) for (x, y) in walk if x != y]
        if not pairs:
            continue
        qa, qb = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        got = baselines._tree_path_max(rounds, qa, qb)
        assert got.tolist() == [walk[p][0] for p in pairs], (trial, edges)
        # Under ties the named edge must still lie on the path: the
        # heaviest one there in (weight, position) order.
        for p in pairs:
            best, path = walk[p]
            e = baselines._path_argmax(rounds, *p)
            assert e in path and w[e] == best, (trial, edges, p)
            assert e == max(path, key=lambda i: (w[i], i)), (trial, edges, p)


def test_certificate_handles_the_largest_int64_weight():
    g = build_graph(3, [(0, 1, INT64_MAX), (1, 2, 1), (0, 2, 5)])
    tree = [(0, 1, INT64_MAX), (1, 2, 1)]
    assert verify_spanning_forest(g, tree) == ["not minimum"]
    assert minimality_witness(g, tree) == ((0, 2, 5), (0, 1, INT64_MAX))
    best = [(1, 2, 1), (0, 2, 5)]
    assert verify_spanning_forest(g, best, 6) == []
    assert minimality_witness(g, best) is None


def test_boruvka_tree_rounds_are_logarithmic_on_a_long_path():
    n = 4096
    ids = np.random.default_rng(3).permutation(n)
    for w in (np.ones(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)):
        rounds = baselines._boruvka_tree(n, ids[:-1], ids[1:], w)[0]
        assert len(rounds) <= math.ceil(math.log2(n)) + 1
        got = baselines._tree_path_max(rounds, ids[:1], ids[-1:])
        assert got.tolist() == [w.max()]


def test_minimality_witness_names_both_edges():
    g = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 5), (1, 3, 4)])
    tree = [(0, 1, 1), (0, 2, 5), (2, 3, 3)]
    assert minimality_witness(g, tree) == ((1, 2, 2), (0, 2, 5))
    assert minimality_witness(g, kruskal(g).edges) is None
    with pytest.raises(NotASpanningForest) as exc:
        minimality_witness(g, tree[:2])
    assert exc.value.problem == "not spanning"


def test_minimality_witness_names_the_heavy_edge_of_a_deep_cycle():
    # A random-id cycle of weight-1 edges and one weight-2 edge, claimed
    # as the path that keeps the weight-2 edge: the missing edge's path
    # runs through every node, and the weight-2 edge is its heaviest.
    n = 2**16
    ids = np.random.default_rng(7).permutation(n)
    u, v = ids, np.roll(ids, -1)
    w = np.ones(n, dtype=np.int64)
    w[n // 3] = 2
    g = graph_from_arrays(n, u, v, w, 1)
    edges = list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist(), w.tolist()))
    assert minimality_witness(g, edges[1:]) == (edges[0], edges[n // 3])
    assert verify_spanning_forest(g, edges[1:]) == ["not minimum"]
    assert minimality_witness(g, edges[: n // 3] + edges[n // 3 + 1 :]) is None


def test_verify_matches_the_reference_on_perturbed_forests(corpus):
    """Drop, add or swap one edge of the Kruskal forest, or change one
    claimed weight; the certificate must give the reference verdict."""
    outcomes = Counter()
    for spec, g in corpus:
        rng = random.Random(spec.seed * 7919 + g.n)
        ref = kruskal(g)
        tree = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in ref.edges]
        in_tree = {(u, v) for u, v, _ in ref.edges}
        others = [(u, v, g.unscale(w)) for u, v, w in g.edge_list() if (u, v) not in in_tree]
        claims = [tree]
        if tree:
            i = rng.randrange(len(tree))
            u, v, w = tree[i]
            claims.append(tree[:i] + tree[i + 1 :])
            claims.append(tree[:i] + [(u, v, w + 1)] + tree[i + 1 :])
            if others:
                claims.append(tree[:i] + tree[i + 1 :] + [rng.choice(others)])
        if others:
            claims.append(tree + [rng.choice(others)])
        for claim in claims:
            want = reference_verdict(g, claim, ref.total)
            assert verify_spanning_forest(g, claim) == want, (spec.token(), claim)
            outcomes[tuple(want)] += 1
    assert len(outcomes) == 5, outcomes
