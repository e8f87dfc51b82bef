import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from fleetmst import baselines
from fleetmst.baselines import (
    DisjointSet,
    brute_force,
    kruskal,
    minimality_witness,
    prim,
    verify_spanning_forest,
)
from fleetmst.errors import NotASpanningForest, TooLarge
from fleetmst.generators import complete, random_gnm
from fleetmst.graph import build_graph

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


def test_prim_matches_kruskal_on_connected_graphs():
    for seed in range(20):
        g = complete(2 + seed % 9, (1, 2, 3), seed=seed)
        assert prim(g).total == kruskal(g).total


def test_prim_covers_seed_component_only():
    g = build_graph(4, [(0, 1, 2), (2, 3, 5)])
    assert prim(g, seed=0).total == 2
    assert prim(g, seed=2).total == 5


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
    total = 0
    ds = DisjointSet(g.n)
    acyclic = True
    for u, v, w in edges:
        gw = g.weight_between(u, v) if 0 <= u < g.n and 0 <= v < g.n else None
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


def test_verify_fraction_claims_on_integer_weights():
    assert verify_spanning_forest(TRIANGLE, [(0, 1, Fraction(1)), (1, 2, Fraction(4, 2))]) == []
    assert verify_spanning_forest(TRIANGLE, [(0, 1, Fraction(1, 2)), (1, 2, 2)]) == ["unknown edge"]


@pytest.mark.parametrize("bad", [-1, 3, 2**70])
def test_verify_out_of_range_ids_are_unknown_edges(bad):
    assert verify_spanning_forest(TRIANGLE, [(0, 1, 1), (bad, 2, 2)]) == ["unknown edge"]
    assert verify_spanning_forest(TRIANGLE, [(0, 1, 1), (2, bad, 2)]) == ["unknown edge"]


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


def test_minimality_witness_names_both_edges():
    g = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 5), (1, 3, 4)])
    tree = [(0, 1, 1), (0, 2, 5), (2, 3, 3)]
    assert minimality_witness(g, tree) == ((1, 2, 2), (0, 2, 5))
    assert minimality_witness(g, kruskal(g).edges) is None
    with pytest.raises(NotASpanningForest) as exc:
        minimality_witness(g, tree[:2])
    assert exc.value.problem == "not spanning"


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
