"""Hypothesis checks: the staged engine against the classic oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fleetmst import engine
from fleetmst.baselines import brute_force, kruskal, prim, verify_spanning_forest
from fleetmst.fleet import build_fleet, trace_chain
from fleetmst.graph import build_graph, read_graph, write_graph

WEIGHTS = st.sampled_from([1, 2, 3, 5, 100, "0.5", "2.25"])


@st.composite
def edge_lists(draw, max_nodes=12):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    edges = [(u, v, draw(WEIGHTS)) for u, v in chosen]
    return n, edges


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_every_mode_matches_kruskal(data):
    n, edges = data
    g = build_graph(n, edges)
    ref = kruskal(g)
    for mode in engine.MODES:
        res = engine.run(g, mode=mode)
        assert res.total == ref.total
        assert verify_spanning_forest(g, res.edges, ref.total) == []


@given(edge_lists(max_nodes=7))
@settings(max_examples=120, deadline=None)
def test_engine_matches_exhaustive_search(data):
    n, edges = data
    g = build_graph(n, edges)
    assert engine.run(g, mode="ooag").total == brute_force(g)


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_melioration_never_changes_the_output(data):
    n, edges = data
    g = build_graph(n, edges)
    for mode in engine.MODES:
        on = engine.run(g, mode=mode, melioration=True)
        off = engine.run(g, mode=mode, melioration=False)
        assert on.edges == off.edges


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_prim_agrees_per_component(data):
    n, edges = data
    g = build_graph(n, edges)
    # From any seed Prim grows a tree on every component: the Kruskal
    # forest's total and edge count.
    ref = kruskal(g)
    for v in range(n):
        res = prim(g, seed=v)
        assert (res.total, len(res.edges)) == (ref.total, len(ref.edges))


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_file_roundtrip_preserves_the_graph(tmp_path_factory, data):
    n, edges = data
    g = build_graph(n, edges)
    path = tmp_path_factory.mktemp("io") / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_chains_always_reach_a_beam(data):
    n, edges = data
    g = build_graph(n, edges)
    f = build_fleet(g)
    for v in range(n):
        if f.isolated[v]:
            continue
        chain = trace_chain(f, v)
        assert f.in_beam(chain[-1])
        assert len(chain) <= n


@given(st.lists(WEIGHTS, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_total_is_exact_over_mixed_weights(ws):
    n = len(ws) + 1
    g = build_graph(n, [(i, i + 1, w) for i, w in enumerate(ws)])
    res = engine.run(g, mode="ooag")
    assert res.total == sum(Fraction(str(w)) for w in ws)
