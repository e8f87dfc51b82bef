"""The array node stage against the sequential reap that defines it."""

import numpy as np
import pytest

from fleetmst import engine
from fleetmst.baselines import kruskal
from fleetmst.fleet import build_fleet
from fleetmst.generators import lattice8
from fleetmst.graph import graph_from_arrays
from fleetmst.kernels import detect_kernels, koag_seed
from oracles import bench_lattices, deep_inputs, gnm_graphs, sequential_stage

STAGE_MODES = ("ooag", "oag_then_merge", "koag_seeded")


def stages(g, f, mode):
    """The array stage of ``mode`` on g and the sequential stage that
    defines it."""
    if mode != "koag_seeded":
        return engine.array_stage(g, f, mode), sequential_stage(g, f, mode)
    rep = detect_kernels(f)
    return engine.array_stage(g, f, mode, rep.kernel_of), sequential_stage(g, f, mode, rep.kernels)


def node_stage(g, f, mode):
    """The node stage ``engine.run`` takes under ``mode``."""
    if mode == "koag_seeded":
        return koag_seed(g, f, detect_kernels(f))
    return (engine.inheritance_stage if mode == "ooag" else engine.node_stage)(g, f)


def assert_same_forest(g, mode):
    array, seq = stages(g, build_fleet(g), mode)
    assert np.array_equal(array.parent, seq.parent), mode
    assert np.array_equal(array.cluster_of, seq.cluster_of), mode
    assert array.cluster_count == seq.cluster_count, mode
    assert array.node_arc_touches == seq.node_arc_touches, mode


def test_array_stage_matches_the_sequential_stage_on_the_corpus(corpus):
    for spec, g in corpus[::3]:
        for mode in STAGE_MODES:
            assert_same_forest(g, mode)


@pytest.mark.parametrize("mode", STAGE_MODES)
def test_array_stage_matches_the_sequential_stage_on_the_bench_lattices(mode):
    for g in bench_lattices():
        assert_same_forest(g, mode)


@pytest.mark.parametrize("mode", STAGE_MODES)
def test_array_stage_matches_the_sequential_stage_on_random_graphs(mode):
    for g in gnm_graphs():
        assert_same_forest(g, mode)


@pytest.mark.parametrize("mode", STAGE_MODES)
def test_deep_inputs_match_the_oracle(mode, monkeypatch):
    """On these the array stage's loops finish exactly: past their
    budgets the founders and labels by ``_claim_upstream``, and levels
    with a small frontier by ``_small_level``; each runs on at least one
    of the inputs."""
    ran = {"_claim_upstream": set(), "_small_level": set()}
    for fn in ran:
        real = getattr(engine, fn)

        def spy(*args, _real=real, _fn=fn):
            ran[_fn].add(name)
            return _real(*args)

        monkeypatch.setattr(engine, fn, spy)
    for name, g in deep_inputs():
        assert_same_forest(g, mode)
        assert engine.run(g, mode).edges == kruskal(g).edges, name
    assert all(ran.values()), ran


def test_founder_rounds_agree_with_their_finisher(corpus, monkeypatch):
    """The warm-started rounds of ``_founders`` reach the fixpoint that
    ``_claim_upstream`` computes in one ascending pass on the same
    arguments: the same founders and the same m, for the component
    representatives of ``ooag`` and for the beam loop's nominations."""
    calls = []
    real = engine._founders

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(engine, "_founders", spy)
    graphs = [g for _, g in corpus] + bench_lattices() + [g for _, g in deep_inputs()]
    seen = set()
    for g in graphs:
        f = build_fleet(g)
        for mode in STAGE_MODES:
            calls.clear()
            node_stage(g, f, mode)
            for (n, nominators, nominee, home, down), (founders, m) in calls:
                m_exact, took = engine._claim_upstream(n, *down, nominee, home, nominators)
                assert np.array_equal(founders, nominators[took]), mode
                assert np.array_equal(m, m_exact), mode
                seen.add(mode)
    assert seen == set(STAGE_MODES)


def stamp_graph():
    """Kernels {0, 3} and {1, 2}; node 4 subjects strictly to 2 and 3,
    node 5 to 1 and 4.  The kernel phase's subjection reap starts from
    every member in id order, so 4 (cluster 0) is reached from 2
    (cluster 1) before 3 in the same level, and 5 (cluster 0) is reached
    only from 1 (cluster 1) in the first level and from 4 in the next."""
    u, v = np.array([0, 1, 4, 4, 5, 5]), np.array([3, 2, 2, 3, 1, 4])
    return graph_from_arrays(6, u, v, np.array([1, 2, 5, 5, 6, 6]), 1)


@pytest.mark.parametrize("small_frontier", [1, engine.SMALL_FRONTIER])
@pytest.mark.parametrize("mode", STAGE_MODES)
def test_reap_claims_through_the_first_same_cluster_arc(mode, small_frontier, monkeypatch):
    """An arc that leaves its cluster never claims, even when it comes
    first in its level; its target waits for a same-cluster arc.  With a
    small-frontier bound of 1 every level takes the numpy step."""
    monkeypatch.setattr(engine, "SMALL_FRONTIER", small_frontier)
    g = stamp_graph()
    array, seq = stages(g, build_fleet(g), mode)
    assert np.array_equal(array.parent, seq.parent)
    assert np.array_equal(array.cluster_of, seq.cluster_of)
    assert array.parent[4:].tolist() == [3, 4] and array.cluster_of.tolist() == [0, 1, 1, 0, 0, 0]
    # The BFS alone, on a hand-made level: 1 (cluster 1) comes first and
    # reaches 2 and 3 (cluster 0) and 4 (cluster 1); 0 then claims 2, 2
    # claims 3 in the next level.
    ptr, fwd = np.array([0, 1, 4, 5, 5, 5]), np.array([2, 2, 3, 4, 3])
    cl, parent = np.array([0, 1, 0, 0, 1]), np.full(5, -1)
    engine._reap_parents(ptr, fwd, cl, np.array([1, 0]), parent)
    assert parent.tolist() == [-1, -1, 0, 2, 1]


def test_stages_leave_the_chase_tables_unbuilt():
    g = lattice8(40, (1, 2, 3), seed=5)
    for mode in STAGE_MODES:
        f = build_fleet(g)
        node_stage(g, f, mode)
        assert f._tables is None, mode


def test_boruvka_reference_matches_kruskal(corpus):
    assert "boruvka" not in engine.MODES
    for spec, g in corpus[::3]:
        res = engine.run(g, mode="boruvka")
        assert res.edges == kruskal(g).edges, spec.token()
        assert res.k_after_node_stage == g.n, spec.token()
        assert res.node_arc_touches == 0, spec.token()
