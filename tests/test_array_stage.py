"""The array node stage against the sequential reap it replaces."""

import numpy as np
import pytest

from fleetmst import engine
from fleetmst.baselines import kruskal
from fleetmst.fleet import build_fleet
from fleetmst.generators import lattice8, random_gnm
from fleetmst.graph import graph_from_arrays
from fleetmst.kernels import detect_kernels, koag_seed

STAGE_MODES = ("ooag", "oag_then_merge", "koag_seeded")


def equal_path(n):
    u = np.arange(n - 1)
    return graph_from_arrays(n, u, u + 1, np.ones(n - 1, dtype=np.int64), 1)


def increasing_path(n):
    u = np.arange(n - 1)
    return graph_from_arrays(n, u, u + 1, u + 1, 1)


def chain(k):
    """k beam pairs a_i = 3k-i, b_i = 3k+i-1 (weight 1); v_i = i-1 joins
    a_i and a_(i-1), w_i = k+i-1 joins a_i (weight 2).  Under ooag each
    founder decides the next one, so the founders' fixpoint needs about
    k rounds."""
    i = np.arange(1, k + 1)
    a, b, v, w = 3 * k - i, 3 * k + i - 1, i - 1, k + i - 1
    u = np.concatenate([a, v, v[1:], w])
    x = np.concatenate([b, a, a[:-1], a])
    wt = np.concatenate([np.ones(k, dtype=np.int64), np.full(3 * k - 1, 2)])
    return graph_from_arrays(4 * k, u, x, wt, 1)


def bench_lattices():
    """The eight graphs of the benchmark's seed-7 runs (p=200)."""
    return [lattice8(200, tuple(range(1, q + 1)), s) for q in (10, 2) for s in range(28, 32)]


def gnm_graphs():
    qs = [(1,), (1, 2), (1, 2, 3), tuple(range(1, 11)), tuple(range(1, 1001))]
    return [random_gnm(200 + 150 * i, 600 + 700 * i, qs[i % 5], seed=i) for i in range(20)]


def stages(g, f, mode):
    """The array stage of ``mode`` on g (None on a fallback), and the
    sequential stage that defines it."""
    if mode != "koag_seeded":
        return engine.array_stage(g, f, mode), engine.sequential_stage(g, f, mode)
    rep = detect_kernels(f)
    return engine.array_stage(g, f, mode, rep.kernel_of), engine.sequential_stage(g, f, mode, rep.kernels)


def node_stage(g, f, mode):
    """The node stage ``engine.run`` takes under ``mode``."""
    if mode == "koag_seeded":
        return koag_seed(g, f, detect_kernels(f))
    return (engine.inheritance_stage if mode == "ooag" else engine.node_stage)(g, f)


def assert_same_forest(g, mode):
    array, seq = stages(g, build_fleet(g), mode)
    assert array is not None, mode
    assert np.array_equal(np.asarray(array.parent), np.asarray(seq.parent)), mode
    assert np.array_equal(array.cluster_of, seq.cluster_of), mode
    assert array.counter == seq.counter, mode
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


@pytest.mark.parametrize(
    "name, g, falls_back",
    [
        ("equal_path", equal_path(5000), set(STAGE_MODES)),
        ("increasing_path", increasing_path(5000), set(STAGE_MODES)),
        ("chain", chain(2000), {"ooag"}),
    ],
)
def test_deep_inputs_take_the_fallback(name, g, falls_back):
    """Each of these runs one of the array stage's loops past its budget
    under ``falls_back``; the stage then returns the sequential forest.
    ``equal_path`` runs past the BFS levels (one 5,000-node cluster),
    ``increasing_path`` past the label passes (a 4,999-arc subjection
    chain) and ``chain`` under ``ooag`` past the founder rounds."""
    for mode in STAGE_MODES:
        f = build_fleet(g)
        array, want = stages(g, f, mode)
        if mode in falls_back:
            assert array is None, (name, mode)
        else:
            assert_same_forest(g, mode)
        got = node_stage(g, f, mode)
        assert np.array_equal(np.asarray(got.parent), np.asarray(want.parent)), (name, mode)
        assert np.array_equal(got.cluster_of, want.cluster_of), (name, mode)
        assert got.node_arc_touches == want.node_arc_touches, (name, mode)
        res = engine.run(g, mode)
        assert res.edges == kruskal(g).edges, (name, mode)


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
