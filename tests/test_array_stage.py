"""The array node stage against the sequential reap that defines it."""

import numpy as np
import pytest

from fleetmst import engine
from fleetmst.baselines import kruskal
from fleetmst.fleet import build_fleet
from fleetmst.generators import lattice8
from fleetmst.kernels import detect_kernels, koag_seed
from oracles import (
    bench_lattices,
    chain,
    equal_path,
    gnm_graphs,
    increasing_path,
    random_id_path,
    sequential_stage,
)

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


def deep_inputs():
    """Inputs that run the array stage's loops long: one 5,000-node
    cluster (BFS levels), a 4,999-arc subjection chain (label passes),
    founders that each decide the next (founder rounds under ``ooag``),
    and equal and increasing paths laid through 2^14 nodes in a random
    order of ids."""
    n = 2**14
    return [
        ("equal_path", equal_path(5000)),
        ("increasing_path", increasing_path(5000)),
        ("chain", chain(2000)),
        ("random_id_equal_path", random_id_path(n, np.ones(n - 1, dtype=np.int64), seed=1)),
        ("random_id_increasing_path", random_id_path(n, np.arange(1, n), seed=2)),
    ]


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
