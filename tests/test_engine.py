import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from fleetmst import engine
from fleetmst.baselines import kruskal, verify_spanning_forest
from fleetmst.engine import (
    EdgeColumns,
    inheritance_stage,
    merge_round,
    node_stage,
    run,
    write_tree,
)
from fleetmst.errors import InconsistentModel, TooLarge
from fleetmst.fleet import build_fleet
from fleetmst.generators import lattice8, random_gnm
from fleetmst.graph import Graph, build_graph, decimal_places, format_weight, graph_from_arrays
from fleetmst.kernels import detect_kernels, koag_seed
from oracles import bench_lattices, columns_of, deep_inputs, gnm_graphs, sequential_stage

TWO_TRIANGLES = build_graph(
    6,
    [
        (0, 1, 1),
        (0, 2, 2),
        (1, 2, 3),
        (3, 4, 1),
        (3, 5, 2),
        (4, 5, 3),
        (2, 5, 9),
    ],
)


NODE_STAGES = {
    "sequential ooag": lambda g, f: sequential_stage(g, f, "ooag"),
    "sequential oag_then_merge": lambda g, f: sequential_stage(g, f, "oag_then_merge"),
    "koag_seed": lambda g, f: koag_seed(g, f, detect_kernels(f)),
    "array ooag": lambda g, f: engine.array_stage(g, f, "ooag"),
    "array oag_then_merge": lambda g, f: engine.array_stage(g, f, "oag_then_merge"),
}


def test_node_stage_reaps_both_triangles():
    """Every node stage, sequential or array, reaps each triangle whole
    from its beam."""
    for name, stage in NODE_STAGES.items():
        forest = stage(TWO_TRIANGLES, build_fleet(TWO_TRIANGLES))
        assert forest.cluster_count == 2, name
        assert len(forest.picked) == 4, name
        cl = forest.cluster_of.tolist()
        assert cl[0] == cl[1] == cl[2], name
        assert cl[3] == cl[4] == cl[5], name
        assert cl[0] != cl[3], name


def test_node_stage_gives_isolated_nodes_the_last_ids():
    g = build_graph(3, [(0, 1, 1)])
    for name, stage in NODE_STAGES.items():
        forest = stage(g, build_fleet(g))
        assert forest.cluster_of.tolist() == [0, 0, 1], name
        assert forest.parent[2] == -1, name
        assert forest.picked == [(0, 1, 1)], name


def test_full_run_picks_the_bridge_last():
    for mode in engine.MODES:
        res = run(TWO_TRIANGLES, mode=mode)
        assert res.total == 15
        assert res.k_after_node_stage == 2
        assert res.rounds == 1
        assert (2, 5, 9) in res.edges
        assert len(res.edges) == 5


def test_equal_weight_cycle_drops_exactly_one_edge():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    for mode in engine.MODES:
        res = run(g, mode=mode)
        assert res.total == 3
        assert len(res.edges) == 3
        assert res.k_after_node_stage == 1
        assert res.rounds == 0


def test_inheritance_stage_matches_node_stage_totals():
    g = random_gnm(24, 60, (1, 2, 3), seed=5)
    f = build_fleet(g)
    a = node_stage(g, f)
    b = inheritance_stage(g, f)
    assert sorted(w for _, _, w in a.picked) == sorted(w for _, _, w in b.picked)


def test_model_graph_mismatch_is_rejected():
    other = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    with pytest.raises(InconsistentModel):
        node_stage(TWO_TRIANGLES, build_fleet(other))


def _step_merge_rounds(g, melioration):
    """Run the merge rounds one by one; per round, (arcs scanned, arcs
    whose endpoints were in different clusters at the round's start)."""
    forest = inheritance_stage(g, build_fleet(g))
    forest.melioration = melioration
    src = g.arc_sources()
    rounds = []
    while forest.cluster_count - len(forest.done) >= 2:
        cl = forest.cluster_of.copy()
        merge_round(g, forest)
        crossing = int((cl[src] != cl[g.leaves]).sum())
        rounds.append((forest.per_round[-1].arcs_scanned, crossing))
    return rounds


def test_merge_round_scans_the_crossing_arcs():
    g = lattice8(30, tuple(range(1, 11)), seed=7)
    rounds = _step_merge_rounds(g, melioration=True)
    assert len(rounds) >= 2
    assert rounds[0][0] == 2 * g.m
    for scanned, crossing in rounds[1:]:
        assert scanned == crossing < 2 * g.m
    rescans = _step_merge_rounds(g, melioration=False)
    assert len(rescans) == len(rounds)
    assert all(scanned == 2 * g.m for scanned, _ in rescans)


def test_merge_rounds_number_clusters_from_zero():
    """After every merge round the clusters are numbered 0..k-1."""
    for g in (TWO_TRIANGLES, lattice8(30, tuple(range(1, 11)), seed=7)):
        forest = node_stage(g, build_fleet(g))
        while forest.cluster_count - len(forest.done) >= 2:
            before = forest.cluster_count
            merge_round(g, forest)
            rs = forest.per_round[-1]
            assert (rs.clusters_before, rs.clusters_after) == (before, forest.cluster_count)
            assert np.array_equal(np.unique(forest.cluster_of), np.arange(forest.cluster_count))
        assert forest.cluster_count == 1
        assert len(forest.per_round) == forest.rounds >= 1


def test_bridge_tie_breaks_lexicographically():
    # Two 2-node clusters joined by two equal-weight bridges; the
    # (weight, smaller endpoint, larger endpoint) rule must pick (0, 2).
    g = build_graph(4, [(0, 1, 1), (2, 3, 1), (0, 2, 5), (1, 3, 5)])
    res = run(g, mode="oag_then_merge")
    assert (0, 2, 5) in res.edges
    assert (1, 3, 5) not in res.edges


def test_degenerate_sizes():
    assert run(build_graph(0, [])).edges == []
    r1 = run(build_graph(1, []))
    assert r1.edges == [] and r1.total == 0 and r1.k_after_node_stage == 1
    r2 = run(build_graph(2, [(0, 1, 7)]))
    assert r2.edges == [(0, 1, 7)] and r2.total == 7


def test_disconnected_graph_yields_forest():
    g = build_graph(5, [(0, 1, 2), (1, 2, 4), (3, 4, 1)])
    for mode in engine.MODES:
        res = run(g, mode=mode)
        assert res.total == 7
        assert len(res.edges) == 3


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run(TWO_TRIANGLES, mode="dijkstra")


def test_rounds_within_log_bound():
    g = random_gnm(50, 300, (1,), seed=11)  # all ties, worst fragmentation
    res = run(g, mode="oag_then_merge")
    assert res.rounds <= math.ceil(math.log2(g.n)) + 1
    assert res.total == kruskal(g).total


def test_full_rescan_has_flat_per_round_ratio():
    """Control for acceptance criterion 8: without melioration every
    round scans every arc, so A = 2m * rounds and n * rounds / A is n/2m,
    which does not rise with lattice size."""
    per_round = {}
    for p in (100, 300):
        g = lattice8(p, tuple(range(1, 11)), seed=7)
        res = run(g, mode="ooag", melioration=False)
        assert res.rounds >= 2
        assert res.comparisons == g.arc_sources().size * res.rounds
        per_round[p] = g.n * res.rounds / res.comparisons
    assert per_round[300] <= per_round[100]


def test_result_bookkeeping_fields():
    res = run(TWO_TRIANGLES, mode="ooag")
    assert set(res.phase_seconds) == {"fleet_build", "node_stage", "merge_rounds", "materialise"}
    assert res.comparisons >= len(res.per_round)
    assert res.node_arc_touches > 0
    assert res.mode == "ooag"


def test_write_tree_format(tmp_path):
    res = run(TWO_TRIANGLES, mode="ooag")
    out = tmp_path / "tree.txt"
    write_tree(res, TWO_TRIANGLES.n, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "6 2 15 1"
    assert lines[1] == "0 1 1"
    assert len(lines) == 6


def test_decimal_weights_survive_the_pipeline():
    g = build_graph(3, [(0, 1, "0.5"), (1, 2, "0.25"), (0, 2, "0.75")])
    res = run(g, mode="ooag")
    assert res.total == kruskal(g).total
    assert str(res.total) == "3/4"


def test_edges_are_sorted_pairs_in_every_mode():
    graphs = [TWO_TRIANGLES, random_gnm(60, 200, (1, 2), seed=3), lattice8(12, (1, 2, 3), seed=1)]
    for g in graphs:
        for mode in engine.MODES:
            pairs = [(u, v) for u, v, _ in run(g, mode=mode).edges]
            assert all(u < v for u, v in pairs)
            assert all(a < b for a, b in zip(pairs, pairs[1:]))


def distinct_gnm(scale: int):
    """A G(n, m) graph at ``scale`` with distinct weights, so the minimum
    forest and its edge list are unique: 1, 2, ..., 120 at scale 1, and
    0.1, 0.2, ..., 12 at scales 10 and 100."""
    base = random_gnm(40, 120, (1,), seed=scale)
    src = base.arc_sources()
    keep = src < base.leaves
    w = ((np.arange(base.m) * 37) % base.m + 1) * max(scale // 10, 1)
    return graph_from_arrays(base.n, src[keep], base.leaves[keep], w, scale)


@pytest.mark.parametrize("scale", [10, 100])
def test_decimal_results_match_kruskal_in_value_and_type(scale):
    g = distinct_gnm(scale)
    ref = kruskal(g)
    for mode in engine.MODES:
        res = run(g, mode=mode)
        assert res.edges == ref.edges and res.total == ref.total
        assert [type(w) for *_, w in res.edges] == [type(w) for *_, w in ref.edges]
        assert type(res.total) is type(ref.total)
    assert {type(w) for *_, w in ref.edges} == {int, Fraction}


def test_total_is_exact_beyond_int64():
    g = build_graph(4, [(0, 1, 2**62), (1, 2, 2**62), (2, 3, 2**62)])
    for mode in engine.MODES + ("boruvka",):
        res = run(g, mode=mode)
        assert res.total == kruskal(g).total == 3 * 2**62 > 2**63, mode
        assert type(res.total) is int, mode


@pytest.mark.parametrize("scale", [1, 10, 100])
def test_edge_columns_read_like_the_list(scale):
    g = distinct_gnm(scale)
    view = run(g, mode="ooag").edges
    assert isinstance(view, EdgeColumns) and view.scale == scale
    edges = list(view)
    n = len(edges)
    assert len(view) == n == g.n - 1
    for i in (0, 1, n - 1, -1, -n, np.int64(2), True):
        assert view[i] == edges[i], i
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[1.0]
    for s in (slice(None), slice(1, 4), slice(None, None, -2), slice(5, 2), slice(-3, None)):
        assert type(view[s]) is list and view[s] == edges[s], s
    u, v, w = edges[3]
    assert edges[3] in view and (u, v, w + 1) not in view and "edge" not in view

    # Python ints, weights unscaled as Graph.unscale does.
    for (u, v, w), su, sv, sw in zip(view, view.u, view.v, view.w):
        assert (type(u), type(v)) == (int, int) and (u, v) == (su, sv)
        assert w == g.unscale(int(sw)) and type(w) is type(g.unscale(int(sw)))
    kinds = {type(w) for *_, w in view}
    assert kinds == ({int} if scale == 1 else {int, Fraction})

    # Equal to the same edges as a list, a tuple or columns, from either side.
    copy = EdgeColumns(view.u.copy(), view.v.copy(), view.w.copy(), scale)
    rescaled = EdgeColumns(view.u.copy(), view.v.copy(), view.w * 10, scale * 10)
    for other in (edges, tuple(edges), copy, rescaled, columns_of(edges, scale)):
        assert view == other and other == view, type(other)
        assert not view != other and not other != view, type(other)
    u, v, w = edges[-1]
    heavier = edges[:-1] + [(u, v, w + 1)]
    for other in (heavier, tuple(heavier), edges[:-1], [], columns_of(heavier, scale), list(reversed(edges))):
        assert view != other and other != view, other
        assert not view == other and not other == view, other
    assert view != "edges" and view != None  # noqa: E711
    assert columns_of([], scale) == [] == columns_of([], 1)

    with pytest.raises(TypeError):
        hash(view)
    for col in (view.u, view.v, view.w):
        assert col.dtype == np.int64 and not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0


def minimal_scale_tree_text(res, n: int) -> str:
    """A tree file formatted from the result's tuples: every weight and
    the total at the smallest scale that makes every edge weight an
    integer."""
    edges = list(res.edges)
    scale = 10 ** max((decimal_places(w) for *_, w in edges), default=0)

    def text(w):
        return format_weight(int(w * scale), scale)

    lines = [f"{n} {res.k_after_node_stage} {text(res.total)} {res.rounds}"]
    lines += [f"{u} {v} {text(w)}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scale", [1, 10, 100])
def test_write_tree_matches_the_minimal_scale_text(tmp_path, monkeypatch, scale):
    # At scale 100 every weight is a multiple of 0.1, so the columns'
    # scale is not the minimal one.
    g = distinct_gnm(scale)
    res = run(g, mode="ooag")
    want = minimal_scale_tree_text(res, g.n)

    def unread(self, *args):
        raise AssertionError("write_tree reads the columns as arrays")

    monkeypatch.setattr(EdgeColumns, "__iter__", unread)
    monkeypatch.setattr(EdgeColumns, "__getitem__", unread)
    write_tree(res, g.n, tmp_path / "tree.txt")
    assert (tmp_path / "tree.txt").read_text() == want


def test_first_edge_list_holds_only_crossing_edges():
    """With melioration on, the first round lists only the edges that
    cross clusters yet counts all 2m arcs; off, every round rebuilds
    that list from all 2m arcs and counts them."""
    g = lattice8(80, (1, 2), seed=9)  # the node stage leaves 4 clusters
    f = build_fleet(g)
    src = g.arc_sources()
    listed, stepped = inheritance_stage(g, f), inheritance_stage(g, f)
    cl = listed.cluster_of
    crossing = int(((src < g.leaves) & (cl[src] != cl[g.leaves])).sum())
    engine._build_edge_list(g, listed)
    assert listed.edge_key.size == crossing > 0
    assert (listed.label_a != listed.label_b).all()
    merge_round(g, stepped)
    assert stepped.per_round[0].arcs_scanned == 2 * g.m

    g = lattice8(30, tuple(range(1, 11)), seed=7)
    src = g.arc_sources()
    forest = inheritance_stage(g, build_fleet(g))
    forest.melioration = False
    while forest.cluster_count - len(forest.done) >= 2:
        cl = forest.cluster_of
        crossing = np.flatnonzero((src < g.leaves) & (cl[src] != cl[g.leaves]))
        merge_round(g, forest)
        assert np.array_equal(forest.edge_key % g.arc_count, crossing)
        assert forest.per_round[-1].arcs_scanned == 2 * g.m
    assert forest.rounds >= 2


def singletons(g):
    """A forest of g before its first merge round, every node its own
    cluster (as under ``mode="boruvka"``)."""
    return engine.Forest(g, np.arange(g.n), np.full(g.n, -1), np.zeros(0, dtype=np.int64))


def wide_weight_graphs():
    """Graphs whose (wmax - wmin + 1) * L does not fit in int64 once two
    or more edges are listed: weights drawn from {1, 2, 2**62, 2**62 + 1}
    (heavy ties), and distinct weights half near 1, half near 2**62."""
    choices = np.array([1, 2, 2**62, 2**62 + 1], dtype=np.int64)
    out = []
    for seed in range(8):
        base = random_gnm(40 + 30 * seed, 120 + 90 * seed, (1,), seed=seed)
        src = base.arc_sources()
        keep = src < base.leaves
        rng = np.random.default_rng(seed)
        if seed % 2:
            w = rng.permutation(np.arange(base.m) + np.where(np.arange(base.m) % 2, 1, 2**62))
        else:
            w = rng.choice(choices, size=base.m)
        out.append((graph_from_arrays(base.n, src[keep], base.leaves[keep], w, 1), bool(seed % 2)))
    return out


def test_rank_keys_fall_back_to_dense_ranks_on_wide_weights():
    """Keys stay in (w, a, b) order past the int64 key range, so plain
    Boruvka picks Kruskal's tree.  Under ties the node-stage modes pick
    another minimum tree, so those are checked by total and certificate;
    with distinct weights the tree is unique."""
    for g, distinct in wide_weight_graphs():
        forest = singletons(g)
        engine._build_edge_list(g, forest)
        arc = forest.edge_key % g.arc_count
        a, b, w = g.arc_sources()[arc], g.leaves[arc], g.weights[arc]
        assert (a < b).all() and np.unique(arc).size == g.m
        assert np.array_equal(np.argsort(forest.edge_key), np.lexsort((b, a, w)))
        ref = kruskal(g)
        for mode in engine.MODES + ("boruvka",):
            on, off = run(g, mode=mode), run(g, mode=mode, melioration=False)
            assert on.edges == off.edges and on.rounds == off.rounds, mode
            assert on.total == off.total == ref.total, mode
            assert verify_spanning_forest(g, on.edges, ref.total) == [], mode
            if distinct or mode == "boruvka":
                assert on.edges == ref.edges, mode


def test_dense_rank_keys_are_refused_only_when_they_overflow(monkeypatch):
    """Dense-rank keys stay below distinct weights * 2m, so the list build
    is TooLarge only when that product passes int64: 2**31 edges or more
    with few distinct wide weights still fit.  No such graph fits in a
    test, so the arc count is faked."""

    def assert_key_order(g, arcs):
        forest = singletons(g)
        engine._build_edge_list(g, forest)
        arc = forest.edge_key % arcs
        a, b, w = g.arc_sources()[arc], g.leaves[arc], g.weights[arc]
        assert np.array_equal(np.argsort(forest.edge_key), np.lexsort((b, a, w)))

    (ties, _), (distinct, _) = wide_weight_graphs()[:2]
    narrow = random_gnm(50, 120, tuple(range(1, 11)), seed=3)
    monkeypatch.setattr(Graph, "arc_count", property(lambda g: 2**32))
    assert_key_order(narrow, 2**32)  # offset keys
    assert_key_order(ties, 2**32)  # dense ranks of 4 weights
    fits = engine._NO_KEY // np.unique(distinct.weights).size
    monkeypatch.setattr(Graph, "arc_count", property(lambda g: fits + 1))
    with pytest.raises(TooLarge):
        engine._build_edge_list(distinct, singletons(distinct))
    monkeypatch.setattr(Graph, "arc_count", property(lambda g: fits))
    assert_key_order(distinct, fits)


# The merge stage on each benchmark lattice, per (mode, melioration):
# rounds, A and per round (clusters_before, clusters_after, arcs_scanned).
Q2_MERGES = [
    (1, 317604, ((8, 1, 317604),)),
    (1, 317604, ((12, 1, 317604),)),
    (1, 317604, ((4, 1, 317604),)),
    (1, 317604, ((9, 1, 317604),)),
]
MERGE_STAGES = {
    ("ooag", True): [
        (5, 515376, ((8592, 1738, 317604), (1738, 309, 116804), (309, 26, 57764), (26, 3, 20144), (3, 1, 3060))),
        (5, 514390, ((8558, 1698, 317604), (1698, 302, 115702), (302, 30, 59216), (30, 2, 19570), (2, 1, 2298))),
        (5, 523280, ((8563, 1721, 317604), (1721, 335, 116720), (335, 35, 61518), (35, 3, 23202), (3, 1, 4236))),
        (4, 510178, ((8560, 1722, 317604), (1722, 299, 116054), (299, 28, 56898), (28, 1, 19622))),
        *Q2_MERGES,
    ],
    ("ooag", False): [
        (5, 1588020, ((8592, 1738, 317604), (1738, 309, 317604), (309, 26, 317604), (26, 3, 317604), (3, 1, 317604))),
        (5, 1588020, ((8558, 1698, 317604), (1698, 302, 317604), (302, 30, 317604), (30, 2, 317604), (2, 1, 317604))),
        (5, 1588020, ((8563, 1721, 317604), (1721, 335, 317604), (335, 35, 317604), (35, 3, 317604), (3, 1, 317604))),
        (4, 1270416, ((8560, 1722, 317604), (1722, 299, 317604), (299, 28, 317604), (28, 1, 317604))),
        *Q2_MERGES,
    ],
    ("oag_then_merge", True): [
        (5, 518304, ((8733, 1778, 317604), (1778, 317, 117960), (317, 29, 58590), (29, 3, 21098), (3, 1, 3052))),
        (5, 518780, ((8669, 1731, 317604), (1731, 310, 116654), (310, 33, 59946), (33, 3, 21342), (3, 1, 3234))),
        (5, 524366, ((8672, 1762, 317604), (1762, 340, 117876), (340, 34, 61782), (34, 3, 22858), (3, 1, 4246))),
        (4, 512230, ((8684, 1761, 317604), (1761, 307, 117024), (307, 29, 57504), (29, 1, 20098))),
        *Q2_MERGES,
    ],
    ("koag_seeded", True): [
        (5, 508396, ((8198, 1608, 317604), (1608, 282, 113292), (282, 25, 55764), (25, 4, 17334), (4, 1, 4402))),
        (5, 507670, ((8256, 1582, 317604), (1582, 279, 113154), (279, 21, 57966), (21, 2, 16632), (2, 1, 2314))),
        (5, 516122, ((8198, 1598, 317604), (1598, 312, 113222), (312, 30, 59826), (30, 3, 21240), (3, 1, 4230))),
        (4, 503660, ((8209, 1611, 317604), (1611, 270, 112878), (270, 25, 54482), (25, 1, 18696))),
        *Q2_MERGES,
    ],
    ("boruvka", True): [
        (6, 761216, ((40000, 9564, 317604), (9564, 2118, 220226), (2118, 399, 127538), (399, 47, 64376), (47, 4, 27052), (4, 1, 4420))),
        (6, 766850, ((40000, 9605, 317604), (9605, 2097, 220798), (2097, 427, 127216), (427, 59, 68038), (59, 4, 28430), (4, 1, 4764))),
        (6, 768350, ((40000, 9507, 317604), (9507, 2089, 219518), (2089, 436, 127270), (436, 59, 68464), (59, 5, 29134), (5, 1, 6360))),
        (5, 753234, ((40000, 9561, 317604), (9561, 2094, 219674), (2094, 394, 126680), (394, 45, 64218), (45, 1, 25058))),
        (5, 440614, ((40000, 718, 317604), (718, 27, 92944), (27, 5, 22768), (5, 2, 5708), (2, 1, 1590))),
        (5, 443532, ((40000, 731, 317604), (731, 31, 94356), (31, 6, 22412), (6, 2, 7304), (2, 1, 1856))),
        (4, 435034, ((40000, 725, 317604), (725, 28, 90572), (28, 5, 21238), (5, 1, 5620))),
        (5, 443966, ((40000, 703, 317604), (703, 23, 90814), (23, 7, 22540), (7, 2, 10704), (2, 1, 2304))),
    ],
}


def test_ooag_merge_stage_is_pinned_on_the_bench_lattices():
    """Every mode's merge stage, and ooag's without melioration too."""
    graphs = bench_lattices()
    for (mode, melioration), pins in MERGE_STAGES.items():
        for g, want in zip(graphs, pins):
            res = run(g, mode=mode, melioration=melioration)
            stats = tuple((s.clusters_before, s.clusters_after, s.arcs_scanned) for s in res.per_round)
            assert (res.rounds, res.comparisons, stats) == want, (mode, melioration)


def results_digest(graphs, mode, melioration) -> str:
    """sha256 over each run's edge columns, repr(total), k and arcs
    touched by the node stage, first 16 hex digits."""
    h = hashlib.sha256()
    for g in graphs:
        res = run(g, mode=mode, melioration=melioration)
        for col in (res.edges.u, res.edges.v, res.edges.w):
            h.update(col.astype("<i8").tobytes())
        h.update(repr((res.total, res.k_after_node_stage, res.node_arc_touches)).encode())
    return h.hexdigest()[:16]


# results_digest per mode on bench_lattices(), gnm_graphs() and
# deep_inputs(); melioration on and off give the same digest.
RESULT_DIGESTS = {
    "ooag": ("b94c26b4170764f8", "bd9cb043cfd10243", "6e9e366b448e691a"),
    "oag_then_merge": ("9dfd0e0b5e106d9f", "040705fb4f146ea3", "abf41985a4301053"),
    "koag_seeded": ("e0105e38b6d71177", "fdffc0f1a0ae30d9", "0728a243d5b434f6"),
    "boruvka": ("76323f078bad892e", "8f36ce78eb19ab51", "b7a564e7be64ef58"),
}


@pytest.mark.parametrize("mode", list(RESULT_DIGESTS))
@pytest.mark.parametrize("melioration", (True, False))
def test_results_are_pinned(mode, melioration):
    """Each mode picks the same edges, total, k and node-stage arc count
    as when pinned, so a change that picks another tree fails here."""
    families = (bench_lattices(), gnm_graphs(), [g for _, g in deep_inputs()])
    got = tuple(results_digest(graphs, mode, melioration) for graphs in families)
    assert got == RESULT_DIGESTS[mode]
