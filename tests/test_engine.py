import math

import pytest

from fleetmst import engine
from fleetmst.baselines import kruskal
from fleetmst.engine import (
    Forest,
    inheritance_chase,
    inheritance_stage,
    merge_round,
    node_stage,
    run,
    write_tree,
)
from fleetmst.errors import AlreadyClaimed, InconsistentModel
from fleetmst.fleet import build_fleet
from fleetmst.generators import lattice8, random_gnm
from fleetmst.graph import build_graph

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


def test_node_stage_reaps_both_triangles():
    f = build_fleet(TWO_TRIANGLES)
    forest = node_stage(TWO_TRIANGLES, f)
    assert forest.cluster_count == 2
    assert len(forest.picked) == 4
    cl = forest.cluster_list
    assert cl[0] == cl[1] == cl[2]
    assert cl[3] == cl[4] == cl[5]
    assert cl[0] != cl[3]


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


def test_inheritance_chase_attaches_to_claimed_territory():
    f = build_fleet(TWO_TRIANGLES)
    forest = Forest(TWO_TRIANGLES)
    cid = inheritance_chase(TWO_TRIANGLES, f, 2, forest)
    assert forest.cluster_list[2] == cid
    # The chase climbed to the (0, 1) beam and reaped the triangle.
    assert forest.cluster_list[0] == forest.cluster_list[1] == cid
    with pytest.raises(AlreadyClaimed):
        inheritance_chase(TWO_TRIANGLES, f, 2, forest)


def test_inheritance_chase_isolated_singleton():
    g = build_graph(3, [(0, 1, 1)])
    f = build_fleet(g)
    forest = Forest(g)
    cid = inheritance_chase(g, f, 2, forest)
    assert forest.cluster_list[2] == cid
    assert forest.picked == []


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


def test_merge_round_uses_fresh_cluster_ids():
    f = build_fleet(TWO_TRIANGLES)
    forest = node_stage(TWO_TRIANGLES, f)
    old_ids = set(forest.cluster_list)
    merge_round(TWO_TRIANGLES, forest)
    new_ids = set(forest.cluster_list)
    assert new_ids.isdisjoint(old_ids)
    assert forest.cluster_count == 1
    assert forest.rounds == 1
    assert len(forest.per_round) == 1
    rs = forest.per_round[0]
    assert rs.clusters_before == 2 and rs.clusters_after == 1


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
    assert set(res.phase_seconds) == {"fleet_build", "node_stage", "merge_rounds"}
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
