import io

import pytest

from fleetmst.errors import IsolatedNode
from fleetmst.fleet import build_fleet, compute_mvc, flotillas, trace_chain
from fleetmst.graph import build_graph

# Triangle with a unique lightest edge: 0-1 is the mutual minimum.
TRIANGLE = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])

# Two triangles joined by a heavy bridge; each triangle aggregates on
# its own, the bridge is only picked at the cluster stage.
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


def test_triangle_mvc_and_targets():
    f = build_fleet(TRIANGLE)
    assert [f.mvc_of(r) for r in range(3)] == [1, 1, 2]
    assert f.target_of(0) == 1
    assert f.target_of(1) == 0
    assert f.target_of(2) == 1


def test_triangle_beam_detection():
    f = build_fleet(TRIANGLE)
    assert f.beams == {(0, 1)}
    assert f.is_beam(0, 1) and f.is_beam(1, 0)
    assert not f.is_beam(1, 2)
    assert f.in_beam(0) and f.in_beam(1) and not f.in_beam(2)
    assert f.beam_neighbors(1) == [0]


def test_triangle_classification():
    f = build_fleet(TRIANGLE)
    assert f.classify(1) == ((2,), (0,), ())
    assert f.classify(0) == ((), (1,), ())
    assert f.classify(2) == ((), (), (1,))


def test_triangle_charge():
    f = build_fleet(TRIANGLE)
    assert f.charge(0, 1) == 3  # beam
    assert f.charge(2, 1) == 1  # 2 is the boat, 1 absorbs it
    assert f.charge(1, 2) == 2  # seen from the absorber
    assert f.charge(0, 2) is None  # trivial edge
    assert f.charge(1, 1) is None


def test_subjection_sources_include_beam_partner():
    f = build_fleet(TRIANGLE)
    assert f.subjection_sources(1) == [0, 2]
    assert f.subjection_sources(0) == [1]
    assert f.subjection_sources(2) == []


def test_isolated_node_entries():
    g = build_graph(4, [(0, 1, 1), (1, 2, 2)])
    f = build_fleet(g)
    assert f.is_isolated(3)
    assert f.mvc_of(3) is None
    assert f.target_of(3) is None
    entry = f.entry(3)
    assert entry.is_isolated and entry.mvc is None
    with pytest.raises(IsolatedNode):
        trace_chain(f, 3)


def test_compute_mvc_matches_direct_minimums():
    entries = compute_mvc(TWO_TRIANGLES)
    assert [e.mvc for e in entries] == [1, 1, 2, 1, 1, 2]


def test_trace_chain_descends_to_beam():
    # Descending weights: every node points one step left.
    g = build_graph(4, [(0, 1, 3), (1, 2, 2), (2, 3, 1)])
    f = build_fleet(g)
    assert trace_chain(f, 0) == [0, 1, 2]
    assert trace_chain(f, 2) == [2]
    assert f.beams == {(2, 3)}


def test_flotillas_split_at_the_bridge():
    f = build_fleet(TWO_TRIANGLES)
    flos = flotillas(f)
    assert [flo.members for flo in flos] == [(0, 1, 2), (3, 4, 5)]
    assert flos[0].beam_pairs == ((0, 1),)
    assert flos[1].beam_pairs == ((3, 4),)


def test_flotillas_skip_isolated_nodes():
    g = build_graph(3, [(0, 1, 1)])
    flos = flotillas(build_fleet(g))
    assert [flo.members for flo in flos] == [(0, 1)]


def test_equal_weights_make_everything_one_flotilla():
    g = build_graph(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)])
    f = build_fleet(g)
    assert f.beams == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert len(flotillas(f)) == 1


def test_dump_writes_one_line_per_node():
    buf = io.StringIO()
    build_fleet(TWO_TRIANGLES).dump(buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("0 1 1 ")


def test_towboat_and_boat_flags_match_classify(corpus):
    for _, g in corpus[::3]:
        f = build_fleet(g)
        for r in range(g.n):
            boats, _, towboats = f.classify(r)
            assert f.has_towboat[r] == bool(towboats)
            assert f.has_boat[r] == bool(boats)


def test_flotillas_are_the_components_of_subjection_and_beams(corpus):
    for spec, g in corpus[::3]:
        f = build_fleet(g)
        flos = flotillas(f)
        where = {}
        for i, flo in enumerate(flos):
            assert list(flo.members) == sorted(flo.members), spec.token()
            for v in flo.members:
                assert v not in where, spec.token()
                where[v] = i
        assert sorted(where) == [v for v in range(g.n) if not f.isolated[v]], spec.token()
        assert [flo.members[0] for flo in flos] == sorted(flo.members[0] for flo in flos), spec.token()

        links = {v: set() for v in where}
        for r in where:
            for l in f.classify(r).S:  # r subjects strictly to l
                links[r].add(l)
                links[l].add(r)
        for a, b in f.beams:
            links[a].add(b)
            links[b].add(a)
        for v, near in links.items():
            assert all(where[u] == where[v] for u in near), spec.token()
        for flo in flos:
            assert flo.beam_pairs == tuple(sorted(p for p in f.beams if p[0] in flo.members)), spec.token()
            seen, stack = {flo.members[0]}, [flo.members[0]]
            while stack:
                for u in links[stack.pop()] - seen:
                    seen.add(u)
                    stack.append(u)
            assert seen == set(flo.members), spec.token()
