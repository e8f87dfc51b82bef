import numpy as np
import pytest

from fleetmst.errors import IdOutOfRange, IsolatedNode
from fleetmst.fleet import build_fleet, half_beams, trace_chain
from fleetmst.graph import build_graph

# Triangle with a unique lightest edge: 0-1 is the mutual minimum.
TRIANGLE = build_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])

def classify(f, r):
    """The reference reading of r's leaves, edge by edge: J, the boats
    (leaves that subject strictly to r), P, the beam partners, and S,
    the towboats (leaves r subjects strictly to); trivial leaves are
    omitted.  The fleet model's arrays must agree with it."""
    g = f.graph
    lo, hi = int(g.indptr[r]), int(g.indptr[r + 1])
    mvc_r = f.mvc_scaled[r]
    j, p, s = [], [], []
    for leaf, w in zip(g.leaves[lo:hi].tolist(), g.weights[lo:hi].tolist()):
        mvc_l = f.mvc_scaled[leaf]
        if w == mvc_r and w == mvc_l:
            p.append(leaf)
        elif w == mvc_r and mvc_l < mvc_r:
            s.append(leaf)
        elif w == mvc_l and mvc_l > mvc_r:
            j.append(leaf)
    return tuple(j), tuple(p), tuple(s)


def row(ptr, flat, r):
    return flat[ptr[r] : ptr[r + 1]].tolist()


def beams(f):
    """Every beam as (min, max)."""
    return set(zip(*(a.tolist() for a in half_beams(f))))


def test_triangle_mvc_and_targets():
    f = build_fleet(TRIANGLE)
    assert f.mvc_scaled.tolist() == [1, 1, 2]
    assert f.target.tolist() == [1, 0, 1]


def test_triangle_beam_detection():
    f = build_fleet(TRIANGLE)
    assert beams(f) == {(0, 1)}
    assert [row(f.beam_indptr, f.beam_leaves, r) for r in range(3)] == [[1], [0], []]
    assert f.in_beam(0) and f.in_beam(1) and not f.in_beam(2)


def test_triangle_classification():
    f = build_fleet(TRIANGLE)
    assert classify(f, 1) == ((2,), (0,), ())
    assert classify(f, 0) == ((), (1,), ())
    assert classify(f, 2) == ((), (), (1,))


def test_subjection_sources_include_beam_partner():
    # The roots that subject to l: strictly (rev_*) or as beam partners.
    f = build_fleet(TRIANGLE)
    sources = [row(f.rev_indptr, f.rev_children, l) + row(f.beam_indptr, f.beam_leaves, l) for l in range(3)]
    assert [sorted(s) for s in sources] == [[1], [0, 2], []]


def test_isolated_node_entries():
    g = build_graph(4, [(0, 1, 1), (1, 2, 2)])
    f = build_fleet(g)
    assert f.isolated.tolist() == [False, False, False, True]
    assert f.target[3] == -1
    assert not f.in_beam(3)
    with pytest.raises(IsolatedNode):
        trace_chain(f, 3)
    for bad in (True, 1.0, 4):
        with pytest.raises(IdOutOfRange):
            trace_chain(f, bad)


def test_compute_mvc_matches_direct_minimums(corpus):
    for spec, g in corpus[::3]:
        least = {}
        for u, v, w in g.edge_list():
            for r in (u, v):
                least[r] = min(least.get(r, w), w)
        f = build_fleet(g)
        mvc = [g.unscale(int(x)) for x in f.mvc_scaled]
        assert {r: mvc[r] for r in least} == least, spec.token()
        assert sorted(least) == np.flatnonzero(~f.isolated).tolist(), spec.token()


def test_trace_chain_descends_to_beam():
    # Descending weights: every node points one step left.
    g = build_graph(4, [(0, 1, 3), (1, 2, 2), (2, 3, 1)])
    f = build_fleet(g)
    assert trace_chain(f, 0) == [0, 1, 2]
    assert trace_chain(f, 2) == [2]
    assert beams(f) == {(2, 3)}


def test_equal_weights_make_everything_one_flotilla():
    g = build_graph(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)])
    f = build_fleet(g)
    assert beams(f) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_towboat_and_boat_flags_match_classify(corpus):
    for _, g in corpus[::3]:
        f = build_fleet(g)
        for r in range(g.n):
            boats, partners, towboats = classify(f, r)
            assert f.has_towboat[r] == bool(towboats)
            assert f.has_boat[r] == bool(boats)
            assert row(f.rev_indptr, f.rev_children, r) == list(boats)
            assert row(f.beam_indptr, f.beam_leaves, r) == list(partners)
