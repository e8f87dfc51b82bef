from fractions import Fraction

import numpy as np
import pytest
from oracles import lexsort_graph

from fleetmst import graph
from fleetmst.cli import _read_tree, _tree_file
from fleetmst.errors import (
    DuplicateEdge,
    GraphError,
    IdOutOfRange,
    InvalidWeight,
    NonPositiveWeight,
    ParseError,
    SelfLoop,
    TooLarge,
)
from fleetmst.engine import run, write_tree
from fleetmst.fleet import build_fleet, trace_chain
from fleetmst.generators import lattice8
from fleetmst.graph import (
    MAX_NODES,
    Graph,
    build_graph,
    decimal_places,
    format_weight,
    graph_from_arrays,
    read_graph,
    scale_weights,
    unscale,
    write_graph,
)

TRIANGLE = [(0, 1, 1), (1, 2, 2), (0, 2, 3)]


def test_scale_weights_integers():
    vals, scale = scale_weights([1, 2, 30])
    assert scale == 1
    assert vals.tolist() == [1, 2, 30]


def test_scale_weights_decimal_strings():
    vals, scale = scale_weights(["0.5", "2", "1.25"])
    assert scale == 100
    assert vals.tolist() == [50, 200, 125]


def test_scale_weights_rejects_floats_and_bools():
    with pytest.raises(InvalidWeight):
        scale_weights([0.5])
    with pytest.raises(InvalidWeight):
        scale_weights([True])
    with pytest.raises(InvalidWeight):
        scale_weights([Fraction(1, 3)])  # not a finite decimal


def test_scale_weights_rejects_values_beyond_int64():
    assert scale_weights([2**63 - 1])[0].tolist() == [2**63 - 1]
    with pytest.raises(InvalidWeight):
        scale_weights([2**63])
    with pytest.raises(InvalidWeight):
        scale_weights(["9223372036854775808"])
    # Each fits alone; the shared scale 10**10 pushes the larger out.
    with pytest.raises(InvalidWeight):
        scale_weights(["0.0000000001", "1000000000000"])
    # Too many digits for str(): the message names the magnitude instead.
    with pytest.raises(InvalidWeight, match="of about 1e100000 at scale 1e0"):
        scale_weights(["1e100000"])
    with pytest.raises(InvalidWeight, match="weight 2 at scale 1e5000"):
        scale_weights(["1e-5000", "2"])


def test_format_weight_roundtrip():
    for scaled, scale, text in [(50, 100, "0.5"), (125, 100, "1.25"), (3, 1, "3"), (200, 100, "2")]:
        assert format_weight(scaled, scale) == text
        assert unscale(scaled, scale) == Fraction(text)
    # A scale with more digits than str() converts.
    assert format_weight(3, 10**20000) == "0." + "0" * 19999 + "3"
    for den, places in [(1, 0), (8, 3), (5**3, 3), (2**7 * 5**3, 7), (10**20000, 20000)]:
        assert decimal_places(Fraction(1, den)) == places
    for den in (3, 6, 5**40 * 7, 2 * 5**40 + 1):
        with pytest.raises(InvalidWeight):
            decimal_places(Fraction(1, den))


def test_build_graph_is_order_independent():
    g1 = build_graph(3, TRIANGLE)
    g2 = build_graph(3, list(reversed(TRIANGLE)))
    assert g1 == g2
    assert g1.n == 3 and g1.m == 3 and g1.arc_count == 6


def test_build_graph_validation():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(NonPositiveWeight):
        build_graph(2, [(0, 1, 0)])
    with pytest.raises(IdOutOfRange):
        build_graph(2, [(0, 2, 1)])
    with pytest.raises(IdOutOfRange):
        build_graph(-1, [])
    # Each edge is a (u, v, w) triple: no field dropped, no raw error.
    for bad in [(0, 1, 1, 99), (0, 1), None]:
        with pytest.raises(GraphError, match=r"not a \(u, v, w\) triple"):
            build_graph(2, [bad])


@pytest.mark.parametrize(
    "bad", [0.9, 1.0, np.float64(1), "1", Fraction(1), True, False, np.bool_(True), None, 2**70]
)
def test_build_graph_rejects_ids_that_are_not_integers_in_range(bad):
    # Read through an int64 array, 0.9 or "1" would become a valid id.
    for edge in [(bad, 2, 1), (2, bad, 1)]:
        with pytest.raises(IdOutOfRange, match=r"edge \(.*\) has an id"):
            build_graph(3, [(0, 1, 1), edge])


@pytest.mark.parametrize("n", [3.5, 3.0, True, np.bool_(True), "3", Fraction(3), None, -1])
def test_build_graph_rejects_node_counts_that_are_not_non_negative_integers(n):
    with pytest.raises(IdOutOfRange, match="node count"):
        build_graph(n, [])


def test_build_graph_refuses_n_beyond_the_key_range_before_reading_ids():
    # An id beyond int64 would overflow the id arrays.
    with pytest.raises(TooLarge):
        build_graph(2**64, [(2**63, 0, 1)])


def test_read_graph_refuses_n_beyond_the_key_range_at_the_header(tmp_path):
    # Parsed on, the id beyond int64 would overflow the id arrays.
    path = tmp_path / "g.txt"
    path.write_text(f"{MAX_NODES + 1} 1\n{2**64} 0 1\n")
    with pytest.raises(TooLarge, match="exceed the limit"):
        read_graph(path)


@pytest.mark.parametrize("bad", [1.5, 0.5, True, np.bool_(False), "1", None, -1, 3, 2**70])
def test_graph_lookups_reject_ids_that_are_not_integers_in_range(bad):
    # The fleet's node lookups check ids through Graph._check_id.
    f = build_fleet(build_graph(3, TRIANGLE))
    for lookup in (f.in_beam, lambda r: trace_chain(f, r)):
        with pytest.raises(IdOutOfRange, match="not an integer in"):
            lookup(bad)
    assert f.in_beam(np.int32(1)) and trace_chain(f, np.int32(2)) == [2, 1]


def test_build_graph_accepts_python_and_numpy_integer_ids():
    edges = [(0, 1, 1), (np.int32(1), np.uint8(2), 2), (np.int64(2), 0, 3)]
    assert build_graph(3, edges) == build_graph(3, TRIANGLE)


def test_graph_arrays_are_read_only():
    g = build_graph(3, TRIANGLE)
    for arr in (g.indptr, g.leaves, g.weights, g.arc_sources()):
        with pytest.raises(ValueError):
            arr[0] = 7


def test_empty_and_singleton_graphs():
    g0 = build_graph(0, [])
    assert g0.n == 0 and g0.m == 0
    g1 = build_graph(1, [])
    assert g1.n == 1 and g1.edge_list() == []


def test_write_read_roundtrip(tmp_path):
    g = build_graph(4, [(0, 1, "0.5"), (1, 2, 2), (0, 3, "1.25")])
    path = tmp_path / "g.txt"
    write_graph(g, path, comments=["sample"])
    text = path.read_text()
    assert text.startswith("# sample\n4 3\n")
    g2 = read_graph(path)
    assert g2 == g
    assert g2.scale == 100


def test_read_graph_error_lines(tmp_path):
    def attempt(content):
        p = tmp_path / "bad.txt"
        p.write_text(content)
        return p

    with pytest.raises(ParseError) as exc:
        read_graph(attempt(""))
    assert exc.value.line_no == 1
    with pytest.raises(ParseError):
        read_graph(attempt("2\n"))
    with pytest.raises(SelfLoop, match="line 2"):
        read_graph(attempt("2 1\n1 1 1\n"))
    with pytest.raises(IdOutOfRange, match="line 3"):
        read_graph(attempt("2 1\n# ok\n0 7 1\n"))
    with pytest.raises(NonPositiveWeight, match="line 2"):
        read_graph(attempt("2 1\n0 1 -3\n"))
    with pytest.raises(DuplicateEdge, match="line 3"):
        read_graph(attempt("2 2\n0 1 1\n1 0 2\n"))
    with pytest.raises(ParseError, match="bad weight"):
        read_graph(attempt("2 1\n0 1 abc\n"))
    with pytest.raises(ParseError, match="expected 1 edges"):
        read_graph(attempt("3 1\n"))
    # Of several faults, a self loop comes before a non-positive weight,
    # and that before a duplicate, wherever they stand in the file.
    with pytest.raises(SelfLoop, match="line 3"):
        read_graph(attempt("3 3\n0 1 -1\n1 1 2\n0 2 2\n"))
    with pytest.raises(NonPositiveWeight, match="line 4"):
        read_graph(attempt("3 3\n0 1 1\n1 0 1\n0 2 -1\n"))


def test_read_graph_accepts_comments_and_blanks(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header comment\n\n3 2\n0 1 1\n\n1 2 0.5\n")
    g = read_graph(p)
    assert g.m == 2
    assert [(u, v, g.unscale(w)) for u, v, w in g.edge_list()] == [(0, 1, 1), (1, 2, Fraction(1, 2))]


# Weight tokens and the value and graph scale each reads as: the text
# language of the Decimal constructor, in graph and tree files alike.
GOOD_TOKENS = [
    ("+1", 1, 1),
    ("1_0", 10, 1),
    ("1__0", 10, 1),
    ("_1", 1, 1),
    ("1.50", Fraction(3, 2), 10),
    (".5", Fraction(1, 2), 10),
    ("5.", 5, 1),
    ("1E2", 100, 1),
    ("\u0663", 3, 1),  # ARABIC-INDIC DIGIT THREE
]


@pytest.mark.parametrize("token, value, scale", GOOD_TOKENS)
def test_weight_tokens_read_alike_in_graph_and_tree_files(tmp_path, token, value, scale):
    gpath, tpath = tmp_path / "g.txt", tmp_path / "t.txt"
    gpath.write_text(f"2 1\n+0 1 {token}\n", encoding="utf-8")
    tpath.write_text(f"2 0 {token} 0\n+0 1 {token}\n", encoding="utf-8")
    g = read_graph(gpath)
    assert g.scale == scale and g.edge_list() == [(0, 1, value * scale)]
    assert _tree_file(tpath) == (value, [(0, 1, value)])


@pytest.mark.parametrize("token", ["nan", "inf", "1/2", "0x10"])
def test_tokens_that_are_not_exact_decimals_are_bad_weights(tmp_path, token):
    gpath, tpath = tmp_path / "g.txt", tmp_path / "t.txt"
    gpath.write_text(f"2 1\n# c\n0 1 {token}\n")
    tpath.write_text(f"2 0 1 0\n# c\n0 1 {token}\n")
    for read, path in [(read_graph, gpath), (_read_tree, tpath)]:
        with pytest.raises(ParseError, match=f"line 3: bad weight '{token}'"):
            read(path)


def test_negative_zero_is_a_non_positive_graph_weight_and_a_zero_tree_weight(tmp_path):
    gpath, tpath = tmp_path / "g.txt", tmp_path / "t.txt"
    gpath.write_text("2 1\n0 1 -0\n")
    tpath.write_text("2 0 0 0\n0 1 -0\n")
    with pytest.raises(NonPositiveWeight, match="line 2"):
        read_graph(gpath)
    assert _read_tree(tpath) == [(0, 1, 0)]


def test_integer_weights_are_read_without_fraction(tmp_path, monkeypatch):
    g = lattice8(12, (1, 2, 3), seed=4)
    res = run(g, mode="ooag")
    gpath, tpath = tmp_path / "g.txt", tmp_path / "t.txt"
    write_graph(g, gpath)
    write_tree(res, g.n, tpath)

    def no_fraction(w):
        raise AssertionError(f"{w!r} was read through a Fraction")

    monkeypatch.setattr(graph, "_as_fraction", no_fraction)
    assert read_graph(gpath) == g
    assert _read_tree(tpath) == list(res.edges)


def _builds(build, n, u, v, w):
    """The graph ``build`` makes, or the class and text of its error."""
    try:
        return build(n, u, v, w, 1)
    except GraphError as exc:
        return type(exc), str(exc)


def _same_build(n, u, v, w):
    got, want = _builds(graph_from_arrays, n, u, v, w), _builds(lexsort_graph, n, u, v, w)
    assert got == want
    if isinstance(want, Graph):
        for a, b in [(got.indptr, want.indptr), (got.leaves, want.leaves), (got.weights, want.weights)]:
            assert a.dtype == b.dtype


def _scramble(rng, u, v, w):
    """The edges in a random order, each in a random orientation."""
    perm = rng.permutation(u.size)
    flip = rng.random(u.size) < 0.5
    u, v = u[perm], v[perm]
    return np.where(flip, v, u), np.where(flip, u, v), w[perm]


def test_graph_from_arrays_matches_the_lexsort_builder_on_the_corpus(corpus):
    rng = np.random.default_rng(14)
    for _, g in corpus:
        src = g.arc_sources()
        keep = src < g.leaves
        u, v, w = _scramble(rng, src[keep], g.leaves[keep], g.weights[keep])
        assert graph_from_arrays(g.n, u, v, w, 1) == g
        _same_build(g.n, u, v, w)


def test_graph_from_arrays_matches_the_lexsort_builder_on_planted_duplicates():
    rng = np.random.default_rng(41)
    for _ in range(1500):
        n = int(rng.integers(2, 40))
        pairs = {tuple(sorted(p)) for p in rng.integers(0, n, (int(rng.integers(1, 60)), 2)) if p[0] != p[1]}
        if not pairs:
            continue
        u, v = np.array(sorted(pairs)).T
        w = rng.integers(1, 4, u.size)
        dup = rng.integers(0, u.size, int(rng.integers(1, 4)))
        u, v, w = np.concatenate([u, v[dup]]), np.concatenate([v, u[dup]]), np.concatenate([w, w[dup]])
        flip = rng.random(u.size) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        _same_build(n, *_scramble(rng, u, v, w))


def test_graph_from_arrays_matches_the_lexsort_builder_on_invalid_edges():
    # A bad id, a self loop or a non-positive weight wins over a duplicate.
    u, v, w = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 2]), np.array([1, 1, 0, 1])
    for cut in range(1, 5):
        _same_build(3, u[:cut], v[:cut], w[:cut])
    _same_build(2, u, v, w)


def test_graph_from_arrays_sorts_the_arc_keys_once(monkeypatch):
    g = lattice8(12, (1, 2, 3), seed=5)
    src = g.arc_sources()
    keep = src < g.leaves
    u, v, w = _scramble(np.random.default_rng(3), src[keep], g.leaves[keep], g.weights[keep])
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("graph_from_arrays called np.lexsort")

    monkeypatch.setattr(np, "argsort", counted)
    monkeypatch.setattr(np, "lexsort", refuse)
    assert graph_from_arrays(g.n, u, v, w, 1) == g
    assert calls == ["stable"]


def test_graph_from_arrays_refuses_n_beyond_the_key_range(monkeypatch):
    # n * n must fit in int64 for the arc keys u * n + v; the limit is
    # checked before any n-sized array exists.
    assert MAX_NODES**2 < 2**63 <= (MAX_NODES + 1) ** 2

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    for name in ("zeros", "bincount", "concatenate"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(TooLarge, match="3037000500 nodes"):
        graph_from_arrays(3_037_000_500, [], [], [], 1)
    with pytest.raises(TooLarge):
        graph_from_arrays(2**64, [], [], [], 1)
    with pytest.raises(TooLarge):
        build_graph(3_037_000_500, [])
