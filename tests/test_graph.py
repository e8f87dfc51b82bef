from fractions import Fraction

import numpy as np
import pytest

from fleetmst.errors import (
    DuplicateEdge,
    IdOutOfRange,
    InvalidWeight,
    NonPositiveWeight,
    ParseError,
    SelfLoop,
    UnknownEdge,
)
from fleetmst.graph import (
    Awt,
    build_graph,
    format_weight,
    read_graph,
    scale_weights,
    total_weight,
    united_subgraph,
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


def test_format_weight_roundtrip():
    for scaled, scale, text in [(50, 100, "0.5"), (125, 100, "1.25"), (3, 1, "3"), (200, 100, "2")]:
        assert format_weight(scaled, scale) == text
        assert unscale(scaled, scale) == Fraction(text)


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


def test_united_subgraph_sorted_by_leaf():
    g = build_graph(3, TRIANGLE)
    assert united_subgraph(g, 0) == [Awt(0, 1, 1), Awt(0, 2, 3)]
    assert united_subgraph(g, 2) == [Awt(2, 0, 3), Awt(2, 1, 2)]


def test_united_subgraph_isolated_is_empty():
    g = build_graph(4, TRIANGLE)
    assert united_subgraph(g, 3) == []
    assert g.degree(3) == 0


def test_weight_between():
    g = build_graph(3, TRIANGLE)
    assert g.weight_between(0, 1) == 1
    assert g.weight_between(1, 0) == 1
    assert g.weight_between(0, 2) == 3
    assert g.weight_between(1, 1) is None
    with pytest.raises(IdOutOfRange):
        g.weight_between(0, 5)


def test_total_weight_ignores_duplicates():
    g = build_graph(3, TRIANGLE)
    assert total_weight(g, [(0, 1), (1, 0), (1, 2)]) == 3
    with pytest.raises(UnknownEdge):
        total_weight(g, [(0, 1), (2, 0), (1, 1)])


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


def test_read_graph_accepts_comments_and_blanks(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header comment\n\n3 2\n0 1 1\n\n1 2 0.5\n")
    g = read_graph(p)
    assert g.m == 2
    assert g.unscale(g.weight_between(1, 2)) == Fraction(1, 2)
