import numpy as np
import pytest

from fleetmst.errors import TooLarge, TooManyEdges
from fleetmst.generators import (
    GenSpec,
    complete,
    cycle,
    lattice8,
    mix64,
    path,
    random_gnm,
    splitmix_stream,
)


def test_mix64_reference_value():
    # splitmix64 with seed 0: the first draw of the stream.
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_stream_matches_scalar_mix():
    seed = 12345
    got = splitmix_stream(seed, 8).tolist()
    want = [mix64(seed + (i + 1) * 0x9E3779B97F4A7C15) for i in range(8)]
    assert got == want


def test_stream_offset_is_a_window():
    full = splitmix_stream(7, 10).tolist()
    assert splitmix_stream(7, 4, offset=3).tolist() == full[3:7]


def test_lattice_shape():
    for p in (2, 3, 5, 10):
        g = lattice8(p, (1, 2, 3), seed=0)
        assert g.n == p * p
        assert g.m == 4 * p * p - 6 * p + 2


def test_lattice_degrees():
    degree = np.diff(lattice8(4, (1,), seed=0).indptr)
    assert degree[5] == 8  # interior node
    assert degree[0] == 3  # corner
    assert degree[1] == 5  # edge of the grid


def test_lattice_rejects_degenerate_side():
    with pytest.raises(ValueError):
        lattice8(1, (1,), seed=0)


def test_lattice_is_deterministic():
    assert lattice8(6, (1, 2, 3), seed=9) == lattice8(6, (1, 2, 3), seed=9)
    assert lattice8(6, (1, 2, 3), seed=9) != lattice8(6, (1, 2, 3), seed=10)


def test_gnm_counts_and_simplicity():
    g = random_gnm(20, 50, (1, 2, 3), seed=1)
    assert g.n == 20 and g.m == 50
    edges = g.edge_list()
    assert len({(u, v) for u, v, _ in edges}) == 50
    assert all(0 <= u < v < 20 for u, v, _ in edges)


def test_gnm_rejects_impossible_m():
    with pytest.raises(TooManyEdges):
        random_gnm(4, 7, (1,), seed=0)


def test_weights_come_from_the_weight_set():
    g = random_gnm(15, 30, (2, 5, 9), seed=3)
    assert {w for _, _, w in g.edge_list()} <= {2, 5, 9}


def test_decimal_weight_sets_scale_once():
    g = path(5, ("0.5", "1.5"), seed=0)
    assert g.scale == 10
    assert {w for _, _, w in g.edge_list()} <= {5, 15}


def test_complete_path_cycle_shapes():
    assert complete(6, (1,), seed=0).m == 15
    assert path(6, (1,), seed=0).m == 5
    assert path(1, (1,), seed=0).m == 0
    assert cycle(6, (1,), seed=0).m == 6
    assert cycle(2, (1,), seed=0).m == 1  # degenerates to a path


@pytest.mark.parametrize("family", [complete, path, cycle])
def test_node_count_beyond_the_limit_is_refused_before_allocating(family):
    with pytest.raises(TooLarge):
        family(10**19, (1,), seed=0)


def test_genspec_token_and_build():
    spec = GenSpec("lattice8", {"p": 3}, (1, 2), seed=4)
    assert spec.token() == "lattice8;p=3;q=1,2;seed=4"
    assert spec.build() == lattice8(3, (1, 2), seed=4)
    gnm = GenSpec("random_gnm", {"n": 6, "m": 7}, (1,), seed=0)
    assert gnm.build().m == 7
    with pytest.raises(ValueError):
        GenSpec("hypercube", {"n": 4}).build()
