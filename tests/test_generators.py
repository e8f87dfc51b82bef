import hashlib

import numpy as np
import pytest
from oracles import loop_gnm

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


@pytest.mark.parametrize(
    "n, m, seed",
    [(0, 0, 0), (1, 0, 3), (2, 1, 5), (4, 6, 0), (5, 3, 2**64 - 1), (12, 66, 3), (20, 50, 1),
     (50, 1225, 2), (60, 1000, 4), (300, 1200, 7), (3000, 20000, 11)],
)
def test_gnm_matches_the_one_draw_loop(n, m, seed):
    # Includes m = 0 and m = n(n-1)/2, where later chunks must keep each
    # pair's first draw across chunk boundaries.
    assert random_gnm(n, m, (1, 2, 3), seed) == loop_gnm(n, m, (1, 2, 3), seed)


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



# sha256 of (indptr, leaves, weights, scale), recorded before the build
# and the generators were last rewritten: a change to either that moves
# one arc or weight of any family fails here.
Q10 = tuple(range(1, 11))
PINNED_GRAPHS = [
    (GenSpec("lattice8", {"p": 30}, Q10, 7), "62436b6dffa3cf1f5b40aeb21d9df289326108d3b1f7285abb46931b4c4267e1"),
    (GenSpec("lattice8", {"p": 30}, (1, 2), 7), "a3f834bd73e3674004c30a465aee776f93d32af14a2665b72d0813ee21de61c1"),
    (GenSpec("random_gnm", {"n": 300, "m": 1200}, Q10, 7), "7436eaf03ed1243e78f2d1d88b6d89f53c35b0f31a93c132be2875ecc77c89ac"),
    (GenSpec("random_gnm", {"n": 12, "m": 66}, (1, 2), 3), "78b6f090f4d09bd9c8bf1ca9ea33eca8b53e018b8ac26b20d58c66f23df32740"),
    (GenSpec("complete", {"n": 25}, Q10, 7), "05e88ad6a58a6ba203c4746cecf5797bbcd83827d72029f9dd2a23f19c36f8d2"),
    (GenSpec("path", {"n": 60}, Q10, 7), "f6809428b17662f3b4b904d783d9be5bcaa5ee6cc82e19135523d04545473fd8"),
    (GenSpec("cycle", {"n": 60}, (1, 2), 7), "5bbff101980dda9a5bf85278ff7f47830d78e96bd66bf8092f33245caa1aaa58"),
    (GenSpec("lattice8", {"p": 9}, ("0.5", "1.25", "3"), 7), "1c42d233c2e368df594361552a53f321921d7d45db22f39788e4c0b552060c6b"),
]


@pytest.mark.parametrize("spec, digest", PINNED_GRAPHS, ids=[s.token() for s, _ in PINNED_GRAPHS])
def test_generated_graphs_are_pinned(spec, digest):
    g = spec.build()
    h = hashlib.sha256()
    for a in (g.indptr, g.leaves, g.weights):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    h.update(str(g.scale).encode())
    assert h.hexdigest() == digest
