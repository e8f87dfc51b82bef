import hashlib
from collections import deque

import numpy as np

from fleetmst.baselines import kruskal, verify_spanning_forest
from fleetmst.engine import run
from fleetmst.fleet import beam_components, build_fleet, half_beams
from fleetmst.generators import random_gnm
from fleetmst.graph import build_graph
from fleetmst.kernels import detect_kernels, koag_seed
from oracles import _components, bench_lattices, equal_path, random_id_path

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


def walk_kernels(f, strict=False):
    """Kernels by walking beam links from every unvisited beam member, in
    id order: a walk that meets a disqualified member abandons its whole
    group.  Returns (kernels, k, beam arcs touched)."""
    tables = f.chase_tables()
    beam_ptr = tables["beam_ptr"]
    beam_flat = tables["beam_flat"]
    bad = f.has_towboat | f.has_boat if strict else f.has_towboat
    bad = bad.tolist()
    visited = [False] * f.n
    kernels = []
    touches = 0
    for start in range(f.n):
        if visited[start] or beam_ptr[start] == beam_ptr[start + 1]:
            continue
        group = [start]
        visited[start] = True
        ok = not bad[start]
        queue = deque((start,))
        while queue:
            y = queue.popleft()
            for i in range(beam_ptr[y], beam_ptr[y + 1]):
                touches += 1
                b = beam_flat[i]
                if not visited[b]:
                    visited[b] = True
                    if bad[b]:
                        ok = False
                    group.append(b)
                    queue.append(b)
        if ok:
            kernels.append(tuple(sorted(group)))
    return kernels, len(kernels), touches


def test_detection_matches_the_beam_walk(corpus):
    for spec, g in corpus[::3]:
        f = build_fleet(g)
        for strict in (False, True):
            rep = detect_kernels(f, strict=strict)
            assert (rep.kernels, rep.k, rep.arc_touches) == walk_kernels(f, strict), (spec.token(), strict)
            assert rep.sizes.tolist() == [len(kern) for kern in rep.kernels]


def test_beam_components_match_the_oracle(corpus):
    graphs = [(spec.token(), g) for spec, g in corpus[::3]]
    graphs += [("equal_path", equal_path(5000))]
    # Equal-weight paths in a random order of ids: one beam component
    # that hooking needs many rounds to join.
    for n in (5000, 2**16):
        graphs += [(f"random_id_equal_path {n}", random_id_path(n, np.ones(n - 1, dtype=np.int64), seed=n))]
    for name, g in graphs:
        f = build_fleet(g)
        assert np.array_equal(beam_components(f), _components(g.n, *half_beams(f))), name


def test_detection_on_a_long_equal_path_matches_the_beam_walk():
    f = build_fleet(equal_path(5000))
    for strict in (False, True):
        rep = detect_kernels(f, strict=strict)
        assert (rep.kernels, rep.k, rep.arc_touches) == walk_kernels(f, strict)


def test_two_triangles_have_two_kernels():
    rep = detect_kernels(build_fleet(TWO_TRIANGLES))
    assert rep.kernels == [(0, 1), (3, 4)]
    assert rep.k == 2
    assert rep.arc_touches > 0


def test_member_with_towboat_disqualifies_whole_group():
    # Beam chain 0-1-2, but 2 subjects further down to 3 (weight equal
    # to its own MVC, lighter on the far side), so the whole {0, 1, 2}
    # group is abandoned; only (3, 4) survives.
    g = build_graph(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, "0.5")]
    )
    f = build_fleet(g)
    rep = detect_kernels(f)
    assert rep.kernels == [(3, 4)]


def test_strict_rule_excludes_beams_with_boats():
    # 0-1 is a beam; node 1 also absorbs 2 (a boat), so the strict
    # (pure-beam) reading rejects it while the default accepts it.
    g = build_graph(3, [(0, 1, 1), (1, 2, 2)])
    f = build_fleet(g)
    assert detect_kernels(f).kernels == [(0, 1)]
    assert detect_kernels(f, strict=True).kernels == []
    assert detect_kernels(build_fleet(g)).k == 1
    assert detect_kernels(build_fleet(g), strict=True).k == 0


def test_kernel_count_never_exceeds_beam_components():
    g = random_gnm(40, 100, (1, 2), seed=3)
    f = build_fleet(g)
    rep = detect_kernels(f)
    members = set()
    for kern in rep.kernels:
        assert all(f.in_beam(v) for v in kern)
        assert members.isdisjoint(kern)  # kernels never overlap
        members.update(kern)


def test_koag_seed_claims_every_node():
    for seed in range(12):
        g = random_gnm(30, 70, (1, 2, 3), seed=seed)
        f = build_fleet(g)
        rep = detect_kernels(f)
        forest = koag_seed(g, f, rep)
        assert (forest.cluster_of >= 0).all()


# koag_seed's forest on each benchmark lattice: cluster_count, node_arc_touches
# and the first 16 hex digits of the sha256 of parent and of cluster_of
# (int64).  test_array_stage.py checks the array koag stage against the
# sequential reap; this pins the forest itself.
KOAG_FORESTS = [
    (8198, 19917, "059c2cc81bcf7dce", "ab2416fef7bec9be"),
    (8256, 19954, "38848719a25b56c6", "9d57c93aebf175a9"),
    (8198, 19947, "ccf86649db4aea1f", "cae547ace1f95e0b"),
    (8209, 20223, "ee91a85ebb481f15", "f901001f6bafaac9"),
    (8, 1357, "ddb629165f797878", "15c0253ea1510373"),
    (12, 1294, "131bcfcabbb4251f", "56f28a34bae45d98"),
    (4, 1262, "f42484a95e3e91a2", "629bcd9d23b91c5e"),
    (9, 1279, "1bde36d32c716d28", "b516a7918d24c307"),
]


def test_koag_seed_forest_is_pinned_on_the_bench_lattices():
    def digest(a):
        return hashlib.sha256(np.asarray(a, dtype=np.int64).tobytes()).hexdigest()[:16]

    for g, want in zip(bench_lattices(), KOAG_FORESTS):
        f = build_fleet(g)
        forest = koag_seed(g, f, detect_kernels(f))
        got = (forest.cluster_count, forest.node_arc_touches, digest(forest.parent), digest(forest.cluster_of))
        assert got == want


def test_koag_mode_produces_minimum_forests():
    # These seeds produce beams whose two sides get claimed at different
    # times; the fallback has to cross them instead of re-seeding.
    from fleetmst.generators import mix64

    for seed in (39, 235, 255, 283, 414, 761):
        r = mix64(seed)
        n = 2 + r % 30
        m = (r >> 8) % (n * (n - 1) // 2 + 1)
        g = random_gnm(n, m, (1, 2, 3, 4, 5), seed=seed)
        res = run(g, mode="koag_seeded")
        assert verify_spanning_forest(g, res.edges, kruskal(g).total) == []


def test_report_echoes_strictness():
    f = build_fleet(TWO_TRIANGLES)
    assert detect_kernels(f).strict is False
    assert detect_kernels(f, strict=True).strict is True
