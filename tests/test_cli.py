import csv
import dataclasses
from fractions import Fraction

import pytest

from fleetmst import baselines, engine, kernels
from fleetmst.cli import CSV_HEADER, _read_tree, main
from fleetmst.errors import ParseError
from fleetmst.generators import lattice8
from fleetmst.graph import graph_from_arrays, read_graph, write_graph


def test_gen_writes_a_parseable_lattice(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "lattice", "--p", "5", "--q", "1:3", "--seed", "2", "--out", str(out)]) == 0
    g = read_graph(out)
    assert g.n == 25 and g.m == 4 * 25 - 30 + 2
    assert "n=25" in capsys.readouterr().out


def test_gen_q_comma_list(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "gnm", "--n", "10", "--m", "15", "--q", "2,7", "--out", str(out)]) == 0
    g = read_graph(out)
    assert {w for _, _, w in g.edge_list()} <= {2, 7}


@pytest.mark.parametrize("algo", ["oag_then_merge", "ooag", "koag_seeded", "boruvka", "kruskal", "prim"])
def test_build_and_verify_roundtrip(tmp_path, algo):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    main(["gen", "gnm", "--n", "18", "--m", "40", "--q", "1:4", "--seed", "6", "--out", str(gpath)])
    assert main(["build", str(gpath), "--algo", algo, "--out", str(tpath)]) == 0
    assert main(["verify", str(gpath), str(tpath)]) == 0


@pytest.mark.parametrize("text", ["0 0\n", "4 2\n0 1 1\n2 3 1\n"], ids=["empty", "disconnected"])
def test_prim_builds_a_forest_that_verifies(tmp_path, capsys, text):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text(text)
    assert main(["build", str(gpath), "--algo", "prim", "--out", str(tpath)]) == 0
    assert main(["verify", str(gpath), str(tpath)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


def test_build_stats_file(tmp_path):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    spath = tmp_path / "stats.txt"
    main(["gen", "gnm", "--n", "12", "--m", "20", "--q", "1:2", "--seed", "1", "--out", str(gpath)])
    assert main(["build", str(gpath), "--out", str(tpath), "--stats", str(spath)]) == 0
    stats = dict(
        line.split("=", 1) for line in spath.read_text().splitlines() if "=" in line
    )
    assert stats["algo"] == "ooag"
    assert stats["n"] == "12"
    assert int(stats["comparisons_A"]) >= 0


def test_verify_rejects_a_tampered_tree(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    main(["gen", "path", "--n", "6", "--q", "1:5", "--seed", "3", "--out", str(gpath)])
    main(["build", str(gpath), "--out", str(tpath)])
    lines = tpath.read_text().splitlines()
    del lines[1]  # drop one edge: no longer spanning
    tpath.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(gpath), str(tpath)]) == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL: not spanning")


@pytest.mark.parametrize(
    "graph, edges, claimed, true",
    [("0 1 1\n1 2 2", "0 1 1\n1 2 2", "999", "3"), ("0 1 0.25\n1 2 1.5", "1 2 1.5\n0 1 0.25", "1.74", "1.75")],
    ids=["scale 1", "scale 100"],
)
def test_verify_checks_the_header_total(tmp_path, capsys, graph, edges, claimed, true):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text(f"3 2\n{graph}\n")
    tpath.write_text(f"3 0 {claimed} 0\n{edges}\n")
    assert main(["verify", str(gpath), str(tpath)]) == 1
    assert capsys.readouterr().out == f"FAIL: header total {claimed} is not the edges' total {true}\n"
    tpath.write_text(f"3 0 {true} 0\n{edges}\n")
    assert main(["verify", str(gpath), str(tpath)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_verify_names_the_edges_that_break_minimality(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("4 5\n0 1 1\n1 2 2\n2 3 3\n0 2 5\n1 3 4\n")
    # The minimum tree is 0-1, 1-2, 2-3; 1-2 is swapped for the heavier
    # 0-2, which closes the same cycle 0-1-2.
    tpath.write_text("4 0 9 0\n0 1 1\n0 2 5\n2 3 3\n")
    assert main(["verify", str(gpath), str(tpath)]) == 1
    out = capsys.readouterr().out.strip()
    assert out.startswith("FAIL: not minimum: ")
    assert "(1, 2, 2)" in out and "(0, 2, 5)" in out


def test_verify_computes_the_certificate_once(tmp_path, capsys, monkeypatch):
    calls = []
    certify = baselines._certify

    def counted(g, edges):
        calls.append(len(edges))
        return certify(g, edges)

    monkeypatch.setattr(baselines, "_certify", counted)
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("4 5\n0 1 1\n1 2 2\n2 3 3\n0 2 5\n1 3 4\n")
    tpath.write_text("4 0 9 0\n0 1 1\n0 2 5\n2 3 3\n")
    assert main(["verify", str(gpath), str(tpath)]) == 1
    assert calls == [3]
    assert capsys.readouterr().out == (
        "FAIL: not minimum: non-tree edge (1, 2, 2) is lighter than tree edge (0, 2, 5) on its path\n"
    )


@pytest.mark.parametrize("line", ["0 1 1/0", "0 1", "0 x 1", "0 1 abc", "0 1 1 2"])
def test_malformed_tree_line_is_an_input_error(tmp_path, capsys, line):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("2 1\n0 1 1\n")
    tpath.write_text(f"2 0 1 0\n{line}\n")
    assert main(["verify", str(gpath), str(tpath)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize(
    "line, err",
    [
        ("0 5 1", "id out of range [0, 2) at line 2: '0 5 1'"),
        ("0 1 1e100000", "weight of about 1e100000 at scale 1e0 does not fit in 64 bits at line 2"),
    ],
    ids=["id", "weight"],
)
def test_tree_line_beyond_its_header_or_int64_is_an_input_error(tmp_path, capsys, line, err):
    # Read as in graph files, not as a claim the verifier cannot find.
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("2 1\n0 1 1\n")
    tpath.write_text(f"2 0 1 0\n{line}\n")
    assert main(["verify", str(gpath), str(tpath)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_tree_file_without_header_is_an_input_error(tmp_path, capsys):
    # Read with a header slot, the first edge would vanish and the tree
    # would fail as 'not spanning'.
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("3 3\n0 1 1\n1 2 2\n0 2 3\n")
    tpath.write_text("0 1 1\n1 2 2\n")
    assert main(["verify", str(gpath), str(tpath)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize(
    "header",
    ["x y z w", "5 0 1 0", "2 -1 1 0", "-2 0 1 0", "2 0 1 -1", "2 0 abc 0", "2 0 1/0 0", "2 1.5 1 0", "2 0 1"],
)
def test_malformed_tree_header_is_an_input_error(tmp_path, capsys, header):
    # "5 0 1 0": the tree claims 5 nodes for a 2-node graph.
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("2 1\n0 1 1\n")
    tpath.write_text(f"# a tree\n{header}\n0 1 1\n")
    assert main(["verify", str(gpath), str(tpath)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comments"])
def test_tree_file_with_no_lines_is_an_input_error(tmp_path, capsys, text):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text("2 1\n0 1 1\n")
    tpath.write_text(text)
    assert main(["verify", str(gpath), str(tpath)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 1: no header 'n k total rounds' in the tree file"]


def test_read_tree_takes_the_path_alone(tmp_path):
    tpath = tmp_path / "t.txt"
    tpath.write_text("3 1 2.5 0\n0 1 1\n1 2 1.5\n")
    assert _read_tree(tpath) == [(0, 1, 1), (1, 2, Fraction(3, 2))]
    assert _read_tree(tpath, 3) == _read_tree(tpath)
    with pytest.raises(ParseError, match="n=3, the graph has n=4"):
        _read_tree(tpath, 4)


def _decimal_lattice(p: int, scale: int):
    """lattice8(p, 1..10) with its weights read at ``scale``: 0.1 to 1 at
    scale 10, 0.01 to 0.1 at scale 100."""
    base = lattice8(p, tuple(range(1, 11)), seed=p)
    half = base.half_arcs()
    return graph_from_arrays(base.n, base.arc_sources()[half], base.leaves[half], base.weights[half], scale)


def test_graph_and_tree_files_round_trip(tmp_path, corpus_runs):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    cases = [(spec.token(), g, [runs["ooag"], runs["koag_seeded"], ref]) for spec, g, ref, runs in corpus_runs]
    for p, scale in [(20, 10), (60, 10), (20, 100), (60, 100)]:
        g = _decimal_lattice(p, scale)
        cases.append((f"p={p} scale={scale}", g, [engine.run(g, "ooag"), engine.run(g, "koag_seeded"), baselines.kruskal(g)]))
    for name, g, results in cases:
        write_graph(g, gpath)
        assert read_graph(gpath) == g, name
        for res in results:
            engine.write_tree(res, g.n, tpath)
            assert _read_tree(tpath) == list(res.edges), (name, res.mode)


def test_node_count_beyond_the_key_range_is_an_input_error(tmp_path, capsys):
    # 3037000500**2 overflows int64; the build is refused before any
    # n-sized array is allocated.
    gpath = tmp_path / "g.txt"
    gpath.write_text("3037000500 0\n")
    assert main(["build", str(gpath), "--out", str(tmp_path / "t.txt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_missing_input_is_an_input_error(tmp_path, capsys):
    assert main(["build", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "t.txt")]) == 2
    assert main(["kvalue", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_malformed_graph_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0 1\n")
    assert main(["verify", str(bad), str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edges",
    [
        ["0 1 9223372036854775808"],
        ["0 1 0.0000000001", "1 2 1000000000000"],
        ["0 1 1e100000"],
        ["0 1 1e-5000", "1 2 2"],
    ],
)
def test_weight_beyond_int64_is_an_input_error(tmp_path, capsys, edges):
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"3 {len(edges)}\n" + "\n".join(edges) + "\n")
    assert main(["build", str(gpath), "--out", str(tmp_path / "t.txt")]) == 2
    # The weight that does not fit is the last edge: line 2 or 3.
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f" at line {len(edges) + 1}\n"), err


def test_weight_with_many_decimal_places_round_trips(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    spath = tmp_path / "stats.txt"
    tiny = "0." + "0" * 19999
    gpath.write_text("3 3\n0 1 1e-20000\n1 2 3e-20000\n0 2 5e-20000\n")
    assert main(["build", str(gpath), "--out", str(tpath), "--stats", str(spath)]) == 0
    lines = tpath.read_text().splitlines()
    assert lines[0].split()[2] == tiny + "4"
    assert lines[1:] == [f"0 1 {tiny}1", f"1 2 {tiny}3"]
    assert f"total_weight={tiny}4" in spath.read_text()
    assert main(["verify", str(gpath), str(tpath)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


def test_bench_exits_nonzero_when_a_row_fails(tmp_path, monkeypatch, capsys):
    def broken_run(g, mode="ooag", melioration=True):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(engine, "run", broken_run)
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--grid", "4", "--algos", "ooag,kruskal", "--csv", str(out)])
    assert rc == 1
    rows = list(csv.DictReader(open(out, newline="")))
    assert [(r["algo"], r["total_weight"] == "FAILED") for r in rows] == [
        ("ooag", True),
        ("kruskal", False),
    ]
    assert "injected failure" in capsys.readouterr().err


def test_bench_verifies_each_row_once(tmp_path, monkeypatch, capsys):
    run = engine.run
    certify = baselines.minimality_witness
    checked = []

    def wrong_tree(g, mode="ooag", melioration=True):
        res = run(g, mode, melioration)
        return dataclasses.replace(res, edges=res.edges[1:])

    def counted(g, edges):
        checked.append(len(edges))
        return certify(g, edges)

    monkeypatch.setattr(engine, "run", wrong_tree)
    monkeypatch.setattr(baselines, "minimality_witness", counted)
    out = tmp_path / "bench.csv"
    argv = ["bench", "--grid", "4", "--algos", "ooag,kruskal", "--repeats", "3", "--csv", str(out)]
    assert main(argv) == 1
    assert checked == [15 - 1, 15]
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == CSV_HEADER
    rows = list(csv.DictReader(open(out, newline="")))
    assert [(r["algo"], r["total_weight"] == "FAILED") for r in rows] == [
        ("ooag", True),
        ("kruskal", False),
    ]
    assert "not spanning" in capsys.readouterr().err


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--family",
            "lattice",
            "--grid",
            "4,6",
            "--algos",
            "ooag,kruskal",
            "--q",
            "1:3",
            "--csv",
            str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 2
    body = list(csv.DictReader(open(out, newline="")))
    # ooag and kruskal must report the same spanning weight.
    by_spec = {}
    for row in body:
        by_spec.setdefault(row["spec"], set()).add(row["total_weight"])
    assert all(len(totals) == 1 for totals in by_spec.values())


def test_bench_wall_time_covers_the_phases(tmp_path):
    out = tmp_path / "bench.csv"
    algos = ["ooag", "oag_then_merge", "koag_seeded", "boruvka", "kruskal"]
    rc = main(["bench", "--grid", "12", "--algos", ",".join(algos), "--repeats", "3", "--csv", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out, newline="")))
    assert [r["algo"] for r in rows] == algos
    for row in rows:
        phases = sum(float(row[c]) for c in ("phase1_ms", "phase2_ms", "phase3_ms", "materialise_ms"))
        if row["algo"] in engine.MODES + ("boruvka",):
            assert 0 < phases <= float(row["wall_ms"]), row
        else:
            assert row["phase3_ms"] == row["wall_ms"], row


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "lattice", "--q", "x:y", "--out", "{tmp}/g.txt"],
        ["gen", "lattice", "--q", "1,1.5", "--out", "{tmp}/g.txt"],
        ["gen", "lattice", "--q", "0:3", "--out", "{tmp}/g.txt"],
        ["gen", "lattice", "--p", "-3", "--out", "{tmp}/g.txt"],
        ["gen", "gnm", "--n", "5", "--m", "100", "--out", "{tmp}/g.txt"],
        ["gen", "lattice", "--p", "3", "--out", "{tmp}/missing/g.txt"],
        ["build", "{tmp}/g3.txt", "--out", "{tmp}/missing/t.txt"],
        ["build", "{tmp}/g3.txt", "--out", "{tmp}/t.txt", "--stats", "{tmp}/missing/s.txt"],
        ["bench", "--grid", "3", "--csv", "{tmp}/missing/b.csv"],
        ["bench", "--grid", "5,x", "--csv", "{tmp}/b.csv"],
        ["bench", "--grid", "3", "--repeats", "0", "--csv", "{tmp}/b.csv"],
        ["bench", "--family", "hypercube", "--grid", "3", "--csv", "{tmp}/b.csv"],
        ["bench", "--grid", "3", "--algos", "foo", "--csv", "{tmp}/b.csv"],
        ["bench", "--grid", "3", "--algos", "", "--csv", "{tmp}/b.csv"],
        # Sizes numpy refuses at once (728 TiB, beyond the address space).
        ["gen", "path", "--n", "99999999999999", "--out", "{tmp}/g.txt"],
        ["bench", "--family", "path", "--grid", "99999999999999", "--csv", "{tmp}/b.csv"],
        ["build", "{tmp}/huge.txt", "--out", "{tmp}/t.txt"],
        ["verify", "{tmp}/huge.txt", "{tmp}/g3.txt"],
        ["kvalue", "{tmp}/huge.txt"],
        # n and an id beyond int64: refused at the header.
        ["build", "{tmp}/huge_ids.txt", "--out", "{tmp}/t.txt"],
        ["verify", "{tmp}/huge_ids.txt", "{tmp}/g3.txt"],
        ["kvalue", "{tmp}/huge_ids.txt"],
        # Bytes that are not UTF-8, in a graph and in a tree file.
        ["build", "{tmp}/binary.txt", "--out", "{tmp}/t.txt"],
        ["verify", "{tmp}/binary.txt", "{tmp}/g3.txt"],
        ["kvalue", "{tmp}/binary.txt"],
        ["verify", "{tmp}/g3.txt", "{tmp}/binary_tree.txt"],
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    main(["gen", "lattice", "--p", "3", "--out", str(tmp_path / "g3.txt")])
    (tmp_path / "huge.txt").write_text("99999999999999 0\n")
    (tmp_path / "huge_ids.txt").write_text("99999999999999999999999 1\n99999999999999999999 0 1\n")
    (tmp_path / "binary.txt").write_bytes(b"2 1\n0 1 \xff\n")
    (tmp_path / "binary_tree.txt").write_bytes(b"9 0 1 0\n0 1 \xff\n")
    capsys.readouterr()
    try:
        rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize(
    "module, name, argv",
    [(engine, "run", ["build", "{g}", "--out", "{tmp}/t.txt"]), (kernels, "detect_kernels", ["kvalue", "{g}"])],
    ids=["build", "kvalue"],
)
def test_run_phase_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, module, name, argv):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(module, name, out_of_memory)
    gpath = tmp_path / "g.txt"
    main(["gen", "gnm", "--n", "10", "--m", "20", "--out", str(gpath)])
    capsys.readouterr()
    assert main([a.replace("{g}", str(gpath)).replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: cannot allocate"]


def test_kvalue_output(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    main(["gen", "gnm", "--n", "14", "--m", "30", "--q", "1:2", "--seed", "8", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["kvalue", str(gpath), "--dump"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=")
    assert "size " in out
