import dataclasses
import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fleetmst import baselines, cli, engine, kernels
from fleetmst.cli import ALL_ALGOS, _read_tree, _run_algo, main, make_parser
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
    spath = tmp_path / "stats.json"
    main(["gen", "gnm", "--n", "12", "--m", "20", "--q", "1:2", "--seed", "1", "--out", str(gpath)])
    assert main(["build", str(gpath), "--out", str(tpath), "--stats", str(spath)]) == 0
    stats = json.loads(spath.read_text())
    assert stats["mode"] == "ooag"
    assert (stats["n"], stats["arcs"]) == (12, 40)
    assert stats["comparisons_A"] >= 0
    header, *lines = tpath.read_text().splitlines()
    assert stats["edges"] == len(lines)
    assert header.split() == ["12", str(stats["k"]), stats["total"], str(stats["rounds"])]
    assert set(stats["phase_seconds"]) == {"fleet_build", "node_stage", "merge_rounds", "materialise"}


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
    spath = tmp_path / "stats.json"
    tiny = "0." + "0" * 19999
    gpath.write_text("3 3\n0 1 1e-20000\n1 2 3e-20000\n0 2 5e-20000\n")
    assert main(["build", str(gpath), "--out", str(tpath), "--stats", str(spath)]) == 0
    lines = tpath.read_text().splitlines()
    assert lines[0].split()[2] == tiny + "4"
    assert lines[1:] == [f"0 1 {tiny}1", f"1 2 {tiny}3"]
    assert json.loads(spath.read_text())["total"] == tiny + "4"
    assert main(["verify", str(gpath), str(tpath)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


def test_bench_exits_nonzero_when_a_row_fails(tmp_path, monkeypatch, capsys):
    def broken_run(g, mode="ooag", melioration=True):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(engine, "run", broken_run)
    out = tmp_path / "bench.json"
    rc = main(["bench", "--grid", "4", "--algos", "ooag,kruskal", "--json", str(out)])
    assert rc == 1
    failed, ok = json.loads(out.read_text())["rows"]
    assert failed == {"spec": ok["spec"], "mode": "ooag", "error": "injected failure"}
    assert ok["mode"] == "kruskal" and "error" not in ok
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
    out = tmp_path / "bench.json"
    argv = ["bench", "--grid", "4", "--algos", "ooag,kruskal", "--repeats", "3", "--json", str(out)]
    assert main(argv) == 1
    assert checked == [15 - 1, 15]
    rows = json.loads(out.read_text())["rows"]
    assert [(r["mode"], r.get("error")) for r in rows] == [("ooag", "not spanning"), ("kruskal", None)]
    assert "not spanning" in capsys.readouterr().err


def test_bench_output_is_checked_before_any_row_runs(tmp_path, monkeypatch, capsys):
    def no_row(g, algo):
        pytest.fail("a bench row ran before the output was opened")

    monkeypatch.setattr(cli, "_run_algo", no_row)
    out = tmp_path / "missing" / "bench.json"
    assert main(["bench", "--grid", "4", "--algos", "ooag,kruskal", "--json", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]


def test_bench_that_stops_early_keeps_the_old_record(tmp_path, capsys):
    out = tmp_path / "bench.json"
    out.write_text('{"old": "record"}\n')
    argv = ["bench", "--family", "path", "--grid", "99999999999999", "--json", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == '{"old": "record"}\n'
    assert main(["bench", "--grid", "3", "--algos", "kruskal", "--json", str(out)]) == 0
    assert [row["mode"] for row in json.loads(out.read_text())["rows"]] == ["kruskal"]


@pytest.mark.parametrize("grid", ["10000000000000000000", "99999999999999"])
def test_bench_that_stops_early_leaves_no_new_file(tmp_path, capsys, grid):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text('{"old": "record"}\n')
    for out in (new, old):
        assert main(["bench", "--family", "path", "--grid", grid, "--json", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not new.exists()
    assert old.read_text() == '{"old": "record"}\n'


def test_build_that_fails_leaves_no_new_outputs(tmp_path, capsys):
    tpath, spath = tmp_path / "t.txt", tmp_path / "s.json"
    argv = ["build", str(tmp_path / "no_graph.txt"), "--out", str(tpath), "--stats", str(spath)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not tpath.exists() and not spath.exists()


@pytest.mark.parametrize("flag", ["--out", "--stats"])
def test_build_outputs_are_checked_before_the_graph_is_read(tmp_path, monkeypatch, capsys, flag):
    def no_work(*args):
        pytest.fail("build worked before its outputs were opened")

    gpath = tmp_path / "g.txt"
    main(["gen", "lattice", "--p", "4", "--out", str(gpath)])
    monkeypatch.setattr(cli, "read_graph", no_work)
    monkeypatch.setattr(cli, "_run_algo", no_work)
    paths = {"--out": tmp_path / "t.txt", "--stats": tmp_path / "s.json"}
    paths[flag] = tmp_path / "missing" / "file"
    capsys.readouterr()
    argv = ["build", str(gpath), "--algo", "prim", "--out", str(paths["--out"]), "--stats", str(paths["--stats"])]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(paths[flag]) in err[0]


def test_build_that_fails_keeps_the_old_outputs(tmp_path, capsys):
    tpath, spath = tmp_path / "t.txt", tmp_path / "s.json"
    tpath.write_text("old tree\n")
    spath.write_text('{"old": "stats"}\n')
    argv = ["build", str(tmp_path / "no_graph.txt"), "--out", str(tpath), "--stats", str(spath)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (tpath.read_text(), spath.read_text()) == ("old tree\n", '{"old": "stats"}\n')
    gpath = tmp_path / "g.txt"
    main(["gen", "lattice", "--p", "4", "--out", str(gpath)])
    assert main([*argv[:1], str(gpath), *argv[2:]]) == 0
    assert tpath.read_text().startswith("16 ") and json.loads(spath.read_text())["n"] == 16


def test_bench_json_shape(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["bench", "--family", "lattice", "--grid", "4,6", "--algos", "ooag,kruskal", "--q", "1:3"]
    assert main([*argv, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"env", "rows"}
    assert set(doc["env"]) == {"python", "numpy", "nproc", "platform"}
    rows = doc["rows"]
    assert [(r["spec"].split(";")[1], r["mode"]) for r in rows] == [
        ("p=4", "ooag"),
        ("p=4", "kruskal"),
        ("p=6", "ooag"),
        ("p=6", "kruskal"),
    ]
    record = _run_algo(lattice8(4, weight_set=(1, 2, 3), seed=42), "ooag").record()
    assert all(list(r) == ["spec", *record, "wall_s", "build_s"] for r in rows)
    # Each row carries the build time of its graph, shared by its algorithms.
    assert rows[0]["build_s"] == rows[1]["build_s"] > 0
    # ooag and kruskal must report the same spanning weight.
    by_spec = {}
    for row in rows:
        by_spec.setdefault(row["spec"], set()).add(row["total"])
    assert all(len(totals) == 1 for totals in by_spec.values())


def test_bench_wall_time_covers_the_phases(tmp_path):
    out = tmp_path / "bench.json"
    algos = ["ooag", "oag_then_merge", "koag_seeded", "boruvka", "kruskal"]
    rc = main(["bench", "--grid", "12", "--algos", ",".join(algos), "--repeats", "3", "--json", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["mode"] for r in rows] == algos
    for row in rows:
        wall = row["wall_s"]
        assert 0 < wall["min"] <= wall["median"] <= wall["max"], row
        phases = sum(row["phase_seconds"].values())
        if row["mode"] == "kruskal":
            assert row["phase_seconds"] == {}, row
        else:
            assert 0 < phases <= wall["median"], row


def test_every_algo_gives_a_plain_json_record():
    g = lattice8(12, weight_set=tuple(range(1, 11)), seed=7)
    for algo in ALL_ALGOS:
        t0 = time.perf_counter()
        rec = _run_algo(g, algo).record()
        wall = time.perf_counter() - t0
        assert json.loads(json.dumps(rec)) == rec, algo
        assert rec["mode"] == algo
        assert len(rec["per_round"]) == rec["rounds"], algo
        assert rec["edges"] == g.n - 1, algo
        if algo in ("kruskal", "prim"):
            assert rec["phase_seconds"] == {}
        else:
            assert list(rec["phase_seconds"]) == ["fleet_build", "node_stage", "merge_rounds", "materialise"]
            assert sum(rec["phase_seconds"].values()) <= wall, algo


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    examples = [line for block in blocks for line in block.splitlines() if line.startswith("fleetmst ")]
    assert any(line.startswith("fleetmst bench ") for line in examples)
    parser = make_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


ROOT = Path(__file__).resolve().parents[1]
# README's names for the algorithms, in its tables and sentences.
README_ALGOS = {
    "`ooag`": "ooag",
    "`oag_then_merge`": "oag_then_merge",
    "`koag_seeded`": "koag_seeded",
    "`boruvka`": "boruvka",
    "Kruskal": "kruskal",
    "Prim": "prim",
}


def bench_record(name: str) -> dict:
    """A committed bench record's rows, by algorithm."""
    return {row["mode"]: row for row in json.loads((ROOT / name).read_text())["rows"]}


def markdown_tables(text: str) -> list:
    """Each table in ``text`` as a list of {header: cell} rows."""
    tables, head = [], None
    for line in text.splitlines():
        if not line.startswith("|"):
            head = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if head is None:
            head = cells
            tables.append([])
        elif not set(line.strip()) <= set("|-: "):
            tables[-1].append(dict(zip(head, cells)))
    return tables


def test_readme_bench_numbers_match_their_records():
    """Every run time, phase, k, round count and A that README quotes from
    a bench record is that record's, rounded as printed: the two n=1M
    tables (weights 1..10 and 1..2), the G(200k, 800k) medians and the
    table of crossover records, which names its record in each row."""
    readme = (ROOT / "README.md").read_text()
    n1m = {"1..10": "BENCH_lattice_p1000.json", "1..2": "BENCH_lattice_q2_p1000.json"}
    assert all(name in readme for name in n1m.values())
    checked = {"wall": 0, "phase": 0, "median": 0}

    def wall_text(row, cell):
        w = row["wall_s"]
        if "(" in cell:
            return f"{w['median']:.2f} s ({w['min']:.2f}-{w['max']:.2f})"
        return f"{w['median']:.2f} s"

    for table in markdown_tables(readme):
        for cells in table:
            if "record" in cells:
                record = bench_record(cells["record"].strip("`"))
            elif cells.get("weights") in n1m:
                record = bench_record(n1m[cells["weights"]])
            else:
                continue
            if "mode" in cells:
                mode = cells["mode"].strip("`")
                row = record[mode]
                ph = row["phase_seconds"]
                want = {
                    "fleet": "-" if mode == "boruvka" else f"{ph['fleet_build']:.2f}",
                    "node stage": "-" if mode == "boruvka" else f"{ph['node_stage']:.2f}",
                    "merge": f"{ph['merge_rounds']:.2f}",
                    "materialise": f"{ph['materialise']:.2f}",
                    "k": f"{row['k']:,}",
                    "rounds": str(row["rounds"]),
                    "A": f"{row['comparisons_A'] / 1e6:.1f}M",
                }
                assert {col: cells[col] for col in want} == want, cells
                checked["phase"] += 1
            for col, algo in README_ALGOS.items():
                if col in cells:
                    assert cells[col] == wall_text(record[algo], cells[col]), (cells, col)
                    checked["wall"] += 1
            for col in ("k", "rounds"):
                if col in cells and "mode" not in cells:
                    assert cells[col] == f"{record['ooag'][col]:,}", (cells, col)

    para = readme[readme.index("The G(n, m) graph (n=200,000") :].split("\n\n")[0]
    record = bench_record("BENCH_gnm_n200k.json")
    assert f"{record['ooag']['edges']:,} edges" in para
    for name, text in re.findall(r"(`\w+`|Kruskal|Prim) (\d+\.\d+) s", para):
        assert text == f"{record[README_ALGOS[name]]['wall_s']['median']:.2f}", name
        checked["median"] += 1
    assert checked["phase"] >= 8 and checked["median"] == 6 and checked["wall"] >= 12 + 18, checked


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
        ["bench", "--grid", "3", "--json", "{tmp}/missing/b.json"],
        ["bench", "--grid", "5,x", "--json", "{tmp}/b.json"],
        ["bench", "--grid", "3", "--repeats", "0", "--json", "{tmp}/b.json"],
        ["bench", "--family", "hypercube", "--grid", "3", "--json", "{tmp}/b.json"],
        ["bench", "--grid", "3", "--algos", "foo", "--json", "{tmp}/b.json"],
        ["bench", "--grid", "3", "--algos", "", "--json", "{tmp}/b.json"],
        # Sizes numpy refuses at once (728 TiB, beyond the address space).
        ["gen", "path", "--n", "99999999999999", "--out", "{tmp}/g.txt"],
        ["bench", "--family", "path", "--grid", "99999999999999", "--json", "{tmp}/b.json"],
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
        # Sizes beyond graph.MAX_NODES: refused before any allocation.
        ["gen", "path", "--n", "10000000000000000000", "--out", "{tmp}/g.txt"],
        ["gen", "cycle", "--n", "10000000000000000000", "--out", "{tmp}/g.txt"],
        ["gen", "complete", "--n", "10000000000000000000", "--out", "{tmp}/g.txt"],
        ["bench", "--family", "path", "--grid", "10000000000000000000", "--json", "{tmp}/b.json"],
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
