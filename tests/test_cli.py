import csv

import pytest

from fleetmst import engine
from fleetmst.cli import CSV_HEADER, main
from fleetmst.graph import read_graph


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


@pytest.mark.parametrize("algo", ["oag_then_merge", "ooag", "koag_seeded", "kruskal", "prim"])
def test_build_and_verify_roundtrip(tmp_path, algo):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    main(["gen", "gnm", "--n", "18", "--m", "40", "--q", "1:4", "--seed", "6", "--out", str(gpath)])
    assert main(["build", str(gpath), "--algo", algo, "--out", str(tpath)]) == 0
    assert main(["verify", str(gpath), str(tpath)]) == 0


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
    [["0 1 9223372036854775808"], ["0 1 0.0000000001", "1 2 1000000000000"]],
)
def test_weight_beyond_int64_is_an_input_error(tmp_path, capsys, edges):
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"3 {len(edges)}\n" + "\n".join(edges) + "\n")
    assert main(["build", str(gpath), "--out", str(tmp_path / "t.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_kvalue_output(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    main(["gen", "gnm", "--n", "14", "--m", "30", "--q", "1:2", "--seed", "8", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["kvalue", str(gpath), "--dump"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=")
    assert "size " in out
