"""Self-test of the benchmark harness on toy-sized workloads.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted with its
unit, and that an injected wrong answer or exception is counted as
failed and gives a non-zero exit, on every workload, traced and
untraced.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench._import_fleetmst()

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REAL = dict(bench.WORKLOADS)
TOY = {
    w.name: w
    for w in (
        bench.Workload("lattice-q10", "lattice8", {"p": 40}, (1, 10), 4),
        bench.Workload("lattice-q2", "lattice8", {"p": 40}, (1, 2), 4),
    )
}


@pytest.fixture(autouse=True)
def toy_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKLOADS", TOY)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)


def run_bench(capsys, workload, trace, seed=3):
    rc = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1]), lines


def test_toy_workloads_match_the_real_ones():
    assert list(TOY) == list(REAL) == [w["name"] for w in BENCH["workloads"]]
    for name, toy in TOY.items():
        assert (toy.family, toy.q, toy.graphs) == (REAL[name].family, REAL[name].q, REAL[name].graphs)


@pytest.mark.parametrize("workload", list(REAL))
def test_pinned_answers_hold_on_the_default_seed(capsys, monkeypatch, workload):
    monkeypatch.setattr(bench, "WORKLOADS", REAL)
    rc, res, lines = run_bench(capsys, workload, 0, seed=7)
    assert "pinned=yes" in lines[0]
    assert rc == 0 and res["failed"] == 0


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(TOY))
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace, key):
    rc, res, lines = run_bench(capsys, workload, trace)
    assert rc == 0
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit} (" in line for line in lines), name
    assert any(line.startswith("metric failed_frac = 0 frac") for line in lines)


@pytest.mark.parametrize("fault", ["wrong_total", "raises"])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TOY))
def test_injected_fault_is_counted_and_fails_the_run(capsys, monkeypatch, workload, trace, fault):
    real_run = bench.engine.run

    def faulty(g, mode="ooag", melioration=True):
        if fault == "raises":
            raise RuntimeError("injected")
        res = real_run(g, mode, melioration)
        res.total += 1
        return res

    monkeypatch.setattr(bench.engine, "run", faulty)
    rc, res, _ = run_bench(capsys, workload, trace)
    assert rc != 0
    assert res["correct"] is False and res["failed"] >= 1
