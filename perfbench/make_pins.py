#!/usr/bin/env python3
"""Write pins.json: the answers run.py checks on the default seed.

    python3 perfbench/make_pins.py

Run it only when a workload's graph changes; a pin records behaviour
(total, k after the node stage, round count and edge-set digest per
algorithm and graph) and must not be regenerated to hide a changed answer.
"""

import json

import run

SEED = 7


def main() -> None:
    run._import_fleetmst()
    pins = {}
    for w in run.WORKLOADS.values():
        per_graph = []
        for g in w.build(SEED):
            answers = {m: run.Answer.of(run.engine.run(g, m)) for m in run.MODES}
            answers["kruskal"] = run.Answer.of(run.baselines.kruskal(g))
            totals = {x.total for x in answers.values()}
            if len(totals) != 1:
                raise SystemExit(f"{w.name}: algorithms disagree on the total: {totals}")
            per_graph.append({
                a: {"total": str(x.total), "k": x.k, "rounds": x.rounds, "digest": x.digest()}
                for a, x in answers.items()
            })
        pins[w.name] = {"seed": SEED, "graph": w.label(), "answers": per_graph}
        print(w.name, [p["kruskal"]["total"] for p in per_graph])
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
