"""The benchmark's inputs, references and correctness gate.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import random

import pytest

import workloads
from falkkit.graphs import GainGraph, validate


def test_closed_forms_match_seed_values():
    assert [workloads.braid_phi3(m) for m in (4, 5, 6)] == [10, 30, 70]
    assert [workloads.type_b_phi3(m) for m in (2, 3, 4)] == [8, 48, 160]
    assert [workloads.type_d_phi3(m) for m in (3, 4, 5)] == [10, 56, 180]
    assert [workloads.type_b_phi3(m) for m in workloads.B_SIZES] == [48, 160, 400, 840]


def test_hypothesis_check_agrees_with_package_validate():
    rng = random.Random(7)
    pool = workloads.GAIN_POOL
    for _ in range(500):
        ell = rng.randrange(2, 6)
        edges = [
            (rng.randrange(1, ell + 1), rng.randrange(1, ell + 1), rng.choice(pool))
            for _ in range(rng.randrange(1, 9))
        ]
        g = GainGraph.from_edge_list(ell, edges)
        assert workloads.passes_h1_h5(edges) == validate(g).all_pass, edges


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cases_depend_only_on_seed(workload):
    first = workloads.cases(workload, 11)
    assert first == workloads.cases(workload, 11)
    assert first != workloads.cases(workload, 12)
    base = workloads.base_cases(workload)
    assert [(c.name, c.num_vertices, len(c.edges)) for c in first] == [
        (c.name, c.num_vertices, len(c.edges)) for c in base
    ]
    census = workload != "rank_bm"
    assert all(c.census == census and workloads.passes_h1_h5(list(c.edges)) == census for c in first)


def _report(**phi3):
    rep = {"n": 3, "phi3": {"comb": 10, "rank": 10, "agree": True}, "withheld": {}}
    rep["phi3"].update(phi3)
    return json.dumps(rep)


def test_gate_accepts_right_and_rejects_wrong_reports():
    case = workloads.Case("k4", 4, ((1, 2, 1), (1, 3, 1), (2, 3, 1)), 10, True)
    assert workloads.check_report(case, 0, _report()) is None
    assert workloads.check_report(case, 1, _report()) == "exit code 1"
    assert "unparsable" in workloads.check_report(case, 0, "phi3: 10")
    assert "closed form" in workloads.check_report(case, 0, _report(rank=11, comb=11))
    assert "mismatch" in workloads.check_report(case, 0, _report(comb=12, agree=False))
    bm = workloads.Case("b", 2, case.edges, 10, False)
    assert "withheld" in workloads.check_report(bm, 0, _report())
    held = json.loads(_report(comb=None, agree=None))
    held["withheld"] = {f: ["H1"] for f in ("counts", "phi3_combinatorial", "agree")}
    assert workloads.check_report(bm, 0, json.dumps(held)) is None
