"""The same results: the traces of the benchmark's seeded solves, pinned.

A change that keeps the solver's results must leave every JSON trace of
these solves byte-identical: the snapshots, step sizes, stop reasons,
failure texts and frozen roots.  The hashes are those of seed 1, rounds
0 and 1, of the three solve workloads that perfbench/workloads.py
generates (which it does without importing simulroot); a change that
means to move a trace states why and pins the new hash.  The same solves
under the multiplicity-Newton baseline are pinned too: that method
evaluates the same Newton ratios, so a change to them shows there even
where no correction pass runs.
"""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from simulroot import parse_problem, render_trace, solve
from simulroot.solver import Method

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

TRACE_SHA256 = {
    "algebraic_factored": "ea431c4ef85ec5224c1b1f9f8212c59d385c15917f920bb5968d58983c5019ca",
    "periodic_factored": "9de4d855170de40cfc533691286d9ae6df40cbc2ae5ff6dbaa17357b1312bcf6",
    "coefficient_form": "feb88998f340972d5ac1f268918c24465c27a2b78b54a7f6ef9ec50ca1631dfd",
}

NEWTON_BASELINE_TRACE_SHA256 = {
    "algebraic_factored": "24b6b6a47b397409d2ffd8e96003f98c0e328311c74cd21d249bdd2b35639293",
    "periodic_factored": "f21a88d21b50fefca14e4c48bf7744215daca7cfa6c58be5f86ac2c7a7fc0aae",
    "coefficient_form": "c4e6dda0aa3bd9209f95385eeaafa7842ab57eb7a5781ea0bdfc00a9dd36016c",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_hash(workload: str, method: Method) -> str:
    traces = hashlib.sha256()
    for round_index in (0, 1):
        for problem in _workloads().solve_round(1, workload, round_index):
            spec = parse_problem(problem["json"])
            config = replace(spec.solve_config(), method=method)
            report = solve(spec.poly, spec.profile(), spec.initial_vector(), config)
            traces.update(render_trace(report, "json"))
    return traces.hexdigest()


@pytest.mark.parametrize("workload", sorted(TRACE_SHA256))
def test_the_seeded_benchmark_traces_are_unchanged(workload):
    assert _trace_hash(workload, Method.CHEBYSHEV) == TRACE_SHA256[workload]


@pytest.mark.parametrize("workload", sorted(NEWTON_BASELINE_TRACE_SHA256))
def test_the_seeded_newton_baseline_traces_are_unchanged(workload):
    assert (_trace_hash(workload, Method.NEWTON_BASELINE)
            == NEWTON_BASELINE_TRACE_SHA256[workload])
