"""Experiment E1: the paper's Table 1.

One pytest-benchmark entry per (row, flow).  Rows whose monolithic flow
is expected to exceed its budget get a CNC check instead of a timing
(the paper prints "CNC" for those cells).  Run

    pytest benchmarks/bench_table1.py --benchmark-only

for the timings and ``benchmarks/run_table1.py`` for the paper-style
printed table.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.bench.suite import TABLE1_CASES
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.config import SolveConfig
from repro.eqn.solver import solve_equation

#: CSF sizes double-checked against both flows in tests; pinned here so a
#: performance run also acts as a regression check of States(X).
EXPECTED_STATES = {
    "s27": 7,
    "count6": 233,
    "johnson8": 129,
    "rand10": 108,
    "lfsr8": 1025,
    "rand14": 90,
    "rand15": 140,
}

FAST_CASES = [c for c in TABLE1_CASES if not c.expect_mono_cnc]
CNC_CASES = [c for c in TABLE1_CASES if c.expect_mono_cnc]


def solve_case(case, method):
    config = SolveConfig(
        method=method, max_seconds=case.max_seconds, max_nodes=case.max_nodes
    )
    problem = build_latch_split_problem(case.network(), list(case.x_latches), config)
    return solve_equation(problem, config)


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_partitioned(benchmark, case) -> None:
    result = benchmark.pedantic(
        solve_case, args=(case, "partitioned"), rounds=1, iterations=1
    )
    assert result.csf_states == EXPECTED_STATES[case.name]


@pytest.mark.parametrize("case", FAST_CASES, ids=lambda c: c.name)
def test_monolithic(benchmark, case) -> None:
    result = benchmark.pedantic(
        solve_case, args=(case, "monolithic"), rounds=1, iterations=1
    )
    assert result.csf_states == EXPECTED_STATES[case.name]


@pytest.mark.parametrize("case", CNC_CASES, ids=lambda c: c.name)
def test_monolithic_cnc(benchmark, case) -> None:
    """The monolithic flow must exceed its budget on the large rows."""

    def run_expect_cnc():
        with pytest.raises(ReproError):
            solve_case(case, "monolithic")
        return True

    assert benchmark.pedantic(run_expect_cnc, rounds=1, iterations=1)
