"""Solver-level backend differential: every backend, identical bytes.

Two layers:

* **Always-on** — the ``backend`` knob threaded through
  :func:`~repro.eqn.solver.solve_latch_split` with the default backend
  must be a byte-level no-op: same KISS text, same subset/edge counts,
  same CSF state count as a solve that never mentions backends.  This
  pins the pre-backend behaviour bit-for-bit on pure-Python machines.

* **Native, conditionally defined** — when the BuDDy library loads,
  the Table 1 suite is solved once per backend and compared byte for
  byte.  The tests are *defined* only in that case (module-level
  guard), not skip-marked: a pure-Python environment collects zero
  extra tests and zero extra skips.
"""

from __future__ import annotations

import pytest

from repro.automata.kiss import write_kiss
from repro.bdd.backends import backend_available
from repro.bench.suite import TABLE1_CASES, case_by_name
from repro.eqn.solver import solve_latch_split

#: Small, fast Table 1 rows for the always-on identity check.
FAST_CASES = ("s27", "count6", "johnson8")


def _solve(case, backend: str | None):
    kwargs = {} if backend is None else {"backend": backend}
    return solve_latch_split(
        case.network(),
        list(case.x_latches),
        max_seconds=case.max_seconds,
        max_nodes=case.max_nodes,
        **kwargs,
    )


def _fingerprint(result) -> dict:
    return {
        "kiss": write_kiss(result.csf),
        "csf_states": result.csf_states,
        "subsets": result.stats.subsets,
        "edges": result.stats.edges,
    }


@pytest.mark.parametrize("name", FAST_CASES)
def test_explicit_python_backend_is_byte_identical(name) -> None:
    case = case_by_name(name)
    base = _fingerprint(_solve(case, None))
    threaded = _fingerprint(_solve(case, "python"))
    assert threaded == base


if backend_available("buddy"):

    @pytest.mark.parametrize(
        "name", [case.name for case in TABLE1_CASES]
    )
    def test_buddy_solves_table1_byte_identically(name) -> None:
        case = case_by_name(name)
        reference = _fingerprint(_solve(case, "python"))
        native = _fingerprint(_solve(case, "buddy"))
        assert native == reference
