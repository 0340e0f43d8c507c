"""The Table 1 harness: regenerate the paper's experimental table.

For each :class:`~repro.bench.suite.SplitCase` the harness solves the
latch-split equation with the partitioned and the monolithic flow under
the case's resource budget, checks the two agree when both finish, and
prints the same columns as the paper::

    Name  i/o/cs  Fcs/Xcs  States(X)  Part,s  Mono,s  Ratio

"CNC" (could not complete) marks a flow that exceeded its budget,
exactly as in the paper.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ReproError
from repro.bench.suite import TABLE1_CASES, SplitCase
from repro.eqn.config import SolveConfig
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation
from repro.util.tables import format_table
from repro.util.timer import Stopwatch


@dataclass
class Table1Row:
    """One measured row of Table 1."""

    name: str
    io_cs: str
    split: str
    states: int | None
    part_seconds: float | None
    mono_seconds: float | None
    paper_row: str

    @property
    def ratio(self) -> float | None:
        if self.part_seconds and self.mono_seconds:
            return self.mono_seconds / self.part_seconds
        return None

    def cells(self) -> list[str]:
        def time_cell(value: float | None) -> str:
            return f"{value:.2f}" if value is not None else "CNC"

        ratio = self.ratio
        return [
            self.name,
            self.io_cs,
            self.split,
            str(self.states) if self.states is not None else "CNC",
            time_cell(self.part_seconds),
            time_cell(self.mono_seconds),
            f"{ratio:.1f}" if ratio is not None else "-",
        ]


HEADERS = ["Name", "i/o/cs", "Fcs/Xcs", "States(X)", "Part,s", "Mono,s", "Ratio"]


def run_method(
    case: SplitCase, method: str, net=None
) -> tuple[float | None, int | None]:
    """Run one flow under the case budget; ``(None, None)`` on CNC.

    ``net`` lets callers that already parsed the case's circuit (the
    row loop builds it for the header columns) share it instead of
    re-elaborating the netlist once per flow.
    """
    if net is None:
        net = case.network()
    config = SolveConfig(
        method=method, max_seconds=case.max_seconds, max_nodes=case.max_nodes
    )
    watch = Stopwatch()
    try:
        problem = build_latch_split_problem(net, list(case.x_latches), config)
        result = solve_equation(problem, config)
    except ReproError:
        return None, None
    return watch.elapsed(), result.csf_states


def run_case(case: SplitCase, *, methods: Sequence[str] = ("partitioned", "monolithic")) -> Table1Row:
    """Measure one Table 1 row."""
    net = case.network()
    split = f"{net.num_latches - len(case.x_latches)}/{len(case.x_latches)}"
    part_seconds = mono_seconds = None
    part_states = mono_states = None
    if "partitioned" in methods:
        part_seconds, part_states = run_method(case, "partitioned", net)
    if "monolithic" in methods:
        mono_seconds, mono_states = run_method(case, "monolithic", net)
    if part_states is not None and mono_states is not None:
        if part_states != mono_states:
            raise ReproError(
                f"{case.name}: flows disagree "
                f"({part_states} vs {mono_states} CSF states)"
            )
    states = part_states if part_states is not None else mono_states
    return Table1Row(
        name=case.name,
        io_cs=net.stats(),
        split=split,
        states=states,
        part_seconds=part_seconds,
        mono_seconds=mono_seconds,
        paper_row=case.paper_row,
    )


def run_table1(
    cases: Sequence[SplitCase] | None = None,
    *,
    verbose: bool = False,
) -> list[Table1Row]:
    """Measure all (or the given) Table 1 rows."""
    rows = []
    for case in cases if cases is not None else TABLE1_CASES:
        if verbose:
            print(f"running {case.describe()} ...", flush=True)
        rows.append(run_case(case))
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Format measured rows like the paper's Table 1."""
    return format_table(HEADERS, [row.cells() for row in rows])


PAPER_TABLE1 = """\
Paper's Table 1 (DATE 2005, 1.6 GHz CPU, CUDD):
Name  i/o/cs    Fcs/Xcs  States(X)  Part,s  Mono,s  Ratio
s510  19/7/6    3/3      54         0.3     0.2     0.7
s208  10/1/8    4/4      497        0.4     0.8     2.0
s298  3/6/14    7/7      553        0.9     2.7     3.0
s349  9/11/15   5/10     2626       37.7    810.3   21.5
s444  3/6/21    5/16     17730      25.9    CNC     -
s526  3/6/21    5/16     141829     276.7   CNC     -"""
