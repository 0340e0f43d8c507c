"""Top-level solver facade.

``solve_latch_split(net, x_latches)`` is the one-call API: split the
network, build the problem, run the requested flow (partitioned /
monolithic / explicit), extract the CSF, and return everything with
timings.  This is what the examples, the CLI, the Table 1 harness and
most tests use.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.automata.automaton import Automaton
from repro.eqn.config import METHODS, SolveConfig  # noqa: F401 - re-exported
from repro.eqn.csf import csf_state_count, extract_csf
from repro.eqn.explicit_solver import ExplicitTrace, solve_explicit
from repro.eqn.monolithic import MonolithicOracle
from repro.eqn.partitioned import PartitionedOracle
from repro.eqn.problem import EquationProblem, build_latch_split_problem
from repro.eqn.subset import SubsetStats, subset_construct
from repro.network.netlist import Network
from repro.network.transform import LatchSplit
from repro.obs.trace import span as obs_span
from repro.util.limits import ResourceLimit
from repro.util.timer import Stopwatch

@dataclass
class SolveResult:
    """Outcome of one language-equation solve."""

    problem: EquationProblem
    method: str
    solution: Automaton  # most general prefix-closed solution (incl. DCA)
    csf: Automaton  # largest prefix-closed input-progressive part
    seconds: float
    stats: SubsetStats | None = None
    explicit_trace: ExplicitTrace | None = None
    options: dict = field(default_factory=dict)

    @property
    def split(self) -> LatchSplit:
        return self.problem.split

    @property
    def csf_states(self) -> int:
        """The paper's ``States(X)`` column."""
        return csf_state_count(self.csf)

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.split.original.name}: method={self.method} "
            f"csf_states={self.csf_states} time={self.seconds:.3f}s"
        )


def solve_equation(
    problem: EquationProblem,
    config: SolveConfig | None = None,
    *,
    pool=None,
    progress=None,
    cancel=None,
    checkpoint=None,
    resume: dict | None = None,
    **knobs,
) -> SolveResult:
    """Solve a built problem with the flow and knobs of ``config``.

    ``knobs`` override fields of ``config`` by name (see
    :class:`~repro.eqn.config.SolveConfig` for every knob, its meaning
    and its role).  The build-time knobs (``reorder``, ``gc``,
    ``backend``, ``product_order``, ``max_nodes``) already shaped
    ``problem``'s manager; here ``max_seconds``/``max_nodes`` form the
    solve's :class:`~repro.util.limits.ResourceLimit`, and the rest
    select the flow, the subset engine, sharding, residency and
    composition.  With ``compose`` set the component decomposition is
    tried first, falling back to the direct solve when it does not
    apply (``result.options["compose"]`` records which ran).

    The remaining parameters are runtime hooks, not knobs:

    pool:
        Optional pre-warmed :class:`~repro.shard.pool.ShardPool` to
        borrow instead of forking a fresh one (the job server reuses one
        pool across jobs).  Must already be reset to this problem's
        variable order and have ``shards`` workers; it is left running
        when the solve finishes.
    progress / cancel / checkpoint / resume:
        Serving hooks forwarded to
        :func:`~repro.eqn.subset.subset_construct` (per-batch progress
        events, cooperative cancellation, resumable frontier checkpoints
        on the ``checkpoint_every``/``checkpoint_seconds`` cadence —
        whichever fires first).  Symbolic flows only.
    """
    config = SolveConfig.resolve(config, **knobs)
    if config.compose:
        from repro.eqn.compose import solve_compositional

        result = solve_compositional(problem, config)
        if result is not None:
            return result
        # The decomposition does not apply — fall through to the
        # direct solve (recorded in the options so callers can tell).
    method = config.method
    limit = None
    if config.max_seconds is not None or config.max_nodes is not None:
        limit = ResourceLimit(
            max_seconds=config.max_seconds, max_nodes=config.max_nodes
        )
    watch = Stopwatch()
    if method == "explicit":
        with obs_span("solve", method=method):
            csf, trace = solve_explicit(problem)
        return SolveResult(
            problem=problem,
            method=method,
            solution=csf,
            csf=csf,
            seconds=watch.elapsed(),
            explicit_trace=trace,
            options={"schedule": config.schedule, "trim": config.trim},
        )
    residency = None
    if config.resident_budget is not None:
        from repro.eqn.residency import ResidencyManager

        residency = ResidencyManager(
            problem.manager, config.resident_budget, spill_dir=config.spill_dir
        )
        # Sharded workers run the same discipline over their resident
        # registries, sharing the coordinator's store (content
        # addressing makes concurrent writers idempotent).
        config = replace(config, spill_dir=residency.store.root)
    try:
        with obs_span(
            "solve",
            method=method,
            shards=config.shards,
            batch=config.batch,
            frontier=config.frontier,
        ) as solve_span:
            if method == "partitioned":
                with obs_span("oracle_setup", shards=config.shards):
                    oracle = PartitionedOracle(problem, config, pool=pool)
            else:
                with obs_span("oracle_setup", shards=0):
                    oracle = MonolithicOracle(problem, trim=config.trim)
            try:
                solution, stats = subset_construct(
                    oracle,
                    problem,
                    limit=limit,
                    strategy=config.frontier,
                    batch_size=config.batch,
                    progress=progress,
                    cancel=cancel,
                    checkpoint=checkpoint,
                    checkpoint_every=config.checkpoint_every,
                    checkpoint_seconds=config.checkpoint_seconds,
                    resume=resume,
                    residency=residency,
                )
            finally:
                closer = getattr(oracle, "close", None)
                if closer is not None:
                    closer()
            with obs_span("extract_csf"):
                csf = extract_csf(solution, problem.u_names)
            solve_span.set(subsets=stats.subsets, batches=stats.batches)
    finally:
        if residency is not None:
            # After the oracle (and its pool) is down: a worker must
            # never outlive the spill store it shares.
            residency.close()
    return SolveResult(
        problem=problem,
        method=method,
        solution=solution,
        csf=csf,
        seconds=watch.elapsed(),
        stats=stats,
        options={
            "schedule": config.schedule,
            "trim": config.trim,
            "shards": config.shards,
            "frontier": config.frontier,
            "batch": config.batch,
            "product_order": getattr(problem, "product_order", "stacked"),
            "resident_budget": config.resident_budget,
            "compose": False,
        },
    )


def solve_latch_split(
    net: Network,
    x_latches: Sequence[str],
    config: SolveConfig | None = None,
    *,
    u_signals: Sequence[str] | None = None,
    pool=None,
    progress=None,
    cancel=None,
    checkpoint=None,
    resume: dict | None = None,
    **knobs,
) -> SolveResult:
    """Split ``net``, then solve for the CSF of the moved latches.

    This reproduces the paper's experimental setup end to end: the
    original network is the specification ``S``, the part keeping the
    latches *not* in ``x_latches`` is ``F``, and the computed ``X`` is
    the complete sequential flexibility of the moved part.  ``u_signals``
    restricts the signals exposed to ``X`` (default: every input and
    kept latch).

    The problem is built by :func:`~repro.eqn.problem.build_latch_split_problem`
    and solved by :func:`solve_equation`, both under ``config`` with
    ``knobs`` overriding its fields by name; the runtime hooks are
    forwarded to :func:`solve_equation`.
    """
    config = SolveConfig.resolve(config, **knobs)
    problem = build_latch_split_problem(net, x_latches, config, u_signals=u_signals)
    return solve_equation(
        problem,
        config,
        pool=pool,
        progress=progress,
        cancel=cancel,
        checkpoint=checkpoint,
        resume=resume,
    )


def verify_solution(result: SolveResult, **kwargs):
    """Shortcut to :func:`repro.eqn.verify.verify_solution`."""
    from repro.eqn.verify import verify_solution as _verify

    return _verify(result, **kwargs)
