"""Language-equation solving: the paper's core contribution.

Public surface:

* :func:`solve_latch_split` / :func:`solve_equation` — one-call solvers
  (partitioned / monolithic / explicit flows).
* :class:`SolveConfig` — every solver knob in one validated declaration.
* :class:`EquationProblem` / :func:`build_problem` — problem instances.
* :func:`verify_solution` — the paper's formal checks.
* :func:`extract_csf` — prefix-closed input-progressive trimming.

The names are re-exported lazily: importing :mod:`repro.eqn.config`
(which the CLI parser does) must not pull in the BDD solver stack.
"""

from importlib import import_module

#: Submodule -> the names it contributes to the package surface.
_EXPORTS = {
    "compose": (
        "ComposePlan",
        "conjoin_solutions",
        "plan_components",
        "solve_compositional",
    ),
    "config": ("SolveConfig",),
    "csf": ("csf_state_count", "extract_csf"),
    "explicit_solver": (
        "fixed_automaton",
        "solve_explicit",
        "specification_automaton",
    ),
    "implement": (
        "Implementation",
        "extract_fsm",
        "fsm_to_network",
        "implement_csf",
        "recompose_with_implementation",
    ),
    "monolithic": ("MonolithicOracle",),
    "partitioned": ("PartitionedOracle",),
    "problem": ("EquationProblem", "build_latch_split_problem", "build_problem"),
    "residency": ("ResidencyManager", "SpillStore"),
    "solver": ("METHODS", "SolveResult", "solve_equation", "solve_latch_split"),
    "subset": (
        "STRATEGIES",
        "FrontierScheduler",
        "SubsetEdge",
        "SubsetStats",
        "subset_construct",
    ),
    "verify": (
        "VerificationReport",
        "compose_with_fixed",
        "particular_solution_automaton",
        "verify_solution",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.eqn' has no attribute {name!r}")
    return getattr(import_module(f"repro.eqn.{module}"), name)
