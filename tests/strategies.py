"""Shared hypothesis strategies for the test suite.

The central strategy is :func:`expressions`, which generates random
Boolean expression trees over a fixed variable list.  Tests evaluate both
the expression (reference semantics) and its BDD to cross-check every
engine operation against truth tables.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from hypothesis import strategies as st

from repro.expr.ast import And, Const, Expr, Not, Or, Var, Xor

DEFAULT_VARS = ("a", "b", "c", "d", "e")


def expressions(
    variables: Sequence[str] = DEFAULT_VARS,
    *,
    max_leaves: int = 12,
) -> st.SearchStrategy[Expr]:
    """Random Boolean expression trees over ``variables``."""
    leaves = st.one_of(
        st.sampled_from([Var(v) for v in variables]),
        st.sampled_from([Const(False), Const(True)]),
    )

    def extend(children: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
        binary = st.tuples(children, children)
        return st.one_of(
            children.map(Not),
            binary.map(lambda ab: And(ab)),
            binary.map(lambda ab: Or(ab)),
            binary.map(lambda ab: Xor(ab)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def assignments(variables: Sequence[str] = DEFAULT_VARS) -> st.SearchStrategy[dict]:
    """A random full assignment for ``variables``."""
    return st.tuples(*[st.booleans() for _ in variables]).map(
        lambda bits: dict(zip(variables, bits))
    )


def all_assignments(variables: Sequence[str]):
    """Deterministic generator of every assignment over ``variables``."""
    for bits in itertools.product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


def reference_minterms(expr, variables: Sequence[str]) -> frozenset[tuple[int, ...]]:
    """Truth table of ``expr`` by brute-force evaluation.

    This is the kernel-independent reference semantics: the seed kernel
    (plain edges, per-op caches) and the current kernel (complement
    edges, unified computed table, GC) must both realise exactly this set
    of satisfying assignments.  Used by the GC/complement-edge Hypothesis
    tests to compare kernel results on random expressions.
    """
    return frozenset(
        tuple(env[v] for v in variables)
        for env in all_assignments(variables)
        if expr.evaluate(env)
    )


def bdd_minterms(mgr, node: int, variables: Sequence[str]) -> frozenset[tuple[int, ...]]:
    """Truth table of a BDD by brute-force evaluation (same shape as
    :func:`reference_minterms`)."""
    return frozenset(
        tuple(env[v] for v in variables)
        for env in all_assignments(variables)
        if mgr.eval(node, env)
    )


def solve_configs(
    names: Sequence[str] | None = None, *, command: str | None = None
) -> st.SearchStrategy:
    """Valid :class:`~repro.eqn.config.SolveConfig` points.

    Each field in ``names`` (default: every field) is drawn from its
    :class:`~repro.eqn.config.Knob` metadata — its choices (the narrower
    ``submit_choices`` when ``command`` is ``"submit"``), its type and
    lower bound, ``None`` when optional; the other fields keep their
    defaults.  Draws the config refuses as a whole (``shards > 1``
    outside the partitioned flow, ...) are filtered out.
    """
    from repro.eqn.config import KNOBS, SolveConfig
    from repro.errors import EquationError

    def field_values(knob) -> st.SearchStrategy:
        choices = (command == "submit" and knob.submit_choices) or knob.choices
        if choices:
            values = st.sampled_from(choices)
        elif knob.type is bool:
            values = st.booleans()
        elif knob.type is int:
            low = int(knob.minimum or 0)
            values = st.integers(min_value=low, max_value=low + 8)
        elif knob.type is float:
            values = st.floats(
                min_value=knob.minimum or 0.0, max_value=1e4, allow_nan=False
            )
        else:
            values = st.text(alphabet="abc_/.", min_size=1, max_size=8)
        return st.none() | values if knob.optional else values

    def build(knobs: dict):
        try:
            return SolveConfig(**knobs)
        except EquationError:
            return None

    names = list(KNOBS) if names is None else list(names)
    return (
        st.fixed_dictionaries({n: field_values(KNOBS[n]) for n in names})
        .map(build)
        .filter(lambda config: config is not None)
    )


def config_argv(config, command: str) -> list[str]:
    """The ``repro <command>`` flags that ask for ``config``'s knobs."""
    from repro.eqn.config import DEFAULTS, command_fields, flag_name

    argv: list[str] = []
    for name in command_fields(command):
        value = getattr(config, name)
        if value == DEFAULTS[name]:
            continue
        if isinstance(value, bool):
            argv.append(flag_name(name))
        else:
            argv += [flag_name(name), str(value)]
    return argv
