"""One declaration of every solver knob.

:class:`SolveConfig` is a frozen dataclass holding every tuning knob of
a solve.  Each field carries a :class:`Knob` as its metadata: the CLI
flag's help text, its choices or lower bound, the subcommands that
expose it, whether the job server accepts it, and its **role**:

``result``
    Hashed into the serve cache key (:mod:`repro.serve.keys`): the
    flow, the scheduling/trimming ablations, the kernel runtime
    policies, sharding, the frontier order and batch size, and the
    product variable order.  They may change state numbering or the
    recorded statistics, so distinct settings get distinct keys.
``validated``
    Checked like every field but never hashed: the BDD ``backend``,
    which is byte-identical by the conformance contract.
``cost``
    Bounds or prices a solve without changing what it produces:
    budgets, checkpoint cadence, bounded-memory residency, the
    compositional shortcut.  Never hashed.

The CLI flags of ``repro solve``/``submit``/``reach``/``bench``, the
canonical job spec, the server's accepted options and the bench row
columns are all derived from this declaration.  The module imports only
the standard library and the exception hierarchy, so the ``repro``
parser stays cheap to import.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace

from repro.errors import EquationError

#: Flow names accepted by the solver entry points.
METHODS = ("partitioned", "monolithic", "explicit")


@dataclass(frozen=True)
class Knob:
    """Metadata of one :class:`SolveConfig` field."""

    role: str
    help: str
    type: type
    optional: bool = False  # ``None`` is a valid value
    choices: tuple = ()
    minimum: float | None = None
    label: str = ""  # noun of the "unknown ..." error message
    commands: tuple[str, ...] = ()  # CLI subcommands exposing the flag
    submit_choices: tuple = ()  # narrower choices of ``repro submit``
    served: bool = False  # accepted in a job-server submit body
    row: bool = False  # recorded as a column of every BENCH_table1 row


def _knob(default, role: str, help: str, **meta):
    kind = meta.pop("type", type(default))
    return field(
        default=default,
        metadata={"knob": Knob(role, help, kind, optional=default is None, **meta)},
    )


@dataclass(frozen=True)
class SolveConfig:
    """Every tuning knob of one solve, validated on construction.

    Runtime hooks (a borrowed shard pool, progress and cancellation
    callbacks, checkpoint sinks, resume snapshots) are not knobs: the
    solver entry points take them as plain arguments.
    """

    method: str = _knob(
        "partitioned",
        "result",
        "solver flow: partitioned (the paper's), monolithic (the baseline) "
        "or explicit (Algorithm 1 on explicit automata, reference only)",
        choices=METHODS,
        commands=("solve", "submit"),
        submit_choices=("partitioned", "monolithic"),
        served=True,
    )
    schedule: bool = _knob(
        True,
        "result",
        "early-quantification scheduling",
        commands=("reach",),
        served=True,
    )
    trim: bool = _knob(
        True, "result", "the DCN subset-trimming shortcut", served=True
    )
    max_seconds: float | None = _knob(
        None,
        "cost",
        "wall-clock budget in seconds (exceeding it raises TimeLimit)",
        type=float,
        minimum=0,
        commands=("solve", "submit"),
        served=True,
    )
    max_nodes: int | None = _knob(
        None,
        "cost",
        "BDD node budget, also bounding shard workers (exceeding it "
        "raises BddNodeLimit)",
        type=int,
        minimum=1,
        commands=("solve", "submit"),
        served=True,
    )
    reorder: str = _knob(
        "off",
        "result",
        "GC-triggered in-place dynamic variable reordering",
        choices=("off", "auto", "sift"),
        commands=("solve", "submit", "reach", "bench"),
        served=True,
        row=True,
    )
    gc: str = _knob(
        "static",
        "result",
        "garbage-collection tuning (adaptive backs off unprofitable sweeps)",
        choices=("static", "adaptive"),
        commands=("solve", "submit", "reach", "bench"),
        served=True,
        row=True,
    )
    shards: int = _knob(
        1,
        "result",
        "worker processes for the image computations (1 = in-process; "
        "N≥2 splits each image of the partitioned flow or of "
        "reachability into cofactor slices imaged on the workers)",
        minimum=1,
        commands=("solve", "submit", "reach"),
        served=True,
        row=True,
    )
    frontier: str = _knob(
        "dfs",
        "result",
        "frontier ordering strategy of the subset construction",
        choices=("dfs", "bfs", "size"),
        label="frontier strategy",
        commands=("solve", "submit"),
        served=True,
        row=True,
    )
    batch: int = _knob(
        1,
        "result",
        "subset states expanded per batch (1 = classic worklist; larger "
        "batches pipeline sharded image computations and share "
        "completion work between sibling subsets)",
        minimum=1,
        commands=("solve", "submit"),
        served=True,
        row=True,
    )
    product_order: str = _knob(
        "stacked",
        "result",
        "product variable-order policy: stacked keeps all F latch pairs "
        "above all S pairs; interleaved groups each latch's F/S copies "
        "together (a node-count lever for tightly coupled splits); "
        "results are identical",
        choices=("stacked", "interleaved"),
        commands=("solve", "submit", "bench"),
        served=True,
        row=True,
    )
    backend: str = _knob(
        "python",
        "validated",
        "BDD kernel (python = pure-Python reference; buddy = native "
        "ctypes adapter, falls back to python with a warning when the "
        "shared library is absent); results are identical",
        choices=("python", "buddy"),
        label="BDD backend",
        commands=("solve", "submit", "reach", "bench"),
        served=True,
        row=True,
    )
    checkpoint_every: int = _knob(
        0,
        "cost",
        "persist a resumable frontier checkpoint every N batches",
        minimum=0,
        commands=("submit",),
        served=True,
    )
    checkpoint_seconds: float = _knob(
        0.0,
        "cost",
        "also checkpoint every S seconds of wall clock (whichever "
        "cadence fires first; 0 disables)",
        minimum=0,
        commands=("submit",),
        served=True,
    )
    resident_budget: int | None = _knob(
        None,
        "cost",
        "bounded-memory residency: node budget for resident subset "
        "states; cold expanded states spill to a content-addressed store "
        "and the result stays byte-identical",
        type=int,
        minimum=1,
        commands=("solve", "submit"),
        served=True,
        row=True,
    )
    spill_dir: str | None = _knob(
        None,
        "cost",
        "directory for spilled subset states (default: a private "
        "temporary directory, removed after the solve)",
        type=str,
        commands=("solve",),
    )
    compose: bool = _knob(
        False,
        "cost",
        "compositional solving: when the split decomposes into "
        "independent components with all (u,v) letters in one of them, "
        "solve only that sub-equation (language-identical; falls back to "
        "the direct solve otherwise)",
        commands=("solve",),
        row=True,
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            _check(f.name, f.metadata["knob"], getattr(self, f.name))
        if self.shards > 1 and self.method != "partitioned":
            raise EquationError(
                f"--shards requires the partitioned flow, not {self.method!r}"
            )
        if self.method == "explicit" and (
            self.resident_budget is not None or self.compose
        ):
            raise EquationError(
                "--resident-budget/--compose apply to the symbolic flows only"
            )
        if self.compose and (self.method != "partitioned" or not self.trim):
            raise EquationError(
                "--compose requires the partitioned flow with trimming"
            )

    @classmethod
    def resolve(cls, config: "SolveConfig | None" = None, **knobs) -> "SolveConfig":
        """``config`` (default: all defaults) with ``knobs`` overriding it."""
        unknown = set(knobs) - set(KNOBS)
        if unknown:
            raise EquationError(f"unknown solver knobs: {sorted(unknown)}")
        if config is None:
            return cls(**knobs)
        return replace(config, **knobs) if knobs else config

    def values(self, role: str | None = None) -> dict:
        """``{name: value}`` of every field, or of one role's fields."""
        return {
            name: getattr(self, name)
            for name, knob in KNOBS.items()
            if role is None or knob.role == role
        }

    def row(self) -> dict:
        """The knob columns of a BENCH_table1 row."""
        return {name: getattr(self, name) for name in ROW_FIELDS}


def _check(name: str, knob: Knob, value) -> None:
    if value is None and knob.optional:
        return
    kind = knob.type
    # Exact types: a bool is not an int, and a string is not a number.
    if not (type(value) is kind or (kind is float and type(value) is int)):
        expected = kind.__name__ + (" or None" if knob.optional else "")
        raise EquationError(f"{name} must be {expected}, got {value!r}")
    if knob.choices and value not in knob.choices:
        raise EquationError(
            f"unknown {knob.label or name} {value!r}; choose from {knob.choices}"
        )
    if knob.minimum is not None and value < knob.minimum:
        raise EquationError(f"{name} must be >= {knob.minimum}, got {value!r}")


#: Field name -> :class:`Knob`, in declaration order.
KNOBS: dict[str, Knob] = {f.name: f.metadata["knob"] for f in fields(SolveConfig)}
#: Field name -> default value.
DEFAULTS: dict = {f.name: f.default for f in fields(SolveConfig)}
#: Fields hashed into the cache key.
RESULT_FIELDS = tuple(n for n, k in KNOBS.items() if k.role == "result")
#: Fields validated but never hashed.
VALIDATED_FIELDS = tuple(n for n, k in KNOBS.items() if k.role == "validated")
#: Fields a job-server submit body may set.
SERVED_FIELDS = tuple(n for n, k in KNOBS.items() if k.served)
#: Knob columns of every BENCH_table1 row.
ROW_FIELDS = tuple(n for n, k in KNOBS.items() if k.row)


def command_fields(command: str) -> tuple[str, ...]:
    """Fields exposed as flags of one CLI subcommand."""
    return tuple(n for n, k in KNOBS.items() if command in k.commands)


def flag_name(name: str) -> str:
    """CLI flag of a field: ``--no-<name>`` for a default-on switch."""
    dashed = name.replace("_", "-")
    return f"--no-{dashed}" if DEFAULTS[name] is True else f"--{dashed}"


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Add ``command``'s knob flags to ``parser`` (dests = field names)."""
    for name in command_fields(command):
        knob, default = KNOBS[name], DEFAULTS[name]
        flag = flag_name(name)
        if knob.type is bool:
            action = "store_false" if default else "store_true"
            help_text = f"disable {knob.help}" if default else knob.help
            parser.add_argument(flag, dest=name, action=action, help=help_text)
            continue
        choices = (command == "submit" and knob.submit_choices) or knob.choices
        parser.add_argument(
            flag,
            type=knob.type,
            default=default,
            choices=choices or None,
            help=knob.help,
        )


def from_args(args: argparse.Namespace, command: str) -> SolveConfig:
    """The config a parsed ``command`` line asks for."""
    return SolveConfig(**{name: getattr(args, name) for name in command_fields(command)})
