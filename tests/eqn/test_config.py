"""The one knob declaration: validation and every derived surface.

:class:`~repro.eqn.config.SolveConfig` owns each knob's type, range and
role; the CLI flags, the serve spec and the cache key are derived from
it.  The hypothesis tests draw config points from the field metadata and
check that every surface hands back the same point (and the same key).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.bench import S27_BLIF
from repro.cli import _build_parser
from repro.eqn.config import (
    DEFAULTS,
    KNOBS,
    RESULT_FIELDS,
    SERVED_FIELDS,
    SolveConfig,
    command_fields,
    from_args,
)
from repro.errors import EquationError
from repro.serve.keys import SPEC_FLAGS, cache_key, solve_cache_key
from repro.serve.server import parse_submit
from tests.strategies import config_argv, solve_configs

X = ["G6", "G7"]


class TestDeclaration:
    def test_every_field_has_a_role(self) -> None:
        roles = {knob.role for knob in KNOBS.values()}
        assert roles == {"result", "validated", "cost"}

    def test_hashed_fields_keep_the_spec_names_and_defaults(self) -> None:
        assert dict((n, DEFAULTS[n]) for n in RESULT_FIELDS) == {
            "method": "partitioned",
            "schedule": True,
            "trim": True,
            "reorder": "off",
            "gc": "static",
            "shards": 1,
            "frontier": "dfs",
            "batch": 1,
            "product_order": "stacked",
        }

    def test_compose_and_spill_dir_are_not_served(self) -> None:
        assert "compose" not in SERVED_FIELDS
        assert "spill_dir" not in SERVED_FIELDS

    def test_subcommands_keep_their_flag_sets(self) -> None:
        assert command_fields("reach") == ("schedule", "reorder", "gc", "shards", "backend")
        assert set(command_fields("solve")) - set(command_fields("submit")) == {
            "spill_dir",
            "compose",
        }
        assert set(command_fields("submit")) - set(command_fields("solve")) == {
            "checkpoint_every",
            "checkpoint_seconds",
        }


class TestValidation:
    @pytest.mark.parametrize(
        "knobs,match",
        [
            ({"shards": "2"}, "shards must be int"),
            ({"shards": 0}, "shards must be >= 1"),
            ({"shards": True}, "shards must be int"),
            ({"batch": 0}, "batch must be >= 1"),
            ({"frontier": "xyz"}, "unknown frontier strategy"),
            ({"backend": "cudd"}, "unknown BDD backend"),
            ({"max_seconds": "5"}, "max_seconds must be float"),
            ({"resident_budget": 0}, "resident_budget must be >= 1"),
            ({"method": "monolithic", "shards": 2}, "--shards requires"),
            ({"method": "explicit", "compose": True}, "symbolic flows only"),
            ({"trim": False, "compose": True}, "--compose requires"),
        ],
    )
    def test_refused_values(self, knobs, match) -> None:
        with pytest.raises(EquationError, match=match):
            SolveConfig(**knobs)

    def test_int_is_accepted_for_float_fields(self) -> None:
        assert SolveConfig(max_seconds=5).max_seconds == 5

    def test_resolve_rejects_unknown_knobs(self) -> None:
        with pytest.raises(EquationError, match="unknown solver knobs"):
            SolveConfig.resolve(bach=8)

    def test_resolve_overrides_a_config(self) -> None:
        base = SolveConfig(frontier="bfs")
        assert SolveConfig.resolve(base, batch=8) == SolveConfig(
            frontier="bfs", batch=8
        )
        assert SolveConfig.resolve(base) is base


@settings(max_examples=60, deadline=None)
@given(config=solve_configs(command_fields("solve")))
def test_solve_argv_round_trips(config) -> None:
    argv = ["solve", "--blif", "c.blif", "--x-latches", "a", *config_argv(config, "solve")]
    assert from_args(_build_parser().parse_args(argv), "solve") == config


@settings(max_examples=60, deadline=None)
@given(config=solve_configs(command_fields("submit"), command="submit"))
def test_submit_argv_round_trips(config) -> None:
    argv = ["submit", "--blif", "c.blif", "--x-latches", "a", *config_argv(config, "submit")]
    assert from_args(_build_parser().parse_args(argv), "submit") == config


@settings(max_examples=40, deadline=None)
@given(config=solve_configs(SERVED_FIELDS))
def test_served_body_and_keyword_call_agree_on_the_key(config) -> None:
    body = {"blif": S27_BLIF, "x_latches": X}
    body.update(
        (name, value)
        for name, value in config.values().items()
        if name in SERVED_FIELDS and value != DEFAULTS[name]
    )
    served, spec = parse_submit(body)
    assert served == config
    keyword = {name: getattr(config, name) for name in SPEC_FLAGS}
    assert cache_key(spec) == solve_cache_key(S27_BLIF, X, **keyword)
