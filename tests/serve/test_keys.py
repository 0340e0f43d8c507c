"""Cache-key semantics: what collides, what must not.

The content-addressed cache is only sound if the key is exactly the
problem: textually different but structurally identical submissions
must collide, and any flag that can change the produced automaton, its
state numbering or its stats must separate.
"""

from __future__ import annotations

import pytest

from repro.bench import S27_BLIF
from repro.errors import ServeError
from repro.network.blif import parse_blif
from repro.eqn.config import DEFAULTS, RESULT_FIELDS, VALIDATED_FIELDS
from repro.serve.keys import (
    cache_key,
    canonical_blif,
    job_spec,
    solve_cache_key,
)

#: The hashed fields with their defaults.
FLAG_DEFAULTS = {name: DEFAULTS[name] for name in RESULT_FIELDS}

X = ["G6", "G7"]


def test_key_is_stable_hex_digest() -> None:
    key = solve_cache_key(S27_BLIF, X)
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")
    assert key == solve_cache_key(S27_BLIF, X)


def test_whitespace_and_comments_do_not_change_the_key() -> None:
    noisy = "# a comment\n" + S27_BLIF.replace("\n", "\n\n") + "\n# trailing\n"
    assert solve_cache_key(noisy, X) == solve_cache_key(S27_BLIF, X)


def test_network_object_and_text_agree() -> None:
    net = parse_blif(S27_BLIF)
    assert solve_cache_key(net, X) == solve_cache_key(S27_BLIF, X)
    assert canonical_blif(net) == canonical_blif(S27_BLIF)


def test_latch_selection_order_does_not_matter() -> None:
    assert solve_cache_key(S27_BLIF, ["G6", "G7"]) == solve_cache_key(
        S27_BLIF, ["G7", "G6"]
    )


def test_different_split_separates() -> None:
    assert solve_cache_key(S27_BLIF, ["G6"]) != solve_cache_key(S27_BLIF, X)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("method", "monolithic"),
        ("schedule", False),
        ("trim", False),
        ("reorder", "auto"),
        ("gc", "adaptive"),
        ("shards", 2),
        ("frontier", "bfs"),
        ("batch", 8),
        ("product_order", "interleaved"),
    ],
)
def test_every_solver_flag_separates(flag: str, value) -> None:
    assert solve_cache_key(S27_BLIF, X, **{flag: value}) != solve_cache_key(
        S27_BLIF, X
    )


def test_defaults_are_explicit_in_the_spec() -> None:
    spec = job_spec(S27_BLIF, X)
    for name, default in FLAG_DEFAULTS.items():
        assert spec[name] == default
    assert spec["u_signals"] is None
    # An explicitly-defaulted flag hashes like an omitted one.
    assert cache_key(job_spec(S27_BLIF, X, batch=1)) == cache_key(spec)


def test_unknown_flag_is_rejected_not_silently_defaulted() -> None:
    with pytest.raises(ServeError, match="unknown solver flags"):
        job_spec(S27_BLIF, X, bach=8)  # typo must not alias onto batch=1


def test_budgets_are_not_part_of_the_spec() -> None:
    # max_seconds / max_nodes bound completion, not the result; job_spec
    # has no such fields at all, so they cannot leak into the key.
    with pytest.raises(ServeError):
        job_spec(S27_BLIF, X, max_seconds=5)


class TestBackendExclusion:
    """The BDD backend is validated but never hashed: backends are
    byte-identical by the conformance contract, so two submissions
    differing only in backend are the same problem and must collide."""

    def test_backend_does_not_change_the_key(self) -> None:
        base = solve_cache_key(S27_BLIF, X)
        assert solve_cache_key(S27_BLIF, X, backend="python") == base
        assert solve_cache_key(S27_BLIF, X, backend="buddy") == base

    def test_backend_never_enters_the_spec(self) -> None:
        spec = job_spec(S27_BLIF, X, backend="buddy")
        assert "backend" not in spec
        assert spec == job_spec(S27_BLIF, X)

    def test_excluded_flags_are_declared(self) -> None:
        EXCLUDED_FLAGS = VALIDATED_FIELDS
        assert "backend" in EXCLUDED_FLAGS
        assert not set(EXCLUDED_FLAGS) & set(FLAG_DEFAULTS)

    def test_misspelled_backend_is_rejected(self) -> None:
        with pytest.raises(ServeError, match="unknown BDD backend"):
            job_spec(S27_BLIF, X, backend="cudd")
