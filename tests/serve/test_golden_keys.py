"""Every ``cache_key`` committed in ``BENCH_table1.json`` reproduces.

The bench driver tags each Table 1 row with the serve cache key of the
solve it measured.  Recomputing those keys from the row's recorded
fields through :func:`~repro.serve.keys.solve_cache_key` pins the key
derivation bit for bit: any change to the spec layout, a default or the
set of hashed flags shows up here as a mismatch against the artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.suite import (
    TABLE1_BENCH_ONLY_CASES,
    TABLE1_CASES,
    TABLE1_COMPOSE_CASES,
)
from repro.serve.keys import solve_cache_key

ARTIFACT = Path(__file__).resolve().parents[2] / "BENCH_table1.json"
CASES = {
    case.name: case
    for case in (*TABLE1_CASES, *TABLE1_BENCH_ONLY_CASES, *TABLE1_COMPOSE_CASES)
}


def _keyed_runs() -> list[tuple[str, str, dict, str]]:
    rows = json.loads(ARTIFACT.read_text())["results"]
    return [
        (row["name"], method, row, run["cache_key"])
        for row in rows
        for method, run in row["methods"].items()
        if "cache_key" in run
    ]


RUNS = _keyed_runs()


def test_artifact_carries_every_key() -> None:
    assert len(RUNS) == 39
    assert len({name for name, *_ in RUNS}) == 21


@pytest.mark.parametrize(
    "name,method,row,key", RUNS, ids=[f"{n}/{m}" for n, m, *_ in RUNS]
)
def test_committed_key_reproduces(name: str, method: str, row: dict, key: str) -> None:
    case = CASES[name.split("@")[0]]
    recomputed = solve_cache_key(
        case.network(),
        list(case.x_latches),
        u_signals=list(case.u_signals) if case.u_signals else None,
        method=method,
        reorder=row["reorder"],
        gc=row["gc"],
        # Only the partitioned flow shards; the monolithic baseline of a
        # sharded row is keyed in-process.
        shards=row["shards"] if method == "partitioned" else 1,
        frontier=row["frontier"],
        batch=row["batch"],
        backend=row["backend"],
        product_order=row["product_order"],
    )
    assert recomputed == key
