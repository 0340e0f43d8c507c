"""ShardPool / worker protocol tests: lifecycle, commands, failure."""

from __future__ import annotations

import pytest

from repro.bdd import BddManager, dump_nodes, load_nodes
from repro.shard import ShardError, ShardPool

VARS = ["a", "b", "c", "d"]


@pytest.fixture()
def mgr():
    m = BddManager()
    m.add_vars(VARS)
    return m


def test_pool_spawns_and_closes(mgr) -> None:
    pool = ShardPool(2, VARS)
    try:
        stats = pool.stats()
        assert len(stats) == 2
        assert all(s["live_nodes"] == 1 for s in stats)
    finally:
        pool.close()
    pool.close()  # idempotent


def test_pool_context_manager(mgr) -> None:
    with ShardPool(1, VARS) as pool:
        assert pool.num_shards == 1


def test_pool_rejects_zero_shards() -> None:
    with pytest.raises(ShardError):
        ShardPool(0, VARS)


def test_load_plan_image_dump_roundtrip(mgr) -> None:
    a, b = mgr.var_index("a"), mgr.var_index("b")
    f = mgr.apply_or(mgr.var_node(a), mgr.var_node(b))
    g = mgr.apply_iff(mgr.var_node(a), mgr.var_node(b))
    with ShardPool(1, VARS) as pool:
        hf, hg = pool.new_handle(), pool.new_handle()
        pool.call(0, ("load", hf, dump_nodes(mgr, [f])))
        pool.call(0, ("load", hg, dump_nodes(mgr, [g])))
        assert pool.stats()[0]["handles"] == 2
        plan_id = pool.new_handle()
        pool.call(0, ("plan", plan_id, [hg], ["a"], ["a", "b"]))
        snapshot = pool.call(0, ("image", plan_id, dump_nodes(mgr, [f])))
        # Pull both worker-side functions back; edges must coincide with
        # the in-process kernel's (same order, canonical BDDs).
        (got_f,) = load_nodes(mgr, pool.call(0, ("dump", hf)))
        (got_q,) = load_nodes(mgr, snapshot)
        assert got_f == f
        assert got_q == mgr.and_exists(f, g, [a])


def test_image_command_runs_plan(mgr) -> None:
    a, b, c = (mgr.var_index(n) for n in "abc")
    # Relation: b' ≡ a with b' played by c; quantify a.
    part = mgr.apply_iff(mgr.var_node(c), mgr.var_node(a))
    psi = mgr.var_node(a)
    with ShardPool(1, VARS) as pool:
        h = pool.new_handle()
        pool.call(0, ("load", h, dump_nodes(mgr, [part])))
        plan_id = pool.new_handle()
        pool.call(0, ("plan", plan_id, [h], ["a"], ["a", "b"]))
        snapshot = pool.call(0, ("image", plan_id, dump_nodes(mgr, [psi])))
        (img,) = load_nodes(mgr, snapshot)
        assert img == mgr.and_exists(psi, part, [a])


def test_worker_error_propagates_and_worker_survives(mgr) -> None:
    with ShardPool(1, VARS) as pool:
        with pytest.raises(ShardError, match="shard 0 failed"):
            pool.call(0, ("load", 1, {"format": "bogus"}))
        with pytest.raises(ShardError, match="unknown shard command"):
            pool.call(0, ("frobnicate",))
        # The worker is still alive and serving.
        assert pool.stats()[0]["live_nodes"] == 1


def test_submit_collect_pipelining(mgr) -> None:
    f = mgr.var_node(mgr.var_index("a"))
    with ShardPool(2, VARS) as pool:
        handles = []
        for shard in range(2):
            h = pool.new_handle()
            pool.submit(shard, ("load", h, dump_nodes(mgr, [f])))
            handles.append(h)
        for shard in range(2):
            pool.collect(shard)
        assert [s["handles"] for s in pool.stats()] == [1, 1]


def test_collect_without_pending_raises(mgr) -> None:
    with ShardPool(1, VARS) as pool:
        with pytest.raises(ShardError, match="no pending reply"):
            pool.collect(0)


def test_free_releases_handles(mgr) -> None:
    f = mgr.var_node(mgr.var_index("a"))
    with ShardPool(1, VARS) as pool:
        h = pool.new_handle()
        pool.call(0, ("load", h, dump_nodes(mgr, [f])))
        pool.call(0, ("free", [h]))
        assert pool.stats()[0]["handles"] == 0
        pool.call(0, ("gc",))
        assert pool.stats()[0]["live_nodes"] >= 1


def test_closed_pool_rejects_commands(mgr) -> None:
    pool = ShardPool(1, VARS)
    pool.close()
    with pytest.raises(ShardError, match="closed"):
        pool.submit(0, ("stats",))


def test_worker_own_policies() -> None:
    """Workers honour their own GC/reorder policy configuration."""
    with ShardPool(1, VARS, gc="adaptive", reorder="auto") as pool:
        stats = pool.stats()[0]
        assert stats["gc_runs"] == 0
        assert pool.call(0, ("gc",)) == 0  # nothing to reclaim yet



def test_reset_drops_state_and_redeclares_variables(mgr) -> None:
    f = mgr.apply_and(
        mgr.var_node(mgr.var_index("a")), mgr.nvar_node(mgr.var_index("d"))
    )
    with ShardPool(1, VARS) as pool:
        h = pool.new_handle()
        pool.call(0, ("load", h, dump_nodes(mgr, [f])))
        pool.reset(["d", "c", "b", "a"], gc="adaptive")
        stats = pool.stats()[0]
        assert (stats["handles"], stats["resident"], stats["plans"]) == (0, 0, 0)
        # Variables travel by name, so the reversed order round-trips.
        h = pool.new_handle()
        pool.call(0, ("load", h, dump_nodes(mgr, [f])))
        (back,) = load_nodes(mgr, pool.call(0, ("dump", h)))
        assert back == f
