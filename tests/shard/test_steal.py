"""Work-stealing dispatch of the split join.

The disjunctive split join is placement-independent: OR is commutative
and associative and BDDs are canonical, so however the work-stealing
dispatcher re-routes cofactor slices, the joined image must be
edge-identical to the in-process reference.  These tests force steals
deterministically (by pinning the dispatcher's ``wait_any`` to one
shard).
"""

from __future__ import annotations

from repro.bdd import BddManager, dump_nodes
from repro.shard import ShardPool, ShardedImage
from repro.symb.image import image_partitioned

N_VARS = 8


def relation_manager():
    mgr = BddManager()
    xs, ys = [], []
    for i in range(N_VARS):
        xs.append(mgr.add_var(f"x{i}"))
        ys.append(mgr.add_var(f"y{i}"))
    return mgr, xs, ys


def make_parts(mgr, xs, ys, spec):
    parts = []
    for i, deps in spec:
        f = 1
        for d in deps:
            f = mgr.apply_and(f, mgr.var_node(xs[d]))
        parts.append(mgr.apply_iff(mgr.var_node(ys[i]), f))
    return parts


def split_image(pool, mgr, xs, parts):
    return ShardedImage(pool, mgr, parts, xs[:4], set(xs[:4]))


def retain_everywhere(pool, mgr, handle, edge):
    blob = dump_nodes(mgr, [edge])
    for shard in range(pool.num_shards):
        pool.submit(shard, ("retain", handle, blob))
    for shard in range(pool.num_shards):
        pool.collect(shard)


def constraints_with_slices(mgr, xs):
    """Constraints whose support spans several split candidates."""
    out = []
    for k in range(3):
        psi = 1
        for v in xs[k : k + 3]:
            psi = mgr.apply_or(mgr.var_node(v), psi ^ 1) ^ (k & 1)
        psi = mgr.apply_or(psi, mgr.var_node(xs[(k + 4) % 4]))
        if psi not in (0, 1):
            out.append(psi)
    assert out
    return out


class TestWorkStealing:
    def test_batch_matches_static_join(self) -> None:
        mgr, xs, ys = relation_manager()
        parts = make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )
        with ShardPool(2, mgr.var_order()) as pool:
            img = split_image(pool, mgr, xs, parts)
            psis = constraints_with_slices(mgr, xs)
            items = []
            for psi in psis:
                handle = pool.new_handle()
                retain_everywhere(pool, mgr, handle, psi)
                items.append((handle, psi))
            results = img.run_resident_batch(items)
            for psi, got in zip(psis, results):
                assert got == image_partitioned(mgr, parts, psi, xs[:4])

    def test_forced_steals_produce_identical_images(self) -> None:
        """Pin the dispatcher to shard 0: it drains its own queue, then
        must steal shard 1's pending slices — and the OR-join must not
        notice the re-placement."""
        mgr, xs, ys = relation_manager()
        parts = make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )
        with ShardPool(2, mgr.var_order()) as pool:
            img = split_image(pool, mgr, xs, parts)
            psis = constraints_with_slices(mgr, xs)
            items = []
            for psi in psis:
                handle = pool.new_handle()
                retain_everywhere(pool, mgr, handle, psi)
                items.append((handle, psi))
            # Always service the first busy shard; collect() still
            # blocks on that shard's FIFO, so this only skews routing.
            original = pool.wait_any
            pool.wait_any = lambda shards: [shards[0]]
            try:
                results = img.run_resident_batch(items, window=1)
            finally:
                pool.wait_any = original
            assert img.steals > 0
            for psi, got in zip(psis, results):
                assert got == image_partitioned(mgr, parts, psi, xs[:4])

    def test_steal_counter_starts_at_zero(self) -> None:
        mgr, xs, ys = relation_manager()
        parts = make_parts(mgr, xs, ys, [(0, [0])])
        with ShardPool(1, mgr.var_order()) as pool:
            img = split_image(pool, mgr, xs, parts)
            assert img.steals == 0

