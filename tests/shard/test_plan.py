"""Split-join tests: the sharded image vs the in-process image."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager
from repro.shard import ShardPool, ShardedImage
from repro.symb.image import image_partitioned

N_VARS = 8


def relation_manager():
    """A manager with interleaved (x_i, y_i) pairs and iff parts."""
    mgr = BddManager()
    xs, ys = [], []
    for i in range(N_VARS):
        xs.append(mgr.add_var(f"x{i}"))
        ys.append(mgr.add_var(f"y{i}"))
    return mgr, xs, ys


def make_parts(mgr, xs, ys, spec):
    """Parts ``y_i ≡ <function of xs>`` per (i, xs-subset) spec."""
    parts = []
    for i, deps in spec:
        f = 1
        for d in deps:
            f = mgr.apply_and(f, mgr.var_node(xs[d]))
        parts.append(mgr.apply_iff(mgr.var_node(ys[i]), f))
    return parts


class TestShardedImage:
    @pytest.mark.parametrize("support", ["empty", "partial", "full"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_in_process_image(self, support, shards) -> None:
        """The declared constraint support decides what the split join
        slices on: nothing, some or all of the quantified variables."""
        mgr, xs, ys = relation_manager()
        parts = make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )
        quantify = xs[:4]
        psi = mgr.apply_or(
            mgr.apply_and(mgr.var_node(xs[0]), mgr.var_node(xs[2])),
            mgr.nvar_node(xs[1]),
        )
        csupp = {"empty": set(), "partial": set(xs[:3]), "full": set(xs[:4])}
        if support == "empty":
            psi = 1
        expected = image_partitioned(mgr, parts, psi, quantify)
        with ShardPool(shards, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, quantify, csupp[support])
            assert img.run(psi) == expected
            # FALSE constraint short-circuits without worker traffic.
            assert img.run(0) == 0

    def test_split_join_when_retirement_possible(self) -> None:
        mgr, xs, ys = relation_manager()
        parts = make_parts(mgr, xs, ys, [(i, [i]) for i in range(4)])
        # Constraint over y-space only: every quantified x could retire
        # inside a single part, and there is nothing to slice on.
        with ShardPool(2, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, xs[:4], set())
            psi = 1
            assert img.run(psi) == image_partitioned(mgr, parts, psi, xs[:4])


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_sharded_image_random_relations(data) -> None:
    """Random dependency structure, constraint support and shard count.

    The support bound of the constraint is drawn empty, partial or full
    (over the quantified variables), which covers the shapes where parts
    can retire variables on their own as well as those where nothing
    retires before the constraint is conjoined.
    """
    mgr, xs, ys = relation_manager()
    n_parts = data.draw(st.integers(2, 5))
    spec = [
        (i, sorted(data.draw(st.sets(st.integers(0, 5), max_size=3))))
        for i in range(n_parts)
    ]
    parts = make_parts(mgr, xs, ys, spec)
    quantify = xs[:6]
    support = data.draw(
        st.one_of(
            st.just([]),
            st.lists(st.sampled_from(quantify), min_size=1, max_size=5, unique=True),
            st.just(quantify),
        )
    )
    psi = 1
    if support:
        cube = data.draw(st.lists(st.sampled_from(support), max_size=3))
        for v in cube:
            psi = mgr.apply_and(psi, mgr.var_node(v))
    expected = image_partitioned(mgr, parts, psi, quantify)
    shards = data.draw(st.integers(1, 3))
    with ShardPool(shards, mgr.var_order()) as pool:
        img = ShardedImage(pool, mgr, parts, quantify, set(support))
        assert img.run(psi) == expected
