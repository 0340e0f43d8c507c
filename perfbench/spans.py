"""Layer spans recorded from outside the program.

:class:`Recorder` replaces the public entry points of each layer with
timing proxies (module functions in every module that imported them,
methods on their classes), so the program itself is not edited.  Spans
are kept in memory and written out when the run ends.

:func:`attribute` turns the spans into a partition of a wall interval:
at every instant the time goes to the active span that started last (a
span's children, in the same thread or in another thread or process on
the same monotonic clock, take their own time out of it), and to
``other`` when no span is active.  So the layer self times plus
``other`` add up to the wall exactly.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import itertools
import json
import sys
import threading
import time

#: Module-level functions timed as spans: (module, attribute, layer).
FUNCTIONS = (
    ("repro.network.transform", "latch_split", "network.split"),
    ("repro.eqn.problem", "build_problem", "eqn.build"),
    ("repro.eqn.subset", "subset_construct", "eqn.subset"),
    ("repro.eqn.csf", "extract_csf", "automata.extract"),
    ("repro.serve.keys", "job_spec", "serve.keys"),
    ("repro.serve.keys", "cache_key", "serve.keys"),
    ("repro.serve.payload", "dump_result", "serve.payload"),
    ("repro.serve.payload", "load_result", "serve.payload"),
)

#: Methods timed as spans: (module, class, method, layer).
METHODS = (
    ("repro.eqn.partitioned", "PartitionedOracle", "__init__", "eqn.oracle_setup"),
    ("repro.eqn.monolithic", "MonolithicOracle", "__init__", "eqn.oracle_setup"),
    ("repro.eqn.partitioned", "PartitionedOracle", "expand_batch", "eqn.expand"),
    ("repro.eqn.monolithic", "MonolithicOracle", "expand_batch", "eqn.expand"),
    ("repro.bdd.manager", "BddManager", "collect_garbage", "bdd.gc"),
    ("repro.eqn.residency", "ResidencyManager", "enforce", "residency.spill"),
    ("repro.eqn.residency", "SpillStore", "put", "residency.spill"),
    ("repro.eqn.residency", "ResidencyManager", "restore_all", "residency.reload"),
    ("repro.eqn.residency", "SpillStore", "get", "residency.reload"),
    ("repro.eqn.residency", "ResidencyManager", "lookup", "residency.lookup"),
    ("repro.shard.pool", "ShardPool", "submit", "shard.submit"),
    ("repro.shard.pool", "ShardPool", "collect", "shard.wait"),
    ("repro.shard.pool", "ShardPool", "wait_any", "shard.wait"),
    ("repro.serve.store", "ResultStore", "get", "serve.store"),
    ("repro.serve.store", "ResultStore", "put", "serve.store"),
    ("repro.serve.client", "ServeClient", "submit", "serve.submit"),
    ("repro.serve.client", "ServeClient", "job", "serve.poll"),
    ("repro.serve.client", "ServeClient", "result", "serve.result"),
)

class Recorder:
    """In-memory span log plus per-solve counters.

    A span is ``(id, parent, layer, t0, t1, thread)`` with ``t0``/``t1``
    from :func:`time.perf_counter` (CLOCK_MONOTONIC on Linux, shared by
    every process on the machine).  ``parent`` is the enclosing span of
    the same thread, or ``None``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------ #

    def wrap(self, fn, layer: str):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, layer, t0, t1, threading.get_ident()))

        return proxy

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def record_solve(self, result) -> None:
        """Fold one solve's kernel and subset counters into the totals."""
        kernel = result.problem.manager.stats
        self.add("bdd.kernel_calls", kernel["recursive_calls"])
        self.add("bdd.cache_hits", kernel["cache_hits"])
        self.add("bdd.cache_misses", kernel["cache_misses"])
        self.add("bdd.gc_runs", kernel["gc_runs"])
        self.add("bdd.gc_ratio_sum", kernel["reclaim_ratio_avg"] * kernel["gc_runs"])
        self.peak("bdd.live_nodes_peak", kernel["peak_live_nodes"])
        stats = result.stats
        if stats is None:
            return
        self.add("eqn.subsets", stats.subsets)
        self.add("eqn.edges", stats.edges)
        self.add("eqn.batches", stats.batches)
        extra = stats.extra
        self.add("eqn.memo_hits", extra.get("completion_memo_hits", 0))
        self.add("eqn.memo_misses", extra.get("completion_memo_misses", 0))
        self.add("residency.spills", extra.get("psi_spills", 0))
        self.add("residency.reloads", extra.get("psi_reloads", 0))
        self.add("residency.spill_bytes", extra.get("spill_bytes", 0))
        self.add("shard.psi_serializations", extra.get("psi_serializations", 0))

    # -- installing the proxies ----------------------------------------- #

    def install(self) -> None:
        """Put a proxy in front of every layer entry point.

        Module functions are replaced in every loaded module that bound
        them by name, so ``from x import f`` callers are covered too.
        The solver facade gets a counter hook, not a span: its own code
        is glue and stays in ``other``.
        """
        for module, attr, layer in FUNCTIONS:
            self._replace_everywhere(module, attr, lambda fn, layer=layer: self.wrap(fn, layer))
        for module, cls_name, meth, layer in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, layer))
        self._replace_everywhere("repro.eqn.solver", "solve_equation", self._counting)

    def _replace_everywhere(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module), attr)
        proxy = make(original)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((other, name, original))
                    setattr(other, name, proxy)

    def _counting(self, fn):
        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.record_solve(result)
            return result

        return proxy

    def uninstall(self) -> None:
        """Put every original back (in reverse order of replacement)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- output --------------------------------------------------------- #

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": self.counters,
                    "peaks": self.peaks,
                },
                fh,
            )


def proxy_cost() -> float:
    """Seconds one proxied call adds to a direct one, measured here and now."""
    n = 20_000

    def noop():
        return None

    proxy = Recorder().wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        proxy()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def attribute(spans, t_start: float, t_end: float) -> dict[str, float]:
    """Partition ``[t_start, t_end]`` over the spans' layers and ``other``.

    Each instant goes to the active span with the latest start (on a
    tie, the one that ends first, i.e. the inner one); instants with no
    active span go to ``"other"``.  The values sum to ``t_end - t_start``.
    """
    events = []
    for k, (_, _, layer, t0, t1, _) in enumerate(spans):
        a, b = max(t0, t_start), min(t1, t_end)
        if b > a:
            events.append((a, 1, k))
            events.append((b, 0, k))
    events.sort()
    out: dict[str, float] = {"other": 0.0}
    heap: list[tuple] = []
    ended: set[int] = set()
    prev = t_start
    for t, starts, k in events:
        while heap and heap[0][2] in ended:
            heapq.heappop(heap)
        owner = spans[heap[0][2]][2] if heap else "other"
        out[owner] = out.get(owner, 0.0) + (t - prev)
        prev = t
        if starts:
            _, _, _, t0, t1, _ = spans[k]
            heapq.heappush(heap, (-max(t0, t_start), min(t1, t_end), k))
        else:
            ended.add(k)
    out["other"] += t_end - prev
    return out


def durations(spans, layer: str, t_start: float, t_end: float) -> list[float]:
    """Whole durations of the spans of ``layer`` that start in the window."""
    return [
        t1 - t0 for _, _, name, t0, t1, _ in spans if name == layer and t_start <= t0 < t_end
    ]
