"""Fast tests of the benchmark's own logic (no solver runs).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, attribute  # noqa: E402
from stats import Tally, percentile, tail, tail_percentile  # noqa: E402


# -- the tail-percentile rule ------------------------------------------------ #


def test_tail_percentile_leaves_ten_samples_beyond() -> None:
    assert tail_percentile(110) == 90
    assert tail_percentile(40) == 75
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None
    assert tail_percentile(0) is None
    for n in range(20, 400):
        p = tail_percentile(n)
        rank = -(-p * n // 100)  # nearest rank, ceil(p·n/100)
        assert n - rank >= 10, n
        # The next whole percentile would leave fewer than ten.
        assert p == 99 or n * (1 - (p + 1) / 100) < 10, n


def test_tail_value_is_the_nearest_rank() -> None:
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90.0, 90)
    assert percentile(values, 50) == 50.0
    assert tail(values[:15]) is None


# -- self time on nested spans ------------------------------------------------ #


def span(sid, layer, t0, t1, parent=None, thread=1):
    return (sid, parent, layer, t0, t1, thread)


def test_self_time_subtracts_nested_children() -> None:
    spans = [
        span(3, "c", 3.0, 4.0, parent=2),
        span(2, "b", 2.0, 5.0, parent=1),
        span(4, "d", 6.0, 7.0, parent=1),
        span(1, "a", 1.0, 9.0),
    ]
    parts = attribute(spans, 0.0, 10.0)
    assert parts == {"a": 4.0, "b": 2.0, "c": 1.0, "d": 1.0, "other": 2.0}
    assert sum(parts.values()) == 10.0


def test_same_layer_nesting_and_window_clipping() -> None:
    spans = [span(2, "gc", 2.0, 3.0, parent=1), span(1, "gc", 1.0, 4.0)]
    assert attribute(spans, 0.0, 5.0) == {"gc": 3.0, "other": 2.0}
    # Only the part inside the window counts.
    assert attribute(spans, 2.5, 3.5) == {"gc": 1.0, "other": 0.0}


def test_a_later_span_elsewhere_takes_its_time_out_of_the_waiter() -> None:
    # A client waits in one process while the server works in another.
    spans = [
        span(1, "client", 0.0, 10.0, thread=1),
        span(2, "server", 2.0, 6.0, thread=2),
    ]
    parts = attribute(spans, 0.0, 10.0)
    assert parts == {"client": 6.0, "server": 4.0, "other": 0.0}


def test_recorder_proxies_partition_the_wall() -> None:
    recorder = Recorder()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = recorder.wrap(inner, "inner")
    wrapped_outer = recorder.wrap(outer, "outer")
    t0 = time.perf_counter()
    wrapped_outer()
    worker = threading.Thread(target=wrapped_inner)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    t1 = time.perf_counter()
    by_id = {s[0]: s for s in recorder.spans}
    nested = [s for s in recorder.spans if s[1] is not None]
    assert len(nested) == 1 and by_id[nested[0][1]][2] == "outer"
    parts = attribute(recorder.spans, t0, t1)
    assert abs(sum(parts.values()) - (t1 - t0)) < 1e-9
    assert parts["outer"] < parts["inner"]


def test_install_proxies_every_binding_and_uninstall_restores_them() -> None:
    import repro.eqn.csf
    import repro.eqn.solver
    from repro.bdd.manager import BddManager

    original = repro.eqn.csf.extract_csf
    gc = BddManager.collect_garbage
    recorder = Recorder()
    recorder.install()
    try:
        assert repro.eqn.solver.extract_csf is repro.eqn.csf.extract_csf
        assert repro.eqn.solver.extract_csf is not original
        assert BddManager.collect_garbage is not gc
        BddManager().collect_garbage()
        assert [s[2] for s in recorder.spans] == ["bdd.gc"]
    finally:
        recorder.uninstall()
    assert repro.eqn.solver.extract_csf is original
    assert BddManager.collect_garbage is gc


# -- failure counting ----------------------------------------------------------- #


def test_tally_counts_every_operation() -> None:
    tally = Tally()
    tally.ok()
    assert tally.check("x", 1, 1)
    assert not tally.check("y", 1, 2)
    tally.fail("z: raised")
    assert (tally.attempted, len(tally.failures)) == (4, 2)


def run_op(tmp_path, monkeypatch, outcome) -> workloads.Child:
    """One operation child whose solve returns ``outcome`` (or raises it)."""
    child = workloads.Child(
        {"workload": "batch", "seed": 0, "workdir": str(tmp_path), "mode": "op", "op": "x"}
    )
    op = workloads.OpRun(child)
    op.op, op.pin = "x", {"v": 1}

    def fake_solve():
        if isinstance(outcome, Exception):
            raise outcome
        return SimpleNamespace(v=outcome), 0.0, 1.0

    monkeypatch.setattr(op, "timed_solve", fake_solve)
    monkeypatch.setattr(workloads, "pin_of", lambda result: {"v": result.v})
    op.measure()
    return child


def test_each_operation_counts_once_and_fails_on_crash_or_mismatch(
    tmp_path, monkeypatch
) -> None:
    ok = run_op(tmp_path, monkeypatch, 1)
    assert (ok.tally.attempted, len(ok.tally.failures), ok.out["seconds"]) == (1, 0, 1.0)
    wrong = run_op(tmp_path, monkeypatch, 2)
    assert (wrong.tally.attempted, len(wrong.tally.failures)) == (1, 1)
    crash = run_op(tmp_path, monkeypatch, RuntimeError("could not complete"))
    assert (crash.tally.attempted, len(crash.tally.failures)) == (1, 1)
    assert "could not complete" in crash.tally.failures[0]
    assert "seconds" not in crash.out


# -- the serve job stream -------------------------------------------------------- #


def test_same_seed_gives_the_same_serve_stream() -> None:
    a = workloads.serve_stream(7, 40)
    assert a == workloads.serve_stream(7, 40)
    assert a != workloads.serve_stream(8, 40)


def test_serve_stream_has_the_same_jobs_for_every_seed() -> None:
    base = sorted(workloads.serve_stream(0, 40))
    for seed in range(20):
        stream = workloads.serve_stream(seed, 40)
        assert sorted(stream) == base
        assert len(stream) == 40 * workloads.SERVE_SUBMITS
        firsts = sorted(set(stream), key=stream.index)
        assert firsts == list(range(40))  # cold solves in pool order


def test_instance_order_is_a_seeded_permutation() -> None:
    ops = workloads.BATCH_OPS
    assert workloads.seeded_order(ops, 3) == workloads.seeded_order(ops, 3)
    assert sorted(map(str, workloads.seeded_order(ops, 4))) == sorted(map(str, ops))


# -- BENCHMARK.json matches what the runner prints ------------------------------ #


def fake_layers() -> dict:
    return {
        "wall": 4.0,
        "self": {"eqn.expand": 3.0, "other": 1.0},
        "calls": {"eqn.expand": 6},
        "counters": {"bdd.kernel_calls": 20},
        "peaks": {},
        "per_call": {},
        "proxy_cost": [1e-6],
        "passes": 2,
    }


def test_benchmark_json_names_every_printed_metric() -> None:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer, problems = run.layer_metrics(fake_layers())
    assert problems == []
    assert layer["eqn.expand_s"] == (1.5, "s") and layer["eqn.expand_calls"] == (3, "count")
    assert layer["trace_overhead_s"] == (3e-6, "s")
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layer.items()
    }
    end = {m["name"] for m in spec["end_to_end"]}
    assert end == {"setup_s", "solve_s", "solve_geomean_s", "peak_rss_mb"}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_partition_check_flags_a_gap() -> None:
    layers = fake_layers()
    layers["self"]["other"] = 0.4
    _, problems = run.layer_metrics(layers)
    assert problems
