"""The workload side of the benchmark: runs in a fresh child process.

``python3 perfbench/workloads.py CONFIG.json`` runs what :mod:`run`
configured and writes its raw measurements to the JSON file named in
the config:

* ``"mode": "op"`` — one solve of the ``batch`` workload.  Every solve
  gets its own process, so its peak memory and its heap are its own,
  whatever ran before it.
* ``"mode": "serve"`` — the ``serve`` client loop.

With ``"setup_only"`` either stops once set-up is done (the network is
built, the pool forked or the server answering): a set-up sample.

Instances come from :mod:`repro.bench.suite` and
:mod:`repro.bench.circuits`; the program only ever receives the built
networks (batch workloads) or their BLIF text (``serve``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Poll interval of the serve client while a cold job runs, in seconds.
SERVE_POLL_S = 0.005
#: Serve job stream: every problem of the pool is submitted this many
#: times per pass; the first submission is a cold solve, the rest hit.
SERVE_SUBMITS = 4
#: Seeds of the ``random_network(2, 7, 2)`` problems in the serve pool
#: (1000 and 1009 are left out: their solves take 0.6 s and 2 s, far
#: above the rest, and would dominate the stream).
SERVE_RANDOM_SEEDS = tuple(s for s in range(1000, 1040) if s not in (1000, 1009))
SERVE_X_LATCHES = ("l1", "l4")


# --------------------------------------------------------------------------- #
# Operations of the batch workload: a fixed list of solves.
# --------------------------------------------------------------------------- #

#: The paper's Table 1 rows: the partitioned flow at CLI defaults (dfs,
#: batch 1, in-process, no budget), and the monolithic flow on the rows
#: it finishes quickly.
TABLE1_OPS = [
    *(
        (name, name, {})
        for name in ("johnson8", "rand10", "lfsr8", "johnson12", "rand14", "rand15", "rand20")
    ),
    *(
        (f"{name}@mono", name, {"method": "monolithic"})
        for name in ("s27", "count6", "johnson8")
    ),
]
#: Bounded memory: a resident budget, plus checkpoints (whose
#: ``restore_all`` reloads every spilled state).
SPILL_OPS = [
    ("lfsr8@budget256+ckpt256", "lfsr8", {"resident_budget": 256, "checkpoint_every": 256}),
]
#: Shard transport on a warm pool of 2 workers.
SHARD_OPS = [
    (f"{name}@shards2", name, {"shards": 2, "frontier": "bfs", "batch": 8})
    for name in ("johnson12", "rand20")
]
#: The batch workload: (op name, Table 1 case, solve configuration).
BATCH_OPS = TABLE1_OPS + SPILL_OPS + SHARD_OPS


def kiss_digest(csf) -> str:
    from repro.automata.kiss import write_kiss

    return hashlib.sha256(write_kiss(csf).encode()).hexdigest()


def pin_of(result) -> dict:
    """The result-defining figures of one solve (what ``pins.json`` holds)."""
    return {
        "subsets": result.stats.subsets,
        "csf_states": result.csf_states,
        "kiss_sha256": kiss_digest(result.csf),
    }


def seeded_order(items: list, seed: int) -> list:
    """A permutation of ``items`` fixed by the seed."""
    out = list(items)
    random.Random(f"order:{seed}").shuffle(out)
    return out


def serve_stream(seed: int, n_problems: int, pass_index: int = 0) -> list[int]:
    """The serve job stream: problem indices in a seeded interleaving.

    Each problem occurs :data:`SERVE_SUBMITS` times, so every seed gives the same
    jobs: ``n_problems`` cold solves, the rest cache hits.  The cold
    solves come in pool order (the server's peak memory depends on what
    it has solved before its largest problems); the seed decides where
    the repeats fall between them, anew for every pass of a run.
    """
    pattern = [p for p in range(n_problems) for _ in range(SERVE_SUBMITS)]
    random.Random(f"serve:{seed}:{pass_index}").shuffle(pattern)
    rank: dict[int, int] = {}
    for p in pattern:
        rank.setdefault(p, len(rank))
    return [rank[p] for p in pattern]


# --------------------------------------------------------------------------- #
# The child process.
# --------------------------------------------------------------------------- #


class Child:
    """What every child records: the end of set-up and the operation tally."""

    def __init__(self, cfg: dict) -> None:
        from stats import Tally

        self.cfg = cfg
        self.workload = cfg["workload"]
        self.seed = cfg["seed"]
        self.workdir = cfg["workdir"]
        self.tally = Tally()
        self.out: dict = {}

    def run(self) -> dict:
        runner = OpRun(self) if self.cfg["mode"] == "op" else ServeRun(self)
        try:
            runner.setup()
            self.out["t_first"] = time.monotonic()
            if not self.cfg.get("setup_only"):
                runner.measure()
        finally:
            runner.close()
        self.out.update(attempted=self.tally.attempted, failures=self.tally.failures)
        return self.out


def traced(body):
    """Run ``body()`` with the layer proxies installed; returns (value, recorder)."""
    from spans import Recorder

    recorder = Recorder()
    recorder.install()
    try:
        return body(), recorder
    finally:
        recorder.uninstall()


class OpRun:
    """One batch operation: a solve from network to CSF, checked against its pin."""

    def __init__(self, child: Child) -> None:
        self.child = child
        self.pool = None

    def setup(self) -> None:
        from repro.bench.suite import case_by_name
        from repro.eqn.solver import solve_latch_split  # noqa: F401 - import cost

        with open(os.path.join(HERE, "pins.json")) as fh:
            pins = json.load(fh)["ops"]
        self.op = self.child.cfg["op"]
        self.pin = pins.get(self.op)
        _, case_name, self.conf = next(
            entry for entry in BATCH_OPS if entry[0] == self.op
        )
        case = case_by_name(case_name)
        self.net, self.x_latches = case.network(), list(case.x_latches)
        if self.conf.get("shards"):
            from repro.shard.pool import ShardPool

            self.pool = ShardPool(self.conf["shards"], [])

    def solve(self, scratch: str):
        from repro.eqn.solver import solve_equation, solve_latch_split

        net, x_latches, conf = self.net, self.x_latches, dict(self.conf)
        if "resident_budget" in conf:
            conf["spill_dir"] = os.path.join(scratch, "spill")
        if conf.get("checkpoint_every"):
            sink = os.path.join(scratch, "checkpoint.pkl")

            def write_snapshot(snapshot: dict) -> None:
                tmp = sink + ".tmp"
                with open(tmp, "wb") as fh:
                    pickle.dump(snapshot, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, sink)

            conf["checkpoint"] = write_snapshot
        if self.pool is None:
            return solve_latch_split(net, x_latches, **conf)
        # The warm pool, reset per problem the way the job server does it.
        from repro.eqn.problem import build_problem
        from repro.network.transform import latch_split

        problem = build_problem(latch_split(net, x_latches))
        mgr = problem.manager
        self.pool.reset(
            mgr.var_order(),
            gc=mgr.gc_policy.mode,
            reorder=mgr.reorder_policy.mode,
            max_nodes=mgr.max_nodes,
        )
        return solve_equation(problem, pool=self.pool, **conf)

    def timed_solve(self) -> tuple[object, float, float]:
        scratch = os.path.join(self.child.workdir, "op")
        os.makedirs(scratch)
        try:
            t0 = time.perf_counter()
            result = self.solve(scratch)
            return result, t0, time.perf_counter()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def measure(self) -> None:
        child = self.child
        try:
            if child.cfg.get("trace"):
                (result, t0, t1), recorder = traced(self.timed_solve)
                child.out["layers"] = summarize_trace(recorder, [(t0, t1)])
                recorder.dump(os.path.join(child.cfg["trace_dir"], f"{self.op}.json"))
            else:
                result, t0, t1 = self.timed_solve()
        except Exception as exc:  # a CNC or a crash is a failed operation
            child.tally.fail(f"{self.op}: {type(exc).__name__}: {exc}")
            return
        child.out["seconds"] = t1 - t0
        child.tally.check(self.op, pin_of(result), self.pin)
        if self.pool is not None:
            child.out["worker_private_kb"] = worker_private_kb()
            child.out["self_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def worker_private_kb() -> list[int]:
    """Private resident memory of each live child process, in KiB.

    ``Private_Clean + Private_Dirty`` of ``/proc/<pid>/smaps_rollup``:
    the pages a worker does not share with the coordinator it was forked
    from, so adding it to the coordinator's own peak counts no page
    twice.  Read right after the solve, while the workers still hold
    their share of it.
    """
    import multiprocessing

    out = []
    for proc in multiprocessing.active_children():
        kb = 0
        try:
            with open(f"/proc/{proc.pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith(("Private_Clean:", "Private_Dirty:")):
                        kb += int(line.split()[1])
        except OSError:
            continue
        out.append(kb)
    return out


def summarize_trace(recorder, windows, extra_spans=()) -> dict:
    """Totals over ``windows`` of the layer partition, span counts and counters."""
    from spans import attribute, durations, proxy_cost

    spans = recorder.spans
    all_spans = list(spans) + list(extra_spans)
    layers: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_call: dict[str, list[float]] = {"serve.submit": [], "serve.result": []}
    wall = 0.0
    for t0, t1 in windows:
        wall += t1 - t0
        for layer, seconds in attribute(all_spans, t0, t1).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        for _, _, layer, s0, _, _ in all_spans:
            if t0 <= s0 < t1:
                calls[layer] = calls.get(layer, 0) + 1
        for layer, values in per_call.items():
            values.extend(durations(spans, layer, t0, t1))
    return {
        "wall": wall,
        "self": layers,
        "calls": calls,
        "counters": dict(recorder.counters),
        "peaks": dict(recorder.peaks),
        "per_call": per_call,
        "proxy_cost": [proxy_cost()],
    }


def job_stamps(events: list[dict]) -> dict:
    """Queue wait and run time of one job from its events' ``mono`` stamps."""
    mono = {}
    for event in events:
        key = event.get("status") or event["type"]
        mono.setdefault(key, event["mono"])
    return {
        "queue_wait": mono["running"] - mono["queued"],
        "run": mono["done"] - mono["running"],
    }


class ServeRun:
    """``serve``: one closed-loop client against ``repro serve`` in a subprocess."""

    def __init__(self, child: Child) -> None:
        self.child = child
        self.server = None
        self.servers_started = 0
        self.cold_results: list[dict[int, str]] = []

    def setup(self) -> None:
        from repro.bench import circuits
        from repro.bench.suite import case_by_name
        from repro.network.blif import write_blif
        from repro.serve.client import ServeClient  # noqa: F401 - import cost

        problems = [
            (f"rand7s{s}", circuits.random_network(2, 7, 2, seed=s), SERVE_X_LATCHES)
            for s in SERVE_RANDOM_SEEDS
        ]
        for name in ("count6", "johnson8"):
            case = case_by_name(name)
            problems.append((name, case.network(), tuple(case.x_latches)))
        self.problems = [
            (name, {"blif": write_blif(net), "x_latches": list(x)})
            for name, net, x in problems
        ]
        self.start_server(traced=bool(self.child.cfg.get("trace")))

    # -- the server process ----------------------------------------------- #

    def start_server(self, traced: bool) -> None:
        from repro.serve.client import ServeClient

        self.servers_started += 1
        tag = f"srv{self.servers_started}"
        cache = os.path.join(self.child.workdir, tag)
        serve_args = ["serve", "--cache-dir", cache, "--port", "0"]
        if traced:
            self.spans_file = os.path.join(self.child.workdir, tag + "-spans.json")
            cmd = [
                sys.executable,
                os.path.join(HERE, "traced_server.py"),
                self.spans_file,
                *serve_args,
            ]
        else:
            self.spans_file = None
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.server = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=env, text=True
        )
        line = self.server.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.split("listening on ", 1)[1].strip()
        self.client = ServeClient(url, timeout=60.0)
        while True:
            try:
                if self.client.health().get("ok"):
                    break
            except Exception:
                time.sleep(0.01)

    def stop_server(self) -> int:
        """Shut the server down; returns its peak RSS in KiB (``wait4``)."""
        from http.client import HTTPException

        from repro.errors import ServeError

        server = self.server
        try:
            self.client.shutdown()
        except (ServeError, HTTPException, OSError):
            # The server may exit before its reply is fully written.
            pass
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(server.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                server.kill()
                _, status, usage = os.wait4(server.pid, 0)
                break
            time.sleep(0.01)
        server.returncode = os.waitstatus_to_exitcode(status)
        server.stdout.close()
        self.server = None
        if server.returncode != 0:
            raise RuntimeError(f"server exited with {server.returncode}")
        return usage.ru_maxrss

    # -- measuring -------------------------------------------------------- #

    def measure(self) -> None:
        trace = bool(self.child.cfg.get("trace"))
        passes = self.passes(self.child.cfg["seconds"], trace=trace)
        if trace:
            self.child.out["layers"] = self.layers(passes)
        self.child.out["passes"] = passes
        self.check_cold()

    def passes(self, seconds: float, *, trace: bool) -> list[dict]:
        """Whole passes until ``seconds`` have passed (at least one)."""
        passes: list[dict] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            if trace:
                data, recorder = traced(lambda: self.one_pass(len(passes), traced=True))
                data["client_spans"] = recorder.spans
            else:
                data = self.one_pass(len(passes), traced=False)
            passes.append(data)
        return passes

    def one_pass(self, index: int, *, traced: bool) -> dict:
        """One job stream against a fresh server (fresh cache)."""
        if self.server is None:
            self.start_server(traced=traced)
        client = self.client
        stream = serve_stream(self.child.seed, len(self.problems), index)
        first: dict[int, str] = {}
        hits, colds, stamps = [], [], []
        t_begin = time.perf_counter()
        for index in stream:
            name, body = self.problems[index]
            expect_cold = index not in first
            t0 = time.perf_counter()
            try:
                job = client.submit(body)
                while job["status"] not in ("done", "failed", "cancelled"):
                    time.sleep(SERVE_POLL_S)
                    job = client.job(job["id"])
                if job["status"] != "done":
                    raise RuntimeError(f"job {job['status']}: {job['error']}")
                result = client.result(job["id"])
                latency = time.perf_counter() - t0
            except Exception as exc:
                self.child.tally.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            if result["cached"] == expect_cold:
                kind = "cold" if expect_cold else "repeat"
                self.child.tally.fail(f"{name}: cached={result['cached']} on a {kind} job")
                continue
            if expect_cold:
                # Checked against an in-process solve in check_cold().
                first[index] = result["kiss"]
                colds.append(latency)
                if traced:
                    stamps.append(job_stamps(client.events(job["id"])["events"]))
            else:
                hits.append(latency)
                self.child.tally.check(f"{name} hit", result["kiss"], first[index])
        t_end = time.perf_counter()
        self.cold_results.append(first)
        spans_file = self.spans_file
        out = {
            "hits": hits,
            "colds": colds,
            "stamps": stamps,
            "stream_t0": t_begin,
            "stream_t1": t_end,
            "server_maxrss_kb": self.stop_server(),
        }
        if traced:
            with open(spans_file) as fh:
                out["server_trace"] = json.load(fh)
        return out

    def layers(self, passes: list[dict]) -> dict:
        """The traced passes' partition: client and server spans together."""
        from spans import Recorder

        merged = Recorder()
        client_spans, server_spans = [], []
        for p in passes:
            client_spans += [tuple(x) for x in p.pop("client_spans")]
            server = p.pop("server_trace")
            server_spans += [tuple(x) for x in server["spans"]]
            for k, v in server["counters"].items():
                merged.add(k, v)
            for k, v in server["peaks"].items():
                merged.peak(k, v)
        merged.spans = client_spans
        # A pass window is its job stream: server start and stop are
        # outside it, like set-up.
        windows = [(p["stream_t0"], p["stream_t1"]) for p in passes]
        layers = summarize_trace(merged, windows, server_spans)
        layers["stamps"] = [s for p in passes for s in p["stamps"]]
        with open(os.path.join(self.child.cfg["trace_dir"], "serve.json"), "w") as fh:
            json.dump({"client": client_spans, "server": server_spans}, fh)
        return layers

    def check_cold(self) -> None:
        """Check every cold result against an in-process solve of its spec."""
        from repro.automata.kiss import write_kiss
        from repro.eqn.solver import solve_latch_split
        from repro.network.blif import parse_blif
        from repro.serve.keys import job_spec

        reference: dict[int, str] = {}
        for first in self.cold_results:
            for index, kiss in first.items():
                if index not in reference:
                    body = self.problems[index][1]
                    spec = job_spec(body["blif"], body["x_latches"])
                    res = solve_latch_split(parse_blif(spec["blif"]), spec["x_latches"])
                    reference[index] = write_kiss(res.csf)
                self.child.tally.check(
                    f"{self.problems[index][0]} cold", kiss, reference[index]
                )

    def close(self) -> None:
        if self.server is not None:
            self.stop_server()


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        cfg = json.load(fh)
    out = Child(cfg).run()
    tmp = cfg["out"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, cfg["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
