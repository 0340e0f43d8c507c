"""The repository benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/repro`` must exist).  The
workload runs in a fresh child process (``workloads.py``) so its memory
figure is its own; set-up is sampled in extra set-up-only children and
reported as the median.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` measures the same passes with the layer proxies installed
and prints their per-layer split.  The last line of
standard output is the JSON result; the line before it is run metadata.
Metric definitions are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import geomean, tail  # noqa: E402

WORKLOADS = ("batch", "serve")
#: Extra set-up-only children per untraced run, beside the measuring ones.
SETUP_PROBES = 6
#: Every child must be done this long after the run starts, in seconds.
RUN_DEADLINE_S = 170.0
#: The layer self times plus ``other_s`` must equal the traced wall
#: within this share of it (they agree by construction; the check guards
#: the attribution code).
PARTITION_TOLERANCE = 1e-6

#: Span layer -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "bdd.gc": "bdd.gc_s",
    "eqn.oracle_setup": "eqn.oracle_setup_s",
    "eqn.expand": "eqn.expand_s",
    "eqn.subset": "eqn.subset_self_s",
    "residency.spill": "residency.spill_s",
    "residency.reload": "residency.reload_s",
    "residency.lookup": "residency.lookup_s",
    "shard.submit": "shard.submit_s",
    "shard.wait": "shard.wait_s",
    "network.split": "network.split_s",
    "eqn.build": "eqn.build_s",
    "automata.extract": "automata.extract_s",
    "serve.submit": "serve.submit_s",
    "serve.poll": "serve.poll_s",
    "serve.result": "serve.result_s",
    "serve.keys": "serve.keys_s",
    "serve.store": "serve.store_s",
    "serve.payload": "serve.payload_s",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest(root: str) -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_rev(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Spawns workload children and reaps them with their own rusage."""

    def __init__(self, root: str, args, workdir: str, deadline: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        # TMPDIR keeps any temporary file of the program inside the checkout.
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), HERE]),
            TMPDIR=workdir,
        )
        self.trace_dir = os.path.join(root, ".perfbench-out", args.workload)
        self.count = 0

    def child(self, **extra) -> tuple[dict, float, object]:
        """Run one child; returns (its result, its spawn time, its rusage)."""
        self.count += 1
        tag = f"child{self.count}"
        cwork = os.path.join(self.workdir, tag)
        os.makedirs(cwork)
        os.makedirs(self.trace_dir, exist_ok=True)
        cfg = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": bool(self.args.trace),
            "workdir": cwork,
            "trace_dir": self.trace_dir,
            "out": os.path.join(cwork, "result.json"),
            **extra,
        }
        cfg_path = os.path.join(cwork, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workloads.py"), cfg_path],
            env=self.env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    raise RuntimeError(f"{tag} overran the run deadline")
                time.sleep(0.02)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            # Whatever the child left behind (a server, shard workers).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        if proc.returncode != 0:
            raise RuntimeError(f"{tag} exited with {proc.returncode}")
        with open(cfg["out"]) as fh:
            return json.load(fh), t_spawn, usage


# --------------------------------------------------------------------------- #
# Running a workload
# --------------------------------------------------------------------------- #


def setup_probes(runner: Runner, args, **cfg) -> list[float]:
    """Set-up times of :data:`SETUP_PROBES` set-up-only children (untraced runs)."""
    samples = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe, t_spawn, _ = runner.child(setup_only=True, **cfg)
        samples.append(probe["t_first"] - t_spawn)
    return samples


def batch_passes(runner: Runner, ops: list[str], seconds: float, trace: bool) -> list:
    """Whole passes over ``ops``, one child per solve, until ``seconds`` pass."""
    passes: list[list[dict]] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        one = []
        for op in ops:
            res, t_spawn, usage = runner.child(mode="op", op=op, trace=trace)
            res["op"] = op
            res["setup"] = res["t_first"] - t_spawn
            if "worker_private_kb" in res:  # shard: the coordinator plus its workers
                res["maxrss_kb"] = res["self_maxrss_kb"] + sum(res["worker_private_kb"])
            else:
                res["maxrss_kb"] = usage.ru_maxrss
            one.append(res)
        passes.append(one)
    return passes


def run_batch(runner: Runner, args) -> tuple[dict, dict, dict]:
    from workloads import BATCH_OPS, seeded_order

    ops = seeded_order([op for op, _, _ in BATCH_OPS], args.seed)
    setups = setup_probes(runner, args, mode="op", op=ops[0])
    passes = batch_passes(runner, ops, args.seconds, trace=bool(args.trace))
    children = [r for p in passes for r in p]
    raw = {"children": children}
    if args.trace:
        raw["layers"] = merge_layers([r["layers"] for r in children if "layers" in r])
        raw["layers"]["passes"] = len(passes)
        return {}, {"passes": len(passes)}, raw
    setups += [r["setup"] for r in children]
    times: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    for r in children:
        if "seconds" in r:
            times.setdefault(r["op"], []).append(r["seconds"])
        rss.setdefault(r["op"], []).append(r["maxrss_kb"] / 1024)
    op_s = {op: median(v) for op, v in sorted(times.items())}
    op_rss = {op: median(v) for op, v in sorted(rss.items())}
    part = [v for op, v in op_s.items() if not op.endswith("@mono")]
    mono = [v for op, v in op_s.items() if op.endswith("@mono")]
    if not part:
        raise RuntimeError("no partitioned solve completed")
    metrics = {
        "setup_s": (median(setups), "s"),
        "solve_s": (sum(part), "s"),
        "solve_geomean_s": (geomean(part), "s"),
        "peak_rss_mb": (geomean(list(op_rss.values())), "MB"),
    }
    meta = {
        "passes": len(passes),
        "setup_samples_s": setups,
        "op_median_s": op_s,
        "op_peak_rss_mb": op_rss,
        "mono_solve_s": sum(mono),
    }
    return metrics, meta, raw


def run_serve(runner: Runner, args) -> tuple[dict, dict, dict]:
    setups = setup_probes(runner, args, mode="serve")
    res, t_spawn, _ = runner.child(mode="serve", trace=bool(args.trace))
    setups.append(res["t_first"] - t_spawn)
    passes = res["passes"]
    raw = {"children": [res]}
    if args.trace:
        raw["layers"] = res["layers"]
        raw["layers"]["passes"] = len(passes)
        n_hits = sum(len(p["hits"]) for p in passes)
        n_colds = sum(len(p["colds"]) for p in passes)
        raw["layers"]["cache_hit_ratio"] = n_hits / (n_hits + n_colds)
        return {}, {"passes": len(passes)}, raw
    totals, geos, rss, rates = [], [], [], []
    hit_tails, cold_tails = [], []
    for p in passes:
        jobs = p["hits"] + p["colds"]
        totals.append(sum(jobs))
        geos.append(geomean(jobs))
        rss.append(p["server_maxrss_kb"] / 1024)
        rates.append(len(jobs) / (p["stream_t1"] - p["stream_t0"]))
        hit_tails.append(tail(p["hits"]))
        cold_tails.append(tail(p["colds"]))
    metrics = {
        "setup_s": (median(setups), "s"),
        "solve_s": (median(totals), "s"),
        "solve_geomean_s": (median(geos), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    meta = {
        "passes": len(passes),
        "setup_samples_s": setups,
        "jobs_per_pass": len(passes[0]["hits"]) + len(passes[0]["colds"]),
        "jobs_per_s": median(rates),
        "hit_p50_ms": 1000 * median([x for p in passes for x in p["hits"]]),
        "cold_p50_ms": 1000 * median([x for p in passes for x in p["colds"]]),
        "pass_solve_s": totals,
        "pass_peak_rss_mb": rss,
        "hit_samples_per_pass": [len(p["hits"]) for p in passes],
        "cold_samples_per_pass": [len(p["colds"]) for p in passes],
    }
    for kind, tails in (("hit", hit_tails), ("cold", cold_tails)):
        if all(t is not None for t in tails):
            meta[f"{kind}_tail_ms"] = 1000 * median([t[0] for t in tails])
            meta[f"{kind}_tail_percentile"] = tails[0][1]
    return metrics, meta, raw


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #


def merge_layers(parts: list[dict]) -> dict:
    """Sum the per-child layer totals (peaks take the maximum)."""
    out = {"wall": 0.0, "self": {}, "calls": {}, "counters": {}, "peaks": {}, "per_call": {},
           "proxy_cost": []}
    for part in parts:
        out["wall"] += part["wall"]
        out["proxy_cost"] += part["proxy_cost"]
        for key in ("self", "calls", "counters"):
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, v in part["peaks"].items():
            out["peaks"][k] = max(out["peaks"].get(k, v), v)
        for k, v in part["per_call"].items():
            out["per_call"].setdefault(k, []).extend(v)
    return out


def layer_metrics(layers: dict) -> tuple[dict, list[str]]:
    """Per-pass per-layer metrics of the traced passes, plus partition problems."""
    n = layers["passes"]
    self_s = {k: v / n for k, v in layers["self"].items()}
    calls = {k: v / n for k, v in layers["calls"].items()}
    counters = {k: v / n for k, v in layers["counters"].items()}
    wall = layers["wall"] / n
    problems = []
    total = sum(self_s.values())
    if abs(total - wall) > PARTITION_TOLERANCE * max(wall, 1.0):
        problems.append(f"layer self times sum to {total} s, traced wall is {wall} s")
    if any(v < 0 for v in self_s.values()):
        problems.append(f"negative self time in {self_s}")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms(values: list[float]) -> float:
        return 1000 * median(values) if values else 0.0

    c = counters.get
    m: dict[str, tuple[float, str]] = {
        name: (self_s.get(layer, 0.0), "s") for layer, name in SELF_TIME_METRICS.items()
    }
    per_call, stamps = layers["per_call"], layers.get("stamps", [])
    m.update({
        "other_s": (self_s.get("other", 0.0), "s"),
        "wall_s": (wall, "s"),
        "trace_overhead_s": (sum(calls.values()) * median(layers["proxy_cost"]), "s"),
        "bdd.kernel_calls": (c("bdd.kernel_calls", 0), "count"),
        "bdd.cache_hit_ratio": (
            ratio(c("bdd.cache_hits", 0), c("bdd.cache_hits", 0) + c("bdd.cache_misses", 0)),
            "ratio",
        ),
        "bdd.gc_runs": (c("bdd.gc_runs", 0), "count"),
        "bdd.gc_reclaim_ratio": (ratio(c("bdd.gc_ratio_sum", 0), c("bdd.gc_runs", 0)), "ratio"),
        "bdd.live_nodes_peak": (layers["peaks"].get("bdd.live_nodes_peak", 0), "count"),
        "eqn.expand_calls": (calls.get("eqn.expand", 0), "count"),
        "eqn.memo_hit_ratio": (
            ratio(c("eqn.memo_hits", 0), c("eqn.memo_hits", 0) + c("eqn.memo_misses", 0)),
            "ratio",
        ),
        "eqn.subsets": (c("eqn.subsets", 0), "count"),
        "eqn.edges": (c("eqn.edges", 0), "count"),
        "eqn.batches": (c("eqn.batches", 0), "count"),
        "residency.spills": (c("residency.spills", 0), "count"),
        "residency.reloads": (c("residency.reloads", 0), "count"),
        "residency.spill_bytes": (c("residency.spill_bytes", 0), "bytes"),
        "shard.commands": (calls.get("shard.submit", 0), "count"),
        "shard.psi_serializations": (c("shard.psi_serializations", 0), "count"),
        "serve.submit_ms": (ms(per_call.get("serve.submit", [])), "ms"),
        "serve.result_ms": (ms(per_call.get("serve.result", [])), "ms"),
        "serve.queue_wait_ms": (ms([s["queue_wait"] for s in stamps]), "ms"),
        "serve.run_ms": (ms([s["run"] for s in stamps]), "ms"),
        "serve.cache_hit_ratio": (layers.get("cache_hit_ratio", 0.0), "ratio"),
    })
    return m, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its children's process groups (the
    # ``finally`` in Runner.child) and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return fail(f"no program source under {os.path.join(root, 'src')}; "
                    "run from the root of a source checkout")
    workdir = os.path.join(root, ".perfbench-tmp", f"run-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(root, args, workdir, time.monotonic() + RUN_DEADLINE_S)
    try:
        run = run_serve if args.workload == "serve" else run_batch
        metrics, extra, raw = run(runner, args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in raw["children"] for f in r["failures"]]
    attempted = sum(r["attempted"] for r in raw["children"])
    if args.trace:
        metrics, problems = layer_metrics(raw["layers"])
        failures += problems
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        **extra,
        "failed_frac": len(failures) / attempted if attempted else 1.0,
    }
    if args.workload == "serve":
        from workloads import SERVE_POLL_S

        meta["serve_poll_s"] = SERVE_POLL_S
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
