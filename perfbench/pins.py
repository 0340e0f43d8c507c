"""Record or check the result pins of the batch workloads.

``pins.json`` holds, for every batch operation, the figures that define
its result: subset states, CSF states and the SHA-256 of the CSF's KISS
text.  Every benchmark run checks each solve against them.  ``--write``
records them by running each operation as a run does (``OpRun``), and
checks that every configured operation (budget, shards, monolithic)
gives a CSF language equivalent to the plain partitioned one.

    PYTHONPATH=src python3 perfbench/pins.py --write     # re-record
    PYTHONPATH=src python3 perfbench/pins.py --explicit  # one-off check

``--explicit`` solves the Table 1 instances with the explicit
Algorithm 1 solver too and records whether its CSF is language
equivalent to the pinned partitioned one.  The check is recorded, not
repeated on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import BATCH_OPS, HERE, pin_of

PINS = os.path.join(HERE, "pins.json")

#: Instances whose explicit cross-check is attempted.
EXPLICIT_CASES = ("s27", "count6", "johnson8", "rand10")


def record() -> tuple[dict, dict]:
    """Pin every batch operation, solved the way a benchmark run solves it.

    Returns the pins and, for every configured operation (an op name with
    ``@``), whether its CSF is language equivalent to the CSF of the
    in-process partitioned solve of the same instance.  A configuration
    whose KISS text differs (a different state numbering) is pinned only
    once that check holds.
    """
    import tempfile

    from repro.automata.kiss import write_kiss
    from repro.eqn.solver import solve_latch_split

    from workloads import Child, OpRun

    pins, kiss = {}, {}
    for op, _, _ in BATCH_OPS:
        with tempfile.TemporaryDirectory(dir=HERE) as workdir:
            run = OpRun(Child({"workload": "batch", "seed": 0, "workdir": workdir,
                               "mode": "op", "op": op}))
            try:
                run.setup()
                result, _, _ = run.timed_solve()
            finally:
                run.close()
        pins[op] = pin_of(result)
        kiss[op] = write_kiss(result.csf)
        print(f"{op:28s} {pins[op]}", flush=True)
    verdicts = {}
    for op, case_name, _ in BATCH_OPS:
        if "@" not in op:
            continue
        if case_name not in kiss:
            from repro.bench.suite import case_by_name

            case = case_by_name(case_name)
            kiss[case_name] = write_kiss(
                solve_latch_split(case.network(), list(case.x_latches)).csf
            )
        verdicts[op] = kiss_equivalent(kiss[op], kiss[case_name])
        print(f"{op:28s} equivalent to {case_name}: {verdicts[op]}", flush=True)
    return pins, verdicts


def kiss_equivalent(a: str, b: str) -> bool | str:
    """``automata.language.equivalent`` of two KISS texts, on one manager."""
    from repro.automata.kiss import parse_kiss
    from repro.automata.language import equivalent
    from repro.bdd.manager import BddManager

    if a == b:
        return True
    mgr = BddManager()
    try:
        return equivalent(parse_kiss(a, mgr), parse_kiss(b, mgr))
    except Exception as exc:  # RecursionError included
        return f"{type(exc).__name__}: {exc}"[:160]


def explicit_check() -> dict:
    from repro.automata.language import contained_in
    from repro.bench.suite import case_by_name
    from repro.eqn.problem import build_latch_split_problem
    from repro.eqn.solver import solve_equation

    out = {}
    for name in EXPLICIT_CASES:
        case = case_by_name(name)
        problem = build_latch_split_problem(case.network(), list(case.x_latches))
        t0 = time.perf_counter()
        part = solve_equation(problem, method="partitioned")
        expl = solve_equation(problem, method="explicit")
        entry = {"partitioned_csf_states": part.csf_states,
                 "explicit_csf_states": expl.csf_states}
        for direction, (a, b) in (("part<=expl", (part.csf, expl.csf)),
                                  ("expl<=part", (expl.csf, part.csf))):
            try:
                entry[direction] = bool(contained_in(a, b))
            except Exception as exc:  # RecursionError included
                entry[direction] = f"{type(exc).__name__}: {exc}"[:160]
        # Both containments are automata.language.equivalent(), kept
        # apart so a failure records which direction raised and why.
        entry["equivalent"] = entry["part<=expl"] is True and entry["expl<=part"] is True
        entry["seconds"] = round(time.perf_counter() - t0, 2)
        out[name] = entry
        print(name, entry, flush=True)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-record the pins")
    parser.add_argument("--explicit", action="store_true",
                        help="cross-check against the explicit solver")
    args = parser.parse_args(argv)
    data = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            data = json.load(fh)
    if args.write:
        data["ops"], data["config_equivalent"] = record()
    if args.explicit:
        data["explicit"] = explicit_check()
    if args.write or args.explicit:
        with open(PINS, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
