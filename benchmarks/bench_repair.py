#!/usr/bin/env python
"""Repair-engine benchmark: end-to-end repair time against the eager loop.

The repair engine plans every round's CFD rewrites and CIND
inserts/deletes up front and applies them as one ``Session.apply``
batch, where the historical loop paid one mutation per violated group.
Each round's worklist is the report of one ``memory`` session whose
``check()`` carries its scan cache forward by the previous round's
batch. This benchmark times ``repair()`` end to end at bank@``--size``
and reports it as violations-fixed/sec and as a ratio over the
historical eager loop (``benchmarks/_eager_repair.py``) on the same
data; ``--max-engine-over-eager R`` fails the run when that ratio
exceeds ``R``. The ``repair`` block also splits the engine's time (its
last timed run) by phase: the cold check that built the first worklist,
then, summed over rounds, the planning, the batches and the carried
checks after them. A round's carried check is also the next round's
worklist, so it is counted once and the phases do not overlap.

Every row is **cross-validated before any number is reported**: the
engine's final database must be bit-identical (content and iteration
order) to the eager loop's, and the naive oracle (``check_database``)
must find it clean, as ``repair()``'s ``clean`` flag says. After one
untimed warm-up run each, the two sides run back to back in
:data:`REPEATS` pairs (:data:`QUICK_REPEATS` at the ``--quick`` size),
alternating which goes first. Each side's time is its median run, and
engine over eager-loop time the median of the pairs' ratios, so a slow
or fast spell of the machine moves both halves of a pair alike.

Usage::

    PYTHONPATH=src python benchmarks/bench_repair.py                 # bank@50k
    PYTHONPATH=src python benchmarks/bench_repair.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_repair.py --json BENCH_repair.json
    PYTHONPATH=src python benchmarks/bench_repair.py --quick --max-engine-over-eager 1.0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

from repro.cleaning.repair import RepairResult, repair
from repro.core.violations import check_database
from repro.datasets.bank import bank_constraints, scaled_bank_instance

from _eager_repair import seed_eager_repair

#: Timed pairs of runs.
REPEATS = 3
#: Timed pairs at the ``--quick`` size, where a run lasts about 6 ms and
#: one scheduling delay can move a single pair's ratio by a third.
QUICK_REPEATS = 30


def snapshot(db):
    return {name: list(inst.rows()) for name, inst in db.relations().items()}


def cross_validate(result: RepairResult, reference_snap, sigma) -> None:
    if snapshot(result.db) != reference_snap:
        raise AssertionError(
            "repair: final database differs from the historical eager "
            "repair loop"
        )
    oracle_clean = check_database(result.db, sigma).is_clean
    if result.clean != oracle_clean or not oracle_clean:
        raise AssertionError(
            f"repair: clean={result.clean} but the naive oracle says "
            f"clean={oracle_clean}"
        )


def timed_pairs(repeats: int, eager, engine):
    """Run the zero-argument callables *eager* and *engine* once each
    untimed, then in *repeats* back-to-back pairs, alternating which goes
    first; return each side's run times (seconds, pair by pair) and its
    last result."""
    sides = (eager, engine)
    times: tuple[list[float], list[float]] = ([], [])
    last: list = [None, None]
    for pair in range(-1, repeats):
        for i in (0, 1) if pair % 2 == 0 else (1, 0):
            last[i] = None  # hold one result per side at a time
            start = time.perf_counter()
            last[i] = sides[i]()
            if pair >= 0:
                times[i].append(time.perf_counter() - start)
    return times, last


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=int, default=50_000,
        help="bank accounts in the dirty instance (default 50000)",
    )
    parser.add_argument(
        "--error-rate", type=float, default=0.05,
        help="fraction of seeded errors (default 0.05)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke size: bank@2000",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write results as JSON to PATH (e.g. BENCH_repair.json)",
    )
    parser.add_argument(
        "--max-engine-over-eager", type=float, default=None, metavar="R",
        help="exit non-zero when engine time over eager-loop time exceeds R",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.size = 2_000

    sigma = bank_constraints()
    db = scaled_bank_instance(args.size, error_rate=args.error_rate, seed=7)
    initial_violations = check_database(db, sigma).total
    print(
        f"bank@{args.size} error_rate={args.error_rate}: "
        f"{initial_violations} initial violations"
    )

    repeats = QUICK_REPEATS if args.quick else REPEATS
    (seed_times, repair_times), (reference, result) = timed_pairs(
        repeats,
        lambda: seed_eager_repair(db, sigma),
        lambda: repair(db, sigma),  # repair() copies db
    )
    seed_s, repair_s = median(seed_times), median(repair_times)
    reference_db, reference_edits, reference_clean = reference
    if not reference_clean:
        raise AssertionError("the reference eager loop did not converge")
    reference_snap = snapshot(reference_db)
    print(
        f"reference eager loop: {len(reference_edits)} edits in {seed_s:.3f}s"
    )
    cross_validate(result, reference_snap, sigma)
    row = {
        "rounds": result.rounds,
        "edits": result.cost,
        "violations_fixed": initial_violations,
        "repair_s": repair_s,
        "violations_fixed_per_s": (
            initial_violations / repair_s if repair_s > 0 else float("inf")
        ),
        "worklist_s": (
            result.round_stats[0].worklist_s if result.round_stats else 0.0
        ),
        "plan_s": sum(s.plan_s for s in result.round_stats),
        "apply_s": sum(s.apply_s for s in result.round_stats),
        "after_s": sum(s.after_s for s in result.round_stats),
        "cross_validated": True,
    }
    engine_over_eager = median(
        engine / eager for engine, eager in zip(repair_times, seed_times)
    )
    print(
        f"repair engine: {row['rounds']} rounds, {row['edits']} edits, "
        f"{repair_s:.3f}s -> {row['violations_fixed_per_s']:.0f} "
        f"violations-fixed/s (eager loop: {initial_violations / seed_s:.0f}/s)"
    )
    print(
        f"  worklist {row['worklist_s']:.3f}s, plan {row['plan_s']:.3f}s, "
        f"apply {row['apply_s']:.3f}s, after {row['after_s']:.3f}s"
    )
    print(f"engine time / eager-loop time: {engine_over_eager:.2f}")

    if args.json:
        payload = {
            "benchmark": "bench_repair",
            "size": args.size,
            "error_rate": args.error_rate,
            "cpu_count": os.cpu_count(),
            "repeats": repeats,
            "initial_violations": initial_violations,
            "seed_loop_s": seed_s,
            "repair": row,
            "engine_over_eager": engine_over_eager,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    limit = args.max_engine_over_eager
    if limit is not None and engine_over_eager > limit:
        print(
            f"FAIL: engine time / eager-loop time {engine_over_eager:.2f} "
            f"exceeds {limit:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
