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
data. The ratio is informational: no gate reads it.

Every row is **cross-validated before any number is reported**: the
engine's final database must be bit-identical (content and iteration
order) to the eager loop's, and the naive oracle (``check_database``)
must find it clean, as ``repair()``'s ``clean`` flag says. Both sides
are timed best of three.

Usage::

    PYTHONPATH=src python benchmarks/bench_repair.py                 # bank@50k
    PYTHONPATH=src python benchmarks/bench_repair.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_repair.py --json BENCH_repair.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.cleaning.repair import RepairResult, repair
from repro.core.violations import check_database
from repro.datasets.bank import bank_constraints, scaled_bank_instance

from _eager_repair import seed_eager_repair

#: Timed runs per side; the fastest counts.
REPEATS = 3


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


def best_of(fn, *args):
    """``(fastest seconds, last result)`` over :data:`REPEATS` runs."""
    best = float("inf")
    for __ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


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

    seed_s, (reference_db, reference_edits, reference_clean) = best_of(
        seed_eager_repair, db, sigma
    )
    if not reference_clean:
        raise AssertionError("the reference eager loop did not converge")
    reference_snap = snapshot(reference_db)
    print(
        f"reference eager loop: {len(reference_edits)} edits in {seed_s:.3f}s"
    )

    repair_s, result = best_of(repair, db, sigma)  # repair() copies db
    cross_validate(result, reference_snap, sigma)
    row = {
        "rounds": result.rounds,
        "edits": result.cost,
        "violations_fixed": initial_violations,
        "repair_s": repair_s,
        "violations_fixed_per_s": (
            initial_violations / repair_s if repair_s > 0 else float("inf")
        ),
        "worklist_s": sum(s.worklist_s for s in result.round_stats),
        "apply_s": sum(s.apply_s for s in result.round_stats),
        "cross_validated": True,
    }
    engine_over_eager = repair_s / seed_s if seed_s > 0 else float("inf")
    print(
        f"repair engine: {row['rounds']} rounds, {row['edits']} edits, "
        f"{repair_s:.3f}s -> {row['violations_fixed_per_s']:.0f} "
        f"violations-fixed/s (eager loop: {initial_violations / seed_s:.0f}/s)"
    )
    print(f"engine time / eager-loop time: {engine_over_eager:.2f} (informational)")

    if args.json:
        payload = {
            "benchmark": "bench_repair",
            "size": args.size,
            "error_rate": args.error_rate,
            "cpu_count": os.cpu_count(),
            "repeats": REPEATS,
            "initial_violations": initial_violations,
            "seed_loop_s": seed_s,
            "repair": row,
            "engine_over_eager": engine_over_eager,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
