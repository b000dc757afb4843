#!/usr/bin/env python
"""Shared-scan engine vs naive per-constraint detection (Table 1/2 workload).

The paper's detection experiments run Σ with many constraints per relation
over instances of 10k–100k+ tuples. This benchmark builds *dense*
constraint sets (≥ 10 constraints per hot relation) on both ready-made
dataset generators and times three evaluations of the same workload:

* ``naive``  — :func:`repro.core.violations.check_database_naive`, one scan
  per pattern row (the reference oracle);
* ``engine`` — :func:`repro.engine.detect`, cold columnar shared scans,
  full materialization (plan time included, no cache; each repeat runs on
  a fresh db copy so instance-level view/index memos can't leak in);
* ``count``  — :func:`repro.engine.count_violations`, the count-only fast
  path (no violation objects);
* ``warm``   — a persistent ``repro.api.connect(db, sigma)`` session's
  *second* ``check()``: the versioned ScanCache replays memoized hit
  lists for the unchanged database instead of scanning;
* ``sqlfile``/``sqlfile_warm`` — the out-of-core backend over a sqlite
  file built from the same data: cold = a fresh session's first
  ``check()`` (the CFD prefilter and the CIND anti-joins run inside
  sqlite, the engine's kernel decides the candidate keys' rows), warm =
  the same session's second ``check()`` (its scan cache, kept while
  ``PRAGMA data_version`` stands, skips SQL entirely).

Three rows per size cover the CFD kernel's ``X``-key regimes: ``bank``
(every ``saving``/``checking`` row is its own ``(an, ab)`` group, so no
RHS is compared), ``bank-dupkeys`` (the same data with 1% of those rows
re-inserted under their ``(an, ab)`` with another ``cn``, so only the
repeated keys' rows are compared) and ``commerce`` (8 ``orders(item)``
keys, so every row is). ``bank-dupkeys`` is informational
(``"informational": true`` in the JSON): no gate and neither the
largest nor the worst selection reads it.

Every run first cross-validates that engine, warm, sqlfile and naive
produce identical violation lists, order-sensitively — bit-identical
including list order. Exit status is non-zero on mismatch or (with
``--min-speedup`` / ``--min-warm-speedup`` /
``--min-sqlfile-warm-speedup``) when a speedup falls short.
``--json PATH`` writes the rows as machine-readable JSON (the CI
regression job keeps
``BENCH_detection.json`` as an artifact); every row records
``cpu_count`` and ``sqlite_version`` so a number can never be quoted
without the hardware that produced it.

Usage::

    PYTHONPATH=src python benchmarks/bench_detection.py            # full run
    PYTHONPATH=src python benchmarks/bench_detection.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

from repro.api import connect
from repro.sql.loader import create_database_file
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database_naive
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import (
    commerce_constraints,
    commerce_instance,
)
from repro.engine import count_violations, detect, plan_detection
from repro.relational.values import WILDCARD as _

ERROR_RATE = 0.03


def dense_bank_constraints(extra: int = 12) -> ConstraintSet:
    """Σ_bank plus *extra* CFDs and CINDs per hot relation.

    The additions deliberately share scan keys: the CFDs reuse the
    ``(an, ab)`` and ``(ab,)`` LHS groups, the CINDs reuse the ψ5/ψ6-style
    witness buckets on ``interest`` — the shape the engine exploits.
    """
    sigma = bank_constraints()
    schema = sigma.schema
    interest = schema.relation("interest")
    branches = ("NYC", "EDI")
    rhs_cycle = ("cn", "ca", "cp")
    for rel_name in ("saving", "checking"):
        rel = schema.relation(rel_name)
        for i in range(extra):
            branch = (branches + (_,))[i % 3]
            sigma.add_cfd(
                CFD(
                    rel,
                    ("an", "ab"),
                    (rhs_cycle[i % 3],),
                    [((_, branch), (_,))],
                    name=f"x_{rel_name}_cfd{i}",
                )
            )
        for i in range(extra):
            branch = branches[i % 2]
            at = ("saving", "checking")[(i // 2) % 2]
            sigma.add_cind(
                CIND(
                    rel,
                    (),
                    ("ab",),
                    interest,
                    (),
                    ("ab", "at"),
                    [((branch,), (branch, at))],
                    name=f"x_{rel_name}_cind{i}",
                )
            )
    return sigma


def dense_commerce_constraints(extra: int = 12) -> ConstraintSet:
    """Σ_commerce plus per-sku price CFDs and per-country shipping CINDs."""
    sigma = commerce_constraints()
    schema = sigma.schema
    orders = schema.relation("orders")
    catalog = schema.relation("catalog")
    shipping = schema.relation("shipping")
    prices = {f"sku{i}": str(10 + 3 * i) for i in range(8)}
    for i in range(extra):
        sku = f"sku{i % 8}"
        sigma.add_cfd(
            CFD(
                orders,
                ("item",),
                ("price",),
                [((sku,), (prices[sku],))],
                name=f"x_price_{i}",
            )
        )
    countries = ("UK", "FR", "DE", "US", "JP")
    for i in range(extra):
        country = countries[i % len(countries)]
        status = ("shipped", "paid")[(i // len(countries)) % 2]
        sigma.add_cind(
            CIND(
                orders,
                ("country",),
                ("status",),
                shipping,
                ("country",),
                (),
                [((_, status), (_,))],
                name=f"x_ship_{i}",
            )
        )
    for i in range(max(2, extra // 4)):
        status = ("paid", "shipped")[i % 2]
        sigma.add_cind(
            CIND(
                orders,
                ("item",),
                ("status",),
                catalog,
                ("item",),
                (),
                [((_, status), (_,))],
                name=f"x_item_{i}",
            )
        )
    return sigma


def with_duplicate_keys(db, share: float = 0.01, seed: int = 7):
    """A copy of the bank *db* where *share* of the ``saving`` and
    ``checking`` rows are re-inserted under their ``(an, ab)`` with
    another ``cn``: each such key then has two rows that disagree."""
    db = db.copy()
    rng = random.Random(seed)
    for name in ("saving", "checking"):
        relation = db[name]
        (cn,) = relation.schema.positions_of(("cn",))
        rows = [t.values for t in relation]
        for values in rng.sample(rows, round(len(rows) * share)):
            relation.add(values[:cn] + (values[cn] + " (dup)",) + values[cn + 1:])
    return db


def constraints_per_relation(sigma: ConstraintSet) -> dict[str, int]:
    counts: dict[str, int] = {}
    for cfd in sigma.cfds:
        counts[cfd.relation.name] = counts.get(cfd.relation.name, 0) + 1
    for cind in sigma.cinds:
        counts[cind.lhs_relation.name] = counts.get(cind.lhs_relation.name, 0) + 1
    return counts


def _ordered_keys(report):
    """Order-sensitive fingerprint: bit-identical incl. violation-list order."""
    cfd = [
        (report.label_for(v.cfd), v.pattern_index, v.lhs_values,
         tuple(t.values for t in v.tuples), v.kind)
        for v in report.cfd_violations
    ]
    cind = [
        (report.label_for(v.cind), v.pattern_index, v.tuple_.values)
        for v in report.cind_violations
    ]
    return cfd, cind


def _best_time(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for __ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _best_cold_time(db, fn, repeats: int) -> tuple[float, object]:
    """Like :func:`_best_time`, but genuinely cold per repeat.

    Columnar views and hash indexes memoize on the ``RelationInstance``
    itself, so re-running ``fn`` on the same db would time a partially warm
    engine; each repeat gets an untimed fresh copy instead.
    """
    best = float("inf")
    result = None
    for __ in range(repeats):
        fresh = db.copy()
        start = time.perf_counter()
        result = fn(fresh)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_case(
    label: str,
    db,
    sigma: ConstraintSet,
    repeats: int,
    informational: bool = False,
) -> dict:
    plan = plan_detection(sigma)
    per_rel = constraints_per_relation(sigma)
    naive_s, naive_report = _best_cold_time(
        db, lambda d: check_database_naive(d, sigma), repeats
    )
    engine_s, engine_report = _best_cold_time(
        db, lambda d: detect(d, sigma), repeats
    )
    count_s, summary = _best_cold_time(
        db, lambda d: count_violations(d, sigma), repeats
    )

    # Warm recheck: a persistent session's ScanCache replays memoized scan
    # results while the database stands still.
    session = connect(db, sigma)
    warm_report = session.check()  # cold call that fills the cache
    warm_s, warm_report2 = _best_time(session.check, repeats)

    # Out-of-core: the same data as a sqlite file. Cold = a fresh session
    # per repeat (empty scan cache, pushed-down scans run in sqlite);
    # warm = a persistent session's second check (data_version unchanged,
    # every scan unit answers from the cache without touching the file).
    with tempfile.TemporaryDirectory() as tmp:
        db_path = create_database_file(Path(tmp) / "bench.db", db)

        def sqlfile_cold():
            with connect(db_path, sigma, backend="sqlfile") as s:
                return s.check()

        sqlfile_s, sqlfile_report = _best_time(sqlfile_cold, repeats)
        file_session = connect(db_path, sigma, backend="sqlfile")
        sqlfile_warm_report = file_session.check()
        sqlfile_warm_s, sqlfile_warm2 = _best_time(file_session.check, repeats)
        file_session.close()

    expected_ordered = _ordered_keys(naive_report)
    if _ordered_keys(engine_report) != expected_ordered:
        raise AssertionError(f"{label}: engine and naive violation lists differ")
    if (
        _ordered_keys(warm_report) != expected_ordered
        or _ordered_keys(warm_report2) != expected_ordered
    ):
        raise AssertionError(f"{label}: warm-cache and naive violation lists differ")
    if (
        _ordered_keys(sqlfile_report) != expected_ordered
        or _ordered_keys(sqlfile_warm_report) != expected_ordered
        or _ordered_keys(sqlfile_warm2) != expected_ordered
    ):
        raise AssertionError(
            f"{label}: sqlfile and naive violation lists differ"
        )
    if summary.total != naive_report.total:
        raise AssertionError(f"{label}: count-only total differs")

    speedup = naive_s / engine_s if engine_s > 0 else float("inf")
    warm_speedup = engine_s / warm_s if warm_s > 0 else float("inf")
    sqlfile_warm_speedup = (
        sqlfile_s / sqlfile_warm_s if sqlfile_warm_s > 0 else float("inf")
    )
    row = {
        "label": label,
        "tuples": db.total_tuples(),
        "constraints": len(sigma),
        "max_per_relation": max(per_rel.values()),
        "scans_naive": plan.naive_scan_count,
        "scans_engine": plan.shared_scan_count,
        "violations": naive_report.total,
        "cpu_count": os.cpu_count() or 1,
        "sqlite_version": sqlite3.sqlite_version,
        "naive_s": naive_s,
        "engine_s": engine_s,
        "count_s": count_s,
        "warm_s": warm_s,
        "sqlfile_s": sqlfile_s,
        "sqlfile_warm_s": sqlfile_warm_s,
        "speedup": speedup,
        "warm_speedup": warm_speedup,
        "sqlfile_warm_speedup": sqlfile_warm_speedup,
        "informational": informational,
    }
    print(
        f"{label:<22} tuples={row['tuples']:<8} |Σ|={row['constraints']:<4} "
        f"viol={row['violations']:<6} naive={naive_s:.3f}s "
        f"engine={engine_s:.3f}s count={count_s:.3f}s "
        f"warm={warm_s:.4f}s sqlfile={sqlfile_s:.3f}s "
        f"sqlfile_warm={sqlfile_warm_s:.4f}s speedup={speedup:.1f}x "
        f"warm_speedup={warm_speedup:.1f}x "
        f"sqlfile_warm_speedup={sqlfile_warm_speedup:.1f}x"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=[10_000, 50_000],
        help="bank account counts (commerce uses size//2 orders)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny smoke workload (CI): 500 accounts / 250 orders, 1 repeat",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail if any workload's engine speedup is below this",
    )
    parser.add_argument(
        "--min-warm-speedup", type=float, default=0.0,
        help="fail if any workload's cached-recheck speedup over the cold "
        "engine path is below this (1.0 = 'warm must not be slower')",
    )
    parser.add_argument(
        "--min-sqlfile-warm-speedup", type=float, default=0.0,
        help="fail if any workload's warm sqlfile re-check speedup over its "
        "own cold check is below this (the out-of-core cache gate)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the result rows as JSON to PATH (e.g. BENCH_detection.json)",
    )
    args = parser.parse_args(argv)
    sizes = [500] if args.quick else args.sizes
    if not sizes:
        parser.error("--sizes needs at least one value")
    repeats = 1 if args.quick else args.repeats

    bank_sigma = dense_bank_constraints()
    commerce_sigma = dense_commerce_constraints()
    print(
        f"bank Σ: {len(bank_sigma)} constraints, "
        f"max/relation={max(constraints_per_relation(bank_sigma).values())}; "
        f"commerce Σ: {len(commerce_sigma)} constraints, "
        f"max/relation={max(constraints_per_relation(commerce_sigma).values())}"
    )

    rows = []
    for size in sizes:
        db = scaled_bank_instance(size, error_rate=ERROR_RATE, seed=7)
        rows.append(run_case(f"bank/{size}", db, bank_sigma, repeats))
        rows.append(run_case(
            f"bank-dupkeys/{size}", with_duplicate_keys(db), bank_sigma,
            repeats, informational=True,
        ))
        db = commerce_instance(n_orders=max(1, size // 2),
                               error_rate=ERROR_RATE, seed=7)
        rows.append(run_case(f"commerce/{size // 2}", db, commerce_sigma,
                             repeats))

    # The gates and the largest/worst selections read the gated rows only.
    gated = [row for row in rows if not row["informational"]]
    largest = max(gated, key=lambda row: row["tuples"])
    print(
        f"\nlargest workload ({largest['label']}): {largest['speedup']:.1f}x "
        f"({largest['scans_naive']} naive scans -> "
        f"{largest['scans_engine']} shared scans); warm recheck "
        f"{largest['warm_s']:.4f}s = {largest['warm_speedup']:.1f}x over the "
        f"cold engine path"
    )
    if args.json:
        payload = {
            "benchmark": "bench_detection",
            "cpu_count": os.cpu_count(),
            "sqlite_version": sqlite3.sqlite_version,
            "sizes": sizes,
            "repeats": repeats,
            "rows": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    worst = min(gated, key=lambda row: row["speedup"])
    if args.min_speedup and worst["speedup"] < args.min_speedup:
        print(
            f"FAIL: {worst['label']} speedup {worst['speedup']:.1f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    worst_warm = min(gated, key=lambda row: row["warm_speedup"])
    if args.min_warm_speedup and worst_warm["warm_speedup"] < args.min_warm_speedup:
        print(
            f"FAIL: {worst_warm['label']} cached-recheck speedup "
            f"{worst_warm['warm_speedup']:.2f}x < required "
            f"{args.min_warm_speedup:.2f}x (warm path must beat the cold "
            f"engine path)",
            file=sys.stderr,
        )
        return 1
    worst_file = min(gated, key=lambda row: row["sqlfile_warm_speedup"])
    if (
        args.min_sqlfile_warm_speedup
        and worst_file["sqlfile_warm_speedup"] < args.min_sqlfile_warm_speedup
    ):
        print(
            f"FAIL: {worst_file['label']} sqlfile warm re-check speedup "
            f"{worst_file['sqlfile_warm_speedup']:.2f}x < required "
            f"{args.min_sqlfile_warm_speedup:.2f}x (the scan cache "
            f"must beat re-running the pushed-down scans)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
