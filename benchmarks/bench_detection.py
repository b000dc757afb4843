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
  ``check()`` (the default one-pass window-function scans inside
  sqlite), warm = the same session's second ``check()`` (its scan
  cache, kept while ``PRAGMA data_version`` stands, skips SQL entirely);
* ``sqlfile_legacy`` — the same cold check with
  ``window_functions="off"``: the GROUP-BY-then-self-join SQL that was
  the only path before the one-pass rewrite. ``sqlfile_window_speedup``
  = legacy / default is the single-core algorithmic win and is gateable
  with ``--min-sqlfile-window-speedup`` even on a 1-CPU box;
* ``sqlfile_par`` — cold sqlfile check with ``workers > 1``: cold scan
  units split into contiguous rowid windows run concurrently on a pool
  of read-only connections and merged bit-identically. **Skipped (not
  reported as <1x noise) when ``os.cpu_count() == 1``** — rowid-window
  threads cannot beat a serial scan without a second core, and a
  dishonest-looking number helps nobody (the row records why instead);
* ``parN``   — ``repro.api.connect(db, sigma, workers=N)``, the facade's
  parallel task-graph dispatch at scan-group granularity (fork-based
  process pool by default; ``--workers 0`` skips it);
* ``par-shard`` — the same dispatch with row-range sharding forced on
  (``--shards S`` shards per scan unit, ``min_shard_rows=1``): one giant
  scan group splits across workers instead of pinning one. The sharded
  report is validated *order-sensitively* against naive — shard
  merge order must reproduce scan order bit-identically;
* ``par-persistent`` — the session-persistent fork pool vs the
  ``pool="per-call"`` opt-out on a *warm DML/check loop* (small
  insert/delete batches on the tiny ``interest`` relation, so the
  versioned ScanCache leaves only a sliver of cold work and per-check
  pool setup dominates). This is a **setup-amortization** ratio, not a
  parallelism ratio: a persistent pool forks once and reuses its
  workers (shipping the drifted relation through shared memory), while
  per-call dispatch re-forks the pool inside every ``check()`` — so the
  gate (``--min-persistent-speedup``) is meaningful at any
  ``cpu_count``, including 1. Both sessions' reports are validated
  order-sensitively against each other on every iteration and against
  the serial engine at the end.

Every run first cross-validates that engine, warm, parallel, sharded,
and naive produce identical violation lists (engine, warm, and sharded
order-sensitively — bit-identical including list order). Exit status is
non-zero on mismatch
or (with ``--min-speedup`` / ``--min-warm-speedup`` /
``--min-parallel-speedup`` / ``--min-sqlfile-window-speedup``) when a
speedup falls short. When ``cpu_count > 1`` the par-shard row must
additionally beat the serial engine (``par_shard_speedup > 1``) — that
assertion self-deactivates on 1-CPU boxes where it cannot physically
hold. ``--json PATH`` writes the rows as machine-readable JSON (the CI
regression job keeps ``BENCH_detection.json`` as an artifact); every
row records ``cpu_count``, ``sqlite_version``, and the effective
rowid-window counts so a number can never be quoted without the
hardware that produced it.

Usage::

    PYTHONPATH=src python benchmarks/bench_detection.py            # full run
    PYTHONPATH=src python benchmarks/bench_detection.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_detection.py --workers 8
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

from repro.api import ExecutionOptions, connect
from repro.sql.loader import connect_file, create_database_file
from repro.sql.windows import plan_rowid_windows
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


def constraints_per_relation(sigma: ConstraintSet) -> dict[str, int]:
    counts: dict[str, int] = {}
    for cfd in sigma.cfds:
        counts[cfd.relation.name] = counts.get(cfd.relation.name, 0) + 1
    for cind in sigma.cinds:
        counts[cind.lhs_relation.name] = counts.get(cind.lhs_relation.name, 0) + 1
    return counts


def _value_keys(report):
    """Identity-free fingerprint (parallel runs rebind canonical objects)."""
    cfd = {
        (report.label_for(v.cfd), v.pattern_index, v.lhs_values,
         frozenset(t.values for t in v.tuples), v.kind)
        for v in report.cfd_violations
    }
    cind = {
        (report.label_for(v.cind), v.pattern_index, v.tuple_.values)
        for v in report.cind_violations
    }
    return cfd, cind


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
    workers: int = 0,
    executor: str = "auto",
    shards: int = 0,
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
    cpu_count = os.cpu_count() or 1
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

        # Legacy SQL baseline: the pre-rewrite GROUP-BY-then-self-join
        # path, still selectable via window_functions="off". The ratio
        # against the default (window-function) cold check is the
        # single-core algorithmic win of the one-pass rewrite.
        legacy_options = ExecutionOptions(window_functions="off")

        def sqlfile_legacy_cold():
            with connect(
                db_path, sigma, backend="sqlfile", options=legacy_options
            ) as s:
                return s.check()

        sqlfile_legacy_s, sqlfile_legacy_report = _best_time(
            sqlfile_legacy_cold, repeats
        )

        # Effective rowid-window counts per scanned relation for the
        # parallel-sqlfile configuration below (recorded even when the
        # run itself is skipped — they describe the file, not the box).
        scan_relations = sorted(
            {g.relation for g in plan.cfd_groups} | set(plan.cind_scans)
        )
        window_conn = connect_file(db_path, readonly=True)
        try:
            sqlfile_windows = {
                rel: len(plan_rowid_windows(
                    window_conn, rel, workers=max(workers, 1),
                    min_window_rows=1, shards=shards,
                ))
                for rel in scan_relations
            }
        finally:
            window_conn.close()

        sqlfile_par_s = None
        sqlfile_par_report = None
        sqlfile_par_skipped = None
        if workers > 1 and cpu_count > 1:
            par_file_options = ExecutionOptions(
                workers=workers, executor="thread",
                shards=shards, min_shard_rows=1,
            )

            def sqlfile_par_cold():
                with connect(
                    db_path, sigma, backend="sqlfile",
                    options=par_file_options,
                ) as s:
                    return s.check()

            sqlfile_par_s, sqlfile_par_report = _best_time(
                sqlfile_par_cold, repeats
            )
        elif workers > 1:
            sqlfile_par_skipped = (
                "cpu_count == 1: rowid-window threads cannot beat a serial "
                "scan without a second core (see README for the multi-core "
                "repro)"
            )
            print(f"{label}: sqlfile_par skipped — {sqlfile_par_skipped}")

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
    if _ordered_keys(sqlfile_legacy_report) != expected_ordered:
        raise AssertionError(
            f"{label}: legacy-SQL sqlfile and naive violation lists differ"
        )
    if (
        sqlfile_par_report is not None
        and _ordered_keys(sqlfile_par_report) != expected_ordered
    ):
        # Window partials merge through the serial assembly, so this
        # holds order-sensitively — bit-identical including list order.
        raise AssertionError(
            f"{label}: parallel-sqlfile and naive violation lists differ "
            f"(order-sensitive)"
        )
    if summary.total != naive_report.total:
        raise AssertionError(f"{label}: count-only total differs")

    par_s = None
    par_shard_s = None
    effective_executor = None
    if workers > 1:
        options = ExecutionOptions(workers=workers, executor=executor)
        seen_executor = []

        def run_parallel(d):
            session = connect(d, sigma, options=options)
            seen_executor.append(session.effective_executor)
            return session.check()

        par_s, par_report = _best_cold_time(db, run_parallel, repeats)
        effective_executor = seen_executor[-1]
        # The parallel merge rebinds canonical tuples; sets must be equal
        # to the oracle's (ids differ per plan, so compare on values).
        if _value_keys(par_report) != _value_keys(naive_report):
            raise AssertionError(
                f"{label}: parallel and naive violation sets differ"
            )
        if shards > 0:
            # Row-range sharding forced on: every scan unit splits into
            # `shards` shard tasks regardless of size (min_shard_rows=1).
            shard_options = ExecutionOptions(
                workers=workers, executor=executor,
                shards=shards, min_shard_rows=1,
            )
            par_shard_s, par_shard_report = _best_cold_time(
                db,
                lambda d: connect(d, sigma, options=shard_options).check(),
                repeats,
            )
            # Sharded dispatch routes merged hits through the serial
            # assembly, so unlike the value-set check above this holds
            # order-sensitively: bit-identical including list order.
            if _ordered_keys(par_shard_report) != expected_ordered:
                raise AssertionError(
                    f"{label}: sharded-parallel and naive violation lists "
                    f"differ (order-sensitive)"
                )

    speedup = naive_s / engine_s if engine_s > 0 else float("inf")
    warm_speedup = engine_s / warm_s if warm_s > 0 else float("inf")
    sqlfile_warm_speedup = (
        sqlfile_s / sqlfile_warm_s if sqlfile_warm_s > 0 else float("inf")
    )
    sqlfile_window_speedup = (
        sqlfile_legacy_s / sqlfile_s if sqlfile_s > 0 else float("inf")
    )
    sqlfile_par_speedup = (
        sqlfile_s / sqlfile_par_s if sqlfile_par_s else None
    )
    par_speedup = (
        engine_s / par_s if par_s else None
    )
    par_shard_speedup = (
        engine_s / par_shard_s if par_shard_s else None
    )
    row = {
        "label": label,
        "tuples": db.total_tuples(),
        "constraints": len(sigma),
        "max_per_relation": max(per_rel.values()),
        "scans_naive": plan.naive_scan_count,
        "scans_engine": plan.shared_scan_count,
        "violations": naive_report.total,
        "cpu_count": cpu_count,
        "sqlite_version": sqlite3.sqlite_version,
        "naive_s": naive_s,
        "engine_s": engine_s,
        "count_s": count_s,
        "warm_s": warm_s,
        "sqlfile_s": sqlfile_s,
        "sqlfile_warm_s": sqlfile_warm_s,
        "sqlfile_legacy_s": sqlfile_legacy_s,
        "sqlfile_par_s": sqlfile_par_s,
        "sqlfile_par_skipped": sqlfile_par_skipped,
        "sqlfile_windows": sqlfile_windows,
        "par_s": par_s,
        "par_shard_s": par_shard_s,
        "shards": shards if par_shard_s is not None else None,
        "effective_executor": effective_executor,
        "speedup": speedup,
        "warm_speedup": warm_speedup,
        "sqlfile_warm_speedup": sqlfile_warm_speedup,
        "sqlfile_window_speedup": sqlfile_window_speedup,
        "sqlfile_par_speedup": sqlfile_par_speedup,
        "par_speedup": par_speedup,
        "par_shard_speedup": par_shard_speedup,
    }
    par_part = (
        f" par{workers}={par_s:.3f}s ({par_speedup:.2f}x vs engine)"
        if par_s is not None
        else ""
    )
    if par_shard_s is not None:
        par_part += (
            f" par-shard[{shards}]={par_shard_s:.3f}s "
            f"({par_shard_speedup:.2f}x vs engine)"
        )
    if sqlfile_par_s is not None:
        par_part += (
            f" sqlfile_par{workers}={sqlfile_par_s:.3f}s "
            f"({sqlfile_par_speedup:.2f}x vs serial sqlfile)"
        )
    print(
        f"{label:<22} tuples={row['tuples']:<8} |Σ|={row['constraints']:<4} "
        f"viol={row['violations']:<6} naive={naive_s:.3f}s "
        f"engine={engine_s:.3f}s count={count_s:.3f}s "
        f"warm={warm_s:.4f}s sqlfile={sqlfile_s:.3f}s "
        f"sqlfile_legacy={sqlfile_legacy_s:.3f}s "
        f"sqlfile_warm={sqlfile_warm_s:.4f}s speedup={speedup:.1f}x "
        f"warm_speedup={warm_speedup:.1f}x "
        f"sqlfile_warm_speedup={sqlfile_warm_speedup:.1f}x "
        f"sqlfile_window_speedup={sqlfile_window_speedup:.2f}x{par_part}"
    )
    return row


def run_persistent_case(
    label: str,
    db,
    sigma: ConstraintSet,
    repeats: int,
    workers: int,
    executor: str,
    shards: int,
) -> dict:
    """The ``par-persistent`` row: one pool for the session vs one per call.

    Drives both sessions through an identical warm DML/check loop on the
    bank workload: each iteration inserts a fresh ``interest`` row,
    checks, deletes it again, and checks — so every check is cache-cold
    on exactly one tiny relation and the measured time is dominated by
    what it costs to *stand up* the workers, which is the thing a
    persistent pool amortizes. The first (untimed) check pays the
    persistent pool's one-time fork; after that its PIDs never change,
    while the per-call session re-forks inside every check.
    """
    iterations = max(3, repeats)
    options = dict(
        workers=workers, executor=executor,
        shards=shards, min_shard_rows=1,
    )
    sessions = {
        "persistent": connect(db.copy(), sigma, pool="persistent", **options),
        "per-call": connect(db.copy(), sigma, pool="per-call", **options),
    }
    baselines = {
        name: _ordered_keys(s.check()) for name, s in sessions.items()
    }
    if baselines["persistent"] != baselines["per-call"]:
        raise AssertionError(
            f"{label}: persistent and per-call baseline reports differ"
        )

    attrs = ("ab", "ct", "at", "rt")
    totals = {name: 0.0 for name in sessions}
    for i in range(iterations):
        row = {"ab": f"PBENCH{i}", "ct": "UK", "at": "checking", "rt": "9.9%"}
        canonical = tuple(row[a] for a in attrs)
        step = {}
        for name, session in sessions.items():
            session.insert("interest", dict(row))
            start = time.perf_counter()
            inserted = session.check()
            totals[name] += time.perf_counter() - start
            if not session.apply(deletes=[("interest", canonical)]).deleted:
                raise AssertionError(
                    f"{label}: failed to delete the benchmark row again"
                )
            start = time.perf_counter()
            deleted = session.check()
            totals[name] += time.perf_counter() - start
            step[name] = (_ordered_keys(inserted), _ordered_keys(deleted))
        if step["persistent"] != step["per-call"]:
            raise AssertionError(
                f"{label}: persistent and per-call reports differ "
                f"(order-sensitive) at iteration {i}"
            )
    # Every insert was deleted again, so both sessions are back at the
    # original content *and order* — the serial engine is their oracle.
    final = _ordered_keys(sessions["persistent"].check())
    if final != _ordered_keys(detect(db.copy(), sigma)):
        raise AssertionError(
            f"{label}: persistent-pool report and serial engine differ "
            f"(order-sensitive)"
        )

    row = {
        "label": label,
        "tuples": db.total_tuples(),
        "cpu_count": os.cpu_count() or 1,
        "iterations": iterations,
        "checks_timed": 2 * iterations,
        "par_persistent_s": totals["persistent"],
        "par_percall_s": totals["per-call"],
        "par_persistent_speedup": (
            totals["per-call"] / totals["persistent"]
            if totals["persistent"] > 0 else float("inf")
        ),
        "persistent_executor": sessions["persistent"].effective_executor,
        "percall_executor": sessions["per-call"].effective_executor,
    }
    for session in sessions.values():
        session.close()
    print(
        f"{label:<22} par-persistent: {row['checks_timed']} warm DML checks "
        f"persistent={row['par_persistent_s']:.3f}s "
        f"({row['persistent_executor']}) "
        f"per-call={row['par_percall_s']:.3f}s ({row['percall_executor']}) "
        f"-> {row['par_persistent_speedup']:.2f}x setup amortization"
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
        "--workers", type=int, default=4,
        help="parallel scan-group workers to benchmark (0 disables)",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shards per scan unit for the par-shard rows (0 disables the "
        "sharded runs; only meaningful with --workers > 1)",
    )
    parser.add_argument(
        "--executor", choices=("auto", "process", "thread"), default="auto",
        help="pool kind for the parallel runs (auto = fork process pool "
        "when available)",
    )
    parser.add_argument(
        "--min-parallel-speedup", type=float, default=0.0,
        help="fail if the largest workload's parallel-vs-engine speedup is "
        "below this (only meaningful on multi-core machines)",
    )
    parser.add_argument(
        "--min-persistent-speedup", type=float, default=0.0,
        help="fail if the par-persistent row's warm-DML-loop speedup over "
        "per-call fork pools is below this (a setup-amortization gate, "
        "meaningful at any cpu_count; skipped when fork is unavailable "
        "and the pools downgrade to threads)",
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
        "--min-sqlfile-window-speedup", type=float, default=0.0,
        help="fail if the largest workload's one-pass window-function cold "
        "sqlfile check is below this speedup over the legacy "
        "GROUP-BY-then-join SQL (a single-core algorithmic gate, "
        "meaningful on 1 CPU; the largest row, like the parallel gate, "
        "because workloads whose shape sees no win sit at ~1x parity)",
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
    workers = min(args.workers, 2) if args.quick else args.workers

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
        rows.append(run_case(f"bank/{size}", db, bank_sigma, repeats,
                             workers=workers, executor=args.executor,
                             shards=args.shards))
        db = commerce_instance(n_orders=max(1, size // 2),
                               error_rate=ERROR_RATE, seed=7)
        rows.append(run_case(f"commerce/{size // 2}", db, commerce_sigma,
                             repeats, workers=workers, executor=args.executor,
                             shards=args.shards))

    persistent_row = None
    if workers > 1:
        size = max(sizes)
        db = scaled_bank_instance(size, error_rate=ERROR_RATE, seed=7)
        persistent_row = run_persistent_case(
            f"bank/{size}", db, bank_sigma, repeats,
            workers=workers, executor=args.executor, shards=args.shards,
        )

    largest = max(rows, key=lambda row: row["tuples"])
    print(
        f"\nlargest workload ({largest['label']}): {largest['speedup']:.1f}x "
        f"({largest['scans_naive']} naive scans -> "
        f"{largest['scans_engine']} shared scans); warm recheck "
        f"{largest['warm_s']:.4f}s = {largest['warm_speedup']:.1f}x over the "
        f"cold engine path"
    )
    if largest["par_s"] is not None:
        shard_part = (
            f" par-shard[{largest['shards']}]={largest['par_shard_s']:.3f}s "
            f"({largest['par_shard_speedup']:.2f}x)"
            if largest["par_shard_s"] is not None
            else ""
        )
        print(
            f"parallel ({workers} workers on the "
            f"{largest['effective_executor']} pool, {os.cpu_count()} CPU(s) "
            f"here): engine={largest['engine_s']:.3f}s "
            f"par={largest['par_s']:.3f}s "
            f"-> {largest['par_speedup']:.2f}x vs serial engine{shard_part}"
        )
    if args.json:
        payload = {
            "benchmark": "bench_detection",
            "cpu_count": os.cpu_count(),
            "sqlite_version": sqlite3.sqlite_version,
            "workers": workers,
            "shards": args.shards,
            "sizes": sizes,
            "repeats": repeats,
            "rows": rows,
            "persistent_row": persistent_row,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    worst = min(rows, key=lambda row: row["speedup"])
    if args.min_speedup and worst["speedup"] < args.min_speedup:
        print(
            f"FAIL: {worst['label']} speedup {worst['speedup']:.1f}x < "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    worst_warm = min(rows, key=lambda row: row["warm_speedup"])
    if args.min_warm_speedup and worst_warm["warm_speedup"] < args.min_warm_speedup:
        print(
            f"FAIL: {worst_warm['label']} cached-recheck speedup "
            f"{worst_warm['warm_speedup']:.2f}x < required "
            f"{args.min_warm_speedup:.2f}x (warm path must beat the cold "
            f"engine path)",
            file=sys.stderr,
        )
        return 1
    worst_file = min(rows, key=lambda row: row["sqlfile_warm_speedup"])
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
    if (
        args.min_sqlfile_window_speedup
        and largest["sqlfile_window_speedup"]
        < args.min_sqlfile_window_speedup
    ):
        print(
            f"FAIL: {largest['label']} one-pass window-function sqlfile "
            f"speedup {largest['sqlfile_window_speedup']:.2f}x < "
            f"required {args.min_sqlfile_window_speedup:.2f}x vs the legacy "
            f"GROUP-BY-then-join SQL",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_parallel_speedup
        and largest["par_speedup"] is not None
        and largest["par_speedup"] < args.min_parallel_speedup
    ):
        print(
            f"FAIL: {largest['label']} parallel speedup "
            f"{largest['par_speedup']:.2f}x < required "
            f"{args.min_parallel_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if args.min_persistent_speedup and persistent_row is not None:
        if not persistent_row["persistent_executor"].startswith("process"):
            print(
                "note: persistent-pool gate skipped — fork is unavailable "
                f"here and the pools ran as "
                f"{persistent_row['persistent_executor']!r} (the gate "
                "measures fork amortization)"
            )
        elif (
            persistent_row["par_persistent_speedup"]
            < args.min_persistent_speedup
        ):
            print(
                f"FAIL: {persistent_row['label']} persistent-pool speedup "
                f"{persistent_row['par_persistent_speedup']:.2f}x < required "
                f"{args.min_persistent_speedup:.2f}x over per-call fork "
                f"pools on the warm DML/check loop",
                file=sys.stderr,
            )
            return 1
    # Self-activating honesty gate: with real cores available, forced
    # row-range sharding on the largest workload must actually beat the
    # serial engine. On a 1-CPU box the assertion is physically
    # unsatisfiable (threads/processes only add overhead), so it stays
    # off — the JSON's cpu_count field records why. --quick is exempt
    # too: pool startup dominates a 500-tuple smoke workload on any
    # number of cores, so the assertion only means something full-size.
    if (
        (os.cpu_count() or 1) > 1
        and not args.quick
        and largest["par_shard_speedup"] is not None
        and largest["par_shard_speedup"] <= 1.0
    ):
        print(
            f"FAIL: {largest['label']} par_shard_speedup "
            f"{largest['par_shard_speedup']:.2f}x <= 1.0x with "
            f"{os.cpu_count()} CPUs available — sharded dispatch must beat "
            f"the serial engine when it has real cores",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
