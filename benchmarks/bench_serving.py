#!/usr/bin/env python
"""Serving-layer benchmark: batch DML vs single-row applies, warm read p50.

The serving layer's write-path contract is that a batch pays its fixed
costs **once**: one writer-lock acquisition, one executor hop, one cache
invalidation (one sqlite transaction on ``sqlfile``), and one violation
delta. This benchmark measures that contract where it matters — at the
*service* level, where every single-row ``apply()`` also pays a delta
computation — and gates on it:

* ``service_singles`` — N awaited one-row ``DetectionService.apply()``
  calls against a fresh tenant;
* ``service_batch``   — one ``apply()`` carrying the same N rows against
  an identical second tenant. Both tenants' final reports are
  cross-validated record-for-record (bit-identical) before any number is
  reported, so the fast path cannot drift from the slow one;
* ``session_singles`` / ``session_batch`` — the same comparison on a bare
  :func:`repro.api.connect` session (N ``insert()`` calls vs one
  ``apply()``), *informational only*: it isolates the invalidation /
  transaction cost without the service's locking and delta overhead;
* ``warm read p50/p95`` — median and tail latency of repeated
  ``service.check()`` calls on an unchanged bank@``--read-size`` tenant:
  the versioned scan cache makes warm reads replay memoized results, and
  the read path adds only lock + executor-hop overhead on top;
* ``commit split`` — single-row commits on a subscribed tenant (memory
  and sqlfile): the p50 of the tenant's ``Session.apply`` beside the p50
  of the feed's delta (``ViolationFeed.commit``: the carry-forward of
  the tenant session's scan cache plus record building), their ratio,
  and the p50 of the read (``service.check()``) after each commit. One
  row per tenant runs on a clean bank@``--base-size``, and two more, at
  10k and 40k orders (500 and 2k with ``--quick``), on a commerce
  database whose per-SKU price groups of ``orders`` all violate
  (Σ_commerce plus a constant price CFD per SKU on ``orders(item)``, as
  perfbench's dense Σ adds), with every other commit adding an order at
  a drifted price. Each row also gives the tenant's resident state once
  its commits are done, counted against the process before the service
  existed: the GC-tracked containers it adds (``len(gc.get_objects())``),
  the live ``Tuple`` views among them, those views per violation of its
  report, and the time of one full ``gc.collect()`` with the tenant
  alive — what every full collection in a serving process walks. And it
  counts, per read after a commit, the CIND violations the read built
  anew: those in its report that are neither objects of the previous
  read's report nor among the commit's added ``cind`` records
  (``rebuilt_per_read``, the most any of its reads rebuilt).

``--min-batch-speedup X`` fails the run (exit 1) when the service-level
batch-vs-singles speedup on **either** gated backend (memory, sqlfile)
falls below X — the CI job passes 5.0. ``--max-views-per-violation R``
fails it when a commit-split tenant keeps more than R live ``Tuple``
views per violation of its report; it checks a count, so runner jitter
cannot move it. A tenant keeps one view per CIND-violating row and
none per CFD group row, so CI passes 1.0. ``--max-rebuilt-per-read N``
fails it when a read after a commit built more than N CIND violations
anew, also a count: a read reuses the cached violation objects, and a
commit's new ones are the objects its delta added, so CI passes 0.
``--json PATH`` writes all rows as machine-readable JSON (kept as the
``BENCH_serving`` CI artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.api import connect
from repro.core.cfd import CFD
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.relational.instance import Tuple
from repro.serve import DetectionService, replay, report_records
from repro.sql.loader import create_database_file

#: The service-level comparison gates these backends; naive and sql
#: tenants hold their data in memory like ``memory`` and take their
#: deltas from a memory mirror.
GATED_BACKENDS = ("memory", "sqlfile")

#: Orders in the price-dirty commerce commit-split tenants: two sizes,
#: so a row shows whether a tenant's resident state grows with its file.
COMMERCE_SIZES = (10_000, 40_000)


def batch_ops(n: int) -> list[tuple[str, dict[str, str]]]:
    """N distinct clean ``interest`` rows (no violations introduced, so
    the timed work is DML + invalidation + delta, not report growth)."""
    return [
        (
            "interest",
            {"ab": f"X{i}", "ct": "UK", "at": "saving", "rt": f"{i}.0%"},
        )
        for i in range(n)
    ]


def price_dirty_commerce(n_orders: int):
    """commerce@*n_orders* (3% dirty orders) under Σ_commerce plus a
    constant price CFD per SKU on ``orders(item)``: a paid order at a
    drifted price makes its SKU's whole order group one violation."""
    db = commerce_instance(n_orders, error_rate=0.03, seed=7)
    sigma = commerce_constraints(db.schema)
    orders = db.schema.relation("orders")
    for item, __, price in zip(*db["catalog"].columns()):
        sigma.add_cfd(CFD(
            orders, ("item",), ("price",), [((item,), (price,))],
            name=f"price_{item}",
        ))
    return db, sigma


def order_ops(db, n: int) -> list[tuple[str, tuple[str, ...]]]:
    """N one-row orders of existing customers, touching the SKUs' price
    groups in turn; every other one is a paid order at a drifted price."""
    customers = list(zip(*db["customers"].columns()))
    items, __, prices = db["catalog"].columns()
    ops = []
    for i in range(n):
        cust, country, __ = customers[i % len(customers)]
        sku = i % len(items)
        price, status = ("999", "paid") if i % 2 == 0 else (prices[sku], "quote")
        ops.append(("orders", (f"z{i:05d}", cust, country, items[sku], price, status)))
    return ops


async def bench_service(
    backend: str, base_db, sigma, ops, tmp: Path
) -> dict:
    """Service-level singles-vs-batch on one backend; returns a row."""

    def tenant_source(name: str):
        if backend == "sqlfile":
            return str(create_database_file(tmp / f"{name}.db", base_db))
        return base_db.copy()

    async with DetectionService(max_workers=2) as service:
        await service.create_tenant(
            "singles", tenant_source("singles"), sigma, backend=backend
        )
        start = time.perf_counter()
        for op in ops:
            await service.apply("singles", inserts=[op])
        singles_s = time.perf_counter() - start

        await service.create_tenant(
            "batch", tenant_source("batch"), sigma, backend=backend
        )
        start = time.perf_counter()
        __, delta = await service.apply("batch", inserts=ops)
        batch_s = time.perf_counter() - start

        # Cross-validate before reporting any number: both tenants must
        # hold the same data and report bit-identically.
        singles_records = report_records(await service.check("singles"))
        batch_records = report_records(await service.check("batch"))
        if singles_records != batch_records:
            raise AssertionError(
                f"{backend}: batch and single-row tenants report different "
                "violations"
            )

    speedup = singles_s / batch_s if batch_s > 0 else float("inf")
    return {
        "backend": backend,
        "rows": len(ops),
        "service_singles_s": singles_s,
        "service_batch_s": batch_s,
        "service_batch_speedup": speedup,
        "final_delta_seq": delta.seq,
        "violations": len(batch_records),
    }


def bench_session(backend: str, base_db, sigma, ops, tmp: Path) -> dict:
    """Session-level singles-vs-batch (informational: no service costs)."""
    if backend == "sqlfile":
        singles = connect(
            create_database_file(tmp / "s_singles.db", base_db),
            sigma,
            backend=backend,
        )
        batch = connect(
            create_database_file(tmp / "s_batch.db", base_db),
            sigma,
            backend=backend,
        )
    else:
        singles = connect(base_db.copy(), sigma, backend=backend)
        batch = connect(base_db.copy(), sigma, backend=backend)

    start = time.perf_counter()
    for relation, row in ops:
        singles.insert(relation, row)
    singles_s = time.perf_counter() - start

    start = time.perf_counter()
    result = batch.apply(inserts=ops)
    batch_s = time.perf_counter() - start
    assert result.inserted == len(ops)

    singles.close()
    batch.close()
    return {
        "backend": backend,
        "rows": len(ops),
        "session_singles_s": singles_s,
        "session_batch_s": batch_s,
        "session_batch_speedup": (
            singles_s / batch_s if batch_s > 0 else float("inf")
        ),
    }


async def bench_warm_reads(base_db, sigma, repeats: int) -> dict:
    """p50/p95 latency of warm ``service.check()`` on an unchanged tenant."""
    async with DetectionService(max_workers=2) as service:
        await service.create_tenant("reads", base_db, sigma)
        cold_start = time.perf_counter()
        await service.check("reads")  # fills the scan cache
        cold_s = time.perf_counter() - cold_start
        latencies = []
        for __ in range(repeats):
            start = time.perf_counter()
            await service.check("reads")
            latencies.append(time.perf_counter() - start)
    latencies.sort()
    return {
        "tuples": base_db.total_tuples(),
        "repeats": repeats,
        "cold_check_s": cold_s,
        "warm_p50_s": statistics.median(latencies),
        "warm_p95_s": latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))],
    }


def rebuilt_cind_violations(report, previous, delta) -> int:
    """The CIND violations of *report* (the read after a commit) that are
    neither objects of *previous* (the read before it) nor among the
    commit's added ``cind`` records in *delta*: the ones the read built
    anew. *previous* must be alive, so its objects' ids stand."""
    kept = {id(v) for v in previous.cind_violations}
    added = Counter(record for __, record in delta.added if record[0] == "cind")
    records = report_records(report)[len(report.cfd_violations):]
    rebuilt = 0
    for v, record in zip(report.cind_violations, records):
        if id(v) in kept:
            continue
        if added[record]:
            added[record] -= 1
        else:
            rebuilt += 1
    return rebuilt


def _census() -> tuple[int, int]:
    """(GC-tracked containers, live ``Tuple`` views) after a collection."""
    gc.collect()
    objects = gc.get_objects()
    return len(objects), sum(1 for obj in objects if type(obj) is Tuple)


async def bench_commit_split(
    backend: str, dataset: str, base_db, sigma, ops, tmp: Path
) -> dict:
    """Single-row commit cost split into the tenant's ``Session.apply``
    and the feed's delta, each timed around its own call, the read after
    each commit with the CIND violations it rebuilt, and the tenant's
    resident state. Each of *ops* is inserted by one commit and deleted
    by the next."""
    source = (
        str(create_database_file(
            tmp / f"split-{dataset}-{base_db.total_tuples()}.db", base_db
        ))
        if backend == "sqlfile"
        else base_db.copy()
    )
    times: dict[str, list[float]] = {"apply": [], "delta": [], "read": []}
    idle_containers, idle_views = _census()

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key].append(time.perf_counter() - start)

        return wrapper

    async with DetectionService(max_workers=2) as service:
        handle = await service.create_tenant(
            "split", source, sigma, backend=backend
        )
        sub = await service.subscribe("split")
        handle.session.apply = timed(handle.session.apply, "apply")
        handle.feed.commit = timed(handle.feed.commit, "delta")
        previous = await service.check("split")
        rebuilt = []
        # Stationary: each row is inserted by one commit, deleted by the next.
        for op in ops:
            for batch in ({"inserts": [op]}, {"deletes": [op]}):
                __, delta = await service.apply("split", **batch)
                start = time.perf_counter()
                report = await service.check("split")
                times["read"].append(time.perf_counter() - start)
                rebuilt.append(rebuilt_cind_violations(report, previous, delta))
                previous = report
        # The census below counts the tenant, not the reads' reports.
        del previous, report
        records = sub.baseline
        for __ in times["delta"]:
            records = replay(records, await sub.__anext__())
        if records != report_records(await service.check("split")):
            raise AssertionError(f"{backend}: replayed deltas differ")
        containers, views = _census()
        start = time.perf_counter()
        gc.collect()
        collect_s = time.perf_counter() - start
    apply_p50 = statistics.median(times["apply"])
    delta_p50 = statistics.median(times["delta"])
    return {
        "backend": backend,
        "dataset": dataset,
        "base_size": base_db.total_tuples(),
        "commits": len(times["delta"]),
        "apply_p50_ms": apply_p50 * 1e3,
        "delta_p50_ms": delta_p50 * 1e3,
        "delta_over_apply": delta_p50 / apply_p50 if apply_p50 > 0 else None,
        "read_p50_ms": statistics.median(times["read"]) * 1e3,
        "rebuilt_per_read": max(rebuilt),
        "violations": len(records),
        "tenant_gc_containers": containers - idle_containers,
        "tenant_views": views - idle_views,
        "views_per_violation": (views - idle_views) / max(len(records), 1),
        "gc_collect_ms": collect_s * 1e3,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-size", type=int, default=10_000,
        help="bank accounts in each tenant's base instance (default 10000)",
    )
    parser.add_argument(
        "--batch-rows", type=int, default=1_000,
        help="rows per DML batch / number of single-row applies",
    )
    parser.add_argument(
        "--read-size", type=int, default=50_000,
        help="bank accounts for the warm-read-latency tenant",
    )
    parser.add_argument(
        "--read-repeats", type=int, default=200,
        help="warm check() calls for the p50/p95 estimate",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes: 500-account base, 200-row batch, "
        "2000-account read tenant, 50 read repeats, commerce@500 and @2000 "
        "commit splits",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=0.0,
        help="fail if the service-level batch speedup on memory or sqlfile "
        "is below this (the serving write-path gate; CI passes 5.0)",
    )
    parser.add_argument(
        "--max-views-per-violation", type=float, default=None,
        help="fail if a commit-split tenant keeps more live Tuple views per "
        "violation than this (a count, immune to jitter; CI passes 1.0)",
    )
    parser.add_argument(
        "--max-rebuilt-per-read", type=int, default=None,
        help="fail if a read after a commit builds more CIND violations "
        "anew than this (a count, immune to jitter; CI passes 0)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write results as JSON to PATH (e.g. BENCH_serving.json)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.base_size, args.batch_rows = 500, 200
        args.read_size, args.read_repeats = 2_000, 50

    sigma = bank_constraints()
    base_db = scaled_bank_instance(args.base_size, error_rate=0.0, seed=7)
    ops = batch_ops(args.batch_rows)

    service_rows = []
    session_rows = []
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        for backend in GATED_BACKENDS:
            row = asyncio.run(
                bench_service(backend, base_db, sigma, ops, tmp)
            )
            service_rows.append(row)
            print(
                f"service/{backend:<8} {row['rows']} rows: "
                f"singles={row['service_singles_s']:.3f}s "
                f"batch={row['service_batch_s']:.3f}s -> "
                f"{row['service_batch_speedup']:.1f}x"
            )
            srow = bench_session(backend, base_db, sigma, ops, tmp)
            session_rows.append(srow)
            print(
                f"session/{backend:<8} {srow['rows']} rows: "
                f"singles={srow['session_singles_s']:.3f}s "
                f"batch={srow['session_batch_s']:.3f}s -> "
                f"{srow['session_batch_speedup']:.1f}x (informational)"
            )

        def split_workloads():
            # One commerce database at a time: the others would inflate
            # every resident-state count and collection time.
            yield f"bank@{args.base_size}", "bank", base_db, sigma, batch_ops(100)
            for n_orders in (500, 2_000) if args.quick else COMMERCE_SIZES:
                db, commerce_sigma = price_dirty_commerce(n_orders)
                yield (
                    f"commerce@{n_orders}", "commerce", db, commerce_sigma,
                    order_ops(db, 100),
                )

        split_rows = []
        for label, dataset, db, split_sigma, split_ops in split_workloads():
            for backend in GATED_BACKENDS:
                row = asyncio.run(bench_commit_split(
                    backend, dataset, db, split_sigma, split_ops, tmp
                ))
                split_rows.append(row)
                print(
                    f"commit split/{backend:<8} {label}: "
                    f"apply p50={row['apply_p50_ms']:.3f}ms "
                    f"delta p50={row['delta_p50_ms']:.3f}ms -> "
                    f"{row['delta_over_apply']:.1f}x apply; "
                    f"read p50={row['read_p50_ms']:.3f}ms, rebuilt "
                    f"{row['rebuilt_per_read']} CIND violations; tenant holds "
                    f"{row['tenant_gc_containers']} GC containers, "
                    f"{row['tenant_views']} views for {row['violations']} "
                    f"violations, one gc.collect() {row['gc_collect_ms']:.1f}ms"
                )

    read_db = scaled_bank_instance(args.read_size, error_rate=0.01, seed=7)
    reads = asyncio.run(bench_warm_reads(read_db, sigma, args.read_repeats))
    print(
        f"warm reads bank@{args.read_size}: cold={reads['cold_check_s']:.3f}s "
        f"p50={reads['warm_p50_s'] * 1000:.2f}ms "
        f"p95={reads['warm_p95_s'] * 1000:.2f}ms "
        f"({reads['repeats']} repeats)"
    )

    if args.json:
        payload = {
            "benchmark": "bench_serving",
            "base_size": args.base_size,
            "batch_rows": args.batch_rows,
            "service": service_rows,
            "session": session_rows,
            "commit_split": split_rows,
            "warm_reads": reads,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if args.min_batch_speedup:
        worst = min(service_rows, key=lambda r: r["service_batch_speedup"])
        if worst["service_batch_speedup"] < args.min_batch_speedup:
            print(
                f"FAIL: service-level batch speedup on {worst['backend']} is "
                f"{worst['service_batch_speedup']:.2f}x < required "
                f"{args.min_batch_speedup:.2f}x (a batch must amortize "
                "lock/executor/invalidation/delta costs across its rows)",
                file=sys.stderr,
            )
            return 1
    if args.max_views_per_violation is not None:
        worst = max(split_rows, key=lambda r: r["views_per_violation"])
        if worst["views_per_violation"] > args.max_views_per_violation:
            print(
                f"FAIL: the {worst['dataset']} {worst['backend']} tenant keeps "
                f"{worst['tenant_views']} Tuple views for "
                f"{worst['violations']} violations "
                f"({worst['views_per_violation']:.2f} per violation > "
                f"{args.max_views_per_violation:.2f}; cached CFD group rows "
                "must stay value tuples)",
                file=sys.stderr,
            )
            return 1
    if args.max_rebuilt_per_read is not None:
        worst = max(split_rows, key=lambda r: r["rebuilt_per_read"])
        if worst["rebuilt_per_read"] > args.max_rebuilt_per_read:
            print(
                f"FAIL: a read after a commit on the {worst['dataset']} "
                f"{worst['backend']} tenant built "
                f"{worst['rebuilt_per_read']} CIND violations anew "
                f"(> {args.max_rebuilt_per_read}; a read must reuse the "
                "cached violations and the objects its commit's delta added)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
