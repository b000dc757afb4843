"""The ``stream`` half: a served commerce database under one-row commits.

One ``DetectionService(max_workers=nproc)`` holds a ``memory`` tenant and
a ``sqlfile`` tenant, each with one in-process subscriber. One
closed-loop client runs cycles: the same commit batch goes to the memory
tenant, then to the sqlfile tenant, and each commit is followed by a
read (``service.check``) of that tenant.

A commit sample is a full collection (``gc.collect()``) followed by the
``apply()`` call up to its return; its delta's age runs from the same
start to the moment the tenant's subscriber holds the delta. Without
the collection, a full collection lands inside about every second
commit and the median falls between the two modes; with it, each commit
pays for exactly one, where a live service pays one about every second
commit. The collection's own time is reported as ``gc.collect_ms.commit``.
"""

from __future__ import annotations

import asyncio
import gc
import os
from typing import Any

import repro.api as api
from repro.serve.feed import replay, report_records
from repro.serve.service import DetectionService
from repro.sql.loader import create_database_file

from perfbench.common import Half, perf, report_key, sqlite_policy
from perfbench.data import (
    COMMERCE_ERROR_RATE,
    CommerceDML,
    commerce_rows,
    dense_commerce_sigma,
    load,
)
from perfbench.metrics import END_TO_END, median, min_samples, ratio

TENANTS = ("memory", "sqlfile")
COMMIT = {"memory": "commit", "sqlfile": "sqlfile_commit"}
READ = {"memory": "read", "sqlfile": "sqlfile_read"}


class _Subscriber:
    """A tenant's in-process subscriber: holds every delta it receives,
    stamped with the time it arrived."""

    def __init__(self, subscription: Any):
        self.subscription = subscription
        self.deltas: list[Any] = []
        self.arrived: list[float] = []
        self._event = asyncio.Event()
        self.task = asyncio.ensure_future(self._consume())

    async def _consume(self) -> None:
        async for delta in self.subscription:
            self.arrived.append(perf())
            self.deltas.append(delta)
            self._event.set()

    async def holds(self, seq: int) -> float:
        """Wait until the delta numbered *seq* arrived; its arrival time."""
        while not self.deltas or self.deltas[-1].seq < seq:
            if self.task.done():
                raise RuntimeError(
                    f"subscription closed ({self.subscription.reason})"
                )
            self._event.clear()
            await self._event.wait()
        return self.arrived[-1]


class StreamHalf(Half):
    name = "stream"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sigma = dense_commerce_sigma()
        self.rows = commerce_rows(self.size, self.seed)
        self.path = self.workdir / f"{self.tag}-commerce.db"
        self.max_workers = os.cpu_count() or 1
        self.loop = asyncio.new_event_loop()
        self.service: DetectionService | None = None
        self.subscribers: dict[str, _Subscriber] = {}
        self.dml: CommerceDML | None = None
        self._cycle = 0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        self._teardown()
        gc.collect()
        self.dml = CommerceDML(self.rows, self.seed)
        t0 = perf()
        db = load(self.sigma, self.rows)
        t1 = perf()
        create_database_file(self.path, db)
        t2 = perf()
        self.loop.run_until_complete(self._serve(db))
        t3 = perf()
        self.setup_s.append(t3 - t0)
        layers = {
            "relational.load_ms": (t1 - t0) * 1e3,
            "sql.ingest_ms": (t2 - t1) * 1e3,
        }
        if self.trace:
            spans = self.tracer.by_op().get(self.tracer.op, [])
            layers["sql.shadow_load_ms"] = self.tracer.inclusive_ms(
                spans, frozenset({"sql.shadow_load"}))
        self.setup_layers.append(layers)
        self.env = {
            "commerce_orders": self.size,
            "tuples": db.total_tuples(),
            "error_rate": COMMERCE_ERROR_RATE,
            "sigma": len(self.sigma),
            "service_max_workers": self.max_workers,
            "reader_pool_size": self.service.reader_pool_size,
            "initial_violations": len(self.subscribers["memory"]
                                      .subscription.baseline),
            "undo_lag": CommerceDML.UNDO_LAG,
            "sqlite_file": str(self.path.relative_to(self.workdir.parent)),
            "sqlite_policy": sqlite_policy(self.path),
        }

    async def _serve(self, db: Any) -> None:
        """Both tenants created and subscribed, each having served its
        first commit and one read per pooled reader."""
        service = DetectionService(max_workers=self.max_workers)
        self.service = service
        await service.create_tenant("memory", db, self.sigma)
        await service.create_tenant(
            "sqlfile", self.path, self.sigma, backend="sqlfile")
        for tenant in TENANTS:
            self.subscribers[tenant] = _Subscriber(
                await service.subscribe(tenant))
        __, deletes, inserts = self.dml.next_batch()
        for tenant in TENANTS:
            __, delta = await service.apply(tenant, inserts, deletes)
            await self.subscribers[tenant].holds(delta.seq)
            reads = service.reader_pool_size if tenant == "sqlfile" else 1
            for __ in range(reads):
                await service.check(tenant)

    def _teardown(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            for subscriber in self.subscribers.values():
                self.loop.run_until_complete(subscriber.task)
            self.service = None
            self.subscribers = {}
        for suffix in ("", "-journal"):
            self.path.with_name(self.path.name + suffix).unlink(
                missing_ok=True)

    # -- ops -------------------------------------------------------------

    def step(self) -> None:
        traced = self.trace and self._cycle % 2 == 0
        self._cycle += 1
        dml, deletes, inserts = self.dml.next_batch()
        if traced:
            self.tracer.install()
        try:
            self.loop.run_until_complete(self._cycle_ops(
                traced, dml, deletes, inserts))
        finally:
            if traced:
                self.tracer.uninstall()

    def _counters(self, tenant: str) -> tuple[int, int]:
        """(hits, misses) of the tenant's scan caches: the memory
        session's ScanCache, or the SQLScanCache of every pooled reader."""
        handle = self.service.registry.get(tenant)
        if handle.readers is None:
            caches = [handle.session.backend.cache]
        else:
            # ReaderPool has no public view of its sessions.
            caches = [s.backend.cache
                      for s in getattr(handle.readers, "_sessions", ())]
        return (sum(c.hits for c in caches), sum(c.misses for c in caches))

    async def _cycle_ops(self, traced: bool, dml: str, deletes: list,
                         inserts: list) -> None:
        service = self.service
        for tenant in TENANTS:
            subscriber = self.subscribers[tenant]
            handle = service.registry.get(tenant)
            before = self._counters(tenant)
            evicted = handle.feed.evicted
            op = self.new_op(COMMIT[tenant], traced)
            t0 = perf()
            gc.collect()
            t_apply = perf()
            result, delta = await service.apply(tenant, inserts, deletes)
            t1 = perf()
            arrived = await subscriber.holds(delta.seq)
            self.close_op(op)
            after = self._counters(tenant)
            op.update(
                ms=(t1 - t0) * 1e3,
                collect_ms=(t_apply - t0) * 1e3,
                dml=dml,
                rows_changed=result.inserted + result.deleted,
                delta_records=len(delta.removed) + len(delta.added),
                empty=delta.empty,
                evicted=handle.feed.evicted - evicted,
                cache=(after[0] - before[0], after[1] - before[1]),
                arrived=arrived,
            )
            if tenant == "memory":
                op["age_ms"] = (arrived - t0) * 1e3
            lock = handle.lock
            reads = (lock.fast_reads, lock.slow_reads)
            op = self.new_op(READ[tenant], traced)
            t2 = perf()
            await service.check(tenant)
            t3 = perf()
            self.close_op(op)
            final = self._counters(tenant)
            op.update(ms=(t3 - t2) * 1e3,
                      cache=(final[0] - after[0], final[1] - after[1]),
                      lock_reads=(lock.fast_reads - reads[0],
                                  lock.slow_reads - reads[1]))

    def needs_more(self) -> bool:
        for name, __, half, kind, stat in END_TO_END:
            if half == self.name and kind in COMMIT.values():
                have = sum(1 for op in self.ops if op["kind"] == kind)
                if have < min_samples(stat):
                    return True
        return self._cycle < 2

    # -- correctness -----------------------------------------------------

    def gate(self) -> None:
        """Each subscriber's baseline + deltas must equal a cold check of
        its tenant, and the two tenants' cold reports must be equal."""
        cold: dict[str, Any] = {}
        for tenant in TENANTS:
            handle = self.service.registry.get(tenant)
            if tenant == "memory":
                session = api.connect(handle.session.db.copy(), self.sigma)
            else:
                session = api.connect(self.path, self.sigma,
                                      backend="sqlfile")
            with session:
                cold[tenant] = session.check()
            subscriber = self.subscribers[tenant]
            deltas = list(subscriber.deltas)
            if self.inject_mismatch and tenant == "memory" and deltas:
                deltas.pop(len(deltas) // 2)
            records = subscriber.subscription.baseline
            seq = subscriber.subscription.seq
            try:
                for delta in deltas:
                    if delta.seq != seq + 1:
                        raise ValueError(
                            f"delta seq {delta.seq} follows {seq}")
                    seq = delta.seq
                    records = replay(records, delta)
            except Exception as exc:
                self.fail(f"{tenant} subscriber cannot replay its deltas: "
                          f"{exc}")
                continue
            if records != report_records(cold[tenant]):
                self.fail(f"{tenant} subscriber's replayed deltas differ "
                          "from a cold check of the tenant")
        if report_key(cold["memory"]) != report_key(cold["sqlfile"]):
            self.fail("the memory and sqlfile tenants' final reports differ")

    # -- per-layer -------------------------------------------------------

    def layers(self) -> dict[str, float]:
        tracer = self.tracer
        commits = self.traced_ops("commit")
        all_commits = commits + self.traced_ops("sqlfile_commit")
        reads = self.traced_ops("read")
        sql_reads = self.traced_ops("sqlfile_read")
        spans = tracer.by_op()

        def hit_ratio(ops: list[dict]) -> float:
            hits = sum(op["cache"][0] for op in ops)
            return ratio(hits, hits + sum(op["cache"][1] for op in ops))

        def delivery(op: dict) -> float:
            starts = [tracer.spans[i][1] for i in spans.get(op["id"], [])
                      if tracer.spans[i][0] == "serve.publish"]
            return (op["arrived"] - starts[0]) * 1e3 if starts else 0.0

        # Only the memory tenant's reads take the tenant lock.
        lock_reads = [op["lock_reads"] for op in reads]
        fast_reads = sum(fast for fast, __ in lock_reads)
        return {
            "gc.pause_ms.commit": median(
                [tracer.pause_ms(op["id"]) for op in commits]),
            "gc.collect_ms.commit": median(
                [op["collect_ms"] for op in commits]),
            "relational.columns_ms.commit": self.per_op(
                "commit", ["relational.columns"]),
            "relational.rows_transposed_per_row_changed": ratio(
                sum(self.rows_transposed(op) for op in all_commits),
                sum(op["rows_changed"] for op in all_commits)),
            "relational.load_ms": self.setup_median("relational.load_ms"),
            "engine.execute_ms.commit": self.per_op(
                "commit", ["engine.execute"]),
            "engine.assemble_ms.read": self.per_op(
                "read", ["engine.assemble"]),
            "engine.cache_hit_ratio.read": hit_ratio(reads),
            "engine.cache_hit_ratio.commit": hit_ratio(commits),
            "api.apply_ms.commit": self.per_op("commit", ["api.apply"]),
            "sql.scan_ms.sqlfile_read": self.per_op(
                "sqlfile_read", ["sql.scan"]),
            "sql.fingerprint_ms.sqlfile_read": self.per_op(
                "sqlfile_read", ["sql.fingerprint"]),
            "sql.cache_hit_ratio.sqlfile_read": hit_ratio(sql_reads),
            "sql.apply_ms.sqlfile_commit": self.per_op(
                "sqlfile_commit", ["sql.apply"]),
            "sql.ingest_ms": self.setup_median("sql.ingest_ms"),
            "sql.shadow_load_ms": self.setup_median("sql.shadow_load_ms"),
            "cleaning.shadow_ms.sqlfile_commit": self.per_op(
                "sqlfile_commit", ["cleaning.shadow"]),
            "serve.lock_wait_ms.commit": self.per_op(
                "commit", ["serve.lock_wait"]),
            "serve.delta_ms.commit": self.per_op("commit", ["serve.delta"]),
            "serve.records_ms.commit": self.per_op(
                "commit", ["serve.records"]),
            "serve.diff_ms.commit": self.per_op("commit", ["serve.diff"]),
            "serve.delivery_ms": median([delivery(op) for op in commits]),
            "serve.delta_records.commit": ratio(
                sum(op["delta_records"] for op in commits), len(commits)),
            "serve.empty_delta_share": ratio(
                sum(1 for op in all_commits if op["empty"]),
                len(all_commits)),
            "serve.fast_read_share": ratio(
                fast_reads, sum(fast + slow for fast, slow in lock_reads)),
            "serve.reader_wait_ms.sqlfile_read": self.per_op(
                "sqlfile_read", ["serve.reader_wait"]),
            "serve.lagging_evictions": sum(
                op["evicted"] for op in all_commits),
        }

    def counts(self) -> dict[str, list]:
        return {
            kind: [
                [op["delta_records"], op["rows_changed"],
                 self.rows_transposed(op), list(op["cache"])]
                for op in self.traced_ops(kind)
            ]
            for kind in COMMIT.values()
        }

    def close(self) -> None:
        self._teardown()
        self.loop.close()
