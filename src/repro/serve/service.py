"""DetectionService: the asyncio facade over per-tenant sessions.

One service instance hosts many tenants, each an independent
``(database, Σ, backend)`` triple. The event loop does admission control
only — locks, queues, registry bookkeeping — while every CPU-bound call
(scans, batch DML, delta computation) runs on a thread executor so one
tenant's 50k-row check never stalls another tenant's 3-row apply from
being *scheduled*. Per tenant:

* **writes** (:meth:`apply`) serialize under the tenant's writer lock.
  The batch, the delta computation, and the feed publish happen as one
  atomic step from any observer's point of view: the session mutation and
  the :class:`~repro.serve.feed.ViolationFeed` commit run in the executor
  while the lock is held, and the delta is fanned out *before* the lock
  is released — so deltas reach subscribers in exact commit order.
* **reads** (:meth:`check`/:meth:`count`/:meth:`is_clean`) take the read
  side of the lock — concurrent with each other, excluded only while a
  writer holds the lock — and are answered by the tenant's own session,
  whose scan cache the last commit already carried forward. Only a
  ``readonly=True`` ``sqlfile`` tenant, which has no writer whose cache
  could answer, reads through a small pool of read-only sessions that
  skip the tenant lock (sqlite isolates them at the file level).
* **streams** (:meth:`subscribe`) capture their baseline under the read
  lock, so baseline-vs-sequence-number is atomic with respect to commits
  and the replay contract is exact.

Deltas come from a session with a carried scan cache: ``memory`` and
``sqlfile`` tenants use their own session, so a ``sqlfile`` tenant keeps
one copy of its state — the file plus the session's cache. The re-scan
backends (``naive``/``sql``) get a ``memory`` **mirror** session seeded
with the same data that applies every batch too. After each batch the
session carries its cache forward by the rows the batch touched and
hands the feed the report positions of the removed and added violations
(see :mod:`repro.serve.feed`), so a commit's delta costs the touched
groups and keys — not a check and a diff of the whole report. When
another connection committed to a ``sqlfile`` tenant's file, its session
cannot tell the change, and the feed falls back to a check and a diff.

Parallel tenants (``workers > 1`` in the tenant's options) compose with
the session-persistent worker pool (the ``pool="persistent"`` default):
the service's thread executor submits ``session.check()`` which reuses
the tenant session's long-lived fork pool / window connection pool, so
warm serve-layer reads pay neither fork nor connect cost per request.
The pool's state is guarded by the dispatcher's execution lock, and the
tenant's own reader lock (BRAVO-biased, see
:class:`~repro.serve.registry.ReadWriteLock`) keeps DML from racing the
pool's drift detection. Evicting or closing a tenant closes its session,
which tears the pool down (workers, shared-memory segments, pooled
connections).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from repro.api import ExecutionOptions, connect
from repro.api.backends import ApplyResult, DMLOp
from repro.api.session import Session
from repro.core.violations import ConstraintSet, ViolationReport
from repro.engine import DetectionSummary
from repro.errors import ServeError, ServiceOverloadedError
from repro.relational.instance import DatabaseInstance
from repro.serve.feed import (
    DeltaSource,
    SessionDeltaSource,
    Subscription,
    ViolationDelta,
    ViolationFeed,
)
from repro.serve.registry import ReaderPool, SessionRegistry, TenantHandle

T = TypeVar("T")


class DetectionService:
    """Async multi-tenant detection over the existing backends.

    ``capacity`` bounds the registry (LRU eviction past it),
    ``max_workers`` sizes the shared thread executor, and
    ``reader_pool_size`` is how many read-only connections each
    ``readonly=True`` ``sqlfile`` tenant gets for lock-free reads.
    ``max_pending_writes`` (``None`` = unbounded, the historical
    behaviour) caps how many :meth:`apply` batches may be queued on one
    tenant's writer lock at once — batch N+1 fails fast with
    :class:`~repro.errors.ServiceOverloadedError` instead of joining an
    unbounded queue, giving callers a typed, retryable backpressure
    signal (the NDJSON protocol maps it to an ``{"ok": false, "kind":
    "ServiceOverloadedError"}`` envelope).
    """

    def __init__(
        self,
        capacity: int = 64,
        max_workers: int = 4,
        reader_pool_size: int = 2,
        max_pending_writes: int | None = None,
    ):
        if max_pending_writes is not None and max_pending_writes < 1:
            raise ServeError(
                f"max_pending_writes must be >= 1 (or None for unbounded), "
                f"got {max_pending_writes}"
            )
        self.registry = SessionRegistry(capacity=capacity)
        self.reader_pool_size = reader_pool_size
        self.max_pending_writes = max_pending_writes
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._closed = False

    async def _run(self, fn: Callable[[], T]) -> T:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServeError("the detection service is closed")

    # -- tenant lifecycle ---------------------------------------------------

    async def create_tenant(
        self,
        name: str,
        db: DatabaseInstance | str | Path,
        sigma: ConstraintSet,
        backend: str = "memory",
        options: ExecutionOptions | None = None,
    ) -> TenantHandle:
        """Open a tenant: session + delta source + feed (+ reader pool).

        Session construction (loading a sqlite image, introspecting a
        file, seeding a delta mirror) is CPU/IO-bound and runs on the
        executor. Raises :class:`~repro.errors.ServeError` on a duplicate
        name; past capacity the least-recently-used tenant is evicted.
        """
        self._ensure_open()
        if name in self.registry:
            raise ServeError(f"tenant {name!r} already exists")

        def build() -> tuple[Session, DeltaSource, ReaderPool | None]:
            session = connect(db, sigma, backend=backend, options=options)
            source = self._build_delta_source(session, db, sigma, backend)
            readers: ReaderPool | None = None
            if (
                backend == "sqlfile"
                and session.options.readonly
                and self.reader_pool_size
            ):
                # No writer session whose carried cache could answer:
                # reads fan out over read-only sessions of their own.
                ro_options = replace(session.options, validate=False)
                readers = ReaderPool(
                    factory=lambda: connect(
                        db, sigma, backend="sqlfile", options=ro_options
                    ),
                    size=self.reader_pool_size,
                )
            return session, source, readers

        session, source, readers = await self._run(build)
        handle = TenantHandle(
            name=name,
            session=session,
            feed=ViolationFeed(name, source),
            readers=readers,
        )
        return self.registry.register(handle)

    def _build_delta_source(
        self,
        session: Session,
        db: DatabaseInstance | str | Path,
        sigma: ConstraintSet,
        backend: str,
    ) -> DeltaSource:
        if backend in ("memory", "sqlfile"):
            # Its own scan cache carries forward by each batch's rows.
            return SessionDeltaSource(session)
        assert isinstance(db, DatabaseInstance)  # naive/sql take no paths
        mirror = connect(db.copy(), sigma, options=ExecutionOptions())
        return SessionDeltaSource(mirror, mirror=True)

    async def evict(self, tenant: str) -> bool:
        """Close and drop *tenant* (writer lock held, so never mid-commit);
        ``False`` when unknown. In-flight pool-reads surface
        ``SessionClosedError``."""
        self._ensure_open()
        if tenant not in self.registry:
            return False
        handle = self.registry.get(tenant)
        async with handle.lock.writing():
            return self.registry.evict(tenant)

    def tenants(self) -> list[str]:
        return self.registry.tenants()

    # -- writes -------------------------------------------------------------

    async def apply(
        self,
        tenant: str,
        inserts: Sequence[DMLOp] = (),
        deletes: Sequence[DMLOp] = (),
    ) -> tuple[ApplyResult, ViolationDelta]:
        """Apply one batch and stream its violation delta.

        Under the tenant's writer lock: the session applies the batch
        (one invalidation / one transaction — the ``Session.apply``
        contract), the feed computes the delta, and the delta is
        published to subscribers *before* the lock drops, so subscribers
        observe commits in exactly the order they serialized.

        Admission control runs *before* the lock: when the service was
        configured with ``max_pending_writes`` and that many batches are
        already pending on this tenant (waiting or committing), the call
        raises :class:`~repro.errors.ServiceOverloadedError` immediately —
        the batch is rejected untouched, nothing was applied, and the
        caller may retry once the queue drains.
        """
        self._ensure_open()
        handle = self.registry.get(tenant)
        limit = self.max_pending_writes
        if limit is not None and handle.pending_writes >= limit:
            raise ServiceOverloadedError(
                f"tenant {tenant!r} has {handle.pending_writes} pending "
                f"write batch(es) (max_pending_writes={limit}); retry "
                "after the queue drains"
            )
        inserts = list(inserts)
        deletes = list(deletes)

        def commit() -> tuple[ApplyResult, ViolationDelta]:
            # Pin the pre-batch records first: the delta is relative to
            # them, and materializing the baseline lazily *after* the
            # apply would make the batch part of it (an empty delta).
            handle.feed.current
            result = handle.session.apply(inserts=inserts, deletes=deletes)
            delta = handle.feed.commit(inserts, deletes)
            return result, delta

        # The admission check and this increment run in one event-loop
        # step (no await in between), so concurrent apply() calls cannot
        # slip past the limit together.
        handle.pending_writes += 1
        try:
            async with handle.lock.writing():
                result, delta = await self._run(commit)
                handle.commits += 1
                handle.feed.publish(delta)
        finally:
            handle.pending_writes -= 1
        return result, delta

    # -- reads --------------------------------------------------------------

    async def _read(self, tenant: str, call: Callable[[Session], T]) -> T:
        handle = self.registry.get(tenant)
        if handle.readers is not None:
            # Read-only file tenants: pooled read-only connections, no
            # tenant lock — sqlite file locking isolates them.
            async with handle.readers.acquire() as session:
                return await self._run(lambda: call(session))
        async with handle.lock.reading():
            return await self._run(lambda: call(handle.session))

    async def check(self, tenant: str) -> ViolationReport:
        """Full violation report (bit-identical to a direct session)."""
        self._ensure_open()
        return await self._read(tenant, lambda s: s.check())

    async def count(self, tenant: str) -> DetectionSummary:
        self._ensure_open()
        return await self._read(tenant, lambda s: s.count())

    async def is_clean(self, tenant: str) -> bool:
        self._ensure_open()
        return await self._read(tenant, lambda s: s.is_clean())

    # -- streaming ----------------------------------------------------------

    async def subscribe(
        self, tenant: str, maxsize: int | None = None
    ) -> Subscription:
        """Open a violation-delta subscription on *tenant*.

        The baseline records and sequence number are captured under the
        tenant's read lock — no commit can slip between them — which is
        what makes ``baseline + replayed deltas == current report`` exact.
        The baseline check itself runs on the executor.
        """
        self._ensure_open()
        handle = self.registry.get(tenant)
        async with handle.lock.reading():
            await self._run(lambda: handle.feed.current)
            return handle.feed.subscribe(maxsize=maxsize)

    def unsubscribe(self, tenant: str, subscription: Subscription) -> None:
        if tenant in self.registry:
            self.registry.get(tenant).feed.unsubscribe(subscription)

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        """Evict every tenant and stop the executor. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.registry.close()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "DetectionService":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    def __repr__(self) -> str:
        return f"<DetectionService {self.registry!r}>"


__all__ = ["DetectionService"]
