"""Per-tenant session registry: LRU-capped, lock-annotated, evictable.

The serving layer multiplexes many tenants over one process; each tenant
is one open :class:`~repro.api.session.Session` (its own database, Σ, and
backend choice) plus the concurrency state the service needs around it:

* a :class:`ReadWriteLock` — BRAVO's lesson (PAPERS.md) applied to
  asyncio: the read path is a counter increment on the event loop (no OS
  lock, no syscall — "lock-free" in the sense that readers never contend
  with each other or take a mutex), while the rare writer pays the
  bookkeeping: it waits for in-flight readers to drain and holds off new
  ones only while it is actually applying a batch;
* a :class:`~repro.serve.feed.ViolationFeed` — the per-tenant delta
  publisher, created with the session so subscribers and writers always
  agree on commit numbering;
* an optional :class:`ReaderPool` of ``readonly=True`` sessions for a
  read-only file-backed tenant — audits fan out over those connections
  and never touch the tenant lock at all (sqlite isolates them at the
  file level). A writable tenant reads from its own session, whose cache
  its commits carry forward.

The registry itself is plain synchronous code driven from the event loop
(creation/lookup/eviction are O(1) dictionary work); only the per-tenant
locks are awaitable. Capacity is an LRU bound: creating tenant N+1 evicts
the least-recently-*used* tenant, closing its session — which is exactly
why :meth:`repro.api.Session.close` is idempotent and post-close calls
raise :class:`~repro.errors.SessionClosedError`: an evicted tenant's
in-flight readers get a clear, catchable error instead of attribute or
sqlite garbage.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable

from repro.api.session import Session
from repro.errors import ServeError, UnknownTenantError
from repro.serve.feed import ViolationFeed


class ReadWriteLock:
    """An asyncio reader/writer lock biased toward readers, BRAVO-style.

    Two read paths, selected per acquisition exactly as in BRAVO (Dice &
    Kogan — biased reader/writer locks over an existing slow lock):

    * the **fast path** — while read bias is on and no writer holds the
      lock, a reader publishes itself in a fixed *visible-readers* slot
      array (slot = task id modulo table size) and proceeds. No
      Condition acquire, no wakeup bookkeeping: the whole admission is
      synchronous code on the event loop, so the warm read-mostly
      traffic the serving layer lives on costs a couple of list writes.
      A slot collision (two tasks hashing to one slot) simply falls
      through to the slow path — correctness never depends on the table
      size.
    * the **slow path** — the original Condition-guarded reader counter,
      kept verbatim. Fast and slow readers coexist; ``readers`` counts
      both.

    An arriving writer **revokes the bias** first, then runs the
    revocation barrier: it waits until the slow counter drains *and*
    every occupied slot empties, with fast releases nudging the
    Condition only while a revocation is underway. Readers arriving
    mid-revocation fail the fast check and fall to the slow path — where
    they are still *admitted* while the writer merely waits (read
    preference, the read-mostly-audit bias BRAVO argues for; exactly the
    original lock's contract). Only a writer that actually *holds* the
    lock blocks readers. Releasing the write restores the bias unless
    another writer is already queued.

    ``fast_reads``/``slow_reads``/``revocations`` are observability
    counters for tests and the service's stats endpoint.
    """

    __slots__ = (
        "_cond", "_readers", "_writer", "_rbias", "_slots",
        "_writers_waiting", "fast_reads", "slow_reads", "revocations",
    )

    #: Visible-readers table size. Collisions only cost a slow-path
    #: detour, so this merely bounds per-lock memory.
    SLOT_COUNT = 16

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._rbias = True
        self._slots: list[object | None] = [None] * self.SLOT_COUNT
        self._writers_waiting = 0
        self.fast_reads = 0
        self.slow_reads = 0
        self.revocations = 0

    @property
    def readers(self) -> int:
        return self._readers + sum(
            1 for slot in self._slots if slot is not None
        )

    @property
    def write_held(self) -> bool:
        return self._writer

    @property
    def read_biased(self) -> bool:
        return self._rbias

    def _try_fast_read(self) -> int | None:
        """Claim a visible-readers slot, or ``None`` → take the slow path.

        Purely synchronous: the event loop cannot interleave another task
        between the checks and the slot write, which is what makes the
        recheck-after-publish of the original protocol (store slot, then
        re-examine the bias) collapse into straight-line code here.
        """
        if not self._rbias or self._writer:
            return None
        task = asyncio.current_task()
        index = id(task) % len(self._slots)
        if self._slots[index] is not None:
            return None
        self._slots[index] = task
        return index

    @asynccontextmanager
    async def reading(self) -> AsyncIterator[None]:
        index = self._try_fast_read()
        if index is not None:
            self.fast_reads += 1
            try:
                yield
            finally:
                self._slots[index] = None
                if not self._rbias:
                    # A writer is mid-revocation, parked on the barrier:
                    # wake it so it can re-scan the slot table.
                    async with self._cond:
                        self._cond.notify_all()
            return
        async with self._cond:
            while self._writer:
                await self._cond.wait()
            self._readers += 1
            self.slow_reads += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @asynccontextmanager
    async def writing(self) -> AsyncIterator[None]:
        async with self._cond:
            # Revoke the read bias up front: from here new readers take
            # the slow path (where a merely-waiting writer still admits
            # them — read preference is enforced there, on _writer, not
            # here). Then the revocation barrier: wait until the slow
            # counter drains and every visible-readers slot empties.
            self._writers_waiting += 1
            self._rbias = False
            self.revocations += 1
            try:
                while self._writer or self._readers or any(
                    slot is not None for slot in self._slots
                ):
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer = False
                if self._writers_waiting == 0:
                    # No writer queued behind us: re-arm the fast path.
                    self._rbias = True
                self._cond.notify_all()


class ReaderPool:
    """A fixed pool of read-only sessions over one tenant's database file.

    ``acquire()`` hands out a free session (waiting when all are busy —
    backpressure, not unbounded connection growth) and returns it on
    exit. Every session is opened ``readonly=True``, so a bug in the read
    path physically cannot write to a tenant's file, and sqlite-level
    isolation means the pool never coordinates with the tenant's writer
    lock: audits do not block writers, writers do not block audits.
    """

    def __init__(self, factory: Callable[[], Session], size: int):
        if size < 1:
            raise ServeError(f"reader pool size must be >= 1, got {size}")
        self._sessions = [factory() for __ in range(size)]
        self._free: asyncio.Queue[Session] = asyncio.Queue()
        for session in self._sessions:
            self._free.put_nowait(session)

    def __len__(self) -> int:
        return len(self._sessions)

    @asynccontextmanager
    async def acquire(self) -> AsyncIterator[Session]:
        session = await self._free.get()
        try:
            yield session
        finally:
            self._free.put_nowait(session)

    def close(self) -> None:
        for session in self._sessions:
            session.close()


@dataclass
class TenantHandle:
    """Everything the service holds per tenant."""

    name: str
    session: Session
    feed: ViolationFeed
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)
    readers: ReaderPool | None = None
    #: Commits applied through the service (mirrors the feed's sequence).
    commits: int = 0
    #: Batches admitted to :meth:`DetectionService.apply` and not yet
    #: committed — waiting on (or holding) the writer lock. Admission
    #: control compares this against ``max_pending_writes`` *before*
    #: queueing, so an overloaded tenant fails fast instead of growing an
    #: unbounded lock queue.
    pending_writes: int = 0
    closed: bool = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.feed.close()
        if self.readers is not None:
            self.readers.close()
        self.session.close()


class SessionRegistry:
    """Create/get/evict tenants; LRU-evict past *capacity*.

    ``get`` refreshes recency; ``create`` raises on duplicates (tenants
    are namespaces, silently replacing one would cross their data) and
    evicts the least-recently-used tenant when full. All methods are
    synchronous and O(1)-ish — they are meant to be called from the
    event loop between awaits.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ServeError(f"registry capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._tenants: "OrderedDict[str, TenantHandle]" = OrderedDict()
        #: Tenants LRU-evicted over the registry's lifetime (observability).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._tenants

    def tenants(self) -> list[str]:
        """Tenant names, least- to most-recently used."""
        return list(self._tenants)

    def register(self, handle: TenantHandle) -> TenantHandle:
        """Add a ready handle (the service builds it), LRU-evicting if full."""
        if handle.name in self._tenants:
            raise ServeError(f"tenant {handle.name!r} already exists")
        while len(self._tenants) >= self.capacity:
            oldest, __ = next(iter(self._tenants.items()))
            self.evict(oldest)
            self.evictions += 1
        self._tenants[handle.name] = handle
        return handle

    def get(self, tenant: str) -> TenantHandle:
        handle = self._tenants.get(tenant)
        if handle is None:
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}; known: "
                f"{', '.join(sorted(self._tenants)) or '(none)'}"
            )
        self._tenants.move_to_end(tenant)
        return handle

    def evict(self, tenant: str) -> bool:
        """Close and drop *tenant*; ``False`` when it was not held.

        Closing is synchronous and unconditional — in-flight readers on
        the closed session surface ``SessionClosedError`` (that is the
        close-path contract, not an accident).
        """
        handle = self._tenants.pop(tenant, None)
        if handle is None:
            return False
        handle.close()
        return True

    def close(self) -> None:
        """Evict every tenant (registry shutdown)."""
        for tenant in list(self._tenants):
            self.evict(tenant)

    def __repr__(self) -> str:
        return (
            f"<SessionRegistry {len(self._tenants)}/{self.capacity} "
            f"tenant(s), {self.evictions} eviction(s)>"
        )


__all__ = [
    "ReadWriteLock",
    "ReaderPool",
    "SessionRegistry",
    "TenantHandle",
]
