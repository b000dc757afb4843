"""Streaming violation deltas: diff, replay, subscribe, publish.

After every committed batch the service answers "what changed in the
violation report?" — not by shipping the whole report (bank@50k's report
can dwarf a 10-row batch) but as a **delta**: which violation records
disappeared and which appeared, with enough positional information that a
subscriber replaying deltas over its baseline reconstructs the new report
*bit-identically, including order*. That replay property is the module's
contract and the conformance suite's gate: for every backend, cumulative
deltas after N randomized batches must replay to exactly what a cold
``check()`` reports.

The pieces:

* :func:`report_records` — a report flattened to hashable records (the
  same identity-free shape the conformance kit fingerprints on);
* :class:`ViolationDelta` / :func:`replay` — an order-preserving patch
  format (position-tagged records on both sides: removals indexed into
  the old report, additions into the new one); :func:`diff_records`
  derives one from two whole record sequences with
  :class:`difflib.SequenceMatcher`;
* :class:`Subscription` — an ``async for``-able handle over a *bounded*
  queue. Bounded is the policy, not a tuning knob: a subscriber that
  cannot keep up is evicted (``reason == "lagging"``) rather than allowed
  to grow the server's memory without limit;
* :class:`ViolationFeed` — the per-tenant publisher. ``commit()`` is
  synchronous CPU-bound work the service runs in its executor *under the
  tenant's writer lock* (so deltas are totally ordered by commit
  sequence); ``publish()`` fans the delta out on the event loop.

Deltas come from a :class:`SessionDeltaSource` over a session with a
versioned scan cache: the tenant's own session on the ``memory``
backend, and on the re-scan backends (``naive``/``sql``/``sqlfile``) a
``memory`` **mirror** session seeded with the same data at tenant
creation that applies every batch too. After
a batch, the session carries its scan cache forward by the rows the batch
touched (:func:`repro.engine.carry.carry_forward`): only the CFD groups,
witness keys and CIND rows those rows reach are re-evaluated, and the
splice yields the report positions of the removed and added violations
directly. :meth:`ViolationFeed.commit` turns that into a
:class:`ViolationDelta` — removed records are read from the feed's
current records by position, only the added violations become new
records — with no report assembly and no diff. A scan unit whose touched
buckets hold more rows than its relation is re-scanned instead, its
delta still restricted to the touched keys. Only when the session cannot
carry forward at all (its data changed outside its DML) does the feed
fall back to a full check diffed with :func:`diff_records`, which
otherwise serves, with :func:`replay`, as the test oracle.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Any, Mapping, Sequence

from repro.api.backends import DMLOp
from repro.api.session import Session
from repro.core.cfd import CFDViolation
from repro.core.cind import CINDViolation
from repro.core.violations import ViolationReport
from repro.engine import ReportDelta
from repro.errors import ServeError

#: One violation, flattened to a hashable, backend-independent record.
#: CFD: ("cfd", label, pattern_index, lhs_values, tuple_values, kind);
#: CIND: ("cind", label, pattern_index, tuple_values).
ViolationRecord = tuple[Any, ...]


def report_records(report: ViolationReport) -> tuple[ViolationRecord, ...]:
    """Flatten *report* to the canonical record sequence (report order).

    The shape matches the conformance kit's ``report_key`` fingerprint —
    two reports are bit-identical iff their record sequences are equal —
    which is what lets the delta-replay gate compare a subscriber's
    reconstruction directly against a cold check.
    """
    label = report.label_for
    cfds = tuple(_cfd_record(v, label(v.cfd)) for v in report.cfd_violations)
    cinds = tuple(
        _cind_record(v, label(v.cind)) for v in report.cind_violations
    )
    return cfds + cinds


def _cfd_record(v: CFDViolation, label: str) -> ViolationRecord:
    return (
        "cfd",
        label,
        v.pattern_index,
        v.lhs_values,
        tuple(t.values for t in v.tuples),
        v.kind,
    )


def _cind_record(v: CINDViolation, label: str) -> ViolationRecord:
    return ("cind", label, v.pattern_index, v.tuple_.values)


def _record(
    v: CFDViolation | CINDViolation, labels: Mapping[int, str]
) -> ViolationRecord:
    """*v*'s record, labelled through an ``id(constraint) -> label`` map."""
    if isinstance(v, CFDViolation):
        return _cfd_record(v, labels[id(v.cfd)])
    return _cind_record(v, labels[id(v.cind)])


@dataclass(frozen=True)
class ViolationDelta:
    """The change between two consecutive violation reports.

    Both sides are ``(position, record)`` pairs with positions ascending:
    ``removed`` positions index the **old** record sequence, ``added``
    positions index the **new** one. Carrying the removal positions (not
    just the records) keeps replay unambiguous even when a report holds
    equal records at different positions. ``seq`` is the tenant's commit
    number — deltas apply in sequence order, no skipping.
    """

    seq: int
    removed: tuple[tuple[int, ViolationRecord], ...]
    added: tuple[tuple[int, ViolationRecord], ...]

    @property
    def empty(self) -> bool:
        return not self.removed and not self.added

    def __repr__(self) -> str:
        return (
            f"<ViolationDelta seq={self.seq} -{len(self.removed)} "
            f"+{len(self.added)}>"
        )


def diff_records(
    old: Sequence[ViolationRecord], new: Sequence[ViolationRecord]
) -> tuple[
    tuple[tuple[int, ViolationRecord], ...],
    tuple[tuple[int, ViolationRecord], ...],
]:
    """Order-preserving diff of two record sequences.

    Matching blocks (``SequenceMatcher`` with junk detection off —
    violation records are data, not prose) are the records a subscriber
    already holds; everything else ships, position-tagged on both sides.
    ``replay(old, delta) == new`` holds exactly, including order.
    """
    matcher = SequenceMatcher(a=list(old), b=list(new), autojunk=False)
    removed: list[tuple[int, ViolationRecord]] = []
    added: list[tuple[int, ViolationRecord]] = []
    for op, a_lo, a_hi, b_lo, b_hi in matcher.get_opcodes():
        if op in ("delete", "replace"):
            removed.extend((i, old[i]) for i in range(a_lo, a_hi))
        if op in ("insert", "replace"):
            added.extend((i, new[i]) for i in range(b_lo, b_hi))
    return tuple(removed), tuple(added)


def record_delta(
    seq: int, old: Sequence[ViolationRecord], change: ReportDelta
) -> ViolationDelta:
    """The :class:`ViolationDelta` of a session's position-tagged
    :class:`~repro.engine.ReportDelta` against *old*, the records of the
    report it changed: removed records are read from *old* by position,
    added violations become records."""
    return ViolationDelta(
        seq=seq,
        removed=tuple((p, old[p]) for p in change.removed),
        added=tuple((p, _record(v, change.labels)) for p, v in change.added),
    )


def replay(
    base: Sequence[ViolationRecord], delta: ViolationDelta
) -> tuple[ViolationRecord, ...]:
    """Apply *delta* to *base* and return the new record sequence.

    Removals are verified against *base* (the record at each removed
    position must match — a mismatch means deltas were applied out of
    sequence or against the wrong tenant) and deleted highest position
    first so earlier indices stay valid; additions then insert at their
    recorded positions ascending. This is the subscriber-side half of
    the replay contract.
    """
    result: list[ViolationRecord] = list(base)
    for position, record in reversed(delta.removed):
        if position >= len(result) or result[position] != record:
            raise ServeError(
                f"delta seq={delta.seq} removes {record!r} at position "
                f"{position}, which does not match the baseline — deltas "
                "applied out of sequence or against the wrong tenant"
            )
        del result[position]
    for position, record in delta.added:
        if position > len(result):
            raise ServeError(
                f"delta seq={delta.seq} inserts at position {position} "
                f"beyond report length {len(result)}"
            )
        result.insert(position, record)
    return tuple(result)


class DeltaSource:
    """Where a tenant's violation deltas come from.

    ``commit(inserts, deletes)`` is called *after* the primary session
    applied the batch, still inside the writer lock, and returns the
    report's :class:`~repro.engine.ReportDelta` — or ``None`` when it
    cannot tell, and the feed falls back to diffing :meth:`baseline`.
    Synchronous and CPU-bound by design — the service runs it in its
    thread executor.
    """

    def commit(
        self, inserts: Sequence[DMLOp], deletes: Sequence[DMLOp]
    ) -> ReportDelta | None:
        raise NotImplementedError

    def baseline(self) -> tuple[ViolationRecord, ...]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden where needed
        return None


class SessionDeltaSource(DeltaSource):
    """Deltas from a scan-cache session's carry-forward.

    *session* is the tenant's own session (``memory`` backend: the
    batch is already applied when ``commit`` runs) or, with
    ``mirror=True``, a ``memory`` session over a copy of the tenant's data
    that applies each batch itself (the re-scan backends, whose own
    ``check()`` is a full pass). Either way ``commit`` is
    :meth:`~repro.api.Session.delta`: the session re-evaluates only what
    the batch's rows touch and reports the change by position.
    """

    def __init__(self, session: Session, mirror: bool = False):
        self.session = session
        self.mirror = mirror

    def commit(
        self, inserts: Sequence[DMLOp], deletes: Sequence[DMLOp]
    ) -> ReportDelta | None:
        if self.mirror:
            self.session.apply(inserts=inserts, deletes=deletes)
        return self.session.delta()

    def baseline(self) -> tuple[ViolationRecord, ...]:
        return report_records(self.session.check())

    def close(self) -> None:
        if self.mirror:
            self.session.close()


#: Terminal marker delivered to a subscription's queue on close.
_CLOSED = object()


class Subscription:
    """One subscriber's handle: ``async for delta in subscription``.

    Carries the baseline the subscriber replays from (``baseline`` /
    ``seq``, captured atomically at subscribe time under the tenant's
    read lock) and a bounded delivery queue. When the feed closes it —
    tenant evicted (``reason == "closed"``) or the queue overflowed
    (``reason == "lagging"``) — iteration ends after any already-queued
    deltas drain.
    """

    def __init__(
        self,
        tenant: str,
        seq: int,
        baseline: tuple[ViolationRecord, ...],
        maxsize: int,
    ):
        self.tenant = tenant
        self.seq = seq
        self.baseline = baseline
        self.reason: str | None = None
        self._queue: asyncio.Queue[Any] = asyncio.Queue(maxsize=maxsize)

    @property
    def closed(self) -> bool:
        return self.reason is not None

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> ViolationDelta:
        if self.closed and self._queue.empty():
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is _CLOSED:
            raise StopAsyncIteration
        return item  # type: ignore[no-any-return]

    # -- feed-side delivery (event loop only) ------------------------------

    def _deliver(self, delta: ViolationDelta) -> bool:
        """``False`` when the queue is full — the subscriber is lagging."""
        try:
            self._queue.put_nowait(delta)
        except asyncio.QueueFull:
            return False
        return True

    def _close(self, reason: str) -> None:
        if self.closed:
            return
        self.reason = reason
        # The sentinel must land even on a full queue; make room by
        # dropping the oldest undelivered delta — the subscriber is being
        # evicted, partial delivery is already void.
        while True:
            try:
                self._queue.put_nowait(_CLOSED)
                return
            except asyncio.QueueFull:
                try:
                    self._queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - races only
                    pass


class ViolationFeed:
    """Per-tenant delta publisher.

    The writer half (``commit``) runs in the service's executor while the
    tenant's writer lock is held — commits are therefore totally ordered
    and ``seq`` counts them. The subscriber half (``subscribe`` /
    ``publish``) runs on the event loop. ``current`` is the canonical
    record sequence after the last commit; a subscriber's baseline +
    replayed deltas always equals it.
    """

    #: Default per-subscriber queue bound. Deep enough to absorb bursts,
    #: shallow enough that one stuck consumer cannot hold commits' worth
    #: of deltas for long.
    DEFAULT_QUEUE_SIZE = 256

    def __init__(self, tenant: str, source: DeltaSource):
        self.tenant = tenant
        self.source = source
        self.seq = 0
        self._current: tuple[ViolationRecord, ...] | None = None
        self._subscribers: list[Subscription] = []
        self._closed = False
        #: Subscribers evicted for lagging (observability + tests).
        self.evicted = 0

    @property
    def current(self) -> tuple[ViolationRecord, ...]:
        """Canonical records as of the last commit (baseline lazily on
        first use, so tenants that never stream never pay a check)."""
        if self._current is None:
            self._current = self.source.baseline()
        return self._current

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def subscribe(self, maxsize: int | None = None) -> Subscription:
        """Open a subscription whose baseline is the current records.

        *maxsize* bounds the subscriber's queue: ``None`` means
        :attr:`DEFAULT_QUEUE_SIZE`, anything else must be an ``int`` of
        at least 1 (a ``bool`` is not one). Must be called with the
        tenant's read lock held (the service does): that makes
        baseline-vs-seq capture atomic with respect to commits, which is
        what makes replay exact.
        """
        if self._closed:
            raise ServeError(f"feed for tenant {self.tenant!r} is closed")
        if maxsize is None:
            maxsize = self.DEFAULT_QUEUE_SIZE
        elif isinstance(maxsize, bool) or not isinstance(maxsize, int) or maxsize < 1:
            raise ServeError(
                f"subscriber maxsize must be an int >= 1 (or absent for "
                f"{self.DEFAULT_QUEUE_SIZE}), got {maxsize!r}"
            )
        subscription = Subscription(
            tenant=self.tenant,
            seq=self.seq,
            baseline=self.current,
            maxsize=maxsize,
        )
        self._subscribers.append(subscription)
        return subscription

    def commit(
        self, inserts: Sequence[DMLOp] = (), deletes: Sequence[DMLOp] = ()
    ) -> ViolationDelta:
        """Compute the delta for one applied batch (executor, writer lock).

        The primary session has already applied the batch; this advances
        the delta source, tags its positions with records — removed ones
        read from the previous records, added ones built from the new
        violations — and bumps ``seq``. Every commit yields a delta — an
        *empty* one when the batch changed no violations — so subscribers
        can verify they missed nothing by checking seq continuity.
        """
        old = self.current
        change = self.source.commit(inserts, deletes)
        seq = self.seq + 1
        if change is None:
            new = self.source.baseline()
            removed, added = diff_records(old, new)
            delta = ViolationDelta(seq=seq, removed=removed, added=added)
        else:
            delta = record_delta(seq, old, change)
            new = old if delta.empty else replay(old, delta)
        self.seq = seq
        self._current = new
        return delta

    def publish(self, delta: ViolationDelta) -> None:
        """Fan *delta* out to every subscriber (event loop only).

        Delivery is ``put_nowait`` against each bounded queue; a full
        queue means the consumer fell a whole queue's depth behind, and
        the policy is eviction — close with ``reason="lagging"`` — not
        blocking the publisher or buffering without bound.
        """
        lagging: list[Subscription] = []
        for subscription in self._subscribers:
            if not subscription._deliver(delta):
                lagging.append(subscription)
        for subscription in lagging:
            subscription._close("lagging")
            self._subscribers.remove(subscription)
            self.evicted += 1

    def unsubscribe(self, subscription: Subscription) -> None:
        """Voluntarily drop a subscription (consumer went away cleanly)."""
        if subscription in self._subscribers:
            self._subscribers.remove(subscription)
        subscription._close("closed")

    def close(self) -> None:
        """Close the feed and every subscription (tenant eviction)."""
        if self._closed:
            return
        self._closed = True
        for subscription in self._subscribers:
            subscription._close("closed")
        self._subscribers.clear()
        self.source.close()


__all__ = [
    "DeltaSource",
    "SessionDeltaSource",
    "Subscription",
    "ViolationDelta",
    "ViolationFeed",
    "ViolationRecord",
    "diff_records",
    "record_delta",
    "replay",
    "report_records",
]
