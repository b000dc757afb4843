"""Unit tests for the serving layer (repro.serve) and its contracts.

The cross-backend equivalence gates live in the
:class:`tests.conformance.ServiceContract` registrations
(``test_conformance.py``); this file covers the mechanisms those gates
rest on: the read-biased RW lock, LRU registry, reader pool, the delta
diff/replay algebra, the bounded-queue slow-consumer policy, the
batch-DML invalidation-count contract, the idempotent close path, and
the NDJSON TCP protocol.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.errors import (
    ReproError,
    ServeError,
    ServiceOverloadedError,
    SessionClosedError,
    UnknownTenantError,
)
from repro.serve import (
    DetectionServer,
    DetectionService,
    ReaderPool,
    ReadWriteLock,
    SessionRegistry,
    Subscription,
    TenantHandle,
    ViolationDelta,
    ViolationFeed,
    diff_records,
    replay,
    report_records,
)
from repro.serve.feed import DeltaSource
from repro.serve.protocol import ProtocolError
from repro.sql.loader import create_database_file

DIRTY_ROW = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}


def run(coro):
    return asyncio.run(coro)


# -- ReadWriteLock ----------------------------------------------------------


class TestReadWriteLock:
    def test_readers_are_concurrent(self):
        async def scenario():
            lock = ReadWriteLock()
            peak = 0

            async def reader():
                nonlocal peak
                async with lock.reading():
                    peak = max(peak, lock.readers)
                    await asyncio.sleep(0)
                    peak = max(peak, lock.readers)

            await asyncio.gather(*(reader() for __ in range(5)))
            return peak

        assert run(scenario()) > 1

    def test_writer_excludes_everyone(self):
        async def scenario():
            lock = ReadWriteLock()
            events = []

            async def writer(tag):
                async with lock.writing():
                    events.append(("start", tag))
                    await asyncio.sleep(0.01)
                    events.append(("end", tag))

            async def reader():
                async with lock.reading():
                    events.append(("read", lock.write_held))

            await asyncio.gather(writer("a"), writer("b"), reader())
            return events

        events = run(scenario())
        # Writer sections never interleave ...
        starts = [i for i, (kind, __) in enumerate(events) if kind == "start"]
        for i in starts:
            assert events[i + 1][0] == "end"
        # ... and no reader ever observed the write flag held.
        assert all(not held for kind, held in events if kind == "read")

    def test_read_biased_admission(self):
        """A reader arriving while a writer *waits* (but does not hold)
        still gets in — the BRAVO-style read preference."""

        async def scenario():
            lock = ReadWriteLock()
            order = []

            async def long_reader(release: asyncio.Event):
                async with lock.reading():
                    order.append("r1-in")
                    await release.wait()
                order.append("r1-out")

            async def writer():
                async with lock.writing():
                    order.append("w-in")

            async def late_reader():
                async with lock.reading():
                    order.append("r2-in")

            release = asyncio.Event()
            first = asyncio.create_task(long_reader(release))
            await asyncio.sleep(0)            # r1 holds the read side
            blocked = asyncio.create_task(writer())
            await asyncio.sleep(0)            # writer now waits on r1
            late = asyncio.create_task(late_reader())
            await asyncio.sleep(0.01)
            assert "r2-in" in order           # admitted past the waiting writer
            assert "w-in" not in order
            release.set()
            await asyncio.gather(first, blocked, late)
            return order

        order = run(scenario())
        assert order.index("r2-in") < order.index("w-in")

    def test_uncontended_reads_take_the_fast_path(self):
        """With no writer in sight, every read is a slot claim — no
        Condition, no slow counter (the BRAVO fast path)."""

        async def scenario():
            lock = ReadWriteLock()
            for __ in range(5):
                async with lock.reading():
                    assert lock.readers == 1
            return lock.fast_reads, lock.slow_reads, lock.revocations

        assert run(scenario()) == (5, 0, 0)

    def test_writer_revokes_bias_and_restores_it(self):
        """A writer flips ``read_biased`` off for its whole critical
        section (readers behind it go slow), then re-arms it on release
        — after which reads are fast again."""

        async def scenario():
            lock = ReadWriteLock()
            observed = []

            async def writer():
                async with lock.writing():
                    observed.append(lock.read_biased)
                    await asyncio.sleep(0.01)

            async def reader(tag):
                async with lock.reading():
                    observed.append(tag)

            assert lock.read_biased
            w = asyncio.create_task(writer())
            await asyncio.sleep(0)            # writer holds the lock
            await asyncio.gather(reader("during"), w)
            slow_after_revoke = lock.slow_reads
            assert lock.read_biased           # re-armed on release
            await reader("after")
            return observed, slow_after_revoke, lock.fast_reads

        observed, slow, fast = run(scenario())
        assert observed == [False, "during", "after"]
        assert slow == 1                      # the blocked reader went slow
        assert fast == 1                      # the post-release reader is fast
        # and the writer paid exactly one revocation
        # (fast/slow split is observable, so assert it stays stable)

    def test_bias_stays_revoked_while_writers_queue(self):
        """Back-to-back writers: the first release must not re-arm the
        fast path while a second writer is already waiting, or that
        writer's revocation barrier would race fresh fast readers."""

        async def scenario():
            lock = ReadWriteLock()
            biases = []

            async def writer():
                async with lock.writing():
                    biases.append(lock.read_biased)
                    await asyncio.sleep(0.005)

            await asyncio.gather(writer(), writer())
            return biases, lock.read_biased, lock.revocations

        biases, final, revocations = run(scenario())
        assert biases == [False, False]
        assert final is True
        assert revocations == 2

    def test_fast_and_slow_readers_agree_on_exclusion(self):
        """Cross-validation: force a slot collision so one reader goes
        slow while another is fast — both count in ``readers`` and both
        hold off a writer until they drain."""

        async def scenario():
            lock = ReadWriteLock()
            lock._slots = [None]              # 1 slot → second reader collides
            release = asyncio.Event()
            order = []

            async def reader(tag):
                async with lock.reading():
                    order.append(tag)
                    await release.wait()

            async def writer():
                async with lock.writing():
                    order.append("w")

            r1 = asyncio.create_task(reader("fast"))
            await asyncio.sleep(0)
            r2 = asyncio.create_task(reader("slow"))
            await asyncio.sleep(0)
            assert lock.fast_reads == 1 and lock.slow_reads == 1
            assert lock.readers == 2
            w = asyncio.create_task(writer())
            await asyncio.sleep(0.005)
            assert order == ["fast", "slow"]  # writer still barred
            release.set()
            await asyncio.gather(r1, r2, w)
            return order

        assert run(scenario()) == ["fast", "slow", "w"]


# -- SessionRegistry and ReaderPool -----------------------------------------


class _NullSource(DeltaSource):
    def commit(self, inserts, deletes):
        return ()

    def baseline(self):
        return ()


def _handle(name, bank):
    session = api.connect(bank.clean_db.copy(), bank.constraints)
    return TenantHandle(
        name=name, session=session, feed=ViolationFeed(name, _NullSource())
    )


class TestSessionRegistry:
    def test_lru_eviction_closes_sessions(self, bank):
        registry = SessionRegistry(capacity=2)
        handles = [_handle(n, bank) for n in ("a", "b", "c")]
        registry.register(handles[0])
        registry.register(handles[1])
        registry.get("a")                      # refresh: b becomes LRU
        registry.register(handles[2])          # evicts b
        assert registry.tenants() == ["a", "c"]
        assert registry.evictions == 1
        assert handles[1].session.closed
        with pytest.raises(SessionClosedError):
            handles[1].session.check()

    def test_duplicate_and_unknown(self, bank):
        registry = SessionRegistry(capacity=2)
        registry.register(_handle("a", bank))
        with pytest.raises(ServeError):
            registry.register(_handle("a", bank))
        with pytest.raises(UnknownTenantError):
            registry.get("nope")
        assert registry.evict("nope") is False
        registry.close()
        assert len(registry) == 0

    def test_capacity_validation(self):
        with pytest.raises(ServeError):
            SessionRegistry(capacity=0)


class TestReaderPool:
    def test_backpressure_and_reuse(self, bank, tmp_path):
        path = create_database_file(tmp_path / "pool.db", bank.clean_db)
        options = api.ExecutionOptions(readonly=True)

        def factory():
            return api.connect(
                str(path), bank.constraints, backend="sqlfile", options=options
            )

        async def scenario():
            pool = ReaderPool(factory, size=2)
            assert len(pool) == 2
            order = []
            async with pool.acquire() as s1:
                async with pool.acquire() as s2:
                    assert s1 is not s2

                    async def third():
                        async with pool.acquire() as s3:
                            order.append(("acquired", s3 in (s1, s2)))

                    waiter = asyncio.create_task(third())
                    await asyncio.sleep(0.01)
                    assert order == []       # both busy: third() waits
                # s2 released -> third() proceeds with a *reused* session
                await waiter
            assert order == [("acquired", True)]
            pool.close()

        run(scenario())

    def test_size_validation(self):
        with pytest.raises(ServeError):
            ReaderPool(lambda: None, size=0)


# -- sqlfile tenants under foreign commits ----------------------------------

#: A violating order: its customer does not exist.
GHOST_ORDER = ("z1", "ghost", "DE", "sku2", "16", "paid")


def _foreign(path, *statements):
    """Commit *statements* (``(sql, params)`` pairs) on a connection of
    its own, as another program writing the tenant's file would."""
    other = sqlite3.connect(path)
    try:
        for sql, params in statements:
            other.execute(sql, params)
        other.commit()
    finally:
        other.close()


def _cold(path, sigma):
    with api.connect(path, sigma, backend="sqlfile") as session:
        return report_records(session.check())


class TestSQLFileForeignCommits:
    """A writable sqlfile tenant reads and streams from its own session,
    which sees another connection's commit through ``PRAGMA
    data_version``: its cache is cleared, the next read re-scans, and the
    next delta falls back to a check and a diff."""

    @pytest.fixture
    def tenant_file(self, tmp_path):
        db = commerce_instance(n_orders=500, error_rate=0.1, seed=3)
        return create_database_file(tmp_path / "tenant.db", db)

    def test_feed_follows_a_foreign_commit(self, tenant_file):
        sigma = commerce_constraints()

        async def scenario():
            async with DetectionService() as service:
                handle = await service.create_tenant(
                    "t", str(tenant_file), sigma, backend="sqlfile"
                )
                assert handle.readers is None
                sub = await service.subscribe("t")
                _foreign(tenant_file, (
                    'INSERT INTO "orders" VALUES (?, ?, ?, ?, ?, ?)', GHOST_ORDER
                ))
                await service.apply(
                    "t", inserts=[("customers", ("newcomer", "FR", "vip"))]
                )
                cold = _cold(tenant_file, sigma)
                replayed = replay(sub.baseline, await sub.__anext__())
                assert replayed == cold
                assert [r for r in replayed if r[0] == "cind" and r[3] == GHOST_ORDER]
                assert report_records(await service.check("t")) == cold

        run(scenario())

    def test_swap_behind_an_unchanged_rowid_envelope(self, tenant_file):
        """The newest orders row deleted and another inserted under its
        rowid: same max rowid, same count, different content."""
        sigma = commerce_constraints()
        envelope = 'SELECT MAX(rowid), COUNT(*) FROM "orders"'

        async def scenario():
            async with DetectionService() as service:
                await service.create_tenant(
                    "t", str(tenant_file), sigma, backend="sqlfile"
                )
                sub = await service.subscribe("t")
                await service.check("t")
                with sqlite3.connect(tenant_file) as probe:
                    [before] = probe.execute(envelope).fetchall()
                probe.close()
                _foreign(
                    tenant_file,
                    ('DELETE FROM "orders" WHERE rowid = ?', (before[0],)),
                    ('INSERT INTO "orders" VALUES (?, ?, ?, ?, ?, ?)', GHOST_ORDER),
                )
                with sqlite3.connect(tenant_file) as probe:
                    assert probe.execute(envelope).fetchall() == [before]
                probe.close()
                cold = _cold(tenant_file, sigma)
                assert report_records(await service.check("t")) == cold
                await service.apply(
                    "t", inserts=[("customers", ("newcomer", "FR", "vip"))]
                )
                replayed = replay(sub.baseline, await sub.__anext__())
                assert replayed == _cold(tenant_file, sigma)
                assert [r for r in replayed if r[0] == "cind" and r[3] == GHOST_ORDER]

        run(scenario())

    def test_readonly_tenant_reads_through_its_pool(self, tenant_file):
        sigma = commerce_constraints()
        options = api.ExecutionOptions(readonly=True)

        async def scenario():
            async with DetectionService(reader_pool_size=2) as service:
                handle = await service.create_tenant(
                    "t", str(tenant_file), sigma, backend="sqlfile",
                    options=options,
                )
                assert handle.readers is not None and len(handle.readers) == 2
                assert report_records(await service.check("t")) == _cold(
                    tenant_file, sigma
                )
                _foreign(tenant_file, (
                    'INSERT INTO "orders" VALUES (?, ?, ?, ?, ?, ?)', GHOST_ORDER
                ))
                cold = _cold(tenant_file, sigma)
                for __ in range(2):  # each pooled reader
                    assert report_records(await service.check("t")) == cold

        run(scenario())


# -- delta algebra -----------------------------------------------------------

_RECORD = st.tuples(
    st.sampled_from(("cfd", "cind")), st.integers(0, 5), st.integers(0, 5)
)
_RECORDS = st.lists(_RECORD, max_size=12).map(tuple)


class TestDeltaAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(old=_RECORDS, new=_RECORDS)
    def test_diff_replay_roundtrip(self, old, new):
        removed, added = diff_records(old, new)
        delta = ViolationDelta(seq=1, removed=removed, added=added)
        assert replay(old, delta) == new

    @settings(max_examples=100, deadline=None)
    @given(old=_RECORDS, new=_RECORDS)
    def test_diff_never_ships_unchanged_suffix(self, old, new):
        """Records common to both sequences are not re-shipped: the wire
        cost is bounded by the number of *changed* positions."""
        removed, added = diff_records(old, new)
        assert len(removed) <= len(old)
        assert len(added) <= len(new)
        if old == new:
            assert removed == () and added == ()

    def test_replay_is_unambiguous_under_duplicate_records(self):
        """Removals are position-tagged: dropping the *last* of two equal
        records replays exactly, not to a reordered report."""
        a, b = ("cfd", 0, 0), ("cind", 0, 0)
        removed, added = diff_records((a, b, a), (a, b))
        delta = ViolationDelta(seq=1, removed=removed, added=added)
        assert replay((a, b, a), delta) == (a, b)

    def test_replay_rejects_wrong_baseline(self):
        delta = ViolationDelta(seq=3, removed=((0, ("cfd", 1, 1)),), added=())
        with pytest.raises(ServeError):
            replay((("cind", 0, 0),), delta)
        with pytest.raises(ServeError):
            replay((), delta)                 # position out of range


# -- feed: bounded queues and the slow-consumer policy -----------------------


class TestViolationFeed:
    def test_slow_consumer_evicted(self):
        async def scenario():
            feed = ViolationFeed("t", _NullSource())
            slow = feed.subscribe(maxsize=1)
            fast = feed.subscribe(maxsize=8)
            d1 = ViolationDelta(seq=1, removed=(), added=())
            d2 = ViolationDelta(seq=2, removed=(), added=())
            feed.publish(d1)
            feed.publish(d2)                  # slow queue full -> evicted
            assert feed.evicted == 1
            assert slow.reason == "lagging"
            assert fast.reason is None
            # The fast consumer still sees everything, in order.
            assert (await fast.__anext__()).seq == 1
            assert (await fast.__anext__()).seq == 2
            # The evicted one stops immediately: partial delivery is void,
            # so the close sentinel displaces anything still queued.
            with pytest.raises(StopAsyncIteration):
                await slow.__anext__()

        run(scenario())

    def test_close_terminates_subscribers(self):
        async def scenario():
            feed = ViolationFeed("t", _NullSource())
            sub = feed.subscribe()
            feed.close()
            assert sub.reason == "closed"
            with pytest.raises(StopAsyncIteration):
                await sub.__anext__()
            with pytest.raises(ServeError):
                feed.subscribe()
            feed.close()                      # idempotent

        run(scenario())

    def test_unsubscribe_stops_delivery(self):
        async def scenario():
            feed = ViolationFeed("t", _NullSource())
            sub = feed.subscribe()
            feed.unsubscribe(sub)
            feed.publish(ViolationDelta(seq=1, removed=(), added=()))
            with pytest.raises(StopAsyncIteration):
                await sub.__anext__()
            assert feed.subscriber_count == 0

        run(scenario())

    def test_every_commit_yields_a_delta(self, bank):
        """Empty deltas are still published — seq continuity is how
        subscribers prove they missed nothing."""

        async def scenario():
            async with DetectionService() as service:
                await service.create_tenant(
                    "t", bank.clean_db.copy(), bank.constraints
                )
                sub = await service.subscribe("t")
                # A no-op batch (delete of an absent row) still commits.
                __, delta = await service.apply(
                    "t", deletes=[("interest", dict(DIRTY_ROW))]
                )
                assert delta.seq == 1 and delta.empty
                got = await sub.__anext__()
                assert got.seq == 1 and got.empty

        run(scenario())


# -- batch DML: the one-invalidation contract --------------------------------


class TestBatchInvalidation:
    N = 50

    def _rows(self):
        return [
            {"ab": f"B{i}", "ct": "US", "at": "saving", "rt": f"{i}%"}
            for i in range(self.N)
        ]

    @pytest.mark.parametrize("backend", ["memory", "naive", "sql"])
    def test_one_invalidation_per_batch(self, bank, backend):
        session = api.connect(
            bank.clean_db.copy(), bank.constraints, backend=backend
        )
        calls = []
        original = session.backend._invalidate

        def counting_invalidate():
            calls.append(1)
            original()

        session.backend._invalidate = counting_invalidate

        rows = self._rows()
        result = session.apply(
            inserts=[("interest", dict(r)) for r in rows]
        )
        assert result.inserted == self.N
        assert len(calls) == 1, (
            f"{backend}: a {self.N}-row batch must invalidate once, "
            f"got {len(calls)}"
        )
        # The single-row path pays one invalidation per row — that gap is
        # the point of apply().
        calls.clear()
        for i, r in enumerate(rows):
            session.insert("interest", {**r, "ab": f"C{i}"})
        assert len(calls) == self.N
        # An all-no-op batch invalidates zero times.
        calls.clear()
        result = session.apply(inserts=[("interest", dict(rows[0]))])
        assert result.inserted == 0 and calls == []
        session.close()

    def test_sqlfile_one_transaction_per_batch(self, bank, tmp_path):
        path = create_database_file(tmp_path / "batch.db", bank.clean_db)
        session = api.connect(str(path), bank.constraints, backend="sqlfile")
        statements = []
        session.backend.conn.set_trace_callback(statements.append)
        rows = self._rows()
        result = session.apply(
            inserts=[("interest", dict(r)) for r in rows],
            deletes=[("interest", dict(DIRTY_ROW))],  # absent: no-op
        )
        assert result.inserted == self.N and result.deleted == 0
        begins = [s for s in statements if s.startswith("BEGIN")]
        commits = [s for s in statements if s.startswith("COMMIT")]
        assert len(begins) == 1 and len(commits) == 1
        # Report correctness after the batch: matches a fresh session.
        warm = session.check()
        fresh = api.connect(str(path), bank.constraints, backend="sqlfile")
        from tests.conformance import assert_reports_bit_identical

        assert_reports_bit_identical(warm, fresh.check())
        fresh.close()
        session.close()

    def test_apply_deletes_before_inserts(self, bank):
        """A row both deleted and re-inserted in one batch ends present
        (deletes run first — the documented order)."""
        session = api.connect(bank.db.copy(), bank.constraints)
        row = dict(DIRTY_ROW)
        session.insert("interest", dict(row))
        result = session.apply(
            inserts=[("interest", dict(row))], deletes=[("interest", dict(row))]
        )
        assert result.inserted == 1 and result.deleted == 1
        assert {tuple(row.values())} <= {
            t.values for t in session.db["interest"]
        }
        session.close()


# -- Session close path ------------------------------------------------------


class TestSessionClose:
    def test_close_is_idempotent_and_guards_all_calls(self, bank):
        session = api.connect(bank.db.copy(), bank.constraints)
        session.close()
        session.close()                        # second close: no-op
        assert session.closed
        for call in (
            session.check,
            session.count,
            session.is_clean,
            session.stream,
            lambda: session.insert("interest", dict(DIRTY_ROW)),
            lambda: session.delete(
                "interest",
                next(iter(bank.db["interest"])),
            ),
            lambda: session.apply(inserts=[("interest", dict(DIRTY_ROW))]),
        ):
            with pytest.raises(SessionClosedError):
                call()

    def test_session_closed_error_is_repro_error(self):
        assert issubclass(SessionClosedError, ReproError)
        assert issubclass(UnknownTenantError, ServeError)
        assert issubclass(ServeError, ReproError)

    def test_context_manager_closes(self, bank):
        with api.connect(bank.db.copy(), bank.constraints) as session:
            session.check()
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.count()


# -- the NDJSON TCP protocol -------------------------------------------------


@pytest.fixture
def bank_rows(bank):
    return {
        name: [list(t.values) for t in bank.db[name]]
        for name in bank.db.schema.relation_names
    }


async def _rpc(reader, writer, request):
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


class TestProtocol:
    def _server(self, bank):
        return DetectionServer(
            DetectionService(capacity=8),
            bank.db.schema,
            bank.constraints,
            port=0,
        )

    def test_request_response_surface(self, bank, bank_rows):
        async def scenario():
            server = await self._server(bank).start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                assert (await _rpc(reader, writer, {"op": "ping"})) == {
                    "ok": True,
                    "result": "pong",
                }
                created = await _rpc(
                    reader,
                    writer,
                    {"op": "create", "tenant": "w", "rows": bank_rows},
                )
                assert created["result"]["backend"] == "memory"
                report = await _rpc(
                    reader, writer, {"op": "check", "tenant": "w"}
                )
                assert report["result"]["total"] == 2  # t10 + t12
                applied = await _rpc(
                    reader,
                    writer,
                    {
                        "op": "apply",
                        "tenant": "w",
                        "inserts": [
                            ["interest", ["GLA", "UK", "checking", "9.9%"]]
                        ],
                    },
                )
                assert applied["result"]["inserted"] == 1
                assert applied["result"]["delta"]["seq"] == 1
                count = await _rpc(
                    reader, writer, {"op": "count", "tenant": "w"}
                )
                assert count["result"]["total"] > 2
                clean = await _rpc(
                    reader, writer, {"op": "is_clean", "tenant": "w"}
                )
                assert clean["result"] is False
                tenants = await _rpc(reader, writer, {"op": "tenants"})
                assert tenants["result"] == ["w"]
                evicted = await _rpc(
                    reader, writer, {"op": "evict", "tenant": "w"}
                )
                assert evicted["result"] is True
            finally:
                writer.close()
                await server.stop()

        run(scenario())

    def test_subscribe_streams_deltas_and_close(self, bank, bank_rows):
        async def scenario():
            server = await self._server(bank).start()
            host, port = server.address
            r1, w1 = await asyncio.open_connection(host, port)
            await _rpc(r1, w1, {"op": "create", "tenant": "w", "rows": bank_rows})
            r2, w2 = await asyncio.open_connection(host, port)
            baseline = await _rpc(r2, w2, {"op": "subscribe", "tenant": "w"})
            assert baseline["ok"] and baseline["result"]["seq"] == 0
            applied = await _rpc(
                r1,
                w1,
                {
                    "op": "apply",
                    "tenant": "w",
                    "inserts": [["interest", ["GLA", "UK", "checking", "9.9%"]]],
                },
            )
            event = json.loads(await r2.readline())
            assert event["event"] == "delta" and event["seq"] == 1
            # Wire deltas equal in-process deltas, field for field.
            assert event["removed"] == applied["result"]["delta"]["removed"]
            assert event["added"] == applied["result"]["delta"]["added"]
            await _rpc(r1, w1, {"op": "evict", "tenant": "w"})
            closed = json.loads(await r2.readline())
            assert closed == {"event": "closed", "reason": "closed"}
            w1.close()
            w2.close()
            await server.stop()

        run(scenario())

    def test_error_envelopes(self, bank):
        async def scenario():
            server = await self._server(bank).start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Unknown tenant: typed error, connection stays usable.
                resp = await _rpc(
                    reader, writer, {"op": "check", "tenant": "ghost"}
                )
                assert resp["ok"] is False
                assert resp["kind"] == "UnknownTenantError"
                # Malformed JSON.
                writer.write(b"{not json\n")
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert resp["ok"] is False and resp["kind"] == "ProtocolError"
                # Unknown op / missing tenant field.
                resp = await _rpc(reader, writer, {"op": "frobnicate"})
                assert resp["kind"] == "ProtocolError"
                resp = await _rpc(reader, writer, {"op": "check"})
                assert resp["kind"] == "ProtocolError"
                # Still alive after all of that.
                resp = await _rpc(reader, writer, {"op": "ping"})
                assert resp == {"ok": True, "result": "pong"}
            finally:
                writer.close()
                await server.stop()

        run(scenario())

    def test_bad_subscriber_maxsize_is_refused(self, bank, bank_rows):
        """A subscribe with a bad ``maxsize`` gets an error envelope and
        opens no subscription, so later applies on the tenant commit and
        answer as usual."""
        async def scenario():
            server = await self._server(bank).start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await _rpc(reader, writer,
                           {"op": "create", "tenant": "w", "rows": bank_rows})
                for bad in ("x", -1, 0, True, 2.5):
                    resp = await _rpc(reader, writer, {
                        "op": "subscribe", "tenant": "w", "maxsize": bad,
                    })
                    assert resp["ok"] is False, bad
                    assert resp["kind"] in ("ServeError", "ProtocolError")
                applied = await _rpc(reader, writer, {
                    "op": "apply", "tenant": "w",
                    "inserts": [["interest", ["GLA", "UK", "checking", "9.9%"]]],
                })
                assert applied["ok"] is True
                assert applied["result"]["delta"]["seq"] == 1
            finally:
                writer.close()
                await server.stop()

        run(scenario())

    def test_feed_rejects_bad_maxsize(self):
        feed = ViolationFeed("t", _NullSource())
        for bad in ("x", -1, 0, True):
            with pytest.raises(ServeError):
                feed.subscribe(maxsize=bad)
        assert feed.subscriber_count == 0
        assert feed.subscribe(maxsize=None)._queue.maxsize == feed.DEFAULT_QUEUE_SIZE

    def test_oversized_line_gets_an_envelope(self, bank, bank_rows):
        """A request line past the reader limit is answered with a
        ProtocolError naming the limit and closes only its connection."""
        from repro.serve.protocol import MAX_LINE_BYTES

        async def scenario():
            server = await self._server(bank).start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                rows = [["interest", [f"B{i}", "US", "saving", f"{i}%"]]
                        for i in range(MAX_LINE_BYTES // 30)]
                line = json.dumps({"op": "apply", "tenant": "w", "inserts": rows})
                assert len(line) > MAX_LINE_BYTES
                writer.write(line.encode() + b"\n")
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert resp["ok"] is False and resp["kind"] == "ProtocolError"
                assert str(MAX_LINE_BYTES) in resp["error"]
                assert await reader.read() == b""  # closed cleanly
            finally:
                writer.close()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                assert (await _rpc(reader, writer, {"op": "ping"}))["ok"]
            finally:
                writer.close()
                await server.stop()

        run(scenario())

    def test_protocol_error_is_serve_error(self):
        assert issubclass(ProtocolError, ServeError)


# -- service odds and ends ---------------------------------------------------


class TestDetectionService:
    def test_closed_service_refuses_calls(self, bank):
        async def scenario():
            service = DetectionService()
            await service.create_tenant(
                "t", bank.clean_db.copy(), bank.constraints
            )
            await service.close()
            await service.close()              # idempotent
            with pytest.raises(ServeError):
                await service.check("t")
            with pytest.raises(ServeError):
                await service.create_tenant(
                    "u", bank.clean_db.copy(), bank.constraints
                )

        run(scenario())

    def test_duplicate_tenant_rejected(self, bank):
        async def scenario():
            async with DetectionService() as service:
                await service.create_tenant(
                    "t", bank.clean_db.copy(), bank.constraints
                )
                with pytest.raises(ServeError):
                    await service.create_tenant(
                        "t", bank.clean_db.copy(), bank.constraints
                    )

        run(scenario())

    def test_writes_serialize_reads_interleave(self, bank):
        """Two concurrent apply batches serialize (seq never collides);
        commit counters and feed sequence stay consistent."""

        async def scenario():
            async with DetectionService(max_workers=4) as service:
                handle = await service.create_tenant(
                    "t", bank.clean_db.copy(), bank.constraints
                )
                rows = [
                    {"ab": f"B{i}", "ct": "US", "at": "saving", "rt": "1%"}
                    for i in range(8)
                ]
                deltas = await asyncio.gather(
                    *(
                        service.apply("t", inserts=[("interest", dict(r))])
                        for r in rows
                    )
                )
                seqs = sorted(d.seq for __, d in deltas)
                assert seqs == list(range(1, 9))
                assert handle.commits == 8
                assert handle.feed.seq == 8

        run(scenario())


# -- write admission control -------------------------------------------------


class TestAdmissionControl:
    """``max_pending_writes``: bounded per-tenant write queues that fail
    fast with a typed, retryable error instead of growing an unbounded
    writer-lock queue."""

    @staticmethod
    def _row(i):
        return {"ab": f"B{i}", "ct": "US", "at": "saving", "rt": "1%"}

    def test_overload_fails_fast_and_typed(self, bank):
        """With a limit of 1, a burst of concurrent applies admits exactly
        one batch; every other caller gets ServiceOverloadedError before
        anything of theirs is applied."""

        async def scenario():
            async with DetectionService(max_pending_writes=1) as service:
                handle = await service.create_tenant(
                    "t", bank.clean_db.copy(), bank.constraints
                )
                results = await asyncio.gather(
                    *(
                        service.apply(
                            "t", inserts=[("interest", dict(self._row(i)))]
                        )
                        for i in range(5)
                    ),
                    return_exceptions=True,
                )
                ok = [r for r in results if not isinstance(r, Exception)]
                rejected = [r for r in results if isinstance(r, Exception)]
                assert len(ok) == 1
                assert len(rejected) == 4
                assert all(
                    isinstance(r, ServiceOverloadedError) for r in rejected
                )
                # Rejected batches were never applied: one commit only.
                assert handle.commits == 1
                assert handle.feed.seq == 1

        run(scenario())

    def test_queue_drains_and_recovers(self, bank):
        """Overload is transient: once the admitted batch commits, the
        counter is back to zero and later applies succeed."""

        async def scenario():
            async with DetectionService(max_pending_writes=1) as service:
                handle = await service.create_tenant(
                    "t", bank.clean_db.copy(), bank.constraints
                )
                await asyncio.gather(
                    *(
                        service.apply(
                            "t", inserts=[("interest", dict(self._row(i)))]
                        )
                        for i in range(3)
                    ),
                    return_exceptions=True,
                )
                assert handle.pending_writes == 0
                __, delta = await service.apply(
                    "t", inserts=[("interest", dict(self._row(99)))]
                )
                assert delta.seq == handle.feed.seq
                assert handle.pending_writes == 0

        run(scenario())

    def test_unbounded_by_default(self, bank):
        """No limit configured (the historical behaviour): every batch in
        a burst queues on the writer lock and commits."""

        async def scenario():
            async with DetectionService() as service:
                handle = await service.create_tenant(
                    "t", bank.clean_db.copy(), bank.constraints
                )
                results = await asyncio.gather(
                    *(
                        service.apply(
                            "t", inserts=[("interest", dict(self._row(i)))]
                        )
                        for i in range(5)
                    )
                )
                assert len(results) == 5
                assert handle.commits == 5

        run(scenario())

    def test_limit_is_per_tenant(self, bank):
        """One tenant saturating its queue never consumes another
        tenant's admission budget."""

        async def scenario():
            async with DetectionService(max_pending_writes=1) as service:
                await service.create_tenant(
                    "a", bank.clean_db.copy(), bank.constraints
                )
                await service.create_tenant(
                    "b", bank.clean_db.copy(), bank.constraints
                )
                burst = [
                    service.apply(
                        "a", inserts=[("interest", dict(self._row(i)))]
                    )
                    for i in range(4)
                ] + [
                    service.apply(
                        "b", inserts=[("interest", dict(self._row(0)))]
                    )
                ]
                results = await asyncio.gather(*burst, return_exceptions=True)
                # Tenant b's lone batch is admitted regardless of a's burst.
                assert not isinstance(results[-1], Exception)

        run(scenario())

    def test_invalid_limit_rejected(self):
        with pytest.raises(ServeError):
            DetectionService(max_pending_writes=0)
        with pytest.raises(ServeError):
            DetectionService(max_pending_writes=-3)

    def test_overloaded_error_is_serve_error(self):
        """The protocol maps (ReproError, ServeError) to typed envelopes;
        subclassing ServeError is what makes the overload signal arrive
        as {"ok": false, "kind": "ServiceOverloadedError"} for free."""
        assert issubclass(ServiceOverloadedError, ServeError)

    def test_protocol_envelope_kind(self, bank, bank_rows):
        """Over the NDJSON protocol an overloaded tenant yields the typed
        envelope, and the connection stays usable (retryable)."""

        async def scenario():
            service = DetectionService(capacity=8, max_pending_writes=1)
            server = await DetectionServer(
                service, bank.db.schema, bank.constraints, port=0
            ).start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await _rpc(
                    reader, writer,
                    {"op": "create", "tenant": "w", "rows": bank_rows},
                )
                # Saturate the tenant's queue from the side: the next
                # apply must be rejected at admission, not queued.
                service.registry.get("w").pending_writes = 1
                resp = await _rpc(
                    reader, writer,
                    {
                        "op": "apply",
                        "tenant": "w",
                        "inserts": [
                            ["interest", ["GLA", "UK", "checking", "9.9%"]]
                        ],
                    },
                )
                assert resp["ok"] is False
                assert resp["kind"] == "ServiceOverloadedError"
                # Queue drains -> the very same request now succeeds.
                service.registry.get("w").pending_writes = 0
                resp = await _rpc(
                    reader, writer,
                    {
                        "op": "apply",
                        "tenant": "w",
                        "inserts": [
                            ["interest", ["GLA", "UK", "checking", "9.9%"]]
                        ],
                    },
                )
                assert resp["ok"] is True
            finally:
                writer.close()
                await server.stop()

        run(scenario())
