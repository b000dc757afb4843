"""Cross-backend conformance kit: the entry bar for detection backends.

The facade's contract is that choosing a backend is a *performance*
decision, never an API decision: every backend must produce the same
``ViolationReport`` — identical down to violation-list order — the same
summaries, the same verdicts, and the same mutation semantics. This
module turns the equivalence assertions that used to be scattered across
``test_api_backends.py`` / ``test_engine_cross.py`` / ``test_scan_cache.py``
into one reusable kit:

* :func:`report_key` / :func:`assert_reports_bit_identical` — the
  order-sensitive, identity-free fingerprints every suite compares on;
* :func:`assert_session_matches_reference` — one session held to the
  naive oracle across check/count/is_clean/stream;
* :func:`assert_all_backends_agree` — every registered in-memory backend
  against the oracle (the historical ``test_api_backends`` helper, now
  shared);
* :class:`BackendContract` — a pytest suite a backend passes by
  registering **one** ``make_session`` fixture. New backends (``sqlfile``
  was the first customer) get report-order, summary, stream, is_clean,
  warm-recheck, and mutation-semantics coverage for free; see
  ``tests/test_conformance.py`` for the registrations.

``make_session(db, sigma)`` must return an open ``repro.api.Session``
over data *equivalent to* the in-memory instance ``db`` — in-memory
backends use ``db`` itself, file-backed backends materialize it (e.g.
into a sqlite file) first. Mutation tests always pass a private copy, so
factories may consume ``db`` destructively.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.violations import check_database_naive
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.errors import ReproError, SessionClosedError, UnknownTenantError
from repro.relational.instance import Tuple
from repro.serve import DetectionService, replay, report_records


def in_memory_backend_names() -> tuple[str, ...]:
    """Registered backends that take a ``DatabaseInstance`` directly
    (file-backed backends need a materialization step; see the contract
    registrations instead)."""
    return tuple(
        sorted(
            name
            for name, cls in api.BACKENDS.items()
            if not getattr(cls, "accepts_path", False)
        )
    )


def report_key(report):
    """Order-sensitive, identity-free fingerprint of a ViolationReport."""
    return (
        [
            (report.label_for(v.cfd), v.pattern_index, v.lhs_values,
             tuple(t.values for t in v.tuples), v.kind)
            for v in report.cfd_violations
        ],
        [
            (report.label_for(v.cind), v.pattern_index, v.tuple_.values)
            for v in report.cind_violations
        ],
    )


def assert_reports_bit_identical(actual, expected, context=""):
    """Same violations, same order — the backend is a drop-in replacement."""
    assert report_key(actual) == report_key(expected), context
    assert actual.by_constraint() == expected.by_constraint(), context


def assert_session_matches_reference(session, reference, context=""):
    """Hold one open session to the naive oracle's *reference* report."""
    expected = report_key(reference)
    report = session.check()
    assert report_key(report) == expected, context
    summary = session.count()
    assert summary.total == reference.total, context
    assert summary.by_constraint() == reference.by_constraint(), context
    assert session.is_clean() == reference.is_clean, context
    assert [type(v).__name__ for v in session.stream()] == [
        type(v).__name__
        for v in reference.cfd_violations + reference.cind_violations
    ], context


def assert_all_backends_agree(db, sigma, backends=None):
    """Every registered in-memory backend produces the reference report.
    (File-backed backends register through the :class:`BackendContract`
    instead — they need a materialization step.)
    """
    if backends is None:
        backends = in_memory_backend_names()
    reference = check_database_naive(db, sigma)
    for name in backends:
        with api.connect(db, sigma, backend=name) as session:
            assert_session_matches_reference(session, reference, name)
    return reference


class BackendContract:
    """Conformance suite: subclass, register ``make_session``, done.

    The fixture is the whole registration::

        class TestSQLFileContract(BackendContract):
            @pytest.fixture
            def make_session(self, tmp_path):
                def factory(db, sigma):
                    path = create_database_file(tmp_path / "c.db", db)
                    return api.connect(path, sigma, backend="sqlfile")
                return factory
    """

    #: A UK checking interest row with the wrong rate: a single-tuple
    #: violation of ϕ3 (the tableau demands rt='1.5%').
    DIRTY_ROW = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}

    @pytest.fixture
    def make_session(self):
        raise NotImplementedError(
            "register a make_session(db, sigma) fixture for the backend"
        )

    # -- report equivalence (bit-identical, including order) ---------------

    def test_bank_report_bit_identical(self, bank, make_session):
        reference = check_database_naive(bank.db, bank.constraints)
        assert reference.total == 2  # t10 and t12, as in the paper
        with make_session(bank.db, bank.constraints) as session:
            assert_reports_bit_identical(session.check(), reference)

    def test_commerce_report_bit_identical(self, make_session):
        db = commerce_instance(n_orders=120, error_rate=0.1, seed=11)
        sigma = commerce_constraints()
        reference = check_database_naive(db, sigma)
        assert not reference.is_clean  # the fixture plants errors
        with make_session(db, sigma) as session:
            assert_reports_bit_identical(session.check(), reference)

    def test_full_surface_matches_reference(self, bank, make_session):
        reference = check_database_naive(bank.db, bank.constraints)
        with make_session(bank.db, bank.constraints) as session:
            assert_session_matches_reference(session, reference)

    # -- summaries and verdicts --------------------------------------------

    def test_clean_database_reports_clean(self, bank, make_session):
        with make_session(bank.clean_db, bank.constraints) as session:
            assert session.is_clean() is True
            report = session.check()
            assert report.is_clean and report.total == 0
            assert session.count().total == 0

    def test_summary_matches_report(self, bank, make_session):
        with make_session(bank.db, bank.constraints) as session:
            report = session.check()
            summary = session.count()
            assert summary.total == report.total
            assert summary.by_constraint() == report.by_constraint()

    def test_is_clean_matches_report(self, bank, make_session):
        with make_session(bank.db, bank.constraints) as session:
            assert session.is_clean() is False
            assert session.is_clean() == session.check().is_clean

    def test_stream_yields_report_order(self, bank, make_session):
        with make_session(bank.db, bank.constraints) as session:
            report = session.check()
            streamed = list(session.stream())
            assert len(streamed) == report.total
            expected = report.cfd_violations + report.cind_violations
            for got, want in zip(streamed, expected):
                assert type(got) is type(want)
                assert report.label_for(
                    getattr(got, "cfd", None) or got.cind
                ) == report.label_for(getattr(want, "cfd", None) or want.cind)

    # -- stability ----------------------------------------------------------

    def test_warm_recheck_identical(self, bank, make_session):
        """A second check on the same session (cache warm) changes nothing."""
        with make_session(bank.db, bank.constraints) as session:
            first = session.check()
            assert report_key(session.check()) == report_key(first)
            assert session.count().total == first.total

    # -- mutation semantics -------------------------------------------------

    def test_insert_surfaces_new_violation(self, bank, make_session):
        with make_session(bank.clean_db.copy(), bank.constraints) as session:
            assert session.is_clean()
            assert session.insert("interest", dict(self.DIRTY_ROW)) is True
            assert session.insert("interest", dict(self.DIRTY_ROW)) is False
            assert not session.is_clean()
            assert "phi3" in session.check().by_constraint()

    def test_delete_restores_clean(self, bank, make_session):
        with make_session(bank.clean_db.copy(), bank.constraints) as session:
            session.insert("interest", dict(self.DIRTY_ROW))
            victim = Tuple(
                bank.schema.relation("interest"), dict(self.DIRTY_ROW)
            )
            assert session.delete("interest", victim) is True
            assert session.delete("interest", victim) is False
            assert session.is_clean()
            assert report_key(session.check()) == report_key(
                check_database_naive(bank.clean_db, bank.constraints)
            )

    def test_delete_accepts_plain_rows(self, bank, make_session):
        """``delete`` coerces sequence and mapping rows to ``Tuple`` (as
        ``apply`` does), so every backend deletes the same row."""
        interest = bank.schema.relation("interest")
        values = Tuple(interest, dict(self.DIRTY_ROW)).values
        with make_session(bank.clean_db.copy(), bank.constraints) as session:
            session.insert("interest", dict(self.DIRTY_ROW))
            assert session.delete("interest", list(values)) is True
            assert session.delete("interest", list(values)) is False
            assert session.is_clean()
            session.insert("interest", values)
            assert session.delete("interest", dict(self.DIRTY_ROW)) is True
            assert report_key(session.check()) == report_key(
                check_database_naive(bank.clean_db, bank.constraints)
            )

    def test_malformed_batch_changes_nothing(self, bank, make_session):
        """A batch holding one malformed row raises and applies none of
        its rows — not the deletes before it, not the inserts around it —
        so the next check still answers for the unchanged data."""
        reference = check_database_naive(bank.db, bank.constraints)
        victim = next(iter(bank.db["interest"])).values
        bad_batches = [
            {"inserts": [("interest", dict(self.DIRTY_ROW)), ("interest", ("bad",))]},
            {"inserts": [("interest", dict(self.DIRTY_ROW))],
             "deletes": [("interest", victim), ("interest", {"ab": "GLA"})]},
            {"inserts": [("interest", dict(self.DIRTY_ROW)),
                         ("no_such_relation", ("x",))]},
        ]
        with make_session(bank.db.copy(), bank.constraints) as session:
            assert report_key(session.check()) == report_key(reference)
            for batch in bad_batches:
                with pytest.raises(ReproError):
                    session.apply(**batch)
                assert report_key(session.check()) == report_key(reference)
                assert session.count().total == reference.total
            assert session.apply(deletes=[("interest", victim)]).deleted == 1

    def test_mutation_interleaving_matches_oracle(self, bank, make_session):
        """A fixed insert/check/delete/check script answers, at every
        observation point, exactly like a fresh naive oracle over a
        mirrored reference instance."""
        reference = bank.clean_db.copy()
        interest = bank.schema.relation("interest")
        rows = [
            dict(self.DIRTY_ROW),
            {"ab": "EDI", "ct": "UK", "at": "saving", "rt": "9.9%"},
            {"ab": "NYC", "ct": "US", "at": "checking", "rt": "0.0%"},
        ]
        with make_session(bank.clean_db.copy(), bank.constraints) as session:
            for row in rows:
                expected = reference["interest"].add(dict(row)) is not None
                assert session.insert("interest", dict(row)) == expected
                oracle = check_database_naive(reference, bank.constraints)
                assert report_key(session.check()) == report_key(oracle)
                assert session.is_clean() == oracle.is_clean
            for row in rows[:2]:
                victim = Tuple(interest, row)
                assert reference["interest"].discard(victim)
                assert session.delete("interest", victim) is True
                oracle = check_database_naive(reference, bank.constraints)
                assert report_key(session.check()) == report_key(oracle)
                assert session.count().by_constraint() == oracle.by_constraint()


#: Interest-relation rows drawn from small pools so batches collide with
#: the CFD/CIND patterns (and each other) frequently.
_INTEREST_ROW = st.fixed_dictionaries(
    {
        "ab": st.sampled_from(("GLA", "EDI", "NYC")),
        "ct": st.sampled_from(("UK", "US")),
        "at": st.sampled_from(("saving", "checking")),
        "rt": st.sampled_from(("1.5%", "9.9%", "0.0%")),
    }
)

#: One randomized apply batch: (inserts, deletes). Either side may be
#: empty; deletes may name absent rows (set-semantics no-ops).
_APPLY_BATCH = st.tuples(
    st.lists(_INTEREST_ROW, max_size=3), st.lists(_INTEREST_ROW, max_size=3)
)


class ServiceContract:
    """Serving-layer conformance: register one ``make_tenant`` fixture.

    ``make_tenant(service, name, db, sigma)`` is an *async* factory that
    opens a tenant on *service* over data equivalent to the in-memory
    instance ``db``, using the backend under test (file-backed backends
    materialize ``db`` into a sqlite file first; tests always pass a
    private copy, so factories may consume it). The suite then holds the
    service to the same bar the :class:`BackendContract` holds sessions
    to — reads and batch writes through :class:`repro.serve
    .DetectionService` agree bit-identically with direct sessions — plus
    the streaming contract: cumulative violation deltas replayed over a
    subscriber's baseline reconstruct every cold ``check()`` exactly,
    including order, under randomized batches (Hypothesis) and under
    concurrent readers/writers (the asyncio stress test).
    """

    DIRTY_ROW = BackendContract.DIRTY_ROW

    @pytest.fixture
    def make_tenant(self):
        raise NotImplementedError(
            "register an async make_tenant(service, name, db, sigma) "
            "fixture for the backend"
        )

    # -- reads through the service ------------------------------------------

    def test_reads_match_direct_session(self, bank, make_tenant):
        async def scenario():
            async with DetectionService() as service:
                await make_tenant(
                    service, "t", bank.db.copy(), bank.constraints
                )
                return (
                    await service.check("t"),
                    await service.count("t"),
                    await service.is_clean("t"),
                )

        report, summary, clean = asyncio.run(scenario())
        reference = check_database_naive(bank.db, bank.constraints)
        assert report_key(report) == report_key(reference)
        assert summary.by_constraint() == reference.by_constraint()
        assert clean == reference.is_clean

    def test_concurrent_reads_agree(self, bank, make_tenant):
        async def scenario():
            async with DetectionService(max_workers=4) as service:
                await make_tenant(
                    service, "t", bank.db.copy(), bank.constraints
                )
                reports = await asyncio.gather(
                    *(service.check("t") for __ in range(4))
                )
                return reports

        reports = asyncio.run(scenario())
        keys = {str(report_key(r)) for r in reports}
        assert len(keys) == 1
        reference = check_database_naive(bank.db, bank.constraints)
        assert report_key(reports[0]) == report_key(reference)

    # -- batch writes through the service -----------------------------------

    def test_apply_matches_direct_session(self, bank, make_tenant):
        extra = {"ab": "EDI", "ct": "US", "at": "saving", "rt": "0.0%"}

        async def scenario():
            async with DetectionService() as service:
                await make_tenant(
                    service, "t", bank.clean_db.copy(), bank.constraints
                )
                result, delta = await service.apply(
                    "t",
                    inserts=[
                        ("interest", dict(self.DIRTY_ROW)),
                        ("interest", dict(extra)),
                        ("interest", dict(extra)),  # duplicate: no-op
                    ],
                )
                return result, delta, await service.check("t")

        result, delta, report = asyncio.run(scenario())
        assert (result.inserted, result.deleted) == (2, 0)
        assert delta.seq == 1
        mirror = bank.clean_db.copy()
        mirror["interest"].add(dict(self.DIRTY_ROW))
        mirror["interest"].add(dict(extra))
        oracle = check_database_naive(mirror, bank.constraints)
        assert report_key(report) == report_key(oracle)
        assert report_records(report) == replay(
            report_records(check_database_naive(bank.clean_db, bank.constraints)),
            delta,
        )

    # -- the delta-replay gate (randomized, per ISSUE acceptance) ------------

    @settings(
        max_examples=8,
        deadline=None,
        # function_scoped_fixture: every example builds a fresh service
        # from factory fixtures, so examples never share state.
        # differing_executors: the one contract method deliberately runs
        # under each registered subclass (that is the whole pattern).
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.differing_executors,
        ],
    )
    @given(batches=st.lists(_APPLY_BATCH, min_size=1, max_size=4))
    def test_delta_replay_bit_identical(self, bank, make_tenant, batches):
        """After every randomized batch, baseline + streamed deltas ==
        a cold check() — bit-identical, including order."""

        async def scenario():
            async with DetectionService() as service:
                await make_tenant(
                    service, "t", bank.db.copy(), bank.constraints
                )
                sub = await service.subscribe("t")
                records = sub.baseline
                assert records == report_records(await service.check("t"))
                for inserts, deletes in batches:
                    await service.apply(
                        "t",
                        inserts=[("interest", dict(r)) for r in inserts],
                        deletes=[("interest", dict(r)) for r in deletes],
                    )
                    delta = await sub.__anext__()
                    records = replay(records, delta)
                    cold = report_records(await service.check("t"))
                    assert records == cold

        asyncio.run(scenario())

    # -- the asyncio stress test ---------------------------------------------

    def test_stream_exact_under_concurrency(self, bank, make_tenant):
        """Interleave apply batches, concurrent reads, and a delta
        subscriber; cross-validate the stream against full re-check
        reports recorded after each commit."""
        pool = [
            {"ab": ab, "ct": ct, "at": "checking", "rt": rt}
            for ab in ("GLA", "EDI", "NYC")
            for ct, rt in (("UK", "1.5%"), ("UK", "9.9%"), ("US", "0.0%"))
        ]

        async def scenario():
            async with DetectionService(max_workers=4) as service:
                await make_tenant(
                    service, "t", bank.db.copy(), bank.constraints
                )
                sub = await service.subscribe("t")
                truth = {}

                async def writer():
                    for i in range(6):
                        inserts = [("interest", dict(pool[i % len(pool)]))]
                        deletes = (
                            [("interest", dict(pool[(i * 2) % len(pool)]))]
                            if i % 2
                            else []
                        )
                        __, delta = await service.apply(
                            "t", inserts=inserts, deletes=deletes
                        )
                        # Single writer: no commit can slip between this
                        # apply and the check, so the report is seq's truth.
                        truth[delta.seq] = report_records(
                            await service.check("t")
                        )

                async def reader():
                    for __ in range(8):
                        summary = await service.count("t")
                        assert summary.total >= 0
                        await service.is_clean("t")

                replayed = []

                async def consumer():
                    records = sub.baseline
                    async for delta in sub:
                        records = replay(records, delta)
                        replayed.append((delta.seq, records))

                consumer_task = asyncio.create_task(consumer())
                await asyncio.gather(writer(), reader(), reader())
                service.unsubscribe("t", sub)
                await consumer_task
                return truth, replayed

        truth, replayed = asyncio.run(scenario())
        assert [seq for seq, __ in replayed] == sorted(truth)
        for seq, records in replayed:
            assert records == truth[seq], f"stream diverged at seq {seq}"

    # -- eviction and the close-path contract --------------------------------

    def test_evicted_tenant_raises(self, bank, make_tenant):
        async def scenario():
            async with DetectionService() as service:
                handle = await make_tenant(
                    service, "t", bank.db.copy(), bank.constraints
                )
                sub = await service.subscribe("t")
                assert await service.evict("t") is True
                assert await service.evict("t") is False
                with pytest.raises(UnknownTenantError):
                    await service.check("t")
                # The evicted tenant's session is *closed*, not leaked:
                # direct use now fails loudly and predictably.
                assert handle.session.closed
                with pytest.raises(SessionClosedError):
                    handle.session.check()
                # ... and its subscriptions terminate cleanly.
                with pytest.raises(StopAsyncIteration):
                    await sub.__anext__()
                assert sub.reason == "closed"

        asyncio.run(scenario())
