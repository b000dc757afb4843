"""Every backend × the :class:`~tests.conformance.BackendContract` suite.

One registration (a ``make_session`` fixture) per backend — including the
out-of-core ``sqlfile`` backend, which materializes the canonical
instance into an on-disk sqlite file first, and a parallel-dispatch
variant of the memory backend to show option combinations register just
as easily. This file is the entry bar for new backends: add a class,
inherit the contract, done.

The second half registers every backend against the
:class:`~tests.conformance.ServiceContract` — the same bar, but through
:class:`repro.serve.DetectionService`: async reads/batch-writes must
agree bit-identically with direct sessions, and streamed violation
deltas must replay to every cold check exactly (randomized batches +
concurrent interleavings).
"""

from __future__ import annotations

import itertools

import pytest

from repro import api
from repro.api.parallel import fork_available
from repro.sql.loader import create_database_file

from tests.conformance import BackendContract, ServiceContract


def _simple_factory(name, **options):
    def factory(db, sigma):
        return api.connect(db, sigma, backend=name, **options)

    return factory


class TestMemoryContract(BackendContract):
    @pytest.fixture
    def make_session(self):
        return _simple_factory("memory")


class TestNaiveContract(BackendContract):
    @pytest.fixture
    def make_session(self):
        return _simple_factory("naive")


class TestSQLContract(BackendContract):
    @pytest.fixture
    def make_session(self):
        return _simple_factory("sql")


class TestParallelMemoryContract(BackendContract):
    """The memory backend under thread-pool scan-group dispatch."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory("memory", workers=2, executor="thread")


class TestShardedParallelMemoryContract(BackendContract):
    """The memory backend with row-range sharding forced *on*: every scan
    unit splits into three shards (min_shard_rows=1 so even the tiny
    fixture relations shard), exercising the task-graph scheduler's
    map/merge/finalize path end to end against the full contract."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory(
            "memory", workers=2, executor="thread",
            shards=3, min_shard_rows=1,
        )


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestProcessShardedParallelMemoryContract(BackendContract):
    """The memory backend on the fork-based *process* pool with sharding
    forced on: shard states and hit payloads cross a real process
    boundary (pickled plain values, parent-side rebind) and must still
    satisfy the whole contract bit-identically."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory(
            "memory", workers=2, executor="process",
            shards=2, min_shard_rows=1,
        )


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestPersistentPoolMemoryContract(BackendContract):
    """The session-persistent fork pool with work stealing forced on:
    one pool serves every check/count/is_clean in a contract scenario,
    DML between calls drives the drift protocol (shared-memory column
    segments or epoch re-forks), and over-partitioned shards
    (``steal_granularity``) make idle workers steal — all while every
    report stays bit-identical to the serial oracle, list order
    included."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory(
            "memory", workers=2, executor="process",
            pool="persistent", steal_granularity=2, min_shard_rows=1,
        )


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestPerCallPoolMemoryContract(BackendContract):
    """``pool="per-call"`` keeps the historical fork-per-check dispatch
    alive as an explicit opt-out; it must stay on the same contract."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory(
            "memory", workers=2, executor="process",
            pool="per-call", shards=2, min_shard_rows=1,
        )


class TestContentFingerprintSQLFileContract(BackendContract):
    """The out-of-core backend with the content-hash fingerprint mode —
    the full contract must hold regardless of how cache invalidation
    detects foreign writes."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"content_{next(counter)}.db"
            create_database_file(path, db)
            return api.connect(
                path, sigma, backend="sqlfile", fingerprint="content"
            )

        return factory


class TestSQLFileContract(BackendContract):
    """The out-of-core backend, run against real on-disk sqlite files."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"contract_{next(counter)}.db"
            create_database_file(path, db)
            return api.connect(path, sigma, backend="sqlfile")

        return factory


class TestWindowedSQLFileContract(BackendContract):
    """The out-of-core backend under rowid-window parallel dispatch:
    every cold scan unit splits into three contiguous rowid windows
    (min_shard_rows=1 so even the tiny fixture relations split) run
    concurrently on a pool of read-only connections, and the merged
    partial states must satisfy the whole contract bit-identically —
    including violation-list order."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"windowed_{next(counter)}.db"
            create_database_file(path, db)
            return api.connect(
                path, sigma, backend="sqlfile",
                workers=2, executor="thread",
                shards=3, min_shard_rows=1,
            )

        return factory


class TestPersistentWindowedSQLFileContract(BackendContract):
    """The out-of-core backend with its persistent window connection
    pool and stealing-grade rowid windows: read-only connections live
    for the session (seeded witness tables dropped between executions),
    and over-partitioned windows merge in index order — the contract
    must hold across repeated checks and DML on one session."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"persistent_{next(counter)}.db"
            create_database_file(path, db)
            return api.connect(
                path, sigma, backend="sqlfile",
                workers=2, executor="thread", pool="persistent",
                steal_granularity=2, min_shard_rows=1,
            )

        return factory


class TestLegacySQLFileContract(BackendContract):
    """The out-of-core backend with ``window_functions="off"`` — the
    GROUP-BY-then-self-join SQL that is also the automatic fallback when
    the sqlite library lacks window functions must keep satisfying the
    full contract on its own."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"legacy_{next(counter)}.db"
            create_database_file(path, db)
            return api.connect(
                path, sigma, backend="sqlfile", window_functions="off"
            )

        return factory


# -- the serving layer: every backend behind DetectionService ---------------


def _service_tenant_factory(backend):
    async def factory(service, name, db, sigma):
        return await service.create_tenant(name, db, sigma, backend=backend)

    return factory


class TestMemoryServiceContract(ServiceContract):
    @pytest.fixture
    def make_tenant(self):
        return _service_tenant_factory("memory")


class TestNaiveServiceContract(ServiceContract):
    """The oracle behind the service: deltas come from a memory mirror
    session, never from diffing naive re-checks."""

    @pytest.fixture
    def make_tenant(self):
        return _service_tenant_factory("naive")


class TestSQLServiceContract(ServiceContract):
    @pytest.fixture
    def make_tenant(self):
        return _service_tenant_factory("sql")


class TestSQLFileServiceContract(ServiceContract):
    """The out-of-core backend behind the service: tenants live in real
    sqlite files, reads fan out over the read-only connection pool, and
    the delta mirror is seeded by loading the file back (rowid order)."""

    @pytest.fixture
    def make_tenant(self, tmp_path):
        counter = itertools.count()

        async def factory(service, name, db, sigma):
            path = tmp_path / f"svc_{next(counter)}.db"
            create_database_file(path, db)
            return await service.create_tenant(
                name, str(path), sigma, backend="sqlfile"
            )

        return factory
