"""Every backend × the :class:`~tests.conformance.BackendContract` suite.

One registration (a ``make_session`` fixture) per backend — including the
out-of-core ``sqlfile`` backend, which materializes the canonical
instance into an on-disk sqlite file first, and a variant of it (sparse
rowids) to show such combinations register just as easily. The
``workers`` registrations pin that the option still changes nothing:
detection is serial at every value. This file is the entry bar for new
backends: add a class, inherit the contract, done.

The second half registers every backend against the
:class:`~tests.conformance.ServiceContract` — the same bar, but through
:class:`repro.serve.DetectionService`: async reads/batch-writes must
agree bit-identically with direct sessions, and streamed violation
deltas must replay to every cold check exactly (randomized batches +
concurrent interleavings).
"""

from __future__ import annotations

import itertools
import os
import sqlite3

import pytest

from repro import api
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
    """The memory backend with ``workers=2``: the option is accepted and
    detection stays serial, so the whole contract holds unchanged."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory("memory", workers=2)


class TestPersistentPoolMemoryContract(BackendContract):
    """The session the benchmark's ``par_check`` op opens —
    ``workers=os.cpu_count()`` on one long-lived session that serves
    every check/count/is_clean and the DML between them — must stay on
    the same contract as the default session."""

    @pytest.fixture
    def make_session(self):
        return _simple_factory("memory", workers=os.cpu_count() or 1)


class TestSparseRowidSQLFileContract(BackendContract):
    """The out-of-core backend over a file whose rowids have gaps: a
    carried cache keys CIND hits and CFD first rows by rowid, so nothing
    may assume rowids are dense or start at 1 (files that saw deletes
    look like this)."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"sparse_{next(counter)}.db"
            create_database_file(path, db)
            conn = sqlite3.connect(path)
            for relation in db.schema.relation_names:
                # Negate first so no new rowid collides with an old one.
                conn.execute(f'UPDATE "{relation}" SET rowid = -rowid')
                conn.execute(f'UPDATE "{relation}" SET rowid = 5 - 3 * rowid')
            conn.commit()
            conn.close()
            return api.connect(path, sigma, backend="sqlfile")

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
    """The out-of-core backend with ``workers=2``, the setting that once
    split its scans into rowid windows: detection is serial now, and the
    contract must hold unchanged, violation-list order included."""

    @pytest.fixture
    def make_session(self, tmp_path):
        counter = itertools.count()

        def factory(db, sigma):
            path = tmp_path / f"windowed_{next(counter)}.db"
            create_database_file(path, db)
            return api.connect(path, sigma, backend="sqlfile", workers=2)

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
