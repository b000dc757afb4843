"""The CFD SQL path: the prefilter picks candidate keys, the engine's
kernel decides.

:mod:`repro.sql.windows` narrows each CFD scan group to its candidate
keys, and :class:`~repro.sql.violations.SQLPlanExecutor` reads their
rows and hands them to the engine's kernel. Held here: the ``sqlfile``
report equals the naive oracle's, order included, on a dirty file and
across interleaved DML (differential test), also for a group with more
candidate keys than one key-restricted query binds; a cold check reads
each group's rows once; the prefilter keeps
its single-scan query plan (EXPLAIN QUERY PLAN regression); and no
option selects the path.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.options import ExecutionOptions
from repro.core.cfd import CFD
from repro.core.violations import ConstraintSet, check_database_naive
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import plan_detection
from repro.engine.cache import ScanCache
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD as _
from repro.sql.loader import (
    connect_file,
    create_database_file,
    read_database_file,
)
from repro.sql.violations import MAX_KEY_PARAMS, SQLPlanExecutor
from repro.sql.windows import cfd_candidate_sql

from tests.conformance import report_key


def _cfd_dirty(db):
    """*db* with CFD violations added (the scaled bank's errors are all
    CIND ones): a second account row under an existing ``(an, ab)``
    with another customer name, and a UK checking rate other than the
    pattern's."""
    for relation in ("saving", "checking"):
        if db[relation].tuples:
            an, cn, ca, cp, ab = db[relation].tuples[0].values
            db.add(relation, (an, cn + " Jr.", ca, cp, ab))
            break
    db.add("interest", ("GLA", "UK", "checking", "2%"))
    return db


@pytest.fixture(scope="module")
def dirty_file(tmp_path_factory):
    """A dirty bank instance on disk plus its plan, shared per module.

    Every test here only *reads* the file, so module scope is safe and
    keeps the Hypothesis loops fast.
    """
    sigma = bank_constraints()
    db = _cfd_dirty(scaled_bank_instance(12, error_rate=0.25, seed=11))
    path = create_database_file(
        tmp_path_factory.mktemp("windows") / "dirty.db", db
    )
    conn = connect_file(path, readonly=True)
    yield {
        "path": path,
        "sigma": sigma,
        "schema": sigma.schema,
        "plan": plan_detection(sigma),
        "conn": conn,
    }
    conn.close()


def _oracle_key(path, sigma):
    """The naive oracle's report over the file's current rows."""
    db = read_database_file(path, sigma.schema)
    return report_key(check_database_naive(db, sigma))


class TestOnePassVsLegacy:
    """The ``sqlfile`` CFD path against the naive oracle."""

    def test_reports_identical_on_dirty_file(self, dirty_file, monkeypatch):
        """Also: a cold check reads each CFD group's candidate rows once,
        because the hit keys' groups go into the report memo, from which
        assembly takes them."""
        reads = []
        fetch = SQLPlanExecutor.fetch_group_tuples

        def spy(executor, group, keys):
            reads.append((group.relation, group.lhs_positions))
            return fetch(executor, group, keys)

        monkeypatch.setattr(SQLPlanExecutor, "fetch_group_tuples", spy)
        path, sigma = dirty_file["path"], dirty_file["sigma"]
        with api.connect(path, sigma, backend="sqlfile") as session:
            report = session.check()
        assert report.cfd_violations
        assert report_key(report) == _oracle_key(path, sigma)
        assert reads and len(reads) == len(set(reads))

    def test_too_many_candidates_fall_back(self, tmp_path):
        """A group with more disagreeing keys than one key-restricted
        query binds reads their rows by the fetch's one ordered pass of
        the relation, and answers as the oracle does."""
        schema = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        sigma = ConstraintSet(schema)
        sigma.add_cfd(CFD(schema.relation("R"), ("A",), ("B",), [((_,), (_,))]))
        n_keys = MAX_KEY_PARAMS + 1  # X has one attribute
        db = DatabaseInstance(schema)
        for i in range(n_keys):
            db.add("R", (f"k{i}", "x"))
        for i in range(n_keys):
            db.add("R", (f"k{i}", "y"))
        path = create_database_file(tmp_path / "wide.db", db)
        statements: list[str] = []
        with api.connect(path, sigma, backend="sqlfile") as session:
            session.backend._executor.conn.set_trace_callback(statements.append)
            report = session.check()
        assert len(report.cfd_violations) == n_keys
        assert report_key(report) == _oracle_key(path, sigma)
        fetches = [sql for sql in statements if "ORDER BY t.rowid" in sql]
        assert fetches and all(" WHERE " not in sql for sql in fetches)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=0, max_value=10 ** 6),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_differential_under_interleaved_dml(self, seed, ops):
        """A live ``sqlfile`` session fed interleaved inserts/deletes
        agrees bit-identically with the oracle over the file after every
        step (caches, carry-forward and SQL all in the loop)."""
        sigma = bank_constraints()
        db = _cfd_dirty(scaled_bank_instance(5, error_rate=0.2, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            self._differential(tmp, db, sigma, ops)

    @staticmethod
    def _differential(tmp, db, sigma, ops):
        path = create_database_file(Path(tmp) / "live.db", db)
        relations = list(db.schema.relation_names)
        with api.connect(path, sigma, backend="sqlfile") as session:
            assert report_key(session.check()) == _oracle_key(path, sigma)
            for op, op_seed in ops:
                relation = relations[op_seed % len(relations)]
                rel = db.schema.relation(relation)
                if op == "insert":
                    row = {}
                    for j, attr in enumerate(rel.attributes):
                        if attr.is_finite:
                            values = attr.domain.values
                            row[attr.name] = values[op_seed % len(values)]
                        else:
                            row[attr.name] = f"v{(op_seed + j) % 7}"
                    session.insert(relation, row)
                else:
                    tuples = db[relation].tuples
                    if not tuples:
                        continue
                    session.delete(relation, tuples[op_seed % len(tuples)])
                assert report_key(session.check()) == _oracle_key(path, sigma)


# -- EXPLAIN QUERY PLAN regressions -------------------------------------------


def _query_plan(conn, sql, params=()):
    return [
        row[-1]
        for row in conn.execute("EXPLAIN QUERY PLAN " + sql, params)
    ]


class TestQueryPlans:
    def test_candidate_prefilter_is_one_scan(self, dirty_file):
        """Stage 1's whole point is replacing N per-variant queries with
        one aggregate pass: its plan must touch the relation exactly once
        and never materialize a second scan of it."""
        conn = dirty_file["conn"]
        schema = dirty_file["schema"]
        checked = 0
        for group in dirty_file["plan"].cfd_groups:
            staged = cfd_candidate_sql(schema.relation(group.relation), group)
            if staged is None:
                continue
            details = _query_plan(conn, *staged)
            table_touches = [
                d for d in details if d.startswith(("SCAN", "SEARCH"))
            ]
            assert len(table_touches) == 1, details
            assert table_touches[0].startswith("SCAN"), details
            checked += 1
        assert checked > 0


class TestFallback:
    def test_options_validation(self, dirty_file):
        """No option selects the CFD SQL any more: ``window_functions`` is
        an unknown field, on the options and on ``connect`` alike."""
        with pytest.raises(TypeError):
            ExecutionOptions(window_functions="off")
        with pytest.raises(TypeError):
            api.connect(
                dirty_file["path"], dirty_file["sigma"], backend="sqlfile",
                window_functions="off",
            )


class TestCachePeek:
    def test_peek_never_touches_counters(self, dirty_file):
        """The carry reads units through the raw entry getters; they
        must not count as cache reads."""
        plan = dirty_file["plan"]
        group = plan.cfd_groups[0]
        relation = next(iter(plan.cind_scans))
        cache = ScanCache(plan)
        cache.store_cfd_hits(group, 3, [], {})
        hits, misses = cache.hits, cache.misses
        assert cache.cfd_entry(group)[0] == 3
        assert cache.cind_entry(relation) is None
        assert (cache.hits, cache.misses) == (hits, misses)
        # cfd_hits() is the counted consumer path.
        assert cache.cfd_hits(group, 3) == []
        assert cache.hits == hits + 1
