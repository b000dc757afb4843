"""The one-pass CFD SQL: equivalence with the legacy SQL, plans,
fallback.

:mod:`repro.sql.windows` claims **one-pass = legacy**: the
window-function CFD path returns the legacy executor's hits
bit-identically, stays bit-identical across interleaved DML
(differential test), keeps its single-scan query plan (EXPLAIN QUERY
PLAN regression), and falls back to the legacy SQL automatically when
the sqlite library has no window functions. No option selects the
path: the legacy side of each comparison patches the library probe
(``repro.sql.violations.supports_window_functions``) to say ``False``,
which is what an old sqlite says.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.options import ExecutionOptions
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import plan_detection
from repro.engine.cache import ScanCache
from repro.sql.loader import (
    connect_file,
    create_database_file,
    read_database_file,
)
from repro.sql.windows import (
    MAX_REFINE_CANDIDATES,
    cfd_candidate_sql,
    cfd_onepass_hits,
    supports_window_functions,
)


@pytest.fixture(scope="module")
def dirty_file(tmp_path_factory):
    """A dirty bank instance on disk plus its plan, shared per module.

    Every test here only *reads* the file (or patches module attributes),
    so module scope is safe and keeps the Hypothesis loops fast.
    """
    sigma = bank_constraints()
    db = scaled_bank_instance(12, error_rate=0.25, seed=11)
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


def _no_window_functions():
    """Patch the library probe: executors built inside take the legacy
    SQL, as on a sqlite library without window functions."""
    return mock.patch(
        "repro.sql.violations.supports_window_functions", lambda conn: False
    )


def _report_repr(path, sigma, legacy=False):
    if legacy:
        with _no_window_functions():
            return _report_repr(path, sigma)
    with api.connect(path, sigma, backend="sqlfile") as s:
        return repr(s.check())


class TestOnePassVsLegacy:
    def test_reports_identical_on_dirty_file(self, dirty_file):
        path, sigma = dirty_file["path"], dirty_file["sigma"]
        assert _report_repr(path, sigma) == _report_repr(
            path, sigma, legacy=True
        )

    def test_onepass_hits_match_legacy_order(self, dirty_file):
        """Direct kernel comparison, group by group, against the legacy
        executor (probe patched to False) via its public hit API."""
        from repro.sql.violations import SQLPlanExecutor

        conn = connect_file(dirty_file["path"], readonly=True)
        try:
            plan = dirty_file["plan"]
            with _no_window_functions():
                legacy = SQLPlanExecutor(conn, plan)
            assert legacy.use_window_functions is False
            schema = dirty_file["schema"]
            for group in plan.cfd_groups:
                rel = schema.relation(group.relation)
                hits = cfd_onepass_hits(conn, rel, group)
                assert hits is not None
                assert hits == legacy.cfd_group_hits(group)
        finally:
            conn.close()

    def test_too_many_candidates_fall_back(self, dirty_file):
        """Past MAX_REFINE_CANDIDATES the kernel declines (None) and the
        executor must answer identically through the legacy SQL."""
        conn = dirty_file["conn"]
        schema = dirty_file["schema"]
        plan = dirty_file["plan"]
        declined = 0
        for group in plan.cfd_groups:
            rel = schema.relation(group.relation)
            full = cfd_onepass_hits(conn, rel, group)
            capped = cfd_onepass_hits(conn, rel, group, max_candidates=0)
            if capped is None:
                declined += 1
            else:
                # A group with zero candidates never reaches the cap.
                assert capped == full == []
        assert declined > 0  # the dirty fixture exercises the cap path
        assert MAX_REFINE_CANDIDATES > 0

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
        """Two live sessions over twin files — one-pass vs legacy SQL —
        fed the same interleaved inserts/deletes agree bit-identically
        after every step (caches, invalidation, and SQL all in the loop).
        """
        sigma = bank_constraints()
        db = scaled_bank_instance(5, error_rate=0.2, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            self._differential(tmp, db, sigma, ops)

    @staticmethod
    def _differential(tmp, db, sigma, ops):
        base = Path(tmp)
        path_a = create_database_file(base / "win.db", db)
        path_b = create_database_file(base / "leg.db", db)
        relations = list(db.schema.relation_names)
        with _no_window_functions():
            leg = api.connect(path_b, sigma, backend="sqlfile")
        with api.connect(path_a, sigma, backend="sqlfile") as win, leg:
            assert repr(win.check()) == repr(leg.check())
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
                    assert win.insert(relation, dict(row)) == leg.insert(
                        relation, dict(row)
                    )
                else:
                    tuples = db[relation].tuples
                    if not tuples:
                        continue
                    victim = tuples[op_seed % len(tuples)]
                    assert win.delete(relation, victim) == leg.delete(
                        relation, victim
                    )
                assert repr(win.check()) == repr(leg.check())


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
    def test_probe_detects_this_sqlite(self, dirty_file):
        # The dev/CI floor is sqlite >= 3.25; the probe must agree.
        assert supports_window_functions(dirty_file["conn"]) is True

    def test_auto_falls_back_identically(self, dirty_file, monkeypatch):
        """A library without window functions silently gets the legacy
        SQL — same report, no error."""
        reference = _report_repr(dirty_file["path"], dirty_file["sigma"])
        monkeypatch.setattr(
            "repro.sql.violations.supports_window_functions",
            lambda conn: False,
        )
        with api.connect(
            dirty_file["path"], dirty_file["sigma"], backend="sqlfile"
        ) as session:
            assert session.backend._executor.use_window_functions is False
            assert repr(session.check()) == reference

    def test_sql_backend_falls_back_identically(self, dirty_file, monkeypatch):
        """The ``sql`` backend's image runs the same executor, so it takes
        the same fallback: on a library without window functions its
        report is unchanged."""
        db = read_database_file(dirty_file["path"], dirty_file["schema"])
        with api.connect(db, dirty_file["sigma"], backend="sql") as session:
            reference = repr(session.check())
        monkeypatch.setattr(
            "repro.sql.violations.supports_window_functions",
            lambda conn: False,
        )
        with api.connect(db, dirty_file["sigma"], backend="sql") as session:
            assert repr(session.check()) == reference
            assert session.backend._image.use_window_functions is False
        assert reference == _report_repr(dirty_file["path"], dirty_file["sigma"])

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
