"""SQL-based violation detection for CFDs and CINDs.

For CFDs this follows the technique of [9] (as the paper recommends in
Section 7/8): the pattern tableau is loaded as a *data table* (wildcards
as NULL) and two queries per CFD find

* ``Q1`` — single-tuple violations: tuples matching some pattern row's LHS
  whose RHS value differs from the row's RHS constant;
* ``Q2`` — pair violations: LHS groups matching a row that disagree on the
  RHS attribute (all tuples of such a group are reported, mirroring the
  in-memory engine).

For CINDs (Section 8 flags this as the paper's planned follow-up, so we
build it) each normal-form row becomes one anti-join::

    SELECT t1.* FROM Ra t1
    WHERE t1.xp = :consts...
      AND NOT EXISTS (SELECT 1 FROM Rb t2
                      WHERE t2.B1 = t1.A1 AND ... AND t2.yp = :consts...)

All constants travel as bound parameters — nothing is interpolated into
SQL text except quoted identifiers.

:class:`SQLPlanExecutor` is the out-of-core counterpart: it pushes a
:class:`~repro.engine.planner.DetectionPlan`'s *shared* scan units down as
SQL — one ``GROUP BY`` pass per CFD ``(relation, X)`` scan group (reusing
one tableau temp table per CFD across every constraint in the group) and
one witness anti-join per deduplicated CIND signature — instead of the
per-constraint full-table rescans above, with count-only and
``EXISTS``-based early-exit variants mirroring the in-memory engine's
scan modes. Its scans keep the row ids a carried cache needs: each CFD
hit key's first rowid and each CIND hit's rowid.

:class:`SQLCarry` carries a ``sqlfile`` session's
:class:`~repro.engine.cache.ScanCache` forward by the rows its own DML
changed (:mod:`repro.engine.carry`): each touched unit runs one
key-restricted query in rowid order (``WHERE (X) IN (VALUES ...)``) —
the touched CFD groups' rows, the witness keys that lost a witness row
and gained none, the LHS rows whose ``X``-key lost its last witness —
and creates no index, so the user's file is never written by a read.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Callable, Iterable, Mapping

from repro.core.cfd import CFD
from repro.core.cind import CIND, CINDViolation
from repro.core.violations import ConstraintSet, constraint_labels
from repro.engine.cache import ScanCache
from repro.engine.carry import Carry, Rescan
from repro.engine.executor import cind_task_violations
from repro.engine.planner import (
    CFDScanGroup,
    CINDRowTask,
    DetectionPlan,
    WitnessSpec,
    passes,
)
from repro.errors import SQLBackendError
from repro.relational.instance import DatabaseInstance, RowGroup, Tuple
from repro.relational.schema import RelationSchema
from repro.relational.values import is_wildcard
from repro.sql.ddl import distinct_count_expr, row_predicate, select_columns
from repro.sql.ddl import quote_identifier as q
from repro.sql.loader import connect_memory, load_database
from repro.sql.windows import cfd_onepass_hits, supports_window_functions


class TableauCache:
    """Pattern tableaux as TEMP data tables, one per distinct CFD content.

    Keying by *content* ``(relation, X, Y, pattern rows)`` rather than by
    object identity means repeated ``check()`` calls — and distinct CFD
    objects with equal tableaux — reuse one table instead of leaking a new
    ``__tableau_N`` per call onto a long-lived connection (the historical
    behaviour this class replaces). ``drop_all()`` removes every table the
    cache created, so detectors attached to a caller's connection can
    clean up after themselves without closing it.
    """

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn
        self._by_content: dict[tuple, str] = {}
        self._count = 0

    def __len__(self) -> int:
        return len(self._by_content)

    @staticmethod
    def _content_key(cfd: CFD) -> tuple:
        def norm(value: Any) -> Any:
            return None if is_wildcard(value) else value

        rows = tuple(
            (
                tuple(norm(row.lhs_value(a)) for a in cfd.lhs),
                tuple(norm(row.rhs_value(a)) for a in cfd.rhs),
            )
            for row in cfd.tableau
        )
        return (cfd.relation.name, cfd.lhs, cfd.rhs, rows)

    def get(self, cfd: CFD) -> str:
        """The temp-table name for *cfd*'s tableau, creating it on first use.

        Layout: one ``lhs_A``/``rhs_B`` TEXT column per LHS/RHS attribute,
        wildcards encoded as NULL; one row per pattern row, in tableau
        order (so ``rowid - 1`` is the pattern row index).
        """
        key = self._content_key(cfd)
        name = self._by_content.get(key)
        if name is not None:
            return name
        self._count += 1
        name = f"__tableau_{self._count}"
        columns = [f"lhs_{a}" for a in cfd.lhs] + [f"rhs_{a}" for a in cfd.rhs]
        decl = ", ".join(f"{q(c)} TEXT" for c in columns) or "__empty INTEGER"
        cursor = self.conn.cursor()
        cursor.execute(f"CREATE TEMP TABLE {q(name)} ({decl})")
        if columns:
            placeholders = ", ".join("?" for __ in columns)
            cursor.executemany(
                f"INSERT INTO {q(name)} VALUES ({placeholders})",
                [lhs + rhs for lhs, rhs in key[3]],
            )
        else:
            cursor.executemany(
                f"INSERT INTO {q(name)} VALUES (?)",
                [(1,) for __ in cfd.tableau],
            )
        self._by_content[key] = name
        return name

    def drop_all(self) -> None:
        cursor = self.conn.cursor()
        for name in self._by_content.values():
            cursor.execute(f"DROP TABLE IF EXISTS temp.{q(name)}")
        self._by_content.clear()


class SQLViolationDetector:
    """Runs violation queries for a constraint set over sqlite3.

    Construct from an in-memory :class:`DatabaseInstance` (loaded into a
    fresh ``:memory:`` connection the detector owns) or attach to an
    existing connection that already holds the tables — in which case the
    connection stays the caller's: :meth:`close` drops the detector's temp
    tables but leaves the connection open.
    """

    def __init__(
        self,
        db: DatabaseInstance | None = None,
        conn: sqlite3.Connection | None = None,
    ):
        if (db is None) == (conn is None):
            raise SQLBackendError("provide exactly one of db= or conn=")
        self._owns_conn = db is not None
        if db is not None:
            conn = connect_memory()
            load_database(conn, db)
        self.conn = conn
        self._tableaux = TableauCache(conn)

    # -- CFDs ----------------------------------------------------------------

    def _load_tableau(self, cfd: CFD) -> str:
        """The CFD's tableau as a (cached) temp data table; returns its name."""
        return self._tableaux.get(cfd)

    def cfd_violating_rows(self, cfd: CFD) -> set[tuple[Any, ...]]:
        """All rows of the relation involved in some violation of *cfd*.

        Matches :meth:`repro.core.cfd.CFD.violating_tuples` exactly (the
        cross-validation tests rely on it).
        """
        rel = cfd.relation
        tableau = self._load_tableau(cfd)
        all_cols = ", ".join(f"t.{q(a.name)}" for a in rel)
        match_lhs = " AND ".join(
            f"(tp.{q('lhs_' + a)} IS NULL OR t.{q(a)} = tp.{q('lhs_' + a)})"
            for a in cfd.lhs
        ) or "1=1"

        out: set[tuple[Any, ...]] = set()
        cursor = self.conn.cursor()

        # Q1: single-tuple violations against constant RHS patterns.
        rhs_mismatch = " OR ".join(
            f"(tp.{q('rhs_' + a)} IS NOT NULL AND t.{q(a)} <> tp.{q('rhs_' + a)})"
            for a in cfd.rhs
        )
        q1 = (
            f"SELECT DISTINCT {all_cols} FROM {q(rel.name)} t, {q(tableau)} tp "
            f"WHERE {match_lhs} AND ({rhs_mismatch})"
        )
        out.update(cursor.execute(q1).fetchall())

        # Q2: groups matching a pattern row that disagree on the RHS.
        # sqlite has no multi-column COUNT(DISTINCT ...); concatenate the
        # quote()d values (injective) when the RHS has several attributes.
        if len(cfd.rhs) == 1:
            distinct_rhs = f"t.{q(cfd.rhs[0])}"
        else:
            distinct_rhs = " || ',' || ".join(
                f"quote(t.{q(a)})" for a in cfd.rhs
            )
        if cfd.lhs:
            group_cols = ", ".join(f"t.{q(a)}" for a in cfd.lhs)
            q2_groups = (
                f"SELECT {group_cols}, tp.rowid AS prow "
                f"FROM {q(rel.name)} t, {q(tableau)} tp "
                f"WHERE {match_lhs} "
                f"GROUP BY tp.rowid, {group_cols} "
                f"HAVING COUNT(DISTINCT {distinct_rhs}) > 1"
            )
            join_cond = " AND ".join(
                f"t.{q(a)} = g.{q(a)}" for a in cfd.lhs
            )
            q2 = (
                f"SELECT DISTINCT {all_cols} FROM {q(rel.name)} t "
                f"JOIN ({q2_groups}) g ON {join_cond}"
            )
            out.update(cursor.execute(q2).fetchall())
        else:
            # Empty LHS: the whole relation is one group per pattern row.
            q2_check = (
                f"SELECT COUNT(DISTINCT {distinct_rhs}) FROM {q(rel.name)} t"
            )
            (distinct,) = cursor.execute(q2_check).fetchone()
            if distinct is not None and distinct > 1 and len(cfd.tableau) > 0:
                q2_all = f"SELECT DISTINCT {all_cols} FROM {q(rel.name)} t"
                out.update(cursor.execute(q2_all).fetchall())
        return out

    # -- CINDs -----------------------------------------------------------------------

    def cind_violating_rows_by_pattern(
        self, cind: CIND
    ) -> list[set[tuple[Any, ...]]]:
        """Violating LHS rows per pattern row, in tableau order.

        One anti-join per row; the per-row split is what lets the
        :class:`~repro.api.backends.SQLBackend` adapter rebuild
        engine-identical ``CINDViolation`` objects (which carry the
        pattern index).
        """
        ra = cind.lhs_relation
        rb = cind.rhs_relation
        all_cols = ", ".join(f"t1.{q(a.name)}" for a in ra)
        out: list[set[tuple[Any, ...]]] = []
        cursor = self.conn.cursor()
        for row in cind.tableau:
            premise: list[str] = []
            params: list[Any] = []
            for a in cind.x + cind.xp:
                value = row.lhs_value(a)
                if not is_wildcard(value):
                    premise.append(f"t1.{q(a)} = ?")
                    params.append(value)
            witness: list[str] = []
            for a, b in zip(cind.x, cind.y):
                witness.append(f"t2.{q(b)} = t1.{q(a)}")
            for b in cind.yp:
                value = row.rhs_value(b)
                if not is_wildcard(value):
                    witness.append(f"t2.{q(b)} = ?")
                    params.append(value)
            where = " AND ".join(premise) or "1=1"
            exists_cond = " AND ".join(witness) or "1=1"
            sql = (
                f"SELECT DISTINCT {all_cols} FROM {q(ra.name)} t1 "
                f"WHERE {where} AND NOT EXISTS ("
                f"SELECT 1 FROM {q(rb.name)} t2 WHERE {exists_cond})"
            )
            out.append(set(cursor.execute(sql, params).fetchall()))
        return out

    def cind_violating_rows(self, cind: CIND) -> set[tuple[Any, ...]]:
        """LHS rows matching some pattern row with no RHS witness.

        Matches :meth:`repro.core.cind.CIND.violating_tuples`.
        """
        out: set[tuple[Any, ...]] = set()
        for rows in self.cind_violating_rows_by_pattern(cind):
            out |= rows
        return out

    # -- whole constraint sets ----------------------------------------------------------

    def check(self, sigma: ConstraintSet) -> dict[str, set[tuple[Any, ...]]]:
        """Violating rows per constraint label.

        Labels come from :func:`repro.core.violations.constraint_labels`, so
        two distinct constraints with equal names/reprs get separate entries
        (matching the in-memory engine's ``by_constraint`` keys) instead of
        silently overwriting each other.

        Constraints with **zero** violations are omitted (historical
        behaviour, kept for compatibility). The facade-level
        :meth:`repro.api.backends.SQLBackend.violating_rows` normalizes
        this: it keys every constraint of Σ, empty set when clean.
        """
        labels = constraint_labels(sigma)
        out: dict[str, set[tuple[Any, ...]]] = {}
        for cfd in sigma.cfds:
            rows = self.cfd_violating_rows(cfd)
            if rows:
                out[labels[id(cfd)]] = rows
        for cind in sigma.cinds:
            rows = self.cind_violating_rows(cind)
            if rows:
                out[labels[id(cind)]] = rows
        return out

    def is_clean(self, sigma: ConstraintSet) -> bool:
        return not self.check(sigma)

    def close(self) -> None:
        """Release resources.

        Owned connections (constructed with ``db=``) are closed; attached
        connections (constructed with ``conn=``) belong to the caller and
        stay open — only the detector's tableau temp tables are dropped.
        """
        if self._owns_conn:
            self.conn.close()
        else:
            self._tableaux.drop_all()

    def __enter__(self) -> "SQLViolationDetector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sql_check_database(
    db: DatabaseInstance, sigma: ConstraintSet
) -> dict[str, set[tuple[Any, ...]]]:
    """One-shot convenience wrapper around :class:`SQLViolationDetector`."""
    with SQLViolationDetector(db=db) as detector:
        return detector.check(sigma)


# -- pushed-down shared scans (the out-of-core ``sqlfile`` path) ---------------


class SQLPlanExecutor:
    """Execute a :class:`~repro.engine.planner.DetectionPlan` *inside* sqlite.

    Where :class:`SQLViolationDetector` issues per-constraint queries, this
    executor pushes the plan's shared scan units down whole:

    * **CFD scan groups** — by default (``window_functions="auto"`` on a
      sqlite with window functions) each group runs the *one-pass* path of
      :func:`repro.sql.windows.cfd_onepass_hits`: one aggregate prefilter
      scan yields a candidate-key superset, and one window-function scan
      over the (typically empty) candidates derives the exact violations —
      replacing the legacy per-variant ``GROUP BY`` queries and per-CFD
      tableau self-joins with one scan on clean data. The legacy path —
      one ``GROUP BY X`` query per distinct RHS variant for the keys whose
      groups *disagree*, plus one tableau-join query per CFD (reusing the
      group's cached tableau temp tables) for the keys whose shared RHS
      misses a pattern constant — remains the automatic fallback when the
      sqlite build predates window functions (< 3.25), when the caller
      forces ``window_functions="off"``, or when a group is dirty past the
      bounded refinement. Both paths return only *candidate* keys plus
      their first-occurrence rowid, so the Python side touches
      O(violations) rows, not O(tuples), and both replay the in-memory
      engine's semantics exactly — reports are bit-identical either way.
    * **CIND buckets** — one witness anti-join per deduplicated task
      signature ``(premise checks, X positions, witness spec)``; rows come
      back in rowid order (= the engine's scan order for files written by
      :func:`~repro.sql.loader.create_database_file`).

    Hit lists have the same shape as the in-memory executor's
    (``(task, key, kind)`` per CFD hit; per LHS relation, task-major CIND
    violations and each task's rowid bucket), so the one
    :func:`~repro.engine.executor.assemble_from_hits` produces reports
    bit-identical — including violation-list order — to every other
    backend. Count-only callers use the same hits without fetching
    group tuples; :meth:`cind_relation_clean` is the ``EXISTS``-based
    early-exit variant for ``is_clean``.

    With a session's *cache* and its per-table *versions* counters, the
    unit methods (:meth:`cfd_group_hits`, :meth:`cfd_group_tuples`,
    :meth:`cind_relation_hits`, :meth:`cind_relation_clean`) answer from
    the :class:`~repro.engine.cache.ScanCache` at the table's current
    version and scan only on a miss, memoizing the result — as the
    in-memory executor's unit functions do against a relation's version.
    The uncached scans (:meth:`scan_cfd_group`, :meth:`fetch_group_tuples`,
    :meth:`scan_cind_relation`) also serve a carry, which stages its own
    entries.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        plan: DetectionPlan,
        window_functions: str = "auto",
        cache: ScanCache | None = None,
        versions: Mapping[str, int] | None = None,
    ):
        if (cache is None) != (versions is None):
            raise ValueError("a scan cache needs the per-table versions")
        self.conn = conn
        self.plan = plan
        self.schema = plan.sigma.schema
        self.cache = cache
        self.versions = versions
        if window_functions == "off":
            self.use_window_functions = False
        else:
            self.use_window_functions = supports_window_functions(conn)
            if window_functions == "require" and not self.use_window_functions:
                raise SQLBackendError(
                    "window_functions='require' but this sqlite library "
                    f"(version {sqlite3.sqlite_version}) does not support "
                    "window functions (needs >= 3.25)"
                )
        self._tableaux = TableauCache(conn)
        #: Per-execution witness materializations (see _witness_table):
        #: spec -> temp table name (non-empty Y) or spec -> bool (empty Y).
        self._witness_tables: dict[Any, str] = {}
        self._witness_nonempty: dict[Any, bool] = {}
        self._witness_count = 0

    # -- CFD scan groups ---------------------------------------------------

    def _disagree_keys(
        self, rel: RelationSchema, group: CFDScanGroup, variant: tuple[int, ...]
    ) -> dict[tuple[Any, ...], int]:
        """Group keys whose *variant* RHS projection disagrees, with the
        key's first-occurrence rowid (the engine's candidate order)."""
        if variant == group.lhs_positions:
            # RHS projection == group key: groups can never disagree.
            return {}
        names = rel.attribute_names
        rhs_cols = [names[p] for p in variant]
        distinct = distinct_count_expr(rhs_cols)
        if group.lhs:
            x_sel = select_columns_named(rel, group.lhs)
            sql = (
                f"SELECT {x_sel}, MIN(t.rowid) AS fr "
                f"FROM {q(rel.name)} t GROUP BY {x_sel} "
                f"HAVING COUNT(DISTINCT {distinct}) > 1"
            )
            return {
                tuple(row[:-1]): row[-1]
                for row in self.conn.execute(sql)
            }
        sql = (
            f"SELECT MIN(t.rowid), COUNT(DISTINCT {distinct}) "
            f"FROM {q(rel.name)} t"
        )
        [(fr, n)] = self.conn.execute(sql).fetchall()
        return {(): fr} if fr is not None and n > 1 else {}

    def _single_candidates(
        self, rel: RelationSchema, group: CFDScanGroup, cfd: CFD
    ) -> dict[int, dict[tuple[Any, ...], int]]:
        """Per pattern-row index: keys where some matching tuple misses an
        RHS constant, with the key's first rowid.

        One query per CFD of the group, joining the relation against the
        CFD's cached tableau temp table (LHS constants via the NULL-encoded
        tableau columns, RHS mismatch via ``IS NOT NULL AND <>``). For a
        non-disagreeing group every tuple shares the RHS projection, so
        "some tuple misses the constant" equals the engine's "the group's
        single shared RHS misses it"; disagreeing keys are filtered out by
        the caller (they are pair violations instead).
        """
        tableau = self._tableaux.get(cfd)
        match_lhs = " AND ".join(
            f"(tp.{q('lhs_' + a)} IS NULL OR t.{q(a)} = tp.{q('lhs_' + a)})"
            for a in cfd.lhs
        ) or "1=1"
        rhs_mismatch = " OR ".join(
            f"(tp.{q('rhs_' + a)} IS NOT NULL AND t.{q(a)} <> tp.{q('rhs_' + a)})"
            for a in cfd.rhs
        )
        if not rhs_mismatch:
            return {}
        x_sel = select_columns_named(rel, group.lhs)
        group_by = f"tp.rowid{', ' + x_sel if group.lhs else ''}"
        select = f"tp.rowid{', ' + x_sel if group.lhs else ''}"
        sql = (
            f"SELECT {select}, MIN(t.rowid) AS fr "
            f"FROM {q(rel.name)} t, {q(tableau)} tp "
            f"WHERE {match_lhs} AND ({rhs_mismatch}) "
            f"GROUP BY {group_by}"
        )
        out: dict[int, dict[tuple[Any, ...], int]] = {}
        for row in self.conn.execute(sql):
            row_index = row[0] - 1  # tableau rowids are 1-based, in order
            out.setdefault(row_index, {})[tuple(row[1:-1])] = row[-1]
        return out

    def cfd_group_hits(
        self, group: CFDScanGroup
    ) -> list[tuple[Any, tuple[Any, ...], str]]:
        """Every violating ``(task, key, kind)`` of *group*: the cached
        hit list at the table's version, else :meth:`scan_cfd_group`
        (memoized with its keys' first rowids)."""
        cache = self.cache
        if cache is None:
            return self.scan_cfd_group(group)
        version = self.versions[group.relation]
        hits = cache.cfd_hits(group, version)
        if hits is None:
            firsts: dict = {}
            hits = self.scan_cfd_group(group, firsts)
            cache.store_cfd_hits(group, version, hits, firsts)
        return hits

    def scan_cfd_group(
        self, group: CFDScanGroup, firsts: dict | None = None
    ) -> list[tuple[Any, tuple[Any, ...], str]]:
        """One pushed-down scan of *group*: every violating
        ``(task, key, kind)``, tasks in group order, keys in
        first-occurrence rowid order — the in-memory executor's order.
        A *firsts* dict receives each hit key's first rowid.

        Dispatches to the one-pass prefilter + window-function path when
        the connection supports it (``None`` from the one-pass scan means
        the group exceeded the bounded refinement — rare, and the legacy
        queries below answer it identically)."""
        rel = self.schema.relation(group.relation)
        if self.use_window_functions:
            hits = cfd_onepass_hits(self.conn, rel, group, first_rowids=firsts)
            if hits is not None:
                return hits
        disagree = {
            variant: self._disagree_keys(rel, group, variant)
            for variant in group.rhs_variants()
        }
        singles: dict[tuple, dict[int, dict[tuple[Any, ...], int]]] = {}
        for task in group.tasks:
            content = TableauCache._content_key(task.cfd)
            if task.rhs_checks and content not in singles:
                singles[content] = self._single_candidates(
                    rel, group, task.cfd
                )

        hits: list[tuple[Any, tuple[Any, ...], str]] = []
        for task in group.tasks:
            variant_disagree = disagree[task.rhs_positions]
            task_hits = [
                (fr, key, "pair")
                for key, fr in variant_disagree.items()
                if passes(key, task.key_checks)
            ]
            if task.rhs_checks:
                content = TableauCache._content_key(task.cfd)
                candidates = singles[content].get(task.row_index, {})
                task_hits.extend(
                    (fr, key, "single")
                    for key, fr in candidates.items()
                    if key not in variant_disagree
                )
            task_hits.sort(key=lambda hit: hit[0])
            hits.extend((task, key, kind) for __, key, kind in task_hits)
            if firsts is not None:
                firsts.update((key, fr) for fr, key, __ in task_hits)
        return hits

    def cfd_group_tuples(
        self, group: CFDScanGroup, keys: Iterable[tuple[Any, ...]]
    ) -> dict[tuple[Any, ...], RowGroup]:
        """The tuple group of each of *keys*, in rowid order. With a
        cache the result is the group's report memo at the table's
        version (it may hold more keys): only the keys it lacks are
        fetched (:meth:`fetch_group_tuples`), then memoized."""
        cache = self.cache
        if cache is None:
            return self.fetch_group_tuples(group, keys)
        memo = cache.cfd_group_tuples(group, self.versions[group.relation])
        missing = [key for key in keys if key not in memo]
        if missing:
            memo.update(self.fetch_group_tuples(group, missing))
        return memo

    def fetch_group_tuples(
        self, group: CFDScanGroup, keys: Iterable[tuple[Any, ...]]
    ) -> dict[tuple[Any, ...], RowGroup]:
        """The full tuple group per violating key, in rowid (scan) order,
        as a :class:`~repro.relational.instance.RowGroup` over the rows
        sqlite returned (no view is built).

        One scan of the relation buckets every violating key's group (the
        base tables carry no indexes, so a per-key ``WHERE X = ?`` query
        would cost a full scan *each* — O(violations · tuples) instead of
        this single pass); the scan returns only the wanted keys' rows
        when they fit one key-restricted query.
        """
        rel = self.schema.relation(group.relation)
        wanted: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {
            key: [] for key in keys
        }
        if not wanted:
            return {}
        cols = select_columns(rel)
        positions = group.lhs_positions
        restrict = _keys_clause(group.lhs, wanted, "t")
        where, params = (f" WHERE {restrict[0]}", restrict[1]) if restrict else ("", [])
        sql = f"SELECT {cols} FROM {q(rel.name)} t{where} ORDER BY t.rowid"
        for row in self.conn.execute(sql, params):
            bucket = wanted.get(tuple(row[p] for p in positions))
            if bucket is not None:
                bucket.append(row)
        return {key: RowGroup(rel, tuple(rows)) for key, rows in wanted.items()}

    # -- CIND buckets ------------------------------------------------------
    #
    # Witness sets are materialized exactly like the engine's
    # witness_sets(): one pass over R2 per deduplicated spec, shared by
    # every pattern row in the bucket. The DISTINCT Y-projection goes into
    # an *indexed* temp table, so the per-LHS-row probe is an index seek —
    # a naive correlated NOT EXISTS against a large unindexed R2 would be
    # O(|R1|·|R2|) and dominates everything past ~10k tuples.

    def _witness_ready(self, spec) -> None:
        """Materialize the spec's witness key set (once per execution)."""
        rhs_rel = self.schema.relation(spec.rhs_relation)
        names = rhs_rel.attribute_names
        conds: list[str] = []
        params: list[Any] = []
        for pos, const in spec.yp_checks:
            conds.append(f"t2.{q(names[pos])} = ?")
            params.append(const)
        where = " AND ".join(conds) or "1=1"
        if not spec.y_positions:
            # Empty embedded key: the witness set is {()} or {} — a boolean.
            if spec not in self._witness_nonempty:
                rows = self.conn.execute(
                    f"SELECT 1 FROM {q(rhs_rel.name)} t2 WHERE {where} "
                    "LIMIT 1",
                    params,
                ).fetchall()
                self._witness_nonempty[spec] = bool(rows)
            return
        if spec in self._witness_tables:
            return
        self._witness_count += 1
        name = f"__witness_{self._witness_count}"
        y_cols = [names[p] for p in spec.y_positions]
        decl = ", ".join(f"{q('k%d' % i)}" for i in range(len(y_cols)))
        select = ", ".join(f"t2.{q(c)}" for c in y_cols)
        cursor = self.conn.cursor()
        cursor.execute(f"CREATE TEMP TABLE {q(name)} ({decl})")
        cursor.execute(
            f"INSERT INTO {q(name)} SELECT DISTINCT {select} "
            f"FROM {q(rhs_rel.name)} t2 WHERE {where}",
            params,
        )
        # Bulk-build the covering index after the INSERT (cheaper than
        # per-row maintenance), then ANALYZE: without a sqlite_stat1 row
        # sqlite has no idea how big the witness table is, and on large
        # files it can pick a scan-based anti-join over the index seek
        # this table exists for. Both run before _witness_ready returns,
        # so every probe compiles with index and stats in place (asserted
        # via EXPLAIN QUERY PLAN in the test suite).
        key_list = ", ".join(q(f"k{i}") for i in range(len(y_cols)))
        cursor.execute(
            f"CREATE INDEX {q(name + '_idx')} ON {q(name)} ({key_list})"
        )
        cursor.execute(f"ANALYZE {q(name)}")
        self._witness_tables[spec] = name

    def release_witnesses(self) -> None:
        """Drop the per-execution witness tables (scan-lifetime artifacts,
        the analogue of the engine's projection-key release)."""
        cursor = self.conn.cursor()
        for name in self._witness_tables.values():
            cursor.execute(f"DROP TABLE IF EXISTS temp.{q(name)}")
        self._witness_tables.clear()
        self._witness_nonempty.clear()

    def _cind_sql(
        self, task: CINDRowTask, select_clause: str, suffix: str = ""
    ) -> tuple[str | None, list[Any]]:
        """The probe query for one task signature (None = provably clean)."""
        lhs_rel = task.cind.lhs_relation
        spec = task.witness
        self._witness_ready(spec)
        lhs_names = lhs_rel.attribute_names
        conds: list[str] = []
        params: list[Any] = []
        for pos, const in task.lhs_checks:
            conds.append(f"t1.{q(lhs_names[pos])} = ?")
            params.append(const)
        where = " AND ".join(conds) or "1=1"
        if not task.x_positions:
            if self._witness_nonempty[spec]:
                return None, []  # every premise-matching tuple has a witness
            sql = (
                f"SELECT {select_clause} FROM {q(lhs_rel.name)} t1 "
                f"WHERE {where}{suffix}"
            )
            return sql, params
        witness = self._witness_tables[spec]
        probe = " AND ".join(
            f"w.{q('k%d' % i)} = t1.{q(lhs_names[xpos])}"
            for i, xpos in enumerate(task.x_positions)
        )
        sql = (
            f"SELECT {select_clause} FROM {q(lhs_rel.name)} t1 "
            f"WHERE {where} AND NOT EXISTS ("
            f"SELECT 1 FROM {q(witness)} w WHERE {probe})"
            f"{suffix}"
        )
        return sql, params

    def _cind_version(
        self, relation: str, tasks: list[CINDRowTask]
    ) -> tuple[int, tuple[int, ...]]:
        """An LHS relation's version and its witness-side versions."""
        versions = self.versions
        return versions[relation], ScanCache.cind_deps(tasks, versions.__getitem__)

    def cind_relation_hits(
        self, relation: str, tasks: list[CINDRowTask]
    ) -> tuple[list[CINDViolation], list[list[int]]]:
        """One LHS relation's task-major violations and per-task rowid
        buckets: the cached ones at its and its witnesses' versions,
        else :meth:`scan_cind_relation`'s (memoized)."""
        cache = self.cache
        if cache is None:
            return self.scan_cind_relation(relation, tasks)
        version, deps = self._cind_version(relation, tasks)
        hits = cache.cind_hits(relation, version, deps)
        if hits is None:
            hits = self.scan_cind_relation(relation, tasks)
            cache.store_cind_hits(relation, version, deps, *hits)
        return hits

    def scan_cind_relation(
        self, relation: str, tasks: list[CINDRowTask]
    ) -> tuple[list[CINDViolation], list[list[int]]]:
        """One LHS relation's violations, task-major, and each task's
        violating rowids (aligned with *tasks*, in rowid order).

        One anti-join per deduplicated signature (structurally identical
        pattern rows share it, like the engine's ``cind_scan_hits``);
        a row gets one tuple, shared by every task it violates.
        """
        rel = self.schema.relation(relation)
        cols = f"t1.rowid, {select_columns(rel, 't1')}"
        evaluated: dict[tuple, list[int]] = {}
        rows: dict[int, Tuple] = {}
        buckets: list[list[int]] = []
        for task in tasks:
            signature = (task.lhs_checks, task.x_positions, task.witness)
            bucket = evaluated.get(signature)
            if bucket is None:
                sql, params = self._cind_sql(
                    task, cols, suffix=" ORDER BY t1.rowid"
                )
                fetched = (
                    [] if sql is None else self.conn.execute(sql, params).fetchall()
                )
                for row in fetched:
                    if row[0] not in rows:
                        rows[row[0]] = Tuple.from_row(rel, row[1:])
                bucket = evaluated[signature] = [row[0] for row in fetched]
            buckets.append(bucket)
        return cind_task_violations(tasks, buckets, rows.__getitem__), buckets

    def cind_relation_clean(
        self, relation: str, tasks: list[CINDRowTask]
    ) -> bool:
        """``EXISTS``-based early exit: False at the first violating pair.

        With a cache, cached hits answer first; a clean probe pass proves
        the hit list empty, so it is stored (the cache warms for free, as
        the engine's ``plan_has_violation`` does)."""
        cache = self.cache
        version, deps = (
            self._cind_version(relation, tasks) if cache is not None else (0, ())
        )
        if cache is not None:
            hits = cache.cind_hits(relation, version, deps)
            if hits is not None:
                return not hits[0]
        seen: set[tuple] = set()
        for task in tasks:
            signature = (task.lhs_checks, task.x_positions, task.witness)
            if signature in seen:
                continue
            seen.add(signature)
            sql, params = self._cind_sql(task, "1", suffix=" LIMIT 1")
            if sql is not None and self.conn.execute(sql, params).fetchall():
                return False
        if cache is not None:
            cache.store_cind_hits(relation, version, deps, [], [[] for __ in tasks])
        return True

    def witness_keys(self, spec: WitnessSpec) -> set[tuple[Any, ...]]:
        """*spec*'s whole witness key set (read off its temp table)."""
        self._witness_ready(spec)
        if not spec.y_positions:
            return {()} if self._witness_nonempty[spec] else set()
        table = q(self._witness_tables[spec])
        return set(self.conn.execute(f"SELECT * FROM {table}").fetchall())

    # -- key-restricted queries (carrying a cache forward) -----------------

    def key_rows(
        self,
        relation: str,
        attributes: tuple[str, ...],
        keys: Iterable[tuple[Any, ...]],
        checks: tuple[tuple[int, Any], ...] = (),
    ) -> list[tuple[int, tuple[Any, ...]]] | None:
        """``(rowid, values)`` of *relation*'s rows whose *attributes*
        projection is one of *keys* and that pass *checks*, in rowid
        order; ``None`` when the keys do not fit one query."""
        rel = self.schema.relation(relation)
        restrict = _keys_clause(attributes, keys, "t")
        if restrict is None:
            return None
        conds, params = [restrict[0]], restrict[1]
        for pos, const in checks:
            conds.append(f"t.{q(rel.attribute_names[pos])} = ?")
            params.append(const)
        sql = (
            f"SELECT t.rowid, {select_columns(rel)} FROM {q(rel.name)} t "
            f"WHERE {' AND '.join(conds)} ORDER BY t.rowid"
        )
        return [(row[0], row[1:]) for row in self.conn.execute(sql, params)]

    def present_keys(
        self, spec: WitnessSpec, keys: Iterable[tuple[Any, ...]]
    ) -> set[tuple[Any, ...]] | None:
        """The *keys* that still have a ``Yp``-matching witness row;
        ``None`` when they do not fit one query."""
        rel = self.schema.relation(spec.rhs_relation)
        names = rel.attribute_names
        conds = [f"t.{q(names[pos])} = ?" for pos, __ in spec.yp_checks]
        params = [const for __, const in spec.yp_checks]
        if not spec.y_positions:
            where = " AND ".join(conds) or "1=1"
            rows = self.conn.execute(
                f"SELECT 1 FROM {q(rel.name)} t WHERE {where} LIMIT 1", params
            ).fetchall()
            return {()} if rows else set()
        y = tuple(names[p] for p in spec.y_positions)
        restrict = _keys_clause(y, keys, "t")
        if restrict is None:
            return None
        sql = (
            f"SELECT DISTINCT {select_columns_named(rel, y)} "
            f"FROM {q(rel.name)} t WHERE {' AND '.join([restrict[0], *conds])}"
        )
        return set(self.conn.execute(sql, restrict[1] + params).fetchall())

    def close(self) -> None:
        """Drop the executor's temp tables (the connection is the caller's)."""
        self.release_witnesses()
        self._tableaux.drop_all()


#: Most values one key-restricted query binds (sqlite's historical
#: ``SQLITE_MAX_VARIABLE_NUMBER``); more keys than fit re-scan instead.
MAX_KEY_PARAMS = 999


def _keys_clause(
    attributes: Iterable[str], keys: Iterable[tuple[Any, ...]], alias: str
) -> tuple[str, list[Any]] | None:
    """``(alias.A, ...) IN (VALUES (?, ...), ...)`` over *keys* with its
    parameters; ``None`` when the keys do not fit :data:`MAX_KEY_PARAMS`,
    the projection is empty, or a key holds a NULL (which ``IN`` never
    matches)."""
    columns = [f"{alias}.{q(a)}" for a in attributes]
    keys = list(keys)
    if not columns or not keys or len(keys) * len(columns) > MAX_KEY_PARAMS:
        return None
    params = [value for key in keys for value in key]
    if any(value is None for value in params):
        return None
    row = f"({', '.join('?' for __ in columns)})"
    lhs = columns[0] if len(columns) == 1 else f"({', '.join(columns)})"
    return f"{lhs} IN (VALUES {', '.join([row] * len(keys))})", params


def select_columns_named(rel: RelationSchema, names: Iterable[str]) -> str:
    """``t."A", t."B", ...`` for the given attribute names."""
    return ", ".join(f"t.{q(n)}" for n in names)


class SQLCarry(Carry):
    """A :class:`~repro.engine.carry.Carry` over a sqlite file.

    Each touched unit runs one key-restricted query in rowid order on the
    session's connection; a unit whose touched keys do not fit one query
    (or whose ``X`` is empty, so its one key is the whole relation)
    re-runs its pushed-down scan instead. *versions* are the session's
    per-table counters.
    """

    eager_tuples = True

    def __init__(
        self,
        plan: DetectionPlan,
        cache: ScanCache,
        delta: bool,
        executor: SQLPlanExecutor,
        versions: Mapping[str, int],
    ):
        super().__init__(plan, cache, delta)
        self.executor = executor
        self.versions = versions
        #: relation -> {rowid: tuple} of the CIND hit rows this carry
        #: noted or read
        self.rows: dict[str, dict[int, Tuple]] = {}
        #: (relation, X positions) -> {touched key: its group's rows},
        #: for the groups this carry patched
        self.fetched: dict[tuple, dict[tuple[Any, ...], RowGroup]] = {}

    def version(self, name: str) -> int:
        return self.versions[name]

    def view(self, relation: str) -> Callable[[int], Tuple]:
        rows = self.rows.setdefault(relation, {})
        changes = self.changes.get(relation)
        if changes is not None:
            rel = self.executor.schema.relation(relation)
            for rowid, values in changes.inserted:
                if rowid not in rows:
                    rows[rowid] = Tuple.from_row(rel, values)
        return rows.__getitem__

    def cfd_rows(self, group, touched, noted, hits, firsts):
        """A touched key whose group the report memo holds, and whose
        first row survived, is patched from the memo and the noted rows
        (own inserts take the highest rowids, so they append); the other
        touched keys' rows are fetched by one key-restricted query."""
        if not group.lhs_positions:
            raise Rescan
        relation, positions = group.relation, group.lhs_positions
        rel = self.executor.schema.relation(relation)
        changes = self.changes[relation]
        entry = self.cache.group_tuples_entry(group)
        memo = entry[1] if entry is not None and entry[0] == self.synced[relation] else {}
        gone: dict[tuple[Any, ...], set] = {}
        for values in changes.deleted.values():
            gone.setdefault(tuple([values[p] for p in positions]), set()).add(values)
        new: dict[tuple[Any, ...], list] = {}
        for __, values in changes.inserted:
            new.setdefault(tuple([values[p] for p in positions]), []).append(values)
        #: key -> (its group's value tuples in rowid order, its first rowid)
        known: dict[tuple[Any, ...], tuple[list[tuple[Any, ...]], int]] = {}
        wanted = []
        for key in touched:
            rowgroup, start = memo.get(key), firsts.get(key)
            if rowgroup is None or start is None or start in changes.deleted:
                wanted.append(key)
                continue
            drop = gone.get(key)
            kept = (
                [values for values in rowgroup.values if values not in drop]
                if drop else list(rowgroup.values)
            )
            kept.extend(new.get(key, ()))
            if kept:
                known[key] = (kept, start)
        if wanted:
            fetched = self.executor.key_rows(relation, group.lhs, wanted)
            if fetched is None:
                raise Rescan
            for rowid, values in fetched:
                key = tuple([values[p] for p in positions])
                found = known.get(key)
                if found is None:
                    found = known[key] = ([], rowid)
                found[0].append(values)
        order = sorted(known, key=lambda key: known[key][1])
        rows = [values for key in order for values in known[key][0]]
        keys = [key for key in order for __ in known[key][0]]
        self.fetched[(relation, positions)] = {
            key: RowGroup(rel, tuple(values)) for key, (values, __) in known.items()
        }

        def first(key: tuple[Any, ...]) -> int:
            found = known.get(key)
            return firsts[key] if found is None else found[1]

        return rows, keys, first

    def cfd_rescan(self, group):
        firsts: dict = {}
        return self.executor.scan_cfd_group(group, firsts), firsts

    def cfd_tuples(self, group, keys):
        found = self.fetched.get((group.relation, group.lhs_positions))
        if found is None:
            return self.executor.fetch_group_tuples(group, keys)
        return {key: found[key] for key in keys}

    def witness_present(self, spec, touched, noted):
        present = self.executor.present_keys(spec, touched)
        if present is None:
            raise Rescan
        return present

    def witness_rescan(self, spec, touched):
        return self.executor.witness_keys(spec) & touched

    def cind_rescan(self, relation, tasks):
        violations, buckets = self.executor.scan_cind_relation(relation, tasks)
        rows = self.rows.setdefault(relation, {})
        flat = [rowid for bucket in buckets for rowid in bucket]
        for v, rowid in zip(violations, flat):
            rows[rowid] = v.tuple_
        return buckets

    def cind_flipped(self, relation, task, lost, fresh, shared):
        fetched = self.executor.key_rows(
            relation, task.cind.x, lost, task.lhs_checks
        )
        if fetched is None:
            raise Rescan
        rel = self.executor.schema.relation(relation)
        rows = self.rows.setdefault(relation, {})
        found: list[int] = []
        for rowid, values in fetched:
            if rowid not in fresh:
                found.append(rowid)
                rows[rowid] = Tuple.from_row(rel, values)
        return found
