"""SQL violation detection: a detection plan executed inside sqlite.

:class:`SQLPlanExecutor` pushes a
:class:`~repro.engine.planner.DetectionPlan`'s *shared* scan units down
as SQL — one scan group per CFD ``(relation, X)`` and one witness
anti-join per deduplicated CIND signature — with count-only and
``EXISTS``-based early-exit variants mirroring the in-memory engine's
scan modes. It serves both SQL backends: ``sqlfile`` runs it on the
user's database file and ``sql`` on a ``:memory:`` image of an
in-memory instance.

For CFDs the SQL only narrows the search: the prefilter of
:mod:`repro.sql.windows` names a scan group's candidate ``X``-keys in
one aggregate scan, one key-restricted query reads those keys' rows,
and the engine's kernel (:func:`repro.engine.shards.cfd_evaluate`)
decides them. A CFD is therefore decided by one rule on every backend,
NULL included: ``None`` is a value like any other, as in the naive
oracle.

For CINDs (Section 8 flags this as the paper's planned follow-up, so we
build it) each normal-form row becomes one anti-join against the
witness keys of its right-hand side, materialized once per execution in
an indexed temp table::

    SELECT t1.rowid, t1.* FROM Ra t1
    WHERE t1.xp = :consts...
      AND NOT EXISTS (SELECT 1 FROM witness w WHERE w.k0 IS t1.A1 AND ...)

The probe compares with ``IS``, so a NULL ``X``-value finds a NULL
witness, as ``None`` does in the engine's witness sets; the covering
index serves ``IS`` as it serves ``=``.

All constants travel as bound parameters — nothing is interpolated into
SQL text except quoted identifiers. The scans keep the row ids a
carried cache needs: each CFD hit key's first rowid and each CIND hit's
rowid.

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

from repro.core.cind import CINDViolation
from repro.core.violations import ViolationReport
from repro.engine.cache import ScanCache
from repro.engine.carry import Carry, Rescan
from repro.engine.executor import (
    DetectionSummary,
    assemble_from_hits,
    cind_task_violations,
)
from repro.engine.planner import (
    CFDScanGroup,
    CINDRowTask,
    DetectionPlan,
    WitnessSpec,
)
from repro.engine.shards import cfd_evaluate
from repro.relational.instance import RowGroup, Tuple
from repro.relational.schema import RelationSchema
from repro.sql.ddl import select_columns
from repro.sql.ddl import quote_identifier as q
from repro.sql.windows import cfd_candidate_sql


# -- pushed-down shared scans -----------------------------------------------------


class SQLPlanExecutor:
    """Execute a :class:`~repro.engine.planner.DetectionPlan` *inside* sqlite.

    The plan's shared scan units are pushed down whole:

    * **CFD scan groups** — the prefilter of :mod:`repro.sql.windows`
      names the candidate keys (a superset of the violating ones, none
      on clean data) with each key's first rowid, one key-restricted
      query reads their rows, and the engine's kernel
      (:func:`~repro.engine.shards.cfd_evaluate`) decides them, as it
      decides every backend's groups. The Python side touches the
      candidate keys' rows only, not O(tuples).
    * **CIND buckets** — one witness anti-join per deduplicated task
      signature ``(premise checks, X positions, witness spec)``; rows come
      back in rowid order (= the engine's scan order for files written by
      :func:`~repro.sql.loader.create_database_file`).

    Hit lists have the same shape as the in-memory executor's
    (``(task, key, kind)`` per CFD hit; per LHS relation, task-major CIND
    violations and each task's rowid bucket), so the one
    :func:`~repro.engine.executor.assemble_from_hits` produces reports
    bit-identical — including violation-list order — to every other
    backend. :meth:`execute` runs every unit and assembles a report or,
    in count mode, a summary from the same hits without fetching group
    tuples; :meth:`is_clean` stops at the first unit with a hit, using
    :meth:`cind_relation_clean`'s ``EXISTS`` probes for CINDs.

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
        #: Per-execution witness materializations (see _witness_table):
        #: spec -> temp table name (non-empty Y) or spec -> bool (empty Y).
        self._witness_tables: dict[Any, str] = {}
        self._witness_nonempty: dict[Any, bool] = {}
        self._witness_count = 0

    # -- whole plans ---------------------------------------------------------

    def execute(self, mode: str) -> ViolationReport | DetectionSummary:
        """Every scan unit's hits, assembled in *mode* (``"full"`` or
        ``"count"``) by the engine's one assembly. With a cache, warm
        units answer from it and the cache is then marked synced."""
        plan = self.plan
        cfd_hits = [
            (group, self.cfd_group_hits(group)) for group in plan.cfd_groups
        ]
        cind_hits = [
            (relation, *self.cind_relation_hits(relation, tasks))
            for relation, tasks in plan.cind_scans.items()
        ]
        self._mark_synced()
        return assemble_from_hits(
            plan, cfd_hits, cind_hits, mode, self.cfd_group_tuples
        )

    def is_clean(self) -> bool:
        """Early exit: False at the first scan unit with a hit. CFD hit
        lists are computed (and cached) whole — the pushed-down queries
        already return only violating candidates — while CIND units use
        ``EXISTS`` probes, which store the empty hit list they prove."""
        plan = self.plan
        for group in plan.cfd_groups:
            if self.cfd_group_hits(group):
                return False
        for relation, tasks in plan.cind_scans.items():
            if not self.cind_relation_clean(relation, tasks):
                return False
        self._mark_synced()
        return True

    def _mark_synced(self) -> None:
        if self.cache is not None:
            self.cache.mark_synced(self.plan, self.versions.__getitem__)

    # -- CFD scan groups ---------------------------------------------------

    def cfd_group_hits(
        self, group: CFDScanGroup
    ) -> list[tuple[Any, tuple[Any, ...], str]]:
        """Every violating ``(task, key, kind)`` of *group*: the cached
        hit list at the table's version, else :meth:`scan_cfd_group`
        (memoized with its keys' first rowids, and its hit keys' groups
        in the report memo)."""
        cache = self.cache
        if cache is None:
            return self.scan_cfd_group(group)
        version = self.versions[group.relation]
        hits = cache.cfd_hits(group, version)
        if hits is None:
            firsts: dict = {}
            groups: dict = {}
            hits = self.scan_cfd_group(group, firsts, groups)
            cache.store_cfd_hits(group, version, hits, firsts)
            cache.cfd_group_tuples(group, version).update(groups)
        return hits

    def scan_cfd_group(
        self,
        group: CFDScanGroup,
        firsts: dict | None = None,
        groups: dict | None = None,
    ) -> list[tuple[Any, tuple[Any, ...], str]]:
        """One pushed-down scan of *group*: every violating
        ``(task, key, kind)``, tasks in group order, keys in
        first-occurrence rowid order — the in-memory executor's order.
        A *firsts* dict receives each hit key's first rowid, a *groups*
        dict its tuple group.

        The prefilter (:func:`~repro.sql.windows.cfd_candidate_sql`)
        names the candidate keys, :meth:`fetch_group_tuples` reads their
        rows, and :func:`~repro.engine.shards.cfd_evaluate` decides them."""
        rel = self.schema.relation(group.relation)
        staged = cfd_candidate_sql(rel, group)
        if staged is None:
            return []
        found = self.conn.execute(*staged).fetchall()
        if group.lhs:
            starts = {tuple(row[:-1]): row[-1] for row in found}
        else:
            # One all-rows group: its first rowid and its candidacy verdict.
            [(start, verdict)] = found
            starts = {(): start} if start is not None and verdict else {}
        if not starts:
            return []
        order = sorted(starts, key=starts.__getitem__)
        fetched = self.fetch_group_tuples(group, order)
        rows = [values for key in order for values in fetched[key].values]
        keys = [key for key in order for __ in fetched[key].values]
        hits = cfd_evaluate(group, rows, keys)
        hit_keys = dict.fromkeys(key for __, key, __k in hits)
        if firsts is not None:
            firsts.update((key, starts[key]) for key in hit_keys)
        if groups is not None:
            groups.update((key, fetched[key]) for key in hit_keys)
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
        """The full tuple group of each of *keys*, in rowid (scan) order,
        as a :class:`~repro.relational.instance.RowGroup` over the rows
        sqlite returned (no view is built).

        One scan of the relation buckets every wanted key's group (the
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
            f"w.{q('k%d' % i)} IS t1.{q(lhs_names[xpos])}"
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
        pattern rows share it, like the engine's ``cind_scan_buckets``);
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


#: Most values one key-restricted query binds (sqlite's historical
#: ``SQLITE_MAX_VARIABLE_NUMBER``); more keys than fit re-scan instead.
MAX_KEY_PARAMS = 999


def _keys_clause(
    attributes: Iterable[str], keys: Iterable[tuple[Any, ...]], alias: str
) -> tuple[str, list[Any]] | None:
    """``(alias.A, ...) IN (VALUES (?, ...), ...)`` over *keys* with its
    parameters, ORed with one ``(alias.A IS ? AND ...)`` term per key
    that holds a NULL (which ``IN`` never matches); ``None`` when the
    keys do not fit :data:`MAX_KEY_PARAMS` or the projection is empty."""
    columns = [f"{alias}.{q(a)}" for a in attributes]
    keys = list(keys)
    if not columns or not keys or len(keys) * len(columns) > MAX_KEY_PARAMS:
        return None
    plain = [key for key in keys if None not in key]
    nulls = [key for key in keys if None in key]
    terms = []
    if plain:
        row = f"({', '.join('?' for __ in columns)})"
        lhs = columns[0] if len(columns) == 1 else f"({', '.join(columns)})"
        terms.append(f"{lhs} IN (VALUES {', '.join([row] * len(plain))})")
    terms += [f"({' AND '.join(f'{c} IS ?' for c in columns)})"] * len(nulls)
    params = [value for key in plain + nulls for value in key]
    return f"({' OR '.join(terms)})", params


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
