"""Detection backends: one protocol, four engines, identical answers.

Each engine is an adapter onto one :class:`Backend` shape:

``check()``     -> ``ViolationReport``   (identical across backends,
                                          including violation-list order)
``count()``     -> ``DetectionSummary``  (per-constraint totals)
``is_clean()``  -> ``bool``              (each backend's cheapest verdict)
``stream()``    -> iterator of violations in report order

How each backend earns its keep:

* :class:`MemoryBackend` — the shared-scan engine; plans Σ once and reuses
  the plan across calls and mutations (plans depend only on Σ), and owns a
  mutation-versioned :class:`~repro.engine.cache.ScanCache` so re-checks
  over unchanged relations replay memoized scan results.
* :class:`NaiveBackend` — the per-constraint reference oracle; slow by
  design, kept as the executable transcription of the paper's
  satisfaction definitions.
* :class:`SQLFileBackend` — detection pushed down as SQL into an existing
  sqlite database file, out-of-core, with the memory backend's scan cache
  kept by its own DML and cleared by another connection's commit.
* :class:`SQLBackend` — a thin in-memory ``sqlfile``: the same plan
  executor (:class:`~repro.sql.violations.SQLPlanExecutor`) over a
  ``:memory:`` image of the instance, loaded on first need and dropped
  by DML.

Both SQL backends answer through that one executor and the engine's
assembly, so their reports are bit-identical to the others'.

After DML, the memory and sqlfile backends carry their scan cache
forward by the changed rows (:mod:`repro.engine.carry`): the next answer
re-evaluates only the CFD groups, witness keys and CIND rows they touch,
and ``delta()`` reports the change by position.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.api.options import ExecutionOptions
from repro.core.cfd import CFDViolation
from repro.core.cind import CINDViolation
from repro.core.violations import (
    ConstraintSet,
    ViolationReport,
    check_database_naive,
)
from repro.engine import (
    DetectionSummary,
    ReportDelta,
    ScanCache,
    carry_forward,
    execute_plan,
    plan_detection,
    plan_has_violation,
)
from repro.engine.carry import run_carry
from repro.errors import SessionClosedError, SQLBackendError
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.sql.ddl import quote_identifier, row_predicate, select_columns
from repro.sql.loader import (
    connect_file,
    connect_memory,
    data_version,
    introspect_schema,
    load_database,
)
from repro.sql.violations import SQLCarry, SQLPlanExecutor


#: One batch-DML operation: ``(relation name, row)``. Inserts take any row
#: shape the backend's ``insert`` takes; deletes are coerced to ``Tuple``.
DMLOp = tuple[str, Any]


@dataclass(frozen=True)
class ApplyResult:
    """What one batch :meth:`Backend.apply` actually changed.

    Set semantics mirror the single-row paths: an insert of a row already
    present and a delete of a row already absent are no-ops and are *not*
    counted.
    """

    inserted: int
    deleted: int

    @property
    def changed(self) -> int:
        return self.inserted + self.deleted

    def __bool__(self) -> bool:
        return self.changed > 0


@runtime_checkable
class Backend(Protocol):
    """What every detection engine looks like to a Session."""

    name: str

    def check(self) -> ViolationReport: ...

    def count(self) -> DetectionSummary: ...

    def is_clean(self) -> bool: ...

    def stream(self) -> Iterator[CFDViolation | CINDViolation]: ...

    def insert(self, relation: str, row: Any) -> bool: ...

    def delete(self, relation: str, row: Any) -> bool: ...

    def apply(
        self, inserts: Iterable[DMLOp] = (), deletes: Iterable[DMLOp] = ()
    ) -> ApplyResult: ...

    def close(self) -> None: ...


def summarize(report: ViolationReport) -> DetectionSummary:
    """A ``DetectionSummary`` with the same totals/labels as *report*."""
    return DetectionSummary(
        cfd_total=len(report.cfd_violations),
        cind_total=len(report.cind_violations),
        counts=report.by_constraint(),
    )


def build_plan(sigma: ConstraintSet, options: ExecutionOptions):
    """The backend-shared plan builder, honoring ``prune_implied``.

    With ``options.prune_implied`` the static analyzer's safe prune map
    (structural duplicates only) is compiled into the plan: duplicate
    constraints keep their report slots but share their twin's scans.
    The plan-free naive backend never calls this — pruning is trivially
    a no-op for it.
    """
    if options.prune_implied:
        from repro.analyze.redundancy import detection_prune_map

        return plan_detection(sigma, analysis=detection_prune_map(sigma))
    return plan_detection(sigma)


class BaseBackend:
    """Shared plumbing: mutation routing plus derived count/is_clean/stream.

    Subclasses override whatever they can answer faster than "run a full
    check and look at it".
    """

    name = "base"
    #: Bumped each time the backend sees its data changed by someone
    #: other than itself (only file-backed backends can): a consumer
    #: that tracks the backend's reports by its deltas must re-check.
    data_epoch = 0

    def __init__(
        self,
        db: DatabaseInstance,
        sigma: ConstraintSet,
        options: ExecutionOptions | None = None,
    ):
        self.db = db
        self.sigma = sigma
        self.options = options or ExecutionOptions()

    # -- detection ---------------------------------------------------------

    def check(self) -> ViolationReport:
        raise NotImplementedError

    def count(self) -> DetectionSummary:
        return summarize(self.check())

    def is_clean(self) -> bool:
        return self.check().is_clean

    def stream(self) -> Iterator[CFDViolation | CINDViolation]:
        report = self.check()
        yield from report.cfd_violations
        yield from report.cind_violations

    def delta(self) -> ReportDelta | None:
        """The report's change since the session last produced a complete
        report or delta, or ``None`` when this backend cannot tell (only
        the scan-cache backends can; see :meth:`MemoryBackend.delta`)."""
        return None

    # -- mutation ----------------------------------------------------------

    def insert(
        self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]
    ) -> bool:
        """Insert into the session database; False if already present."""
        return self.apply(inserts=((relation, row),)).inserted == 1

    def delete(
        self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]
    ) -> bool:
        """Delete from the session database; False if not present."""
        return self.apply(deletes=((relation, row),)).deleted == 1

    def _coerce_tuple(self, relation: str, row: Any) -> Tuple:
        """A canonical :class:`Tuple` for *row* on *relation* (deletes
        must hash/compare like the stored tuple, so dict/sequence rows
        are coerced up front)."""
        if isinstance(row, Tuple):
            return row
        return Tuple(self.db[relation].schema, row)

    def _batch_rows(
        self, inserts: Iterable[DMLOp], deletes: Iterable[DMLOp]
    ) -> tuple[list, list]:
        """Every delete row as a :class:`Tuple` and every insert row as a
        checked value tuple, before anything is mutated: a batch with a
        malformed row (unknown relation, wrong arity or attributes)
        raises here and changes nothing."""
        delete_rows = [
            (self.db[relation], self._coerce_tuple(relation, row))
            for relation, row in deletes
        ]
        insert_rows = []
        for relation, row in inserts:
            instance = self.db[relation]
            insert_rows.append((instance, instance.coerce(row)))
        return delete_rows, insert_rows

    def apply(
        self, inserts: Iterable[DMLOp] = (), deletes: Iterable[DMLOp] = ()
    ) -> ApplyResult:
        """Batch DML: all *deletes*, then all *inserts*, one invalidation.

        The batch is applied with the same set semantics as the
        single-row paths, but ``_invalidate()`` runs **once per batch**
        (and only when something actually changed) instead of once per
        row — on the SQL-image backends that is the difference between
        one cache drop and a thousand. Every row is checked before the
        first mutation, so a malformed row leaves the database as it was.
        """
        delete_rows, insert_rows = self._batch_rows(inserts, deletes)
        log: dict[str, tuple[RelationInstance, int, list, list]] = {}

        def changes_of(instance: RelationInstance) -> tuple:
            entry = log.get(instance.schema.name)
            if entry is None:
                entry = log[instance.schema.name] = (
                    instance, instance.version, [], [],
                )
            return entry

        deleted = 0
        for instance, t in delete_rows:
            rowid = instance.row_id(t.values)
            if rowid is None:
                continue
            entry = changes_of(instance)
            if instance.discard(t):
                entry[2].append((rowid, t.values))
                deleted += 1
        inserted = 0
        for instance, values in insert_rows:
            entry = changes_of(instance)
            if instance.add(values) is not None:
                entry[3].append((instance.row_id(values), values))
                inserted += 1
        for instance, before, gone, new in log.values():
            if gone or new:
                self._noted(instance, before, gone, new)
        result = ApplyResult(inserted=inserted, deleted=deleted)
        if result:
            self._invalidate()
        return result

    def _noted(
        self,
        instance: RelationInstance,
        before: int,
        deleted: list[tuple[int, tuple[Any, ...]]],
        inserted: list[tuple[int, tuple[Any, ...]]],
    ) -> None:
        """One relation's rows a batch actually deleted and inserted, as
        ``(row id, values)`` pairs, and its version before the batch."""

    def _invalidate(self) -> None:
        """Drop any data-derived caches after a mutation."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} |Σ|={len(self.sigma)} on {self.db!r}>"


class MemoryBackend(BaseBackend):
    """Shared-scan engine (the default): plan Σ once, execute per call.

    Alongside the plan it owns a :class:`~repro.engine.cache.ScanCache`:
    scan results are memoized against each relation's mutation version, so
    repeated ``check``/``count``/``is_clean`` calls over unchanged data
    replay cached hit lists instead of scanning, and a repair round only
    re-scans the relations it actually touched. Versions make mutations
    self-invalidating — ``_invalidate`` has nothing to do.
    """

    name = "memory"

    def __init__(self, db, sigma, options=None):
        super().__init__(db, sigma, options)
        # Plans depend only on Σ, never on the data: build one, keep it
        # across checks and mutations (the repair loop relies on this).
        self._plan = build_plan(sigma, self.options)
        self._cache = ScanCache(self._plan)

    @property
    def plan(self):
        return self._plan

    @property
    def cache(self) -> ScanCache:
        return self._cache

    def check(self) -> ViolationReport:
        return execute_plan(self._plan, self.db, mode="full", cache=self._cache)

    def count(self) -> DetectionSummary:
        return execute_plan(self._plan, self.db, mode="count", cache=self._cache)

    def is_clean(self) -> bool:
        # Stops at the first unit with a hit; warm cache entries answer
        # without scanning at all.
        return not plan_has_violation(self._plan, self.db, cache=self._cache)

    def delta(self) -> ReportDelta | None:
        """Carry the scan cache forward by the rows noted since it was last
        complete and return how the report changed, by position; ``None``
        when the cache was never complete or the data changed outside this
        session's DML (the next check then re-scans the stale units)."""
        return carry_forward(self._plan, self.db, self._cache, delta=True)

    def _noted(
        self,
        instance: RelationInstance,
        before: int,
        deleted: list[tuple[int, tuple[Any, ...]]],
        inserted: list[tuple[int, tuple[Any, ...]]],
    ) -> None:
        self._cache.note(
            instance.schema.name, before, instance.version, len(instance),
            deleted, inserted,
        )


class NaiveBackend(BaseBackend):
    """Per-constraint reference oracle (the paper's satisfaction defs)."""

    name = "naive"

    def check(self) -> ViolationReport:
        return check_database_naive(self.db, self.sigma)

    def is_clean(self) -> bool:
        # satisfied_by short-circuits on the first violated constraint.
        return self.sigma.satisfied_by(self.db)


class SQLBackend(BaseBackend):
    """A thin in-memory ``sqlfile``: sqlite3 detection over an image.

    The first call loads the instance into a private ``:memory:``
    database and runs the plan there through the ``sqlfile`` backend's
    :class:`~repro.sql.violations.SQLPlanExecutor`, so reports carry
    rows as sqlite returns them, bit-identical to the other backends'
    for data whose values round-trip their column affinity. DML changes
    the caller's instance and drops the image; the next call reloads
    it. Calls serialize on one lock (they share the image's temp
    tables); a call that was waiting on it while the session closed
    raises :class:`~repro.errors.SessionClosedError`.
    """

    name = "sql"

    def __init__(self, db, sigma, options=None):
        super().__init__(db, sigma, options)
        self._plan = build_plan(sigma, self.options)
        self._image: SQLPlanExecutor | None = None
        self._lock = threading.RLock()
        self._closed = False

    @property
    def plan(self):
        return self._plan

    def _scan(self, answer: Callable[[SQLPlanExecutor], Any]) -> Any:
        """*answer* from the image's executor, under the lock."""
        with self._lock:
            # A call that got past the session's check while close() ran
            # must not reopen an image nothing would close.
            if self._closed:
                raise SessionClosedError("sql backend is closed")
            image = self._image
            if image is None:
                conn = connect_memory()
                try:
                    load_database(conn, self.db)
                except BaseException:
                    conn.close()
                    raise
                image = self._image = SQLPlanExecutor(conn, self._plan)
            try:
                return answer(image)
            finally:
                image.release_witnesses()

    def check(self) -> ViolationReport:
        return self._scan(lambda executor: executor.execute("full"))

    def count(self) -> DetectionSummary:
        return self._scan(lambda executor: executor.execute("count"))

    def is_clean(self) -> bool:
        return self._scan(SQLPlanExecutor.is_clean)

    def _invalidate(self) -> None:
        with self._lock:
            if self._image is not None:
                self._image.conn.close()
                self._image = None

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._invalidate()


class SQLFileBackend(BaseBackend):
    """Out-of-core detection over an existing sqlite database *file*.

    Where :class:`SQLBackend` serializes an in-memory instance into a fresh
    ``:memory:`` database, this backend attaches to a file and runs
    detection where the data lives: the plan's shared scan groups are
    pushed down as SQL by a :class:`~repro.sql.violations.SQLPlanExecutor`
    (per CFD group a prefilter that picks candidate keys, whose rows the
    engine's kernel decides; one witness anti-join per CIND bucket,
    count-only and ``EXISTS`` early-exit variants), and the hits are assembled
    through the engine's serial assembly so reports are bit-identical —
    including list order — to the memory backend over equivalent data
    (rowid order standing in for tuple insertion order).

    Scan results live in the same :class:`~repro.engine.cache.ScanCache`
    the memory backend uses, versioned by per-table counters this session
    bumps. The session's own connection is the authority on the file:

    * its own DML (:meth:`apply`, and ``insert``/``delete`` through it)
      notes every changed row as ``(rowid, values)``, and the next
      ``check``/``count``/``is_clean`` — or :meth:`delta` — carries the
      cache forward by them (:class:`~repro.sql.violations.SQLCarry`):
      only the touched CFD groups, witness keys and CIND rows are
      re-evaluated, each by one key-restricted query. Its inserts take
      rowids above every rowid the session has seen, so a deleted
      newest row's rowid is never reused behind the carry's back. The
      witness key sets a carry reads are taken before the first batch
      that needs them, so a check that never sees DML never pays for
      them;
    * ``PRAGMA data_version`` moves exactly when *another* connection
      commits, and then the cache is cleared: every unit re-scans at the
      next call. A warm re-check of an unchanged file runs that one
      PRAGMA and no data SQL at all.

    Calls serialize on one lock, because readers share the connection and
    its temp tables; a call that was waiting on the lock while the
    session closed raises :class:`~repro.errors.SessionClosedError`.
    Nothing here creates an index or writes to the file except the DML
    itself. ``options.readonly`` opens the file read-only and makes
    mutations fail loudly.
    """

    name = "sqlfile"
    #: ``connect()`` routes database *paths* (not instances) to this backend.
    accepts_path = True

    def __init__(
        self,
        path: str | Path,
        sigma: ConstraintSet,
        options: ExecutionOptions | None = None,
    ):
        if isinstance(path, DatabaseInstance):
            raise SQLBackendError(
                "the sqlfile backend runs on an existing sqlite database "
                "file; pass its path (write one with "
                "repro.sql.loader.create_database_file)"
            )
        super().__init__(path, sigma, options)
        self.path = Path(path)
        self.conn = connect_file(self.path, readonly=self.options.readonly)
        try:
            introspect_schema(self.conn, sigma.schema)
            self._data_version = data_version(self.conn)
        except (SQLBackendError, sqlite3.Error):
            self.conn.close()
            raise
        self._plan = build_plan(sigma, self.options)
        self._cache = ScanCache(self._plan)
        #: table -> version counter: bumped by each own batch touching the
        #: table, and for every table when another connection commits.
        self._versions = dict.fromkeys(sigma.schema.relation_names, 0)
        self._executor = SQLPlanExecutor(
            self.conn, self._plan, cache=self._cache, versions=self._versions
        )
        #: table -> row count, counted on first need and kept by own DML.
        self._sizes: dict[str, int] = {}
        #: table -> the highest rowid this session inserted or deleted.
        self._high: dict[str, int] = {}
        self._lock = threading.RLock()
        self._closed = False

    @property
    def plan(self):
        return self._plan

    @property
    def cache(self) -> ScanCache:
        return self._cache

    # -- cache bookkeeping -------------------------------------------------

    @contextmanager
    def _while_open(self) -> Iterator[None]:
        """Hold the session lock, refusing once the session is closed (a
        call may have waited on the lock while :meth:`close` ran)."""
        with self._lock:
            if self._closed:
                raise SessionClosedError(
                    f"sqlfile session on {str(self.path)!r} is closed"
                )
            yield

    def _sync(self) -> None:
        """Clear the cache if another connection committed since the last
        call (one PRAGMA when nothing changed)."""
        current = data_version(self.conn)
        if current != self._data_version:
            self._data_version = current
            self.data_epoch += 1
            for table in self._versions:
                self._versions[table] += 1
            self._sizes.clear()
            self._cache.clear()

    def _carry(self, delta: bool = False) -> ReportDelta | None:
        return run_carry(SQLCarry(
            self._plan, self._cache, delta, self._executor, self._versions
        ))

    def _size(self, table: str) -> int:
        size = self._sizes.get(table)
        if size is None:
            [(size,)] = self.conn.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(table)}"
            ).fetchall()
            self._sizes[table] = size
        return size

    # -- scan units (cached) -----------------------------------------------

    def _keep_witness_sets(self, relations: set[str]) -> None:
        """Before a batch on *relations*, store the witness key sets a
        carry over it will read and the cache lacks: those on the
        relations and those their CIND rows probe. A scan does not keep
        them (a cold check would pay for sets no carry reads); they are
        taken here, while the file still holds the synced state of
        their relation, and carried from then on."""
        cache, versions = self._cache, self._versions
        if cache.synced is None:
            return
        specs = {
            spec
            for relation, relation_specs in self._plan.witness_specs.items()
            if relation in relations
            for spec in relation_specs
        }
        specs.update(
            task.witness
            for relation, tasks in self._plan.cind_scans.items()
            if relation in relations
            for task in tasks
        )
        try:
            for spec in specs:
                relation = spec.rhs_relation
                entry = cache.witness_entry(spec)
                if (
                    (entry is None or entry[0] != versions[relation])
                    and relation not in cache.log
                ):
                    cache.store_witness_set(
                        spec, versions[relation], self._executor.witness_keys(spec)
                    )
        finally:
            self._executor.release_witnesses()

    def _scan(self, answer: Callable[[SQLPlanExecutor], Any]) -> Any:
        """Carry, then *answer* from the executor, which scans what
        stays cold and answers warm units from the cache — all under
        the session lock."""
        with self._while_open():
            self._sync()
            try:
                self._carry()
                return answer(self._executor)
            finally:
                # Witness materializations mirror the file's current
                # content; they are valid for exactly one execution.
                self._executor.release_witnesses()

    # -- detection ---------------------------------------------------------

    def check(self) -> ViolationReport:
        return self._scan(lambda executor: executor.execute("full"))

    def count(self) -> DetectionSummary:
        return self._scan(lambda executor: executor.execute("count"))

    def is_clean(self) -> bool:
        return self._scan(SQLPlanExecutor.is_clean)

    def delta(self) -> ReportDelta | None:
        """Carry the cache forward by this session's noted DML and return
        how the report changed, by position; ``None`` when the cache was
        never complete or another connection committed since (the next
        check then re-scans every unit)."""
        with self._while_open():
            self._sync()
            try:
                return self._carry(delta=True)
            finally:
                self._executor.release_witnesses()

    # -- mutation (SQL DML) ------------------------------------------------

    def _coerce(self, relation: str, row: Any) -> Tuple:
        rel = self.sigma.schema.relation(relation)
        if isinstance(row, Tuple):
            if row.schema.name != rel.name:
                raise SQLBackendError(
                    f"tuple of {row.schema.name!r} used on {relation!r}"
                )
            return row
        return Tuple(rel, row)

    def _ensure_writable(self) -> None:
        if self.options.readonly:
            raise SQLBackendError(
                f"session on {str(self.path)!r} is read-only "
                "(ExecutionOptions(readonly=True))"
            )

    def apply(
        self, inserts: Iterable[DMLOp] = (), deletes: Iterable[DMLOp] = ()
    ) -> ApplyResult:
        """Batch DML in **one** transaction, each changed row noted.

        All deletes, then all inserts (set semantics per row: the
        presence check and the INSERT share the ``BEGIN IMMEDIATE``
        transaction, so a concurrent writer cannot plant a duplicate in
        between) — a 1k row batch pays one commit and one fsync instead
        of 1k, and concurrent readers of the file never observe a
        half-applied batch. Every row is checked before the first
        statement, so a malformed row leaves the file as it was. Each
        changed row is noted as ``(rowid, values as stored)`` for the
        carry; an insert takes the rowid after the highest one the
        session has seen.
        """
        self._ensure_writable()
        delete_ops = [
            (relation, self._coerce(relation, row)) for relation, row in deletes
        ]
        insert_ops = [
            (relation, self._coerce(relation, row)) for relation, row in inserts
        ]
        if not delete_ops and not insert_ops:
            return ApplyResult(inserted=0, deleted=0)
        with self._while_open():
            self._sync()
            self._keep_witness_sets(
                {relation for relation, __ in delete_ops + insert_ops}
            )
            noted: dict[str, tuple[list, list]] = {}
            inserted = deleted = 0
            conn = self.conn
            conn.execute("BEGIN IMMEDIATE")
            try:
                for relation, t in delete_ops:
                    table = quote_identifier(relation)
                    cols = select_columns(t.schema)
                    pred = row_predicate(list(t.schema.attribute_names), "t")
                    found = conn.execute(
                        f"SELECT t.rowid, {cols} FROM {table} t WHERE {pred}",
                        t.values,
                    ).fetchall()
                    if not found:
                        continue
                    for row in found:
                        conn.execute(f"DELETE FROM {table} WHERE rowid = ?", (row[0],))
                    deleted += 1
                    noted.setdefault(relation, ([], []))[0].extend(
                        (row[0], row[1:]) for row in found
                    )
                    self._high[relation] = max(
                        self._high.get(relation, 0), *(row[0] for row in found)
                    )
                tops: dict[str, int] = {}
                for relation, t in insert_ops:
                    table = quote_identifier(relation)
                    names = list(t.schema.attribute_names)
                    pred = row_predicate(names, "t")
                    present = conn.execute(
                        f"SELECT 1 FROM {table} t WHERE {pred} LIMIT 1", t.values
                    ).fetchall()
                    if present:
                        continue
                    top = tops.get(relation)
                    if top is None:
                        [(top,)] = conn.execute(
                            f"SELECT COALESCE(MAX(rowid), 0) FROM {table}"
                        ).fetchall()
                    rowid = max(top, self._high.get(relation, 0)) + 1
                    tops[relation] = self._high[relation] = rowid
                    columns = ", ".join(quote_identifier(n) for n in names)
                    placeholders = ", ".join("?" for __ in names)
                    conn.execute(
                        f"INSERT INTO {table} (rowid, {columns}) "
                        f"VALUES (?, {placeholders})",
                        (rowid, *t.values),
                    )
                    # Note the values as stored (column affinity may have
                    # converted them), which is what scans read back.
                    [stored] = conn.execute(
                        f"SELECT {select_columns(t.schema)} FROM {table} t "
                        "WHERE t.rowid = ?",
                        (rowid,),
                    ).fetchall()
                    inserted += 1
                    noted.setdefault(relation, ([], []))[1].append((rowid, stored))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            for relation, (gone, new) in noted.items():
                before = self._versions[relation]
                self._versions[relation] = before + 1
                if relation in self._sizes:
                    self._sizes[relation] += len(new) - len(gone)
                self._cache.note(
                    relation, before, before + 1,
                    lambda relation=relation: self._size(relation), gone, new,
                )
            return ApplyResult(inserted=inserted, deleted=deleted)

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self.conn.close()

    def __repr__(self) -> str:
        return (
            f"<SQLFileBackend {str(self.path)!r} |Σ|={len(self.sigma)}"
            f"{' readonly' if self.options.readonly else ''}>"
        )


#: Registry used by ``connect(backend="...")`` and the CLI's ``--engine``.
BACKENDS: dict[str, type[BaseBackend]] = {
    "memory": MemoryBackend,
    "naive": NaiveBackend,
    "sql": SQLBackend,
    "sqlfile": SQLFileBackend,
}
