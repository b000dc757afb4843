"""Detection backends: one protocol, four engines, identical answers.

Before this facade the repo exposed incompatible checking APIs —
``check_database`` returned a :class:`ViolationReport` and
``SQLViolationDetector.check`` a ``dict[label, set[row]]`` — so every
caller special-cased its engine. Here each engine is an adapter onto one
:class:`Backend` shape:

``check()``     -> ``ViolationReport``   (identical across backends,
                                          including violation-list order)
``count()``     -> ``DetectionSummary``  (per-constraint totals)
``is_clean()``  -> ``bool``              (each backend's cheapest verdict)
``stream()``    -> iterator of violations in report order

How each backend earns its keep:

* :class:`MemoryBackend` — the shared-scan engine; plans Σ once and reuses
  the plan across calls and mutations (plans depend only on Σ), and owns a
  mutation-versioned :class:`~repro.engine.cache.ScanCache` so re-checks
  over unchanged relations replay memoized scan results. With
  ``options.workers > 1`` it dispatches scan groups through
  :mod:`repro.api.parallel` (cache-aware: warm units never reach the pool).
* :class:`NaiveBackend` — the per-constraint reference oracle; slow by
  design, kept as the executable transcription of the paper's
  satisfaction definitions.
* :class:`SQLBackend` — sqlite3 anti-joins find the violating *rows*; the
  adapter maps rows back to the canonical in-memory ``Tuple`` objects and
  replays the engine's violation semantics over just the dirty groups, so
  its report is tuple-for-tuple comparable with the others.
* :class:`SQLFileBackend` — detection pushed down as SQL into an existing
  sqlite database file, out-of-core, with the memory backend's scan cache
  kept by its own DML and cleared by another connection's commit.

After DML, the memory and sqlfile backends carry their scan cache
forward by the changed rows (:mod:`repro.engine.carry`): the next answer
re-evaluates only the CFD groups, witness keys and CIND rows they touch,
and ``delta()`` reports the change by position.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.api.options import ExecutionOptions
from repro.api.parallel import (
    execute_plan_parallel,
    execute_sqlfile_windows,
    resolve_executor,
)
from repro.api.workerpool import WorkerPool
from repro.core.cfd import CFDViolation
from repro.core.cind import CINDViolation
from repro.core.violations import (
    ConstraintSet,
    ViolationReport,
    check_database_naive,
    constraint_labels,
)
from repro.engine import (
    DetectionSummary,
    ReportDelta,
    ScanCache,
    attribute_positions,
    carry_forward,
    compile_checks,
    execute_plan,
    passes,
    plan_detection,
    plan_has_violation,
    projection_column_keys,
)
from repro.engine.carry import run_carry
from repro.engine.executor import assemble_from_hits, cind_task_violations
from repro.errors import SQLBackendError
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.sql.ddl import quote_identifier, row_predicate, select_columns
from repro.sql.loader import connect_file, data_version, introspect_schema
from repro.sql.violations import SQLCarry, SQLPlanExecutor, SQLViolationDetector
from repro.sql.windows import ReadonlyConnectionPool


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
    The plan-free backends (naive, sql) never call this — pruning is
    trivially a no-op for them.
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
        # Resolve the pool kind once, up front: an explicit "process" on a
        # fork-less platform warns here (once per session, not per check)
        # and the concrete choice is recorded for honest reporting. With
        # the default pool="persistent" the session owns one WorkerPool
        # reused by every check; per-call keeps the resolved kind and
        # rebuilds the executor inside each call.
        self._pool_kind = (
            resolve_executor(self.options.executor)
            if self.options.parallel
            else None
        )
        self._pool = (
            WorkerPool(self._pool_kind, self.options.workers)
            if self._pool_kind is not None
            and self.options.pool == "persistent"
            else None
        )
        self.effective_executor = (
            f"{self._pool_kind}-persistent"
            if self._pool is not None
            else self._pool_kind
        )

    @property
    def plan(self):
        return self._plan

    @property
    def cache(self) -> ScanCache:
        return self._cache

    def _parallel(self, mode: str):
        return execute_plan_parallel(
            self._plan,
            self.db,
            workers=self.options.workers,
            mode=mode,
            executor=self._pool_kind,
            cache=self._cache,
            min_shard_rows=self.options.min_shard_rows,
            shards=self.options.shards,
            pool=self._pool,
            steal_granularity=self.options.steal_granularity,
        )

    def check(self) -> ViolationReport:
        if self.options.parallel:
            return self._parallel("full")
        return execute_plan(self._plan, self.db, mode="full", cache=self._cache)

    def count(self) -> DetectionSummary:
        if self.options.parallel:
            return self._parallel("count")
        return execute_plan(self._plan, self.db, mode="count", cache=self._cache)

    def is_clean(self) -> bool:
        # Early exit is inherently serial: the point is to stop at the
        # first hit, which a fan-out would race past. Warm cache entries
        # answer without scanning at all.
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

    def close(self) -> None:
        # The persistent pool holds worker processes and /dev/shm
        # segments; Session.close() is where they die.
        if self._pool is not None:
            self._pool.close()


class NaiveBackend(BaseBackend):
    """Per-constraint reference oracle (the paper's satisfaction defs)."""

    name = "naive"

    def check(self) -> ViolationReport:
        return check_database_naive(self.db, self.sigma)

    def is_clean(self) -> bool:
        # satisfied_by short-circuits on the first violated constraint.
        return self.sigma.satisfied_by(self.db)


class SQLBackend(BaseBackend):
    """sqlite3 detection with canonical-tuple output.

    The SQL queries (tableaux shipped as data tables, anti-joins for
    CINDs) identify the violating rows; this adapter then rebuilds
    engine-identical violation objects by replaying the CFD group
    semantics over *only* the dirty group keys and mapping every SQL row
    back to its canonical in-memory :class:`Tuple`. Hybrid on purpose: SQL
    does the data-heavy filtering, Python finalizes the (small) dirty
    subset.

    Empty-entry semantics: unlike the raw
    :meth:`~repro.sql.violations.SQLViolationDetector.check` (which omits
    constraints with zero violations), :meth:`violating_rows` keys *every*
    constraint of Σ — empty set when clean — matching how
    ``ViolationReport`` accounts for all of Σ.
    """

    name = "sql"

    def __init__(self, db, sigma, options=None):
        super().__init__(db, sigma, options)
        self._detector: SQLViolationDetector | None = None
        self._str_image: dict[str, dict[tuple[str, ...], int | None]] = {}

    # -- sqlite session management ----------------------------------------

    def _get_detector(self) -> SQLViolationDetector:
        if self._detector is None:
            self._detector = SQLViolationDetector(db=self.db)
        return self._detector

    def _invalidate(self) -> None:
        # The sqlite image and the string-image map mirror the data; a
        # mutation invalidates both (reloaded lazily on the next call).
        self.close()
        self._str_image.clear()

    def close(self) -> None:
        if self._detector is not None:
            self._detector.close()
            self._detector = None

    # -- row -> canonical tuple mapping ------------------------------------

    def _canonical_row_id(self, relation: str, row: tuple[Any, ...]) -> int:
        instance = self.db[relation]
        rowid = instance.row_id(row)
        if rowid is not None:
            return rowid
        # sqlite affinity may have round-tripped a value through another
        # type (e.g. "5" stored in an INTEGER column comes back as 5);
        # retry on the string image of every value, via a map built once
        # per relation. Colliding images map to None so an ambiguous
        # lookup fails loudly instead of picking an arbitrary tuple.
        images = self._str_image.get(relation)
        if images is None:
            images = self._str_image[relation] = {}
            for candidate, values in zip(
                instance.row_ids(), zip(*instance.columns())
            ):
                image = tuple(map(str, values))
                images[image] = None if image in images else candidate
        rowid = images.get(tuple(map(str, row)))
        if rowid is not None:
            return rowid
        raise SQLBackendError(
            f"SQL row {row!r} has no unambiguous counterpart in relation "
            f"{relation!r}; the sqlite image is stale, a value did not "
            "round-trip, or two tuples share its string image"
        )

    # -- detection ---------------------------------------------------------

    def _cfd_violations(self, detector: SQLViolationDetector) -> list[CFDViolation]:
        out: list[CFDViolation] = []
        for cfd in self.sigma.cfds:
            rows = detector.cfd_violating_rows(cfd)
            if not rows:
                continue
            relation = cfd.relation.name
            instance = self.db[relation]
            dirty = {
                instance.view(self._canonical_row_id(relation, row)).project(
                    cfd.lhs
                )
                for row in rows
            }
            # Candidate keys in scan (first-occurrence) order — the order
            # the engine's group-by would surface them in.
            keys = projection_column_keys(
                instance.columns(),
                attribute_positions(cfd.relation, cfd.lhs),
                len(instance),
            )
            ordered = [key for key in dict.fromkeys(keys) if key in dirty]
            out.extend(self._replay_cfd(cfd, instance, ordered))
        return out

    def _replay_cfd(
        self,
        cfd,
        instance: RelationInstance,
        ordered_keys: list[tuple[Any, ...]],
    ) -> Iterator[CFDViolation]:
        """Engine violation semantics over the dirty group keys only."""
        rhs_positions = attribute_positions(cfd.relation, cfd.rhs)
        groups = {key: instance.group_rows(cfd.lhs, key) for key in ordered_keys}
        rhs_sets = {
            key: {
                tuple(values[i] for i in rhs_positions) for values in group.values
            }
            for key, group in groups.items()
        }
        for row_index, row in enumerate(cfd.tableau):
            key_checks = compile_checks(
                row.lhs_projection(cfd.lhs), range(len(cfd.lhs))
            )
            rhs_checks = compile_checks(
                row.rhs_projection(cfd.rhs), range(len(cfd.rhs))
            )
            for key in ordered_keys:
                if not passes(key, key_checks):
                    continue
                rhs_values = rhs_sets[key]
                disagree = len(rhs_values) > 1
                if not disagree:
                    if not rhs_checks or all(
                        passes(vals, rhs_checks) for vals in rhs_values
                    ):
                        continue
                yield CFDViolation(
                    cfd=cfd,
                    pattern_index=row_index,
                    lhs_values=key,
                    tuples=groups[key],
                    kind="pair" if disagree else "single",
                )

    def _cind_violations(self, detector: SQLViolationDetector) -> list[CINDViolation]:
        out: list[CINDViolation] = []
        for cind in self.sigma.cinds:
            relation = cind.lhs_relation.name
            for row_index, rows in enumerate(
                detector.cind_violating_rows_by_pattern(cind)
            ):
                if not rows:
                    continue
                # Row ids ascend in scan order.
                instance = self.db[relation]
                rowids = sorted(
                    self._canonical_row_id(relation, row) for row in rows
                )
                out.extend(
                    CINDViolation(
                        cind=cind,
                        pattern_index=row_index,
                        tuple_=instance.view(rowid),
                    )
                    for rowid in rowids
                )
        return out

    def check(self) -> ViolationReport:
        detector = self._get_detector()
        return ViolationReport(
            self._cfd_violations(detector),
            self._cind_violations(detector),
            constraints=self.sigma,
        )

    def violating_rows(self) -> dict[str, set[tuple[Any, ...]]]:
        """Raw violating rows per constraint label — every constraint keyed.

        Normalized empty-entry semantics: constraints with no violations
        map to an empty set instead of being omitted (the raw detector's
        behaviour), so ``set(backend.violating_rows())`` always equals the
        label set of Σ and cross-engine comparisons need no special cases.
        """
        detector = self._get_detector()
        labels = constraint_labels(self.sigma)
        out: dict[str, set[tuple[Any, ...]]] = {
            labels[id(c)]: set() for c in self.sigma
        }
        for cfd in self.sigma.cfds:
            out[labels[id(cfd)]] |= detector.cfd_violating_rows(cfd)
        for cind in self.sigma.cinds:
            out[labels[id(cind)]] |= detector.cind_violating_rows(cind)
        return out

    def is_clean(self) -> bool:
        detector = self._get_detector()
        return detector.is_clean(self.sigma)


class SQLFileBackend(BaseBackend):
    """Out-of-core detection over an existing sqlite database *file*.

    Where :class:`SQLBackend` serializes an in-memory instance into a fresh
    ``:memory:`` database, this backend attaches to a file and runs
    detection where the data lives: the plan's shared scan groups are
    pushed down as SQL by a :class:`~repro.sql.violations.SQLPlanExecutor`
    (a one-pass prefilter + window-function scan per CFD group when the
    sqlite library supports it — ``options.window_functions`` controls the
    dispatch, with automatic fallback to the legacy GROUP-BY-then-join SQL
    on older builds — one witness anti-join per CIND bucket, count-only
    and ``EXISTS`` early-exit variants), and the hits are assembled
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
    its temp tables. Nothing here creates an index or writes to the file
    except the DML itself. ``options.readonly`` opens the file read-only
    and makes mutations fail loudly.

    ``options.workers > 1`` makes ``check``/``count`` split every scan
    unit that stays cold after the carry into contiguous rowid windows
    run concurrently on a bounded pool of read-only connections
    (:func:`~repro.api.parallel.execute_sqlfile_windows`; sqlite releases
    the GIL inside queries, so the pool is always thread-based regardless
    of ``options.executor``) and merge the partial states bit-identically
    into the serial entry shapes. ``options.shards`` forces the
    per-relation window count.
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
            self.conn, self._plan,
            window_functions=self.options.window_functions,
            cache=self._cache, versions=self._versions,
        )
        #: table -> row count, counted on first need and kept by own DML.
        self._sizes: dict[str, int] = {}
        #: table -> the highest rowid this session inserted or deleted.
        self._high: dict[str, int] = {}
        self._lock = threading.RLock()
        # options.pool == "persistent": one read-only connection pool for
        # every windowed prefetch this session runs (built lazily on the
        # first cold parallel call; warm traffic stops paying per-call
        # connect cost). The window pool is always thread-based, so the
        # session reports "thread-persistent"/"thread" when parallel.
        self._window_pool: ReadonlyConnectionPool | None = None
        self.effective_executor = (
            ("thread-persistent" if self.options.pool == "persistent"
             else "thread")
            if self.options.parallel
            else None
        )
        self._closed = False

    @property
    def plan(self):
        return self._plan

    @property
    def cache(self) -> ScanCache:
        return self._cache

    # -- cache bookkeeping -------------------------------------------------

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

    def _prefetch_parallel(self) -> None:
        """Fill the scan units that stay cold after the carry via
        rowid-window dispatch.

        Only with ``options.workers > 1``. The window path yields no
        first rowids for CFD keys, so a group it filled re-scans once, on
        the first carry that touches it; its CIND hits keep their rowids.
        A fully-warm call skips the pool entirely and ``is_clean`` stays
        serial — its point is to stop at the first hit, which a fan-out
        would race past.
        """
        if self.options.workers <= 1:
            return
        plan, cache, versions = self._plan, self._cache, self._versions
        cold_groups = [
            i
            for i, group in enumerate(plan.cfd_groups)
            if (entry := cache.cfd_entry(group)) is None
            or entry[0] != versions[group.relation]
        ]
        cold_cind = [
            relation
            for relation, tasks in plan.cind_scans.items()
            if (entry := cache.cind_entry(relation)) is None
            or entry[0] != versions[relation]
            or entry[1] != cache.cind_deps(tasks, versions.__getitem__)
        ]
        if not cold_groups and not cold_cind:
            return
        if self.options.pool == "persistent" and self._window_pool is None:
            self._window_pool = ReadonlyConnectionPool(
                self.path, self.options.workers
            )
        cfd_hits, cind_hits = execute_sqlfile_windows(
            plan,
            self.sigma.schema,
            self.path,
            cold_groups,
            cold_cind,
            workers=self.options.workers,
            min_shard_rows=self.options.min_shard_rows,
            shards=self.options.shards,
            conn_pool=self._window_pool,
            steal_granularity=self.options.steal_granularity,
        )
        for i, hits in cfd_hits.items():
            group = plan.cfd_groups[i]
            cache.store_cfd_hits(group, versions[group.relation], hits)
        for relation, pairs in cind_hits.items():
            tasks = plan.cind_scans[relation]
            slot = {id(task): i for i, task in enumerate(tasks)}
            buckets: list[list[int]] = [[] for __ in tasks]
            rows: dict[int, Tuple] = {}
            for task, (rowid, t) in pairs:
                buckets[slot[id(task)]].append(rowid)
                rows[rowid] = t
            cache.store_cind_hits(
                relation, versions[relation],
                cache.cind_deps(tasks, versions.__getitem__),
                cind_task_violations(tasks, buckets, rows.__getitem__), buckets,
            )

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

    def _execute(self, mode: str) -> ViolationReport | DetectionSummary:
        """Carry, scan what stays cold (the executor answers warm units
        from the cache), and assemble the per-unit hit lists in *mode* —
        all under the session lock."""
        with self._lock:
            self._sync()
            try:
                self._carry()
                self._prefetch_parallel()
                executor = self._executor
                cfd_hits = [
                    (group, executor.cfd_group_hits(group))
                    for group in self._plan.cfd_groups
                ]
                cind_hits = [
                    (relation, *executor.cind_relation_hits(relation, tasks))
                    for relation, tasks in self._plan.cind_scans.items()
                ]
                self._cache.mark_synced(self._plan, self._versions.__getitem__)
                return assemble_from_hits(
                    self._plan, cfd_hits, cind_hits, mode,
                    executor.cfd_group_tuples,
                )
            finally:
                # Witness materializations mirror the file's current
                # content; they are valid for exactly one execution.
                self._executor.release_witnesses()

    # -- detection ---------------------------------------------------------

    def check(self) -> ViolationReport:
        return self._execute("full")

    def count(self) -> DetectionSummary:
        return self._execute("count")

    def is_clean(self) -> bool:
        # Early exit: stop at the first scan unit with a hit. CFD hit
        # lists are computed (and cached) whole — the pushed-down queries
        # already return only violating candidates — while CIND buckets
        # use EXISTS probes, which store the empty hit list they prove.
        with self._lock:
            self._sync()
            try:
                self._carry()
                executor = self._executor
                for group in self._plan.cfd_groups:
                    if executor.cfd_group_hits(group):
                        return False
                for relation, tasks in self._plan.cind_scans.items():
                    if not executor.cind_relation_clean(relation, tasks):
                        return False
                self._cache.mark_synced(self._plan, self._versions.__getitem__)
                return True
            finally:
                self._executor.release_witnesses()

    def delta(self) -> ReportDelta | None:
        """Carry the cache forward by this session's noted DML and return
        how the report changed, by position; ``None`` when the cache was
        never complete or another connection committed since (the next
        check then re-scans every unit)."""
        with self._lock:
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
        with self._lock:
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
                if self._window_pool is not None:
                    self._window_pool.close()
                    self._window_pool = None
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
