"""Detection backends: one protocol, four engines, identical answers.

Before this facade the repo exposed three incompatible checking APIs —
``check_database`` returned a :class:`ViolationReport`,
``SQLViolationDetector.check`` a ``dict[label, set[row]]``, and
``IncrementalChecker`` bare counters — so every caller special-cased its
engine. Here each engine is an adapter onto one :class:`Backend` shape:

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
* :class:`IncrementalBackend` — owns an
  :class:`~repro.cleaning.incremental.IncrementalChecker`; mutations go
  through :meth:`insert`/:meth:`delete` in time proportional to the touched
  groups, and ``is_clean`` is O(1) off the maintained counters.
"""

from __future__ import annotations

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
from repro.api.parallel import (
    execute_plan_parallel,
    execute_sqlfile_windows,
    resolve_executor,
)
from repro.api.workerpool import WorkerPool
from repro.cleaning.incremental import IncrementalChecker
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
    SQLScanCache,
    assemble_report,
    assemble_summary,
    attribute_positions,
    carry_forward,
    compile_checks,
    execute_plan,
    passes,
    plan_detection,
    plan_has_violation,
    projection_column_keys,
)
from repro.errors import SQLBackendError
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.sql.ddl import quote_identifier, row_predicate
from repro.sql.loader import (
    connect_file,
    data_version,
    introspect_schema,
    table_content_fingerprint,
    table_fingerprint,
)
from repro.sql.violations import SQLPlanExecutor, SQLViolationDetector
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


def _run_batch(
    delete_rows: list[tuple[RelationInstance, Tuple]],
    insert_rows: list[tuple[RelationInstance, tuple[Any, ...]]],
    delete: Callable[[RelationInstance, Tuple], bool],
    insert: Callable[[RelationInstance, tuple[Any, ...]], bool],
    noted: Callable[[RelationInstance, int, list, list], None],
) -> ApplyResult:
    """Apply checked rows — deletes first — through the backend's
    *delete*/*insert* callables and hand *noted* each touched relation's
    changed rows (see :meth:`BaseBackend._noted`)."""
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
        if delete(instance, t):
            entry[2].append((rowid, t.values))
            deleted += 1
    inserted = 0
    for instance, values in insert_rows:
        entry = changes_of(instance)
        if insert(instance, values):
            entry[3].append((instance.row_id(values), values))
            inserted += 1
    for instance, before, gone, new in log.values():
        if gone or new:
            noted(instance, before, gone, new)
    return ApplyResult(inserted=inserted, deleted=deleted)


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
        result = _run_batch(
            delete_rows,
            insert_rows,
            lambda instance, t: instance.discard(t),
            lambda instance, values: instance.add(values) is not None,
            self._noted,
        )
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
        self._cache.note(instance, before, deleted, inserted)

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
        groups = {
            key: tuple(instance.lookup(cfd.lhs, key)) for key in ordered_keys
        }
        rhs_sets = {
            key: {
                tuple(t.values[i] for i in rhs_positions) for t in group
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

    Repeated checks are nearly free: a :class:`~repro.engine.cache.SQLScanCache`
    keyed by sqlite's ``PRAGMA data_version`` plus per-table
    max-rowid/count fingerprints memoizes every scan unit's answer, so a
    warm re-check of an unchanged file runs one PRAGMA and no data SQL at
    all. :meth:`insert`/:meth:`delete` route through SQL DML and
    invalidate only the touched table's entries; writes committed by
    *other* connections are caught by the ``data_version`` bump on the
    next call. ``options.readonly`` opens the file read-only and makes
    mutations fail loudly.

    ``options.workers > 1`` makes ``check``/``count`` split every *cold*
    scan unit into contiguous rowid windows run concurrently on a bounded
    pool of read-only connections
    (:func:`~repro.api.parallel.execute_sqlfile_windows`; sqlite releases
    the GIL inside queries, so the pool is always thread-based regardless
    of ``options.executor``) and merge the partial states bit-identically;
    the merged group-level results land in the cache under exactly the
    serial keys, so a warm re-check is still one PRAGMA.
    ``options.shards`` forces the per-relation window count.
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
        except SQLBackendError:
            self.conn.close()
            raise
        self._plan = build_plan(sigma, self.options)
        self._executor = SQLPlanExecutor(
            self.conn, self._plan,
            window_functions=self.options.window_functions,
        )
        self._cache = SQLScanCache()
        self._tables = tuple(sigma.schema.relation_names)
        # options.fingerprint picks the invalidation detector consulted
        # after a foreign commit: "rowid" = the O(1) (max rowid, COUNT(*))
        # heuristic, "content" = a per-row CRC32 sum computed inside SQL
        # that also catches delete+reinsert writes hiding behind an
        # unchanged rowid envelope.
        if self.options.fingerprint == "content":
            self._fingerprint = lambda table: table_content_fingerprint(
                self.conn, table
            )
        else:
            self._fingerprint = lambda table: table_fingerprint(
                self.conn, table
            )
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
    def cache(self) -> SQLScanCache:
        return self._cache

    # -- cache bookkeeping -------------------------------------------------

    def _begin(self) -> None:
        """Sync the cache with the file (one PRAGMA when nothing changed)."""
        self._cache.begin(
            data_version(self.conn), self._tables, self._fingerprint
        )

    def _touch(self, relation: str) -> None:
        self._touch_tables((relation,))

    def _touch_tables(self, relations: Iterable[str]) -> None:
        """Invalidate exactly the touched tables after our own DML.

        One cache filter pass for the whole set (the batch ``apply`` path
        touches several tables per commit). The rowid fingerprint is
        O(1), so it is refreshed in place; the content fingerprint costs
        a full-table aggregate scan, so it is *forgotten* instead —
        mutations stay O(1) and the next foreign commit re-fingerprints
        (and conservatively re-invalidates) the table in ``begin()``.
        """
        relations = tuple(relations)
        self._cache.invalidate_tables(relations)
        for relation in relations:
            if self.options.fingerprint == "content":
                self._cache.forget_fingerprint(relation)
            else:
                self._cache.record_fingerprint(
                    relation, self._fingerprint(relation)
                )

    # -- scan units (cached) -----------------------------------------------

    def _prefetch_parallel(self) -> None:
        """Fill the cache's cold scan units via rowid-window dispatch.

        Only with ``options.workers > 1``, and only for units the cache
        cannot answer (``peek`` leaves the hit/miss counters alone —
        prefetch is an execution strategy, not a cache consumer). Merged
        group-level hits are stored under exactly the keys the serial
        methods below use, so after a prefetch they find every unit warm;
        a fully-warm call skips the pool entirely and ``is_clean`` stays
        serial — its point is to stop at the first hit, which a fan-out
        would race past.
        """
        if self.options.workers <= 1:
            return
        cold_groups = [
            i
            for i, group in enumerate(self._plan.cfd_groups)
            if self._cache.peek(
                ("cfd", group.relation, group.lhs_positions)
            ) is None
        ]
        cold_cind = [
            relation
            for relation in self._plan.cind_scans
            if self._cache.peek(("cind", relation)) is None
        ]
        if not cold_groups and not cold_cind:
            return
        if self.options.pool == "persistent" and self._window_pool is None:
            self._window_pool = ReadonlyConnectionPool(
                self.path, self.options.workers
            )
        cfd_hits, cind_hits = execute_sqlfile_windows(
            self._plan,
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
            group = self._plan.cfd_groups[i]
            self._cache.store(
                ("cfd", group.relation, group.lhs_positions),
                (group.relation,),
                hits,
            )
        for relation, hits in cind_hits.items():
            self._cache.store(
                ("cind", relation),
                self._cind_deps(relation, self._plan.cind_scans[relation]),
                hits,
            )

    def _cfd_hits(self, group) -> list:
        key = ("cfd", group.relation, group.lhs_positions)
        hits = self._cache.get(key)
        if hits is None:
            hits = self._executor.cfd_group_hits(group)
            self._cache.store(key, (group.relation,), hits)
        return hits

    def _cfd_tuples(self, group, hits) -> dict:
        key = ("cfd-groups", group.relation, group.lhs_positions)
        groups = self._cache.get(key)
        if groups is None:
            keys = dict.fromkeys(k for __, k, __kind in hits)
            groups = self._executor.cfd_group_tuples(group, keys)
            self._cache.store(key, (group.relation,), groups)
        return groups

    def _cind_deps(self, relation: str, tasks) -> tuple[str, ...]:
        witness_tables = dict.fromkeys(
            task.witness.rhs_relation for task in tasks
        )
        return (relation, *witness_tables)

    def _cind_hits(self, relation: str, tasks) -> list:
        key = ("cind", relation)
        hits = self._cache.get(key)
        if hits is None:
            hits = self._executor.cind_relation_hits(relation, tasks)
            self._cache.store(key, self._cind_deps(relation, tasks), hits)
        return hits

    # -- detection ---------------------------------------------------------

    def check(self) -> ViolationReport:
        self._begin()
        self._prefetch_parallel()
        try:
            cfd_buckets: dict[int, list[CFDViolation]] = {}
            for group in self._plan.cfd_groups:
                hits = self._cfd_hits(group)
                if not hits:
                    continue
                groups = self._cfd_tuples(group, hits)
                for task, key, kind in hits:
                    cfd_buckets.setdefault(id(task), []).append(
                        CFDViolation(
                            cfd=task.cfd,
                            pattern_index=task.row_index,
                            lhs_values=key,
                            tuples=groups[key],
                            kind=kind,
                        )
                    )
            cind_buckets: dict[int, list[CINDViolation]] = {}
            for relation, tasks in self._plan.cind_scans.items():
                for task, t in self._cind_hits(relation, tasks):
                    cind_buckets.setdefault(id(task), []).append(
                        CINDViolation(
                            cind=task.cind,
                            pattern_index=task.row_index,
                            tuple_=t,
                        )
                    )
            return assemble_report(self._plan, cfd_buckets, cind_buckets)
        finally:
            # Witness materializations mirror the file's current content;
            # they are valid for exactly one execution (the hit caches
            # answer warm calls before any witness is needed again).
            self._executor.release_witnesses()

    def count(self) -> DetectionSummary:
        # Count-only: the same cached hit lists, no group-tuple fetches.
        self._begin()
        self._prefetch_parallel()
        try:
            cfd_counts: dict[int, int] = {}
            for group in self._plan.cfd_groups:
                for task, __, __kind in self._cfd_hits(group):
                    cfd_counts[task.cfd_index] = (
                        cfd_counts.get(task.cfd_index, 0) + 1
                    )
            cind_counts: dict[int, int] = {}
            for relation, tasks in self._plan.cind_scans.items():
                for task, __ in self._cind_hits(relation, tasks):
                    cind_counts[task.cind_index] = (
                        cind_counts.get(task.cind_index, 0) + 1
                    )
            return assemble_summary(self._plan, cfd_counts, cind_counts)
        finally:
            self._executor.release_witnesses()

    def is_clean(self) -> bool:
        # Early exit: stop at the first scan unit with a hit. CFD hit
        # lists are computed (and cached) whole — the pushed-down queries
        # already return only violating candidates — while CIND buckets
        # use EXISTS probes; a clean probe pass proves the hit list is
        # empty, so the cache is warmed for free (mirroring the engine's
        # plan_has_violation).
        self._begin()
        try:
            for group in self._plan.cfd_groups:
                if self._cfd_hits(group):
                    return False
            for relation, tasks in self._plan.cind_scans.items():
                key = ("cind", relation)
                hits = self._cache.get(key)
                if hits is not None:
                    if hits:
                        return False
                    continue
                if not self._executor.cind_relation_clean(relation, tasks):
                    return False
                self._cache.store(key, self._cind_deps(relation, tasks), [])
            return True
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

    def insert(self, relation, row) -> bool:
        """INSERT into the file (set semantics); False if already present.

        The presence check and the INSERT run inside one ``BEGIN
        IMMEDIATE`` transaction: the connection is otherwise autocommit,
        and a concurrent writer slipping between the two statements could
        otherwise plant a duplicate row no in-memory backend can
        represent.
        """
        self._ensure_writable()
        t = self._coerce(relation, row)
        names = list(t.schema.attribute_names)
        pred = row_predicate(names, "t")
        table = quote_identifier(relation)
        self.conn.execute("BEGIN IMMEDIATE")
        try:
            present = self.conn.execute(
                f"SELECT 1 FROM {table} t WHERE {pred} LIMIT 1", t.values
            ).fetchall()
            if present:
                self.conn.execute("ROLLBACK")
                return False
            placeholders = ", ".join("?" for __ in names)
            self.conn.execute(
                f"INSERT INTO {table} VALUES ({placeholders})", t.values
            )
            self.conn.execute("COMMIT")
        except BaseException:
            self.conn.execute("ROLLBACK")
            raise
        self._touch(relation)
        return True

    def delete(self, relation: str, row: Any) -> bool:
        """DELETE from the file; False if no such row existed.

        A single statement on an autocommit connection — atomic as is.
        """
        self._ensure_writable()
        t = self._coerce(relation, row)
        pred = row_predicate(list(t.schema.attribute_names), "t")
        cursor = self.conn.execute(
            f"DELETE FROM {quote_identifier(relation)} AS t WHERE {pred}",
            t.values,
        )
        if cursor.rowcount == 0:
            return False
        self._touch(relation)
        return True

    def apply(
        self, inserts: Iterable[DMLOp] = (), deletes: Iterable[DMLOp] = ()
    ) -> ApplyResult:
        """Batch DML in **one** transaction with one invalidation pass.

        All deletes, then all inserts (set semantics per row, as in the
        single-row paths), inside a single ``BEGIN IMMEDIATE`` — so a 1k
        row batch pays one commit, one fsync, and one per-touched-table
        cache invalidation instead of 1k of each, and concurrent readers
        of the file never observe a half-applied batch.
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
        touched: dict[str, None] = {}
        inserted = deleted = 0
        self.conn.execute("BEGIN IMMEDIATE")
        try:
            for relation, t in delete_ops:
                pred = row_predicate(list(t.schema.attribute_names), "t")
                cursor = self.conn.execute(
                    f"DELETE FROM {quote_identifier(relation)} AS t "
                    f"WHERE {pred}",
                    t.values,
                )
                if cursor.rowcount:
                    deleted += 1
                    touched[relation] = None
            for relation, t in insert_ops:
                names = list(t.schema.attribute_names)
                pred = row_predicate(names, "t")
                table = quote_identifier(relation)
                present = self.conn.execute(
                    f"SELECT 1 FROM {table} t WHERE {pred} LIMIT 1", t.values
                ).fetchall()
                if present:
                    continue
                placeholders = ", ".join("?" for __ in names)
                self.conn.execute(
                    f"INSERT INTO {table} VALUES ({placeholders})", t.values
                )
                inserted += 1
                touched[relation] = None
            self.conn.execute("COMMIT")
        except BaseException:
            self.conn.execute("ROLLBACK")
            raise
        if touched:
            self._touch_tables(touched)
        return ApplyResult(inserted=inserted, deleted=deleted)

    def close(self) -> None:
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


class IncrementalBackend(BaseBackend):
    """Live violation bookkeeping under single-tuple updates.

    Mutations cost time proportional to the touched groups and
    ``is_clean`` reads a maintained counter. Report-shaped answers
    (``check``/``count``) run the shared-scan engine over the live
    database with the *original* Σ, so they are identical to every other
    backend; the checker's own per-constraint counters (exposed as
    :meth:`live_counts`) are keyed by the *normalized* Σ and count
    violated groups, not violation objects — monitoring numbers, not
    report numbers.
    """

    name = "incremental"

    def __init__(self, db, sigma, options=None):
        super().__init__(db, sigma, options)
        self._checker: IncrementalChecker | None = None
        self._plan = build_plan(sigma, self.options)
        self._cache = ScanCache(self._plan)

    @property
    def checker(self) -> IncrementalChecker:
        """The live checker, bulk-built on first use.

        Lazy so one-shot ``check()`` calls (e.g. ``repro check --engine
        incremental``) don't pay for mutation state they never touch.
        """
        if self._checker is None:
            self._checker = IncrementalChecker(self.db, self.sigma)
        return self._checker

    def check(self) -> ViolationReport:
        return execute_plan(self._plan, self.db, mode="full", cache=self._cache)

    def count(self) -> DetectionSummary:
        return execute_plan(self._plan, self.db, mode="count", cache=self._cache)

    def is_clean(self) -> bool:
        return self.checker.is_clean

    def live_counts(self) -> dict[str, int]:
        """O(state) per-constraint counters over the normalized Σ."""
        return self.checker.violations()

    def delta(self) -> ReportDelta | None:
        """As :meth:`MemoryBackend.delta`, over this session's scan cache."""
        return carry_forward(self._plan, self.db, self._cache, delta=True)

    def apply(
        self, inserts: Iterable[DMLOp] = (), deletes: Iterable[DMLOp] = ()
    ) -> ApplyResult:
        """Batch DML through the live checker (deletes, then inserts).

        The checker's per-group state update *is* the per-row cost.
        ``check``/``count`` answers ride the versioned
        :class:`~repro.engine.cache.ScanCache`, which the batch's noted
        rows carry forward. Every row is checked before the first
        mutation, so a malformed row leaves the database as it was.
        """
        checker = self.checker
        delete_rows, insert_rows = self._batch_rows(inserts, deletes)
        return _run_batch(
            delete_rows,
            insert_rows,
            lambda instance, t: checker.delete(instance.schema.name, t),
            lambda instance, values: checker.insert(instance.schema.name, values),
            self._cache.note,
        )


#: Registry used by ``connect(backend="...")`` and the CLI's ``--engine``.
BACKENDS: dict[str, type[BaseBackend]] = {
    "memory": MemoryBackend,
    "naive": NaiveBackend,
    "sql": SQLBackend,
    "sqlfile": SQLFileBackend,
    "incremental": IncrementalBackend,
}
