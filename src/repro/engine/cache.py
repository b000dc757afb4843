"""Versioned scan caches: make the repeated-check read path nearly free.

BRAVO's lesson (PAPERS.md) is to bias a reader/writer protocol toward the
overwhelmingly common read path and push the bookkeeping onto the rare
write path. Detection has the same skew: a ``Session`` re-checks the same
database far more often than it mutates it (monitoring loops, repair
rounds where most relations are untouched, ``check`` followed by
``count``/``is_clean``). Every relation already pays the "write path"
cost — a monotonic version counter bumped per mutation (an in-memory
:attr:`~repro.relational.instance.RelationInstance.version`, or the
per-table counter a ``sqlfile`` session bumps on its own DML) — so a scan
result tagged with the version it was computed at can be replayed for
free while the version stands still.

:class:`ScanCache` memoizes, per plan scan unit:

* **projection key lists** keyed by ``(relation, positions, version)`` —
  the columnar per-tuple keys that group-bys, witness passes, and CIND
  probes all consume (in-memory scans only; each distinct projection is
  computed once per version, shared across scan units);
* **CFD group hits** keyed by ``(relation, X-positions, version)`` — the
  evaluated ``(task, group key, kind)`` list of one CFD scan group, its
  hit count per task, and (for file-backed sessions, whose rows have no
  in-memory index to ask) each hit key's first row id; plus the
  violating groups' tuples once a full report materialized them, each
  group a :class:`~repro.relational.instance.RowGroup` over the rows'
  value tuples (one object per group for the collector, not one per
  row);
* **witness key sets** keyed by ``(spec, version)`` — one semijoin key
  set per :class:`~repro.engine.planner.WitnessSpec`;
* **CIND violations** keyed by ``(relation, version, witness-versions)``
  — per task of one LHS scan, its violating row ids and, task-major and
  aligned with them, the :class:`~repro.core.cind.CINDViolation`
  objects: the paper decides a CIND per LHS tuple, so a hit already is
  its violation, built once by whatever scans or carries the unit and
  then handed to every report; the extra dependency vector invalidates
  them when any *witness-side* relation moved even though the LHS
  relation did not.

A cache is bound to one :class:`~repro.engine.planner.DetectionPlan`
(entries reference the plan's task/spec objects); the executor refuses a
cache built for a different plan. Stale entries are overwritten in place
on recompute, so the cache never grows beyond one entry per scan unit.
The ``memory`` and ``sqlfile`` backends share this one class; only how
a unit is scanned differs.

**Carrying entries forward.** A version mismatch alone would force a
re-scan of every unit over a touched relation. The session's batch DML
path therefore also hands the cache the rows each batch actually
deleted and inserted (:meth:`ScanCache.note`). Once an execution has
visited every unit, the cache is *synced* at the versions it saw; from
there, as long as every version step since is covered by noted rows,
:func:`repro.engine.carry.carry_forward` re-evaluates only the CFD
groups, witness keys and CIND rows those rows touch and splices the
results into the entries. A mutation that bypasses the session leaves a
version step no note covers, and the cache falls back to re-scanning
the stale units; a ``sqlfile`` session sees another connection's commit
as a moved ``PRAGMA data_version`` and clears the cache.

The payoff is measured by ``benchmarks/bench_detection.py``: a warm
re-check of an unchanged database skips every relation scan and only
re-assembles the report from the cached entries — each task's cached
CIND violations are extended into the report's list as they stand, and
only CFD violations (one per violating group) are built — so its cost is
proportional to the tasks and the CFD violations, not the tuples or the
CIND violations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor <-> cache)
    from repro.core.cind import CINDViolation
    from repro.engine.planner import CFDScanGroup, CINDRowTask, DetectionPlan, WitnessSpec
    from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple


#: One value sequence per attribute, in row order: a relation's columns or
#: a row-range slice of them.
Columns = Sequence[Sequence[Any]]

#: Relation name -> its current version counter.
VersionOf = Callable[[str], int]


def projection_column_keys(
    columns: Columns, positions: tuple[int, ...], n: int
) -> list[tuple[Any, ...]]:
    """Per-tuple projection key tuples, built column-wise at C speed.

    Equivalent to ``[tuple(t.values[i] for i in positions) for t in rows]``
    but via ``zip`` over the relation's columns; ``n`` is the tuple count (needed
    for the empty projection, whose key list is all-``()``).
    """
    if not positions:
        return [()] * n
    if len(positions) == 1:
        return list(zip(columns[positions[0]]))
    return list(zip(*(columns[p] for p in positions)))


class ScanCache:
    """Mutation-versioned memo of one plan's scan results.

    Owned by the session/backend that owns the plan; every getter checks
    the relation's current version (plus, for CIND hits, the witness-side
    versions) and misses on any mismatch, so callers never see stale data
    and mutations need no explicit invalidation hook.
    """

    __slots__ = (
        "plan", "db", "_projections", "_cfd", "_groups", "_witness", "_cind",
        "hits", "misses", "carried", "synced", "log", "lock", "wanted",
    )

    def __init__(self, plan: "DetectionPlan"):
        self.plan = plan
        #: The database the cache is valid for — bound on first use by the
        #: executor. Entries are keyed by relation *name* + version, so
        #: serving a different DatabaseInstance (where the same name/version
        #: means different data) must be refused, not silently answered.
        self.db: "DatabaseInstance | None" = None
        #: (relation, positions) -> (version, key list)
        self._projections: dict[tuple[str, tuple[int, ...]], tuple[int, list]] = {}
        #: (relation, X positions) -> (version, [(task, key, kind), ...],
        #: hit count per task of the group, {hit key: first row id} or
        #: None where an index answers that)
        self._cfd: dict[
            tuple[str, tuple[int, ...]], tuple[int, list, tuple, dict | None]
        ] = {}
        #: (relation, X positions) -> (version, {group key: RowGroup})
        self._groups: dict[tuple[str, tuple[int, ...]], tuple[int, dict]] = {}
        #: spec -> (version, witness key set)
        self._witness: dict["WitnessSpec", tuple[int, set]] = {}
        #: LHS relation -> (version, witness-version vector, task-major
        #: CINDViolations, per task its row ids: each task's violations
        #: are the segment aligned with its bucket)
        self._cind: dict[str, tuple[int, tuple[int, ...], list, list]] = {}
        #: Scan-unit outcomes (projection-key memos not counted): answered
        #: without a scan, re-scanned, and — among the hits — carried
        #: forward by noted rows.
        self.hits = 0
        self.misses = 0
        self.carried = 0
        #: Relation -> version at which every entry was last complete and
        #: consistent (``None``: not synced, nothing can be carried).
        self.synced: dict[str, int] | None = None
        #: Relation -> [version after the last noted batch, deleted
        #: (row id, values) pairs, inserted pairs] since ``synced``.
        self.log: dict[str, list] = {}
        #: Serializes carry-forwards: concurrent readers of one session
        #: patch once, the rest find the entries current.
        self.lock = threading.Lock()
        #: (relation, attributes) of hash indexes a carry-forward needed
        #: and did not find (it read the touched keys by a pass); the next
        #: carry that needs one builds it.
        self.wanted: set[tuple[str, tuple[str, ...]]] = set()

    def clear(self) -> None:
        self._projections.clear()
        self._cfd.clear()
        self._groups.clear()
        self._witness.clear()
        self._cind.clear()
        self.unsync()

    # -- the change log ----------------------------------------------------

    def unsync(self) -> None:
        """Forget the synced state: stale units re-scan on next use."""
        self.synced = None
        self.log = {}

    def mark_synced(self, plan: "DetectionPlan", version_of: VersionOf) -> None:
        """Record that every unit of *plan* now holds an entry for the
        current versions (called after an execution visited them all)."""
        relations = dict.fromkeys(
            [group.relation for group in plan.cfd_groups]
            + list(plan.witness_specs)
            + list(plan.cind_scans)
        )
        with self.lock:
            self.synced = {name: version_of(name) for name in relations}
            self.log = {}

    def note(
        self,
        name: str,
        before: int,
        after: int,
        size: int | Callable[[], int],
        deleted: list[tuple[int, tuple[Any, ...]]],
        inserted: list[tuple[int, tuple[Any, ...]]],
    ) -> None:
        """Record one batch's changed rows of relation *name*.

        *deleted*/*inserted* are the ``(row id, values)`` pairs the batch
        actually removed and added, and *before*/*after* the relation's
        version before and after it. A batch that does not continue the
        noted chain (some mutation bypassed :meth:`note`) unsyncs the
        cache, and so does a log holding more rows than the relation
        (*size*, or a callable giving it): re-scanning it reads fewer.
        """
        synced = self.synced
        if synced is None:
            return
        if name not in synced:
            return  # no scan unit reads this relation
        entry = self.log.get(name)
        if (entry[0] if entry is not None else synced[name]) != before:
            self.unsync()
            return
        if entry is None:
            entry = self.log[name] = [before, [], []]
        entry[0] = after
        entry[1].extend(deleted)
        entry[2].extend(inserted)
        if len(entry[1]) + len(entry[2]) > (size() if callable(size) else size):
            self.unsync()

    def release_projections(self) -> None:
        """Drop the projection-key memo (scan-lifetime, O(tuples) each).

        Projection key lists exist to be shared *within* one plan
        execution; across calls at the same version the hit/witness caches
        short-circuit before reading them, and after a mutation they are
        stale — so the executor releases them when a plan finishes instead
        of holding per-tuple lists for the session lifetime.
        """
        self._projections.clear()

    # -- projection key lists ----------------------------------------------

    def projection_keys(
        self, instance: "RelationInstance", positions: tuple[int, ...]
    ) -> list[tuple[Any, ...]]:
        """The instance's per-tuple keys on *positions* (memoized)."""
        key = (instance.schema.name, positions)
        entry = self._projections.get(key)
        version = instance.version
        if entry is not None and entry[0] == version:
            return entry[1]
        keys = projection_column_keys(instance.columns(), positions, len(instance))
        self._projections[key] = (version, keys)
        return keys

    # -- CFD scan groups ---------------------------------------------------

    def cfd_hits(self, group: "CFDScanGroup", version: int) -> list | None:
        entry = self._cfd.get((group.relation, group.lhs_positions))
        if entry is not None and entry[0] == version:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store_cfd_hits(
        self,
        group: "CFDScanGroup",
        version: int,
        hits: list,
        firsts: dict | None = None,
    ) -> None:
        slot = {id(task): i for i, task in enumerate(group.tasks)}
        counts = [0] * len(group.tasks)
        for task, __, __k in hits:
            counts[slot[id(task)]] += 1
        self._cfd[(group.relation, group.lhs_positions)] = (
            version, hits, tuple(counts), firsts,
        )

    def cfd_entry(
        self, group: "CFDScanGroup"
    ) -> tuple[int, list, tuple, dict | None] | None:
        """The raw ``(version, hits, per-task counts, first row ids)``
        entry of *group*; it counts as neither a hit nor a miss."""
        return self._cfd.get((group.relation, group.lhs_positions))

    def put_cfd_entry(
        self,
        group: "CFDScanGroup",
        version: int,
        hits: list,
        counts: tuple,
        firsts: dict | None,
    ) -> None:
        self._cfd[(group.relation, group.lhs_positions)] = (
            version, hits, counts, firsts,
        )

    def group_tuples_entry(self, group: "CFDScanGroup") -> tuple[int, dict] | None:
        return self._groups.get((group.relation, group.lhs_positions))

    def put_group_tuples(
        self, group: "CFDScanGroup", version: int, tuples: dict
    ) -> None:
        self._groups[(group.relation, group.lhs_positions)] = (version, tuples)

    def cfd_group_tuples(self, group: "CFDScanGroup", version: int) -> dict:
        """The group-key -> group-tuples memo of *group* at *version*
        (filled by report assembly; a new version starts it empty)."""
        key = (group.relation, group.lhs_positions)
        entry = self._groups.get(key)
        if entry is None or entry[0] != version:
            entry = self._groups[key] = (version, {})
        return entry[1]

    # -- CIND witness sets -------------------------------------------------

    def witness_set(self, spec: "WitnessSpec", version: int) -> set | None:
        entry = self._witness.get(spec)
        if entry is not None and entry[0] == version:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store_witness_set(self, spec: "WitnessSpec", version: int, keys: set) -> None:
        self._witness[spec] = (version, keys)

    def witness_entry(self, spec: "WitnessSpec") -> tuple[int, set] | None:
        return self._witness.get(spec)

    # -- CIND LHS scans ----------------------------------------------------

    @staticmethod
    def cind_deps(
        tasks: Iterable["CINDRowTask"], version_of: VersionOf
    ) -> tuple[int, ...]:
        """Witness-side version vector a CIND hit list depends on."""
        specs = dict.fromkeys(task.witness for task in tasks)
        return tuple(version_of(spec.rhs_relation) for spec in specs)

    def cind_hits(
        self, relation: str, version: int, deps: tuple[int, ...]
    ) -> tuple[list, list] | None:
        """The ``(violations, buckets)`` of *relation*'s entry at these
        versions (see :meth:`store_cind_hits`), else ``None``."""
        entry = self._cind.get(relation)
        if entry is not None and entry[0] == version and entry[1] == deps:
            self.hits += 1
            return entry[2], entry[3]
        self.misses += 1
        return None

    def store_cind_hits(
        self,
        relation: str,
        version: int,
        deps: tuple[int, ...],
        violations: list["CINDViolation"],
        buckets: list[list[int]],
    ) -> None:
        """Store one LHS relation's hits: aligned with the relation's task
        list, each task's row ids, and task-major, one violation per row
        id (each task's segment aligned with its bucket). The violation
        objects are handed to every report as they stand, so nothing may
        mutate them."""
        self._cind[relation] = (version, deps, violations, buckets)

    def cind_entry(
        self, relation: str
    ) -> tuple[int, tuple[int, ...], list, list] | None:
        """The raw entry of *relation*'s CIND scan; it counts as neither
        a hit nor a miss."""
        return self._cind.get(relation)

    def __repr__(self) -> str:
        return (
            f"<ScanCache {len(self._cfd)} CFD, {len(self._witness)} witness, "
            f"{len(self._cind)} CIND entr(ies); {self.hits} hit(s), "
            f"{self.misses} miss(es), {self.carried} carried>"
        )
