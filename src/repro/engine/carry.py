"""Carry a :class:`~repro.engine.cache.ScanCache` forward by touched keys.

The paper decides a CFD's satisfaction per ``X``-group and a CIND's per
LHS tuple and its ``Y``-witness, so a batch of row changes can only
change:

* the CFD groups whose ``X``-key one of its rows carries;
* the witness keys its rows carry on a witness side — and of those, only
  the keys that gained their first or lost their last witness matter;
* the CIND hits of its own LHS rows and of the LHS rows whose ``X``-key
  flipped witness status.

:func:`carry_forward` re-evaluates exactly those — CFD groups through
the same :func:`~repro.engine.shards.cfd_map_shard` /
:func:`~repro.engine.shards.cfd_finalize` a scan uses
(:func:`~repro.engine.shards.cfd_evaluate`) — and splices the
results into the cached hit lists by first-occurrence row id: a CFD
task's keys in the order of their group's first row, a CIND task's hits
in row-id order. That is the order a full scan produces, because row ids
only grow and an untouched group keeps its first row.

Storage is asked only about what can have changed. A touched witness key
with a net-inserted ``Yp``-matching row has a witness, and one outside
the old key set without such a row has none; only an old key that lost
a ``Yp``-matching row and gained none may have lost its last witness,
so only those keys are looked up. A key that gained a witness can only
drop CIND hits, and the cached hit rows say which; only the LHS rows of
a key that lost its last witness are looked up.

A unit falls back to re-scanning its relation when the rows its patch
would read — the noted rows plus the touched keys' rows — outnumber the
rows a scan reads (an empty key's rows are the whole relation, so it
always does). Touched keys' rows come from the relation's hash-index
bucket on the key's attributes. An index that does not exist yet would
cost a pass over the whole relation to build, plus the memory of a
bucket per key, so the rule is first need: key-restricted pass; a later
batch's need: build. A batch that needs a missing index selects the
touched keys' rows by one pass over the key's projection (memoized for
that carry only) and notes the need; a later batch that needs it builds
the index. A one-off batch, such as a repair round, never pays for an
index; a stream of batches pays for it once.

The algorithm is storage-neutral: :class:`Carry` asks its subclass for
the rows of the touched keys, a unit's re-scan, the touched witness keys
still present and the views of new rows. :class:`MemoryCarry` answers
from the relations' hash-index buckets or key-restricted passes; the
``sqlfile`` backend answers with key-restricted SQL over the file
(:class:`repro.sql.violations.SQLCarry`). A file has no index to ask for
a group's first row, so its CFD entries keep each hit key's first row
id, and the splice reads them there.

Every new entry is built aside and stored whole, so a reader holding the
previous entry never sees a half-patched list. A CIND entry's kept hits
keep their :class:`~repro.core.cind.CINDViolation` objects; only new
hits get new ones. The splice also yields each task's removed and added
violations; per-task hit counts turn them into report positions, which
makes the position-tagged :class:`ReportDelta` a serving layer streams
without assembling or diffing whole reports. Its added CIND violations
are the very objects the new entry holds, so the report read after a
delta holds no CIND violation that is in neither the previous report
nor the delta.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.core.cfd import CFDViolation
from repro.core.cind import CINDViolation
from repro.core.violations import constraint_labels
from repro.engine.cache import ScanCache
from repro.engine.planner import (
    CFDScanGroup,
    CINDRowTask,
    DetectionPlan,
    WitnessSpec,
    passes,
)
from repro.engine.shards import (
    KeyLists,
    cfd_evaluate,
    cfd_finalize,
    cfd_map_shard,
    cind_map_shard,
    shard_key_fn,
    witness_map_shard,
)
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple


@dataclass(frozen=True)
class ReportDelta:
    """How a session's violation report changed.

    ``removed`` holds positions in the previous report, ``added`` holds
    ``(position, violation)`` pairs in the new one, both ascending —
    deleting the removed positions from the old report, highest first,
    then inserting the added violations in order yields the new report.
    ``labels`` maps ``id(constraint)`` to the report's stable labels.
    """

    removed: tuple[int, ...]
    added: tuple[tuple[int, CFDViolation | CINDViolation], ...]
    labels: Mapping[int, str]

    @property
    def empty(self) -> bool:
        return not self.removed and not self.added


class _Stale(Exception):
    """An entry is missing or not at the synced versions."""


class Rescan(Exception):
    """A unit's patch would cost more than re-scanning it."""


def _key_of(positions: tuple[int, ...]) -> Callable[[tuple[Any, ...]], tuple[Any, ...]]:
    """values -> their key tuple on *positions*."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda values: (values[p],)
    return lambda values: ()


def _segments(tasks: list, hits: list) -> list[list[tuple[Any, str]]]:
    """A CFD group's task-major hit list, split into per-task
    ``(key, kind)`` lists aligned with *tasks*."""
    slot = {id(task): i for i, task in enumerate(tasks)}
    out: list[list[tuple[Any, str]]] = [[] for __ in tasks]
    for task, key, kind in hits:
        out[slot[id(task)]].append((key, kind))
    return out


class _Changes:
    """The net rows one relation lost and gained since the cache synced."""

    __slots__ = ("deleted", "inserted", "fresh", "rows")

    def __init__(self, deleted: list, inserted: list):
        gone = {rowid for rowid, __ in deleted}
        new = {rowid for rowid, __ in inserted}
        # A row inserted and deleted again since exists at neither end.
        self.deleted = {
            rowid: values for rowid, values in deleted if rowid not in new
        }
        self.inserted = [
            (rowid, values) for rowid, values in inserted if rowid not in gone
        ]
        self.fresh = {rowid for rowid, __ in self.inserted}
        self.rows = [*self.deleted.values()] + [v for __, v in self.inserted]


def carry_forward(
    plan: DetectionPlan,
    db: DatabaseInstance,
    cache: ScanCache,
    delta: bool = False,
) -> ReportDelta | None:
    """Bring every entry of *cache* to *db*'s current versions.

    Works only from a synced cache whose every version step since is
    covered by noted rows (:meth:`ScanCache.note`); otherwise it carries
    nothing, unsyncs the cache and returns ``None``, and the executor
    re-scans the stale units. With *delta*, a successful call returns the
    :class:`ReportDelta` from the synced report to the current one (an
    empty one when nothing changed); without, it returns ``None``.
    """
    return run_carry(MemoryCarry(plan, db, cache, delta))


def run_carry(carry: "Carry") -> ReportDelta | None:
    """Run *carry* (see :func:`carry_forward`) under its cache's lock."""
    cache = carry.cache
    with cache.lock:
        synced = cache.synced
        if synced is None:
            return None
        changes: dict[str, _Changes] = {}
        for name, version in synced.items():
            current = carry.version(name)
            if current == version:
                continue
            entry = cache.log.get(name)
            if entry is None or entry[0] != current:
                cache.unsync()
                return None
            changes[name] = _Changes(entry[1], entry[2])
        if not changes:
            return ReportDelta((), (), {}) if carry.delta else None
        carry.synced = synced
        carry.changes = changes
        try:
            carry.run()
        except _Stale:
            cache.unsync()
            return None
        carry.install()
        cache.synced = {name: carry.version(name) for name in synced}
        cache.log = {}
        return carry.report_delta() if carry.delta else None


class Carry:
    """One carry-forward: new entries are staged here, then installed.

    The algorithm — which units a batch touches, how their hit lists
    splice, and which report positions change — lives here; a subclass
    answers the storage questions (the ``version`` … ``view`` hooks).
    """

    #: Whether :meth:`cfd_tuples` costs next to nothing after
    #: :meth:`cfd_rows`, so the touched hit keys' group tuples go into the
    #: report memo even when no delta needs them.
    eager_tuples = False

    def __init__(self, plan: DetectionPlan, cache: ScanCache, delta: bool):
        self.plan = plan
        self.cache = cache
        self.delta = delta
        #: Set by :func:`run_carry`: the synced versions and, per changed
        #: relation, its net changes since.
        self.synced: dict[str, int] = {}
        self.changes: dict[str, _Changes] = {}
        #: (cache store method, *arguments): installed once all succeed.
        self.staged: list[tuple] = []
        #: spec -> current witness key set; spec -> (gained, lost) keys
        self.sets: dict[WitnessSpec, set] = {}
        self.flips: dict[WitnessSpec, tuple[set, set]] = {}
        #: id(task) -> (old hit count, new hit count)
        self.counts: dict[int, tuple[int, int]] = {}
        #: id(task) -> (removed indexes, added entries), changed tasks only
        self.task_changes: dict[int, tuple[list, list]] = {}

    # -- storage hooks -----------------------------------------------------

    def version(self, name: str) -> int:
        """Relation *name*'s current version."""
        raise NotImplementedError

    def cfd_rows(
        self,
        group: CFDScanGroup,
        touched: set,
        noted: int,
        hits: list,
        firsts: dict | None,
    ) -> tuple[list, list, Callable[[tuple[Any, ...]], int]]:
        """The rows of *group*'s touched keys that still exist, with their
        ``X``-keys, in an order where keys first appear by their first row
        (row order is one), and a key -> first row id function for the
        touched keys and the cached *hits*' keys (*firsts* is the entry's,
        for keys it kept); raises :class:`Rescan` when re-scanning the
        group is cheaper."""
        raise NotImplementedError

    def cfd_rescan(self, group: CFDScanGroup) -> tuple[list, dict | None]:
        """*group*'s hits by a full scan, and their keys' first row ids
        (``None`` where the storage answers those itself)."""
        raise NotImplementedError

    def cfd_tuples(self, group: CFDScanGroup, keys: list) -> dict:
        """Each of *keys*' group tuples, in row order, as a
        :class:`~repro.relational.instance.RowGroup`."""
        raise NotImplementedError

    def witness_present(
        self, spec: WitnessSpec, touched: set, noted: int
    ) -> set:
        """Which of *touched* (old keys that lost a witness row and gained
        none) still have a ``Yp``-matching witness; raises :class:`Rescan`
        when re-scanning is cheaper."""
        raise NotImplementedError

    def witness_rescan(self, spec: WitnessSpec, touched: set) -> set:
        """:meth:`witness_present` by a full scan."""
        raise NotImplementedError

    def cind_flipped(
        self,
        relation: str,
        task: CINDRowTask,
        lost: set,
        fresh: set[int],
        shared: dict,
    ) -> list[int]:
        """The rows (not among *fresh*, the noted inserts) that pass the
        task's premise and whose ``X``-key is in *lost* (it lost its last
        witness). *shared* is one dict per LHS relation, shared by its
        tasks. Raises :class:`Rescan` when re-scanning is cheaper."""
        raise NotImplementedError

    def cind_rescan(self, relation: str, tasks: list[CINDRowTask]) -> list[list[int]]:
        """The per-task row-id buckets of a full scan."""
        raise NotImplementedError

    def view(self, relation: str) -> Callable[[int], Tuple]:
        """Row id -> tuple of *relation*, for the rows that became hits."""
        raise NotImplementedError

    # -- the algorithm -----------------------------------------------------

    def _carried(self) -> None:
        # A carried unit is answered from the cache without a scan.
        self.cache.hits += 1
        self.cache.carried += 1

    def run(self) -> None:
        for group in self.plan.cfd_groups:
            self._cfd_group(group)
        for relation, specs in self.plan.witness_specs.items():
            for spec in specs:
                self._witness(relation, spec)
        for relation, tasks in self.plan.cind_scans.items():
            self._cind_relation(relation, tasks)

    def install(self) -> None:
        for store, *args in self.staged:
            store(*args)

    # -- CFD groups --------------------------------------------------------

    def _cfd_group(self, group: CFDScanGroup) -> None:
        entry = self.cache.cfd_entry(group)
        if entry is None or entry[0] != self.synced[group.relation]:
            raise _Stale
        synced, hits, counts, firsts = entry
        changes = self.changes.get(group.relation)
        if changes is None:
            for task, n in zip(group.tasks, counts):
                self.counts[id(task)] = (n, n)
            return
        touched = set(map(_key_of(group.lhs_positions), changes.rows))
        old = _segments(group.tasks, hits)
        try:
            rows, keys, first = self.cfd_rows(
                group, touched, len(changes.rows), hits, firsts
            )
            fresh = _segments(group.tasks, cfd_evaluate(group, rows, keys))
            new = _splice(old, fresh, touched, first)
            if firsts is not None:
                firsts = {k: v for k, v in firsts.items() if k not in touched}
                for segment in fresh:
                    for key, __ in segment:
                        firsts[key] = first(key)
            self._carried()
        except Rescan:
            rescanned, firsts = self.cfd_rescan(group)
            new = _segments(group.tasks, rescanned)
            self.cache.misses += 1
        memo_entry = self.cache.group_tuples_entry(group)
        memo = (
            {k: v for k, v in memo_entry[1].items() if k not in touched}
            if memo_entry is not None and memo_entry[0] == synced
            else {}
        )
        if self.delta or self.eager_tuples:
            wanted = [
                key
                for segment in new
                for key, __ in segment
                if key in touched and key not in memo
            ]
            if wanted:
                memo.update(self.cfd_tuples(group, list(dict.fromkeys(wanted))))
        for task, before, after in zip(group.tasks, old, new):
            self.counts[id(task)] = (len(before), len(after))
            if not self.delta:
                continue
            removed = [i for i, (key, __) in enumerate(before) if key in touched]
            added = [
                (j, key, kind, memo[key])
                for j, (key, kind) in enumerate(after)
                if key in touched
            ]
            if removed or added:
                self.task_changes[id(task)] = (removed, added)
        new_hits = [
            (task, key, kind)
            for task, segment in zip(group.tasks, new)
            for key, kind in segment
        ]
        version = self.version(group.relation)
        counts = tuple(len(segment) for segment in new)
        self.staged.append(
            (self.cache.put_cfd_entry, group, version, new_hits, counts, firsts)
        )
        self.staged.append((self.cache.put_group_tuples, group, version, memo))

    # -- witness sets ------------------------------------------------------

    def _witness(self, relation: str, spec: WitnessSpec) -> None:
        entry = self.cache.witness_entry(spec)
        changes = self.changes.get(relation)
        if entry is None or entry[0] != self.synced[relation]:
            if changes is None:
                return  # unread unless a CIND splice needs it (then stale)
            raise _Stale
        old = entry[1]
        self.sets[spec] = old
        if changes is None:
            return
        yp, key = spec.yp_checks, _key_of(spec.y_positions)
        # A key with a net-inserted witness row has a witness; only an old
        # key that lost a witness row and gained none can have lost it.
        found = {key(values) for __, values in changes.inserted if passes(values, yp)}
        doubtful = {
            k
            for k in (
                key(values) for values in changes.deleted.values() if passes(values, yp)
            )
            if k in old and k not in found
        }
        lost: set = set()
        if doubtful:
            try:
                lost = doubtful - self.witness_present(spec, doubtful, len(changes.rows))
                self._carried()
            except Rescan:
                lost = doubtful - self.witness_rescan(spec, doubtful)
                self.cache.misses += 1
        elif found:
            self._carried()
        gained = found - old
        new = old
        if gained or lost:
            new = (old - lost) | gained
            self.flips[spec] = (gained, lost)
        self.sets[spec] = new
        self.staged.append(
            (self.cache.store_witness_set, spec, self.version(relation), new)
        )

    # -- CIND LHS relations ------------------------------------------------

    def _cind_relation(self, relation: str, tasks: list[CINDRowTask]) -> None:
        entry = self.cache.cind_entry(relation)
        specs = dict.fromkeys(task.witness for task in tasks)
        synced_deps = tuple(self.synced[spec.rhs_relation] for spec in specs)
        if (
            entry is None
            or entry[0] != self.synced[relation]
            or entry[1] != synced_deps
        ):
            raise _Stale
        __, deps, violations, buckets = entry
        version = self.version(relation)
        new_deps = tuple(self.version(spec.rhs_relation) for spec in specs)
        changes = self.changes.get(relation)
        flips = {spec: self.flips[spec] for spec in specs if spec in self.flips}
        new_buckets = buckets
        if changes is not None or flips:
            try:
                new_buckets = self._splice_cind(
                    relation, tasks, violations, buckets, changes, flips
                )
                self._carried()
            except Rescan:
                rescanned = self.cind_rescan(relation, tasks)
                new_buckets = [
                    before if after == before else after
                    for before, after in zip(buckets, rescanned)
                ]
                self.cache.misses += 1
        if new_buckets is buckets:
            for task, bucket in zip(tasks, buckets):
                self.counts[id(task)] = (len(bucket), len(bucket))
            if new_deps != deps:
                self.staged.append((
                    self.cache.store_cind_hits, relation, version,
                    new_deps, violations, buckets,
                ))
            return
        view = self.view(relation)
        new_violations: list[CINDViolation] = []
        start = 0
        for task, before, after in zip(tasks, buckets, new_buckets):
            self.counts[id(task)] = (len(before), len(after))
            segment = violations[start:start + len(before)]
            start += len(before)
            if after is before:
                new_violations.extend(segment)
                continue
            # Kept rows keep their violation objects; only new rows get
            # new ones, which are the objects the delta hands out.
            now, was = set(after), set(before)
            kept = iter([v for v, rowid in zip(segment, before) if rowid in now])
            segment = [
                next(kept) if rowid in was else CINDViolation(
                    cind=task.cind, pattern_index=task.row_index, tuple_=view(rowid)
                )
                for rowid in after
            ]
            new_violations.extend(segment)
            if self.delta:
                removed = [i for i, rowid in enumerate(before) if rowid not in now]
                added = [
                    (j, v)
                    for j, (rowid, v) in enumerate(zip(after, segment))
                    if rowid not in was
                ]
                if removed or added:
                    self.task_changes[id(task)] = (removed, added)
        self.staged.append((
            self.cache.store_cind_hits, relation, version,
            new_deps, new_violations, new_buckets,
        ))

    def _splice_cind(
        self,
        relation: str,
        tasks: list[CINDRowTask],
        violations: list[CINDViolation],
        buckets: list[list[int]],
        changes: "_Changes | None",
        flips: dict[WitnessSpec, tuple[set, set]],
    ) -> list[list[int]]:
        """New per-task row-id buckets of an LHS relation: its noted
        rows re-evaluated, the hits whose key gained a witness dropped
        (*violations*, the entry's, give their keys), and the rows whose
        key lost its last one (:meth:`cind_flipped`) added."""
        deleted = changes.deleted if changes is not None else {}
        inserted = changes.inserted if changes is not None else []
        fresh = changes.fresh if changes is not None else set()
        shared: dict = {"read": len(changes.rows) if changes is not None else 0}
        evaluated: dict[tuple, list[int]] = {}
        out: list[list[int]] = []
        start = 0
        for task, before in zip(tasks, buckets):
            offset, start = start, start + len(before)
            signature = (task.lhs_checks, task.x_positions, task.witness)
            after = evaluated.get(signature)
            if after is not None:
                out.append(after)
                continue
            lhs, xs = task.lhs_checks, task.x_positions
            key = _key_of(xs)
            add: list[int] = []
            if inserted:
                witness = self.sets.get(task.witness)
                if witness is None:
                    raise _Stale
                add = [
                    rowid
                    for rowid, values in inserted
                    if passes(values, lhs) and key(values) not in witness
                ]
            drop: set[int] | dict[int, Any] = deleted
            flip = flips.get(task.witness)
            if flip is not None:
                gained, lost = flip
                if gained:
                    # A hit whose key gained a witness is a hit no more.
                    gone = {
                        rowid
                        for v, rowid in zip(violations[offset:start], before)
                        if key(v.tuple_.values) in gained
                    }
                    if gone:
                        drop = gone.union(deleted)
                if lost:
                    if not xs:
                        raise Rescan
                    add.extend(self.cind_flipped(relation, task, lost, fresh, shared))
            after = [rowid for rowid in before if rowid not in drop] if drop else before
            if add:
                after = after + add
                after.sort()
            elif len(after) == len(before):
                after = before
            evaluated[signature] = after
            out.append(after)
        return out

    # -- positions ---------------------------------------------------------

    def report_delta(self) -> ReportDelta:
        plan, changes = self.plan, self.task_changes
        removed: list[int] = []
        added: list[tuple[int, CFDViolation | CINDViolation]] = []
        old_at = new_at = 0
        for task in plan.cfd_tasks:
            change = changes.get(id(task))
            if change is not None:
                removed.extend(old_at + i for i in change[0])
                added.extend(
                    (
                        new_at + j,
                        CFDViolation(
                            cfd=task.cfd,
                            pattern_index=task.row_index,
                            lhs_values=key,
                            tuples=tuples,
                            kind=kind,
                        ),
                    )
                    for j, key, kind, tuples in change[1]
                )
            before, after = self.counts[id(task)]
            old_at += before
            new_at += after
        for task in plan.cind_tasks:
            change = changes.get(id(task))
            if change is not None:
                removed.extend(old_at + i for i in change[0])
                # The carry's own objects, as the cache and the next
                # report hold them.
                added.extend((new_at + j, v) for j, v in change[1])
            before, after = self.counts[id(task)]
            old_at += before
            new_at += after
        labels = constraint_labels(plan.sigma) if added else {}
        return ReportDelta(tuple(removed), tuple(added), labels)


def _splice(
    old: list[list[tuple[Any, str]]],
    fresh: list[list[tuple[Any, str]]],
    touched: set,
    first: Callable[[tuple[Any, ...]], int],
) -> list[list[tuple[Any, str]]]:
    """Each task's kept ``(key, kind)`` pairs with the touched keys' new
    ones inserted by first row id (the order a full scan produces)."""

    def pair_first(pair: tuple[Any, str]) -> int:
        return first(pair[0])

    new = []
    for before, add in zip(old, fresh):
        kept = [pair for pair in before if pair[0] not in touched]
        for pair in add:  # ascending first row: each lands after the last
            kept.insert(bisect_left(kept, first(pair[0]), key=pair_first), pair)
        new.append(kept)
    return new


def _values(instance: RelationInstance, slots: list[int]) -> list[tuple[Any, ...]]:
    """The value tuples of *instance*'s rows at *slots*."""
    return list(zip(*[[column[i] for i in slots] for column in instance.columns()]))


class MemoryCarry(Carry):
    """A carry over in-memory relations: touched keys' rows are read from
    the relations' hash-index buckets, or, while an index has not been
    needed by an earlier batch, by one key-restricted pass."""

    def __init__(
        self,
        plan: DetectionPlan,
        db: DatabaseInstance,
        cache: ScanCache,
        delta: bool,
    ):
        super().__init__(plan, cache, delta)
        self.db = db
        #: relation -> its projection key lists, for this carry only
        self.projections: dict[str, KeyLists] = {}
        #: the missing indexes earlier batches needed: this carry builds
        #: those it needs; the needs it adds count from the next batch on
        self.wanted = frozenset(cache.wanted)

    def version(self, name: str) -> int:
        return self.db[name].version

    def view(self, relation: str) -> Callable[[int], Tuple]:
        return self.db[relation].view

    # -- reading touched keys ----------------------------------------------

    def _key_lists(self, relation: str) -> KeyLists:
        key_lists = self.projections.get(relation)
        if key_lists is None:
            instance = self.db[relation]
            key_lists = self.projections[relation] = shard_key_fn(
                instance.columns(), len(instance)
            )
        return key_lists

    def _index(
        self, instance: RelationInstance, attributes: tuple[str, ...]
    ) -> dict[tuple[Any, ...], dict[int, tuple[Any, ...]]] | None:
        """*instance*'s bucket index on *attributes* if it exists or an
        earlier batch needed it; otherwise note the need and return
        ``None`` (the caller reads by :meth:`_pass`)."""
        if not instance.has_index(attributes):
            need = (instance.schema.name, attributes)
            if need not in self.wanted:
                self.cache.wanted.add(need)
                return None
        return instance.index_on(attributes)

    def _pass(
        self, instance: RelationInstance, positions: tuple[int, ...], keys: set
    ) -> tuple[list[int], list]:
        """The slots of *instance*'s rows whose key on *positions* is in
        *keys*, ascending (row order), and the key projection they index:
        one pass over the projection, filtered at C speed."""
        projection = self._key_lists(instance.schema.name)(positions)
        slots = list(compress(range(len(projection)), map(keys.__contains__, projection)))
        return slots, projection

    def _rows(
        self,
        instance: RelationInstance,
        attributes: tuple[str, ...],
        positions: tuple[int, ...],
        keys: set,
    ) -> list[tuple[int, tuple[Any, ...], tuple[Any, ...]]]:
        """``(row id, key, values)`` of *instance*'s rows whose key on
        *attributes* (at *positions*) is in *keys*: the index buckets, or
        a pass on the index's first need."""
        index = self._index(instance, attributes)
        if index is None:
            slots, projection = self._pass(instance, positions, keys)
            rowids = instance.row_ids()
            return list(zip(
                [rowids[i] for i in slots],
                [projection[i] for i in slots],
                _values(instance, slots),
            ))
        return [
            (rowid, key, values)
            for key in keys
            for rowid, values in index.get(key, {}).items()
        ]

    # -- the hooks -----------------------------------------------------------

    def cfd_rows(
        self,
        group: CFDScanGroup,
        touched: set,
        noted: int,
        hits: list,
        firsts: dict | None,
    ) -> tuple[list, list, Callable[[tuple[Any, ...]], int]]:
        if not group.lhs_positions:
            raise Rescan
        instance = self.db[group.relation]
        index = self._index(instance, group.lhs)
        if index is None:
            # One pass: the touched keys' rows, and the first rows of the
            # kept hit keys, which the splice asks for but needs no values.
            slots, projection = self._pass(
                instance,
                group.lhs_positions,
                touched.union([key for __, key, __k in hits]),
            )
            keys = [projection[i] for i in slots]
            rowids = instance.row_ids()
            # Written last row first, each key ends on its first row id.
            first_of = dict(zip(keys[::-1], [rowids[i] for i in reversed(slots)]))
            picked = list(compress(slots, map(touched.__contains__, keys)))
            if noted + len(picked) > len(instance):
                raise Rescan
            return (
                _values(instance, picked),
                [projection[i] for i in picked],
                first_of.__getitem__,
            )
        live = [key for key in touched if key in index]
        if noted + sum(len(index[key]) for key in live) > len(instance):
            raise Rescan

        def first(key: tuple[Any, ...]) -> int:
            return next(iter(index[key]))

        live.sort(key=first)
        rows = [values for key in live for values in index[key].values()]
        keys = [key for key in live for __ in index[key]]
        return rows, keys, first

    def cfd_rescan(self, group: CFDScanGroup) -> tuple[list, dict | None]:
        state = cfd_map_shard(
            group,
            self.db[group.relation].columns(),
            self._key_lists(group.relation),
        )
        return cfd_finalize(group, state), None

    def cfd_tuples(self, group: CFDScanGroup, keys: list) -> dict:
        instance = self.db[group.relation]
        return {key: instance.group_rows(group.lhs, key) for key in keys}

    def witness_present(
        self, spec: WitnessSpec, touched: set, noted: int
    ) -> set:
        if not spec.y_positions:
            raise Rescan
        instance = self.db[spec.rhs_relation]
        rows = self._rows(instance, spec.y, spec.y_positions, touched)
        if noted + len(rows) > len(instance):
            raise Rescan
        yp = spec.yp_checks
        return {key for __, key, values in rows if passes(values, yp)}

    def witness_rescan(self, spec: WitnessSpec, touched: set) -> set:
        instance = self.db[spec.rhs_relation]
        (rescanned,) = witness_map_shard(
            [spec], instance.columns(), self._key_lists(spec.rhs_relation)
        )
        return {key for key in touched if key in rescanned}

    def cind_rescan(
        self, relation: str, tasks: list[CINDRowTask]
    ) -> list[list[int]]:
        instance = self.db[relation]
        return cind_map_shard(
            tasks, instance.columns(), instance.row_ids(), self.sets,
            self._key_lists(relation),
        )

    def cind_flipped(
        self,
        relation: str,
        task: CINDRowTask,
        lost: set,
        fresh: set[int],
        shared: dict,
    ) -> list[int]:
        """Raises :class:`Rescan` when the lost keys' rows and the noted
        rows outnumber the relation; a key's rows count once per
        relation, whichever task reads them first."""
        instance = self.db[relation]
        xs, lhs = task.x_positions, task.lhs_checks
        rows = self._rows(instance, task.cind.x, xs, lost)
        charged = shared.setdefault("charged", set())
        shared["read"] += sum(1 for __, key, __v in rows if (xs, key) not in charged)
        charged.update((xs, key) for key in lost)
        if shared["read"] > len(instance):
            raise Rescan
        return [
            rowid for rowid, __, values in rows
            if rowid not in fresh and passes(values, lhs)
        ]
