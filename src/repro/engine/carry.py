"""Carry a :class:`~repro.engine.cache.ScanCache` forward by touched keys.

The paper decides a CFD's satisfaction per ``X``-group and a CIND's per
LHS tuple and its ``Y``-witness, so a batch of row changes can only
change:

* the CFD groups whose ``X``-key one of its rows carries;
* the witness keys its rows carry on a witness side — and of those, only
  the keys that gained their first or lost their last witness matter;
* the CIND hits of its own LHS rows and of the LHS rows whose ``X``-key
  flipped witness status.

:func:`carry_forward` re-evaluates exactly those over the relations'
hash-index buckets — CFD groups through the same
:func:`~repro.engine.shards.cfd_map_shard` /
:func:`~repro.engine.shards.cfd_finalize` a scan uses — and splices the
results into the cached hit lists by first-occurrence row id: a CFD
task's keys in the order of their group's first row, a CIND task's hits
in row-id order. That is the order a full scan produces, because row ids
only grow and an untouched group keeps its first row. A unit falls back
to re-scanning its relation when the rows its patch would read — the
noted rows plus the touched keys' buckets — outnumber the rows a scan
reads (an empty key's bucket is the whole relation, so it always does).
A bucket index that does not exist yet would cost a pass over the whole
relation to build, plus the memory of a bucket per key, so the first
unit that needs one re-scans instead; only a second need builds it (the
rent-then-buy rule: a one-off batch, such as a repair round, never pays
for an index, a stream of batches pays for it once).

The algorithm is storage-neutral: :class:`Carry` asks its subclass for
the rows of the touched keys, a unit's re-scan, the touched witness keys
still present and the views of new rows. :class:`MemoryCarry` answers
from the relations' hash-index buckets; the ``sqlfile`` backend answers
with key-restricted SQL over the file
(:class:`repro.sql.violations.SQLCarry`). A file has no index to ask for
a group's first row, so its CFD entries keep each hit key's first row
id, and the splice reads them there.

Every new entry is built aside and stored whole, so a reader holding the
previous entry never sees a half-patched list. The splice also yields
each task's removed and added violations; per-task hit counts (a pruned
duplicate counted at its donor's size) turn them into report positions,
which makes the position-tagged :class:`ReportDelta` a serving layer
streams without assembling or diffing whole reports.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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
    cfd_finalize,
    cfd_map_shard,
    cind_map_shard,
    instance_key_fn,
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


def _key(values: tuple[Any, ...], positions: tuple[int, ...]) -> tuple[Any, ...]:
    return tuple([values[p] for p in positions])


def _index(
    cache: ScanCache, instance: RelationInstance, attributes: tuple[str, ...]
) -> dict[tuple[Any, ...], dict[int, tuple[Any, ...]]]:
    """*instance*'s bucket index on *attributes*, if it exists or was
    needed before; otherwise note the need and raise :class:`Rescan`."""
    if not instance.has_index(attributes):
        need = (instance.schema.name, attributes)
        if need not in cache.wanted:
            cache.wanted.add(need)
            raise Rescan
    return instance.index_on(attributes)


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


def _evaluate(group: CFDScanGroup, rows: list, keys: list) -> list:
    """Per-task ``(key, kind)`` hits of *group* over *rows* (value
    tuples, ordered by their key's first row) whose ``X``-keys are
    *keys*."""
    if not rows:
        return [[] for __ in group.tasks]
    # Each key's rows share it: the X-key list is given, not projected.
    project = shard_key_fn(list(zip(*rows)), len(rows))

    def key_lists(positions: tuple[int, ...]) -> list:
        return keys if positions == group.lhs_positions else project(positions)

    return _segments(group.tasks, cfd_finalize(group, cfd_map_shard(group, key_lists)))


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
        firsts: dict | None,
    ) -> tuple[list, list, Callable[[tuple[Any, ...]], int]]:
        """The rows of *group*'s touched keys that still exist, ordered by
        their key's first row, with their ``X``-keys and a key -> first
        row id function (*firsts* is the entry's, for keys it kept);
        raises :class:`Rescan` when re-scanning the group is cheaper."""
        raise NotImplementedError

    def cfd_rescan(self, group: CFDScanGroup) -> tuple[list, dict | None]:
        """*group*'s hits by a full scan, and their keys' first row ids
        (``None`` where the storage answers those itself)."""
        raise NotImplementedError

    def cfd_tuples(self, group: CFDScanGroup, keys: list) -> dict:
        """Each of *keys*' group tuples, in row order."""
        raise NotImplementedError

    def witness_present(
        self, spec: WitnessSpec, touched: set, noted: int
    ) -> set:
        """The touched keys that still have a ``Yp``-matching witness;
        raises :class:`Rescan` when re-scanning is cheaper."""
        raise NotImplementedError

    def witness_rescan(self, spec: WitnessSpec, touched: set) -> set:
        """:meth:`witness_present` by a full scan."""
        raise NotImplementedError

    def cind_flipped(
        self,
        relation: str,
        task: CINDRowTask,
        before: list[int],
        flip: tuple[set, set],
        fresh: set[int],
        shared: dict,
    ) -> tuple[set[int], list[int]]:
        """For a task whose witness keys flipped (``(gained, lost)``):
        the hit rows in *before* whose key gained a witness, and the
        rows (not among *fresh*, the noted inserts) that pass the task's
        premise and whose key lost its last one. *shared* is one dict
        per LHS relation, shared by its tasks. Raises :class:`Rescan`
        when re-scanning is cheaper."""
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
        touched = {_key(values, group.lhs_positions) for values in changes.rows}
        old = _segments(group.tasks, hits)
        try:
            rows, keys, first = self.cfd_rows(
                group, touched, len(changes.rows), firsts
            )
            fresh = _evaluate(group, rows, keys)
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
        yp = spec.yp_checks
        touched = {
            _key(values, spec.y_positions)
            for values in changes.rows
            if passes(values, yp)
        }
        new = old
        if touched:
            try:
                present = self.witness_present(spec, touched, len(changes.rows))
                self._carried()
            except Rescan:
                present = self.witness_rescan(spec, touched)
                self.cache.misses += 1
            gained = {key for key in present if key not in old}
            lost = {key for key in touched if key in old and key not in present}
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
        __, deps, hits, buckets = entry
        version = self.version(relation)
        new_deps = tuple(self.version(spec.rhs_relation) for spec in specs)
        changes = self.changes.get(relation)
        flips = {spec: self.flips[spec] for spec in specs if spec in self.flips}
        new_buckets = buckets
        if changes is not None or flips:
            try:
                new_buckets = self._splice_cind(
                    relation, tasks, buckets, changes, flips
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
                    new_deps, hits, buckets,
                ))
            return
        view = self.view(relation)
        new_hits: list = []
        start = 0
        for task, before, after in zip(tasks, buckets, new_buckets):
            self.counts[id(task)] = (len(before), len(after))
            segment = hits[start:start + len(before)]
            start += len(before)
            if after is before:
                new_hits.extend(segment)
                continue
            # Kept rows keep their (task, tuple) pairs; only new rows
            # get new ones.
            now, was = set(after), set(before)
            kept = iter([pair for pair, rowid in zip(segment, before) if rowid in now])
            new_hits.extend(
                next(kept) if rowid in was else (task, view(rowid))
                for rowid in after
            )
            if self.delta:
                removed = [i for i, rowid in enumerate(before) if rowid not in now]
                added = [(j, rowid) for j, rowid in enumerate(after) if rowid not in was]
                if removed or added:
                    self.task_changes[id(task)] = (removed, added)
        self.staged.append((
            self.cache.store_cind_hits, relation, version,
            new_deps, new_hits, new_buckets,
        ))

    def _splice_cind(
        self,
        relation: str,
        tasks: list[CINDRowTask],
        buckets: list[list[int]],
        changes: "_Changes | None",
        flips: dict[WitnessSpec, tuple[set, set]],
    ) -> list[list[int]]:
        """New per-task row-id buckets of an LHS relation: its noted
        rows re-evaluated, and the rows whose key flipped witness status
        (:meth:`cind_flipped`) dropped or added."""
        deleted = changes.deleted if changes is not None else {}
        inserted = changes.inserted if changes is not None else []
        fresh = changes.fresh if changes is not None else set()
        shared: dict = {"read": len(changes.rows) if changes is not None else 0}
        evaluated: dict[tuple, list[int]] = {}
        out: list[list[int]] = []
        for task, before in zip(tasks, buckets):
            signature = (task.lhs_checks, task.x_positions, task.witness)
            after = evaluated.get(signature)
            if after is not None:
                out.append(after)
                continue
            lhs, xs = task.lhs_checks, task.x_positions
            add: list[int] = []
            if inserted:
                witness = self.sets.get(task.witness)
                if witness is None:
                    raise _Stale
                add = [
                    rowid
                    for rowid, values in inserted
                    if passes(values, lhs) and _key(values, xs) not in witness
                ]
            drop: set[int] | dict[int, Any] = deleted
            flip = flips.get(task.witness)
            if flip is not None:
                if not xs:
                    raise Rescan
                gone, found = self.cind_flipped(
                    relation, task, before, flip, fresh, shared
                )
                if gone:
                    drop = gone.union(deleted)
                add.extend(found)
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
        plan, donors, changes = self.plan, self.plan.task_donors, self.task_changes
        removed: list[int] = []
        added: list[tuple[int, CFDViolation | CINDViolation]] = []
        old_at = new_at = 0
        for task in plan.cfd_tasks:
            source = donors.get(id(task), task)
            change = changes.get(id(source))
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
            before, after = self.counts[id(source)]
            old_at += before
            new_at += after
        views = {
            id(task): self.view(relation)
            for relation, tasks in plan.cind_scans.items()
            for task in tasks
        }
        for task in plan.cind_tasks:
            source = donors.get(id(task), task)
            change = changes.get(id(source))
            if change is not None:
                view = views[id(source)]
                removed.extend(old_at + i for i in change[0])
                added.extend(
                    (
                        new_at + j,
                        CINDViolation(
                            cind=task.cind,
                            pattern_index=task.row_index,
                            tuple_=view(rowid),
                        ),
                    )
                    for j, rowid in change[1]
                )
            before, after = self.counts[id(source)]
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


class MemoryCarry(Carry):
    """A carry over in-memory relations: touched keys are read from the
    relations' hash-index buckets (built on their second need)."""

    def __init__(
        self,
        plan: DetectionPlan,
        db: DatabaseInstance,
        cache: ScanCache,
        delta: bool,
    ):
        super().__init__(plan, cache, delta)
        self.db = db

    def version(self, name: str) -> int:
        return self.db[name].version

    def view(self, relation: str) -> Callable[[int], Tuple]:
        return self.db[relation].view

    def cfd_rows(
        self,
        group: CFDScanGroup,
        touched: set,
        noted: int,
        firsts: dict | None,
    ) -> tuple[list, list, Callable[[tuple[Any, ...]], int]]:
        if not group.lhs_positions:
            raise Rescan
        instance = self.db[group.relation]
        index = _index(self.cache, instance, group.lhs)
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
        instance = self.db[group.relation]
        return cfd_finalize(group, cfd_map_shard(group, instance_key_fn(instance))), None

    def cfd_tuples(self, group: CFDScanGroup, keys: list) -> dict:
        instance = self.db[group.relation]
        return {key: tuple(instance.lookup(group.lhs, key)) for key in keys}

    def witness_present(
        self, spec: WitnessSpec, touched: set, noted: int
    ) -> set:
        if not spec.y_positions:
            raise Rescan
        instance = self.db[spec.rhs_relation]
        index = _index(self.cache, instance, spec.y)
        buckets = [(key, index.get(key)) for key in touched]
        read = noted + sum(len(bucket) for __, bucket in buckets if bucket)
        if read > len(instance):
            raise Rescan
        yp = spec.yp_checks
        return {
            key
            for key, bucket in buckets
            if bucket and any(passes(values, yp) for values in bucket.values())
        }

    def witness_rescan(self, spec: WitnessSpec, touched: set) -> set:
        instance = self.db[spec.rhs_relation]
        rescanned = witness_map_shard(
            [spec], instance.columns(), instance_key_fn(instance)
        ).sets[0]
        return {key for key in touched if key in rescanned}

    def cind_rescan(
        self, relation: str, tasks: list[CINDRowTask]
    ) -> list[list[int]]:
        instance = self.db[relation]
        columns = instance.columns()
        rowids = instance.row_ids()
        return cind_map_shard(
            tasks, columns, rowids, self.sets, shard_key_fn(columns, len(rowids))
        ).buckets

    def cind_flipped(
        self,
        relation: str,
        task: CINDRowTask,
        before: list[int],
        flip: tuple[set, set],
        fresh: set[int],
        shared: dict,
    ) -> tuple[set[int], list[int]]:
        """Reads the flipped keys' index buckets; raises :class:`Rescan`
        when they and the noted rows outnumber the relation."""
        gained, lost = flip
        instance = self.db[relation]
        index = _index(self.cache, instance, task.cind.x)
        charged = shared.setdefault("charged", set())
        for key in gained | lost:
            if (task.x_positions, key) not in charged:
                charged.add((task.x_positions, key))
                shared["read"] += len(index.get(key, ()))
        if shared["read"] > len(instance):
            raise Rescan
        gone = {rowid for key in gained for rowid in index.get(key, ())}
        found = [
            rowid
            for key in lost
            for rowid, values in index.get(key, {}).items()
            if rowid not in fresh and passes(values, task.lhs_checks)
        ]
        return gone, found
