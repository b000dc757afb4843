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
from typing import Any, Mapping

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
from repro.relational.instance import DatabaseInstance, RelationInstance


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


class _Rescan(Exception):
    """A unit's patch would read more rows than its relation holds."""


def _key(values: tuple[Any, ...], positions: tuple[int, ...]) -> tuple[Any, ...]:
    return tuple([values[p] for p in positions])


def _index(
    cache: ScanCache, instance: RelationInstance, attributes: tuple[str, ...]
) -> dict[tuple[Any, ...], dict[int, tuple[Any, ...]]]:
    """*instance*'s bucket index on *attributes*, if it exists or was
    needed before; otherwise note the need and raise :class:`_Rescan`."""
    if not instance.has_index(attributes):
        need = (instance.schema.name, attributes)
        if need not in cache.wanted:
            cache.wanted.add(need)
            raise _Rescan
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
    with cache.lock:
        synced = cache.synced
        if synced is None:
            return None
        changes: dict[str, _Changes] = {}
        for name, version in synced.items():
            current = db[name].version
            if current == version:
                continue
            entry = cache.log.get(name)
            if entry is None or entry[0] != current:
                cache.unsync()
                return None
            changes[name] = _Changes(entry[1], entry[2])
        if not changes:
            return ReportDelta((), (), {}) if delta else None
        carry = _Carry(plan, db, cache, synced, changes, delta)
        try:
            carry.run()
        except _Stale:
            cache.unsync()
            return None
        carry.install()
        cache.synced = {name: db[name].version for name in synced}
        cache.log = {}
        return carry.report_delta() if delta else None


class _Carry:
    """One carry-forward: new entries are staged here, then installed."""

    def __init__(
        self,
        plan: DetectionPlan,
        db: DatabaseInstance,
        cache: ScanCache,
        synced: dict[str, int],
        changes: dict[str, _Changes],
        delta: bool,
    ):
        self.plan = plan
        self.db = db
        self.cache = cache
        self.synced = synced
        self.changes = changes
        self.delta = delta
        #: (cache store method, *arguments): installed once all succeed.
        self.staged: list[tuple] = []
        #: spec -> current witness key set; spec -> (gained, lost) keys
        self.sets: dict[WitnessSpec, set] = {}
        self.flips: dict[WitnessSpec, tuple[set, set]] = {}
        #: id(task) -> (old hit count, new hit count)
        self.counts: dict[int, tuple[int, int]] = {}
        #: id(task) -> (removed indexes, added entries), changed tasks only
        self.task_changes: dict[int, tuple[list, list]] = {}

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
        synced, hits, counts = entry
        changes = self.changes.get(group.relation)
        if changes is None:
            for task, n in zip(group.tasks, counts):
                self.counts[id(task)] = (n, n)
            return
        instance = self.db[group.relation]
        touched = {_key(values, group.lhs_positions) for values in changes.rows}
        old = _segments(group.tasks, hits)
        try:
            new = self._splice_cfd(group, instance, old, touched, len(changes.rows))
            self._carried()
        except _Rescan:
            fresh = cfd_finalize(group, cfd_map_shard(group, instance_key_fn(instance)))
            new = _segments(group.tasks, fresh)
            self.cache.misses += 1
        memo_entry = self.cache.group_tuples_entry(group)
        memo = (
            {k: v for k, v in memo_entry[1].items() if k not in touched}
            if memo_entry is not None and memo_entry[0] == synced
            else {}
        )
        for task, before, after in zip(group.tasks, old, new):
            self.counts[id(task)] = (len(before), len(after))
            if not self.delta:
                continue
            removed = [i for i, (key, __) in enumerate(before) if key in touched]
            added = []
            for j, (key, kind) in enumerate(after):
                if key in touched:
                    tuples = memo.get(key)
                    if tuples is None:
                        tuples = memo[key] = tuple(instance.lookup(group.lhs, key))
                    added.append((j, key, kind, tuples))
            if removed or added:
                self.task_changes[id(task)] = (removed, added)
        new_hits = [
            (task, key, kind)
            for task, segment in zip(group.tasks, new)
            for key, kind in segment
        ]
        version = instance.version
        counts = tuple(len(segment) for segment in new)
        self.staged.append((self.cache.put_cfd_entry, group, version, new_hits, counts))
        self.staged.append((self.cache.put_group_tuples, group, version, memo))

    def _splice_cfd(
        self,
        group: CFDScanGroup,
        instance: RelationInstance,
        old: list[list[tuple[Any, str]]],
        touched: set,
        noted: int,
    ) -> list[list[tuple[Any, str]]]:
        if not group.lhs_positions:
            raise _Rescan
        index = _index(self.cache, instance, group.lhs)
        live = [key for key in touched if key in index]
        if noted + sum(len(index[key]) for key in live) > len(instance):
            raise _Rescan

        def first(key: tuple[Any, ...]) -> int:
            return next(iter(index[key]))

        def pair_first(pair: tuple[Any, str]) -> int:
            return first(pair[0])

        live.sort(key=first)
        rows = [values for key in live for values in index[key].values()]
        fresh: list[list[tuple[Any, str]]] = [[] for __ in group.tasks]
        if rows:
            # Each bucket's rows share its key: the X-key list repeats the
            # bucket keys instead of projecting every row again.
            keys = [key for key in live for __ in index[key]]
            project = shard_key_fn(list(zip(*rows)), len(rows))

            def key_lists(positions: tuple[int, ...]) -> list:
                return keys if positions == group.lhs_positions else project(positions)

            state = cfd_map_shard(group, key_lists)
            fresh = _segments(group.tasks, cfd_finalize(group, state))
        new = []
        for before, add in zip(old, fresh):
            kept = [pair for pair in before if pair[0] not in touched]
            for pair in add:  # ascending first row: each lands after the last
                kept.insert(bisect_left(kept, first(pair[0]), key=pair_first), pair)
            new.append(kept)
        return new

    # -- witness sets ------------------------------------------------------

    def _witness(self, relation: str, spec: WitnessSpec) -> None:
        entry = self.cache.witness_entry(spec)
        if entry is None or entry[0] != self.synced[relation]:
            raise _Stale
        old = entry[1]
        changes = self.changes.get(relation)
        self.sets[spec] = old
        if changes is None:
            return
        instance = self.db[relation]
        yp = spec.yp_checks
        touched = {
            _key(values, spec.y_positions)
            for values in changes.rows
            if passes(values, yp)
        }
        new = old
        if touched:
            try:
                present = self._present(spec, instance, touched, len(changes.rows))
                self._carried()
            except _Rescan:
                rescanned = witness_map_shard(
                    [spec], instance.columns(), instance_key_fn(instance)
                ).sets[0]
                present = {key for key in touched if key in rescanned}
                self.cache.misses += 1
            gained = {key for key in present if key not in old}
            lost = {key for key in touched if key in old and key not in present}
            if gained or lost:
                new = (old - lost) | gained
                self.flips[spec] = (gained, lost)
        self.sets[spec] = new
        self.staged.append((self.cache.store_witness_set, spec, instance.version, new))

    def _present(
        self, spec: WitnessSpec, instance: RelationInstance, touched: set, noted: int
    ) -> set:
        """The touched keys that still have a ``Yp``-matching witness."""
        if not spec.y_positions:
            raise _Rescan
        index = _index(self.cache, instance, spec.y)
        buckets = [(key, index.get(key)) for key in touched]
        read = noted + sum(len(bucket) for __, bucket in buckets if bucket)
        if read > len(instance):
            raise _Rescan
        yp = spec.yp_checks
        return {
            key
            for key, bucket in buckets
            if bucket and any(passes(values, yp) for values in bucket.values())
        }

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
        instance = self.db[relation]
        new_deps = tuple(self.db[spec.rhs_relation].version for spec in specs)
        changes = self.changes.get(relation)
        flips = {spec: self.flips[spec] for spec in specs if spec in self.flips}
        new_buckets = buckets
        if changes is not None or flips:
            try:
                new_buckets = self._splice_cind(tasks, instance, buckets, changes, flips)
                self._carried()
            except _Rescan:
                columns = instance.columns()
                rowids = instance.row_ids()
                rescanned = cind_map_shard(
                    tasks, columns, rowids, self.sets,
                    shard_key_fn(columns, len(rowids)),
                ).buckets
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
                    self.cache.store_cind_hits, relation, instance.version,
                    new_deps, hits, buckets,
                ))
            return
        view = instance.view
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
            self.cache.store_cind_hits, relation, instance.version,
            new_deps, new_hits, new_buckets,
        ))

    def _splice_cind(
        self,
        tasks: list[CINDRowTask],
        instance: RelationInstance,
        buckets: list[list[int]],
        changes: _Changes | None,
        flips: dict[WitnessSpec, tuple[set, set]],
    ) -> list[list[int]]:
        """New per-task row-id buckets; raises :class:`_Rescan` when the
        noted rows and the flipped keys' buckets outnumber the relation."""
        deleted = changes.deleted if changes is not None else {}
        inserted = changes.inserted if changes is not None else []
        fresh = changes.fresh if changes is not None else set()
        read = len(changes.rows) if changes is not None else 0
        charged: set[tuple] = set()
        evaluated: dict[tuple, list[int]] = {}
        out: list[list[int]] = []
        for task, before in zip(tasks, buckets):
            signature = (task.lhs_checks, task.x_positions, task.witness)
            after = evaluated.get(signature)
            if after is not None:
                out.append(after)
                continue
            lhs, xs = task.lhs_checks, task.x_positions
            witness = self.sets[task.witness]
            add = [
                rowid
                for rowid, values in inserted
                if passes(values, lhs) and _key(values, xs) not in witness
            ]
            drop: set[int] | dict[int, Any] = deleted
            flip = flips.get(task.witness)
            if flip is not None:
                gained, lost = flip
                if not xs:
                    raise _Rescan
                index = _index(self.cache, instance, task.cind.x)
                for key in gained | lost:
                    if (xs, key) not in charged:
                        charged.add((xs, key))
                        read += len(index.get(key, ()))
                if read > len(instance):
                    raise _Rescan
                gone = {rowid for key in gained for rowid in index.get(key, ())}
                if gone:
                    drop = gone.union(deleted)
                for key in lost:
                    bucket = index.get(key)
                    if bucket:
                        add.extend(
                            rowid
                            for rowid, values in bucket.items()
                            if rowid not in fresh and passes(values, lhs)
                        )
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
            id(task): self.db[relation].view
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
