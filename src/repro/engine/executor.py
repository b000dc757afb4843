"""Shared-scan detection executor (columnar).

Executes a :class:`~repro.engine.planner.DetectionPlan` against a database
instance in one of three modes:

* :func:`execute_plan` with ``mode="full"`` — materializes every
  ``CFDViolation``/``CINDViolation`` into a
  :class:`~repro.core.violations.ViolationReport` whose violation lists are
  ordered exactly as the naive per-constraint checker would order them
  (constraints in Σ order, pattern rows in tableau order, groups/tuples in
  scan order), so it is a drop-in replacement.
* :func:`execute_plan` with ``mode="count"`` — the count-only fast path: a
  :class:`DetectionSummary` with totals and per-constraint counts, without
  constructing a single violation object or group tuple list.
* :func:`plan_has_violation` — the laziest mode: returns as soon as any
  scan group surfaces one violation, for ``is_clean``-style questions.

Scans are *columnar*: instead of a per-tuple Python loop rebuilding
projection tuples with ``tuple(values[i] for i in positions)``, every
projection key list is built once per ``(relation, positions)`` with
``zip`` over :meth:`~repro.relational.instance.RelationInstance.columns`
(C-speed tuple construction), shared across every scan unit that needs it,
and — when a :class:`~repro.engine.cache.ScanCache` is supplied — memoized
against the relation's mutation version so a re-check of unchanged data
skips the scan entirely and replays the cached hit lists.

Each scan unit is a map over the relation's rows producing a state and
a finalize that evaluates the plan's tasks against it
(:mod:`repro.engine.shards`); the carry-forward (:mod:`repro.engine.carry`)
runs the same kernels over the rows a batch touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.cfd import CFDViolation
from repro.core.cind import CINDViolation
from repro.core.violations import ViolationReport, constraint_labels
from repro.engine.cache import ScanCache, projection_column_keys
from repro.engine.carry import carry_forward
from repro.engine.planner import (
    CFDScanGroup,
    CINDRowTask,
    DetectionPlan,
    WitnessSpec,
)
from repro.engine.shards import (
    cfd_finalize,
    cfd_map_shard,
    cind_map_shard,
    filter_by_checks,
    instance_key_fn,
    shard_key_fn,
    witness_map_shard,
)
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple


@dataclass
class DetectionSummary:
    """Violation counts without materialized violation objects."""

    cfd_total: int = 0
    cind_total: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.cfd_total + self.cind_total

    @property
    def is_clean(self) -> bool:
        return self.total == 0

    def by_constraint(self) -> dict[str, int]:
        """Counts per stable constraint label (``ViolationReport`` parity)."""
        return dict(self.counts)

    def __repr__(self) -> str:
        return (
            f"<DetectionSummary {self.total} violation(s): "
            f"{self.cfd_total} CFD, {self.cind_total} CIND>"
        )


# -- shared scan primitives ---------------------------------------------------


def witness_sets(
    instance: RelationInstance,
    specs: list[WitnessSpec],
    cache: ScanCache | None = None,
) -> dict[WitnessSpec, set[tuple[Any, ...]]]:
    """Witness key sets for every spec of *instance* (columnar, memoized).

    Each spec's set holds the ``Y``-projections of the tuples whose ``Yp``
    projection matches the spec's pattern constants. Specs sharing ``Y``
    positions share one projection key list.
    """
    results: dict[WitnessSpec, set[tuple[Any, ...]]] = {}
    version = instance.version
    cold: list[WitnessSpec] = []
    for spec in specs:
        if cache is not None:
            cached = cache.witness_set(spec, version)
            if cached is not None:
                results[spec] = cached
                continue
        cold.append(spec)
    if cold:
        # Map the whole relation (projection lists cache-memoized when
        # possible).
        sets = witness_map_shard(
            cold, instance.columns(), instance_key_fn(instance, cache)
        )
        for spec, out in zip(cold, sets):
            results[spec] = out
            if cache is not None:
                cache.store_witness_set(spec, version, out)
    return results


# -- CFD evaluation ------------------------------------------------------------


def cfd_group_hits(
    group: CFDScanGroup,
    instance: RelationInstance,
    cache: ScanCache | None = None,
) -> list[tuple[Any, tuple[Any, ...], str]]:
    """One shared scan of *group*: every violating ``(task, key, kind)``.

    Tasks appear in group order and keys in scan (first-occurrence) order —
    the naive checker's order. The ``X`` key is projected once per tuple,
    and RHS values are compared only under keys that repeat (see
    :func:`~repro.engine.shards.cfd_map_shard`). With a cache, the whole
    hit list is memoized against the relation version.

    One :func:`~repro.engine.shards.cfd_map_shard` over the whole
    relation, then :func:`~repro.engine.shards.cfd_finalize`.
    """
    version = instance.version
    if cache is not None:
        cached = cache.cfd_hits(group, version)
        if cached is not None:
            return cached

    state = cfd_map_shard(
        group, instance.columns(), instance_key_fn(instance, cache)
    )
    hits = cfd_finalize(group, state)

    if cache is not None:
        cache.store_cfd_hits(group, version, hits)
    return hits


# -- CIND evaluation ---------------------------------------------------------


def cind_scan_buckets(
    tasks: list[CINDRowTask],
    instance: RelationInstance,
    witnesses: dict[WitnessSpec, set[tuple[Any, ...]]],
) -> list[list[int]]:
    """One columnar pass over an LHS relation: the violating row ids of
    each task (aligned with *tasks*, each in row order).

    One :func:`~repro.engine.shards.cind_map_shard` over the whole
    relation with row ids as the per-row payload; witness key sets come
    from :func:`witness_sets`, and tasks sharing ``X`` positions share
    one projection key list."""
    columns = instance.columns()
    rowids = instance.row_ids()
    return cind_map_shard(
        tasks, columns, rowids, witnesses, shard_key_fn(columns, len(rowids))
    )


def cind_task_violations(
    tasks: list[CINDRowTask],
    buckets: list[list[int]],
    view: Callable[[int], Tuple],
) -> list[CINDViolation]:
    """One violation per row id of each task's bucket, task-major (so
    each task's violations are the segment aligned with its bucket);
    *view* gives a row id's tuple. These are the objects a scan stores
    in the cache and every report reuses."""
    return [
        CINDViolation(
            cind=task.cind, pattern_index=task.row_index, tuple_=view(rowid)
        )
        for task, bucket in zip(tasks, buckets)
        for rowid in bucket
    ]


def _cind_any_hit(
    tasks: list[CINDRowTask],
    instance: RelationInstance,
    witnesses: dict[WitnessSpec, set[tuple[Any, ...]]],
) -> bool:
    """True at the *first* violating (task, tuple) pair — the early-exit
    variant of :func:`cind_scan_buckets`, which materializes each
    signature's full hit list and would scan a dirty relation to the end
    before the caller could stop."""
    columns = instance.columns()
    rows = range(len(instance))
    key_lists: dict[tuple[int, ...], list] = {}
    seen: set[tuple] = set()
    for task in tasks:
        signature = (task.lhs_checks, task.x_positions, task.witness)
        if signature in seen:
            continue
        seen.add(signature)
        witness = witnesses[task.witness]
        if not task.x_positions:
            if () not in witness and any(
                True
                for __ in filter_by_checks(columns, task.lhs_checks, rows)
            ):
                return True
            continue
        x_keys = key_lists.get(task.x_positions)
        if x_keys is None:
            x_keys = key_lists[task.x_positions] = projection_column_keys(
                columns, task.x_positions, len(rows)
            )
        if any(
            key not in witness
            for key, __ in filter_by_checks(
                columns, task.lhs_checks, zip(x_keys, rows)
            )
        ):
            return True
    return False


def _cind_relation_hits(
    relation: str,
    tasks: list[CINDRowTask],
    db: DatabaseInstance,
    witnesses: dict[WitnessSpec, set[tuple[Any, ...]]],
    cache: ScanCache | None,
) -> tuple[list[CINDViolation], list[list[int]]]:
    """One LHS relation's task-major violations and per-task row-id
    buckets, memoized against the LHS version *and* the witness-side
    relation versions (a witness mutation invalidates)."""
    instance = db[relation]
    if cache is not None:
        version = instance.version
        deps = cache.cind_deps(tasks, db.version_of)
        cached = cache.cind_hits(relation, version, deps)
        if cached is not None:
            return cached
    buckets = cind_scan_buckets(tasks, instance, witnesses)
    violations = cind_task_violations(tasks, buckets, instance.view)
    if cache is not None:
        cache.store_cind_hits(relation, version, deps, violations, buckets)
    return violations, buckets


def _all_witnesses(
    plan: DetectionPlan, db: DatabaseInstance, cache: ScanCache | None = None
) -> dict[WitnessSpec, set[tuple[Any, ...]]]:
    witnesses: dict[WitnessSpec, set[tuple[Any, ...]]] = {}
    for relation, specs in plan.witness_specs.items():
        witnesses.update(witness_sets(db[relation], specs, cache))
    return witnesses


# -- report assembly ----------------------------------------------------------
#
# Scans fill per-task buckets; assembly orders them by the plan's task lists
# (constraints in Σ order, pattern rows in tableau order), reproducing the
# naive checker's output order no matter which order the scans ran in.


def assemble_report(
    plan: DetectionPlan,
    cfd_buckets: dict[int, list[CFDViolation]],
    cind_buckets: dict[int, list[CINDViolation]],
) -> ViolationReport:
    """Order per-task violation buckets (keyed by ``id(task)``) into a report."""
    cfd_violations: list[CFDViolation] = []
    for task in plan.cfd_tasks:
        cfd_violations.extend(cfd_buckets.get(id(task), ()))
    cind_violations: list[CINDViolation] = []
    for task in plan.cind_tasks:
        cind_violations.extend(cind_buckets.get(id(task), ()))
    return ViolationReport(
        cfd_violations, cind_violations, constraints=plan.sigma
    )


def assemble_summary(
    plan: DetectionPlan,
    cfd_counts: dict[int, int],
    cind_counts: dict[int, int],
) -> DetectionSummary:
    """Build a :class:`DetectionSummary` from per-constraint-index counts."""
    sigma = plan.sigma
    labels = constraint_labels(sigma)
    by_constraint: dict[str, int] = {}
    for cfd_index, count in cfd_counts.items():
        label = labels[id(sigma.cfds[cfd_index])]
        by_constraint[label] = by_constraint.get(label, 0) + count
    for cind_index, count in cind_counts.items():
        label = labels[id(sigma.cinds[cind_index])]
        by_constraint[label] = by_constraint.get(label, 0) + count
    return DetectionSummary(
        cfd_total=sum(cfd_counts.values()),
        cind_total=sum(cind_counts.values()),
        counts=by_constraint,
    )


# -- top-level execution ------------------------------------------------------


def _check_cache(
    plan: DetectionPlan, cache: ScanCache | None, db: DatabaseInstance
) -> None:
    if cache is None:
        return
    if cache.plan is not plan:
        raise ValueError(
            "ScanCache is bound to a different DetectionPlan; build one "
            "cache per plan (its entries reference the plan's task objects)"
        )
    if cache.db is None:
        cache.db = db
    elif cache.db is not db:
        raise ValueError(
            "ScanCache is bound to a different DatabaseInstance; its "
            "entries are keyed by relation name + version, which only "
            "identify data within one database"
        )


def execute_plan(
    plan: DetectionPlan,
    db: DatabaseInstance,
    mode: str = "full",
    cache: ScanCache | None = None,
) -> ViolationReport | DetectionSummary:
    """Run every shared scan of *plan* against *db*.

    ``mode="full"`` returns a :class:`ViolationReport` identical (including
    list order) to the naive per-constraint evaluation; ``mode="count"``
    returns a :class:`DetectionSummary` without materializing violations.

    With a :class:`~repro.engine.cache.ScanCache` (bound to *plan*), scan
    results are memoized per relation version: a re-check over unchanged
    data replays cached hit lists instead of scanning, and both modes share
    the same entries.
    """
    if mode not in ("full", "count"):
        raise ValueError(f"mode must be 'full' or 'count', got {mode!r}")
    _check_cache(plan, cache, db)

    try:
        if cache is not None:
            carry_forward(plan, db, cache)
        cfd_hits = [
            (group, cfd_group_hits(group, db[group.relation], cache))
            for group in plan.cfd_groups
        ]
        witnesses = _all_witnesses(plan, db, cache)
        cind_hits = [
            (relation, *_cind_relation_hits(relation, tasks, db, witnesses, cache))
            for relation, tasks in plan.cind_scans.items()
        ]
        if cache is not None:
            cache.mark_synced(plan, db.version_of)
        return assemble_from_hits(
            plan, cfd_hits, cind_hits, mode, memory_group_rows(db, cache)
        )
    finally:
        if cache is not None:
            cache.release_projections()


if TYPE_CHECKING:
    #: ``(scan group, its violating keys) -> {key: the key's group rows}``:
    #: how a backend gives assembly the tuples of violating CFD groups
    #: (the mapping may hold more keys).
    GroupRows = Callable[
        [CFDScanGroup, Iterable[tuple[Any, ...]]], Mapping[tuple[Any, ...], Any]
    ]


def memory_group_rows(db: DatabaseInstance, cache: ScanCache | None) -> GroupRows:
    """The in-memory :data:`GroupRows`: each key's group from the
    relation's hash index — insertion-ordered, exactly the scan's group-by
    bucket — as a :class:`~repro.relational.instance.RowGroup` over the
    stored value tuples (no view is built); with a cache, kept in the
    group's report memo at the relation's version."""

    def group_rows(
        group: CFDScanGroup, keys: Iterable[tuple[Any, ...]]
    ) -> Mapping[tuple[Any, ...], Any]:
        instance = db[group.relation]
        memo = (
            cache.cfd_group_tuples(group, instance.version)
            if cache is not None
            else {}
        )
        for key in keys:
            if key not in memo:
                memo[key] = instance.group_rows(group.lhs, key)
        return memo

    return group_rows


def assemble_from_hits(
    plan: DetectionPlan,
    cfd_hits: list[tuple[CFDScanGroup, list[tuple[Any, tuple[Any, ...], str]]]],
    cind_hits: list[tuple[str, list[CINDViolation], list[list[int]]]],
    mode: str,
    group_rows: GroupRows,
) -> ViolationReport | DetectionSummary:
    """Build the requested result shape from per-scan-unit hit lists.

    The one assembly of every scan-cache backend: *cfd_hits* are each
    CFD scan group's ``(task, key, kind)`` hits, *cind_hits* each CIND
    LHS relation's task-major violations with its per-task row-id
    buckets (aligned with the plan's task list of the relation), and
    *group_rows* the backend's lookup of a violating CFD group's tuples.
    Full mode builds one :class:`~repro.core.cfd.CFDViolation` per CFD
    hit and slices each task's CIND violations into the report as they
    stand; count mode counts CFD hits and sums bucket lengths. Neither
    does per-hit Python work for CIND, so a warm report costs
    O(tasks + CFD violations).

    The report's lists are its own, but its CIND violation objects are
    the cached ones, shared with the session and with later reports.
    """
    if mode == "count":
        cfd_counts: dict[int, int] = {}
        for __, hits in cfd_hits:
            for task, __k, __kind in hits:
                cfd_counts[task.cfd_index] = cfd_counts.get(task.cfd_index, 0) + 1
        cind_counts: dict[int, int] = {}
        for relation, __, buckets in cind_hits:
            for task, bucket in zip(plan.cind_scans[relation], buckets):
                if bucket:
                    cind_counts[task.cind_index] = (
                        cind_counts.get(task.cind_index, 0) + len(bucket)
                    )
        return assemble_summary(plan, cfd_counts, cind_counts)

    cfd_buckets: dict[int, list[CFDViolation]] = {}
    for group, hits in cfd_hits:
        if not hits:
            continue
        groups = group_rows(group, dict.fromkeys(key for __, key, __k in hits))
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
    for relation, violations, buckets in cind_hits:
        start = 0
        for task, bucket in zip(plan.cind_scans[relation], buckets):
            end = start + len(bucket)
            cind_buckets[id(task)] = violations[start:end]
            start = end
    return assemble_report(plan, cfd_buckets, cind_buckets)


def plan_has_violation(
    plan: DetectionPlan,
    db: DatabaseInstance,
    cache: ScanCache | None = None,
) -> bool:
    """Early-exit check: does *db* violate any constraint of the plan?

    Scans are still shared; the function returns at the first scan unit
    that surfaces a violation. With a cache, warm units answer from their
    memoized hit lists and cold units' full results are stored — so a
    clean verdict leaves the cache fully warmed for the next call.
    """
    _check_cache(plan, cache, db)
    try:
        if cache is not None:
            carry_forward(plan, db, cache)
        for group in plan.cfd_groups:
            if cfd_group_hits(group, db[group.relation], cache):
                return True
        witnesses = _all_witnesses(plan, db, cache)
        for relation, tasks in plan.cind_scans.items():
            instance = db[relation]
            if cache is not None:
                deps = cache.cind_deps(tasks, db.version_of)
                hits = cache.cind_hits(relation, instance.version, deps)
                if hits is not None:
                    if hits[0]:
                        return True
                    continue
            if _cind_any_hit(tasks, instance, witnesses):
                # Dirty: stop at the first violating pair — don't pay for
                # the full hit list a mutating caller would never reuse.
                return True
            if cache is not None:
                # A clean early-exit scan *proves* the full hit list is
                # empty, so the cache can be warmed at no extra cost.
                cache.store_cind_hits(
                    relation, instance.version, deps, [], [[] for __ in tasks]
                )
        if cache is not None:
            cache.mark_synced(plan, db.version_of)
        return False
    finally:
        if cache is not None:
            cache.release_projections()
