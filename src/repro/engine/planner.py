"""Shared-scan detection planner.

The naive checker (`repro.core.violations.check_database_naive`) evaluates
each constraint independently: every pattern row of every CFD rebuilds the
full ``X``-projection group-by of its relation, and every CIND row probes a
witness per LHS tuple. On a Σ with many constraints per relation this
re-scans the same data ``|Σ| · |tableau|`` times.

The planner turns a :class:`~repro.core.violations.ConstraintSet` into a
:class:`DetectionPlan` whose unit of work is a *scan*, not a constraint:

* **CFD scan groups** — CFDs are bucketed by ``(relation, X)``. One pass
  over the relation builds the ``X``-projection group-by that every pattern
  row of every CFD in the bucket then consumes (iterating distinct group
  keys, not tuples).
* **CIND witness specs** — pattern rows are bucketed by
  ``(R2, Y, Yp, tp[Yp])``. One pass over ``R2`` per relation computes, for
  every spec at once, the set of ``Y``-projections that have a
  ``Yp``-matching witness. LHS rows sharing a spec then test tuples by set
  membership instead of per-tuple index lookup + linear ``Yp`` filtering.
* **CIND LHS scan lists** — pattern rows are bucketed by LHS relation so
  the executor walks each LHS relation once, evaluating every row against
  each tuple with precompiled positional checks (no per-row
  ``Tuple.project`` calls).

Pattern rows are precompiled into ``(position, constant)`` check lists
(wildcards are dropped — they match everything, including chase variables,
exactly as :func:`repro.core.patterns.matches` specifies), so the hot loop
is plain tuple indexing and ``==``.

Plans are immutable and reusable: build once per Σ, execute against any
instance (see :mod:`repro.engine.executor`).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet
from repro.relational.schema import RelationSchema
from repro.relational.values import is_wildcard

#: Precompiled pattern: ``(position, constant)`` pairs; a value sequence
#: passes when every listed position equals its constant.
Checks = tuple[tuple[int, Any], ...]


def attribute_positions(
    relation: RelationSchema, attributes: Iterable[str]
) -> tuple[int, ...]:
    """Positions of *attributes* within the relation's value tuples."""
    return relation.positions_of(attributes)


def compile_checks(
    pattern_values: Sequence[Any], positions: Sequence[int]
) -> Checks:
    """Precompile a pattern projection into ``(position, constant)`` pairs.

    Wildcard entries are dropped: ``_`` matches every value (constants and
    chase variables alike), so only constant entries constrain anything.
    """
    return tuple(
        (p, v) for p, v in zip(positions, pattern_values) if not is_wildcard(v)
    )


def passes(values: Sequence[Any], checks: Checks) -> bool:
    """Does the value sequence satisfy every precompiled check?"""
    for position, constant in checks:
        if values[position] != constant:
            return False
    return True


class CFDRowTask:
    """One (CFD, pattern row) pair inside a CFD scan group.

    ``key_checks`` constrain the shared group key (positions relative to the
    group's ``X`` projection); ``rhs_checks`` constrain a tuple's ``Y``
    projection (positions relative to ``rhs_positions``).
    """

    __slots__ = (
        "cfd",
        "cfd_index",
        "row_index",
        "key_checks",
        "rhs_positions",
        "rhs_checks",
    )

    def __init__(
        self,
        cfd: CFD,
        cfd_index: int,
        row_index: int,
        key_checks: Checks,
        rhs_positions: tuple[int, ...],
        rhs_checks: Checks,
    ):
        self.cfd = cfd
        self.cfd_index = cfd_index
        self.row_index = row_index
        self.key_checks = key_checks
        self.rhs_positions = rhs_positions
        self.rhs_checks = rhs_checks


class CFDScanGroup:
    """All (CFD, row) tasks that share one ``(relation, X)`` group-by."""

    __slots__ = ("relation", "lhs", "lhs_positions", "tasks")

    def __init__(self, relation: str, lhs: tuple[str, ...], lhs_positions: tuple[int, ...]):
        self.relation = relation
        self.lhs = lhs
        self.lhs_positions = lhs_positions
        self.tasks: list[CFDRowTask] = []

    def rhs_variants(self) -> list[tuple[int, ...]]:
        """Distinct RHS position tuples needed by this group's tasks."""
        return list(dict.fromkeys(task.rhs_positions for task in self.tasks))

    def __repr__(self) -> str:
        return (
            f"<CFDScanGroup {self.relation}[{', '.join(self.lhs)}] "
            f"{len(self.tasks)} row task(s)>"
        )


class WitnessSpec:
    """One shared witness computation: ``(R2, Y, Yp, tp[Yp])``.

    Executing a spec yields the set of ``Y``-projections of ``R2`` tuples
    whose ``Yp`` projection matches the pattern constants. Every CIND row
    with the same spec key reads the same set.
    """

    __slots__ = ("rhs_relation", "y", "y_positions", "yp_checks")

    def __init__(
        self,
        rhs_relation: str,
        y: tuple[str, ...],
        y_positions: tuple[int, ...],
        yp_checks: Checks,
    ):
        self.rhs_relation = rhs_relation
        self.y = y
        self.y_positions = y_positions
        self.yp_checks = yp_checks

    def __repr__(self) -> str:
        return (
            f"<WitnessSpec {self.rhs_relation}[{', '.join(self.y) or 'nil'}] "
            f"{len(self.yp_checks)} Yp check(s)>"
        )


class CINDRowTask:
    """One (CIND, pattern row) pair, bound to its shared witness spec.

    ``lhs_checks`` use *absolute* positions into LHS value tuples (they
    cover ``X ∪ Xp``); ``x_positions`` project the embedded-IND key that is
    tested against the witness set.
    """

    __slots__ = (
        "cind",
        "cind_index",
        "row_index",
        "lhs_checks",
        "x_positions",
        "witness",
    )

    def __init__(
        self,
        cind: CIND,
        cind_index: int,
        row_index: int,
        lhs_checks: Checks,
        x_positions: tuple[int, ...],
        witness: WitnessSpec,
    ):
        self.cind = cind
        self.cind_index = cind_index
        self.row_index = row_index
        self.lhs_checks = lhs_checks
        self.x_positions = x_positions
        self.witness = witness


class DetectionPlan:
    """A shared-scan evaluation plan for one constraint set.

    Attributes
    ----------
    sigma:
        The planned constraint set (kept for labels and output ordering).
    cfd_groups:
        CFD scan groups in first-seen ``(relation, X)`` order.
    witness_specs:
        Deduplicated witness specs, bucketed by RHS relation name.
    cind_scans:
        CIND row tasks bucketed by LHS relation name.
    """

    def __init__(self, sigma: ConstraintSet):
        self.sigma = sigma
        self.cfd_groups: list[CFDScanGroup] = []
        self.witness_specs: dict[str, list[WitnessSpec]] = {}
        self.cind_scans: dict[str, list[CINDRowTask]] = {}
        #: Tasks in (constraint index, row index) order — the naive
        #: checker's output order, used to assemble identical reports.
        self.cfd_tasks: list[CFDRowTask] = []
        self.cind_tasks: list[CINDRowTask] = []

    @property
    def shared_scan_count(self) -> int:
        """Number of relation scans the executor performs."""
        return (
            len(self.cfd_groups)
            + len(self.witness_specs)
            + len(self.cind_scans)
        )

    @property
    def naive_scan_count(self) -> int:
        """Scans the per-constraint reference evaluation would perform."""
        return len(self.cfd_tasks) + 2 * len(self.cind_tasks)

    def __repr__(self) -> str:
        return (
            f"<DetectionPlan {len(self.cfd_tasks)} CFD task(s) in "
            f"{len(self.cfd_groups)} group(s), {len(self.cind_tasks)} CIND "
            f"task(s) over {sum(len(s) for s in self.witness_specs.values())} "
            f"witness spec(s)>"
        )


def plan_detection(sigma: ConstraintSet) -> DetectionPlan:
    """Compile *sigma* into a :class:`DetectionPlan` of shared scans."""
    plan = DetectionPlan(sigma)

    groups: dict[tuple[str, tuple[str, ...]], CFDScanGroup] = {}
    for cfd_index, cfd in enumerate(sigma.cfds):
        group_key = (cfd.relation.name, cfd.lhs)
        group = groups.get(group_key)
        if group is None:
            group = CFDScanGroup(
                cfd.relation.name,
                cfd.lhs,
                attribute_positions(cfd.relation, cfd.lhs),
            )
            groups[group_key] = group
            plan.cfd_groups.append(group)
        rhs_positions = attribute_positions(cfd.relation, cfd.rhs)
        for row_index, row in enumerate(cfd.tableau):
            task = CFDRowTask(
                cfd,
                cfd_index,
                row_index,
                key_checks=compile_checks(
                    row.lhs_projection(cfd.lhs), range(len(cfd.lhs))
                ),
                rhs_positions=rhs_positions,
                rhs_checks=compile_checks(
                    row.rhs_projection(cfd.rhs), range(len(cfd.rhs))
                ),
            )
            group.tasks.append(task)
            plan.cfd_tasks.append(task)

    spec_map: dict[tuple, WitnessSpec] = {}
    for cind_index, cind in enumerate(sigma.cinds):
        lhs_attrs = cind.x + cind.xp
        lhs_positions = attribute_positions(cind.lhs_relation, lhs_attrs)
        x_positions = attribute_positions(cind.lhs_relation, cind.x)
        y_positions = attribute_positions(cind.rhs_relation, cind.y)
        yp_positions = attribute_positions(cind.rhs_relation, cind.yp)
        for row_index, row in enumerate(cind.tableau):
            yp_values = row.rhs_projection(cind.yp)
            spec_key = (
                cind.rhs_relation.name,
                cind.y,
                cind.yp,
                yp_values,
            )
            spec = spec_map.get(spec_key)
            if spec is None:
                spec = WitnessSpec(
                    cind.rhs_relation.name,
                    cind.y,
                    y_positions,
                    compile_checks(yp_values, yp_positions),
                )
                spec_map[spec_key] = spec
                plan.witness_specs.setdefault(
                    cind.rhs_relation.name, []
                ).append(spec)
            task = CINDRowTask(
                cind,
                cind_index,
                row_index,
                lhs_checks=compile_checks(
                    row.lhs_projection(lhs_attrs), lhs_positions
                ),
                x_positions=x_positions,
                witness=spec,
            )
            plan.cind_scans.setdefault(cind.lhs_relation.name, []).append(task)
            plan.cind_tasks.append(task)
    return plan
