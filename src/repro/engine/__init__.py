"""Shared-scan violation detection engine (planner + executor).

Table 1/2 of the paper are detection workloads: find every CFD/CIND
violation over instances of up to hundreds of thousands of tuples. The
per-constraint reference evaluation
(:func:`repro.core.violations.check_database_naive`, built on
``CFD.iter_violations`` / ``CIND.iter_violations``) re-scans the data once
per pattern row — ``Σ`` with many constraints on the same relation costs
``|Σ| · |tableau|`` relation scans. This package computes each shared
grouping/semijoin **once** and lets every constraint that needs it read the
result, in the "reuse results of nested subproblems" spirit of Russian Doll
Search.

Plan/execute split
------------------
Detection runs in two phases with an explicit intermediate artifact:

1. **Plan** (:func:`~repro.engine.planner.plan_detection`): compile a
   :class:`~repro.core.violations.ConstraintSet` into a
   :class:`~repro.engine.planner.DetectionPlan` —

   * CFDs bucketed by ``(relation, X)``: one scan group per distinct LHS
     attribute list; every pattern row of every CFD in the bucket becomes a
     :class:`~repro.engine.planner.CFDRowTask` over the shared group-by;
   * CIND pattern rows bucketed by ``(R2, Y, Yp, tp[Yp])`` into
     deduplicated :class:`~repro.engine.planner.WitnessSpec`\\ s (one
     semijoin key-set each) plus per-LHS-relation scan lists of
     :class:`~repro.engine.planner.CINDRowTask`\\ s;
   * all pattern matching precompiled to ``(position, constant)`` checks.

   Plans are immutable: build once per Σ, execute against many instances
   (the repair loop and the benchmarks do exactly this).

2. **Execute** (:func:`~repro.engine.executor.execute_plan`): walk each
   relation once per scan group / witness bucket and evaluate every task
   against the shared state. Scans are *columnar*: projection key lists
   are built with ``zip`` over the relation's lazily materialized,
   mutation-versioned column view (one C-speed pass per distinct
   ``(relation, positions)``), and structurally identical tasks are
   evaluated once and replicated. Output ordering matches the naive
   checker exactly, so ``detect(db, sigma)`` is a drop-in replacement.

Versioned scan caches
---------------------
:class:`~repro.engine.cache.ScanCache` (one per plan, owned by the
session/backend) memoizes every scan unit's result against the relation
mutation versions it was computed from: repeated ``check``/``count``/
``is_clean`` calls over unchanged data replay cached hit lists — a CIND
entry holds its violation objects, which every report reuses — in time
proportional to the tasks and the CFD violations. After a session's own
DML the entries are carried forward by the touched keys instead of
re-scanned (:mod:`repro.engine.carry`), which also yields the report's
position-tagged delta. See :mod:`repro.engine.cache` for the BRAVO-style
fast-read-path rationale.

Count-only fast path
--------------------
``execute_plan(plan, db, mode="count")`` (or :func:`count_violations`)
answers ``total`` / ``is_clean`` / per-constraint-count questions without
materializing a single ``CFDViolation``/``CINDViolation`` object — the CFD
scans keep only RHS-projection sets per group key, never tuple lists.
:func:`database_is_clean` goes further and returns at the first violation
found. The cross-validation suite (``tests/test_engine_cross.py``) checks
all modes against the naive oracle on randomized instances.
"""

from __future__ import annotations

from repro.core.violations import ConstraintSet, ViolationReport
from repro.engine.cache import ScanCache, projection_column_keys
from repro.engine.carry import ReportDelta, carry_forward
from repro.engine.executor import (
    DetectionSummary,
    assemble_report,
    assemble_summary,
    cfd_group_hits,
    cind_scan_hits,
    execute_plan,
    plan_has_violation,
    witness_sets,
)
from repro.engine.planner import (
    CFDRowTask,
    CFDScanGroup,
    CINDRowTask,
    DetectionPlan,
    PruneMap,
    WitnessSpec,
    attribute_positions,
    compile_checks,
    passes,
    plan_detection,
)
from repro.engine.shards import (
    CFDGroupState,
    CINDScanState,
    WitnessState,
    cfd_finalize,
    cfd_map_shard,
    cind_map_shard,
    witness_map_shard,
)
from repro.relational.instance import DatabaseInstance

__all__ = [
    "CFDGroupState",
    "CFDRowTask",
    "CFDScanGroup",
    "CINDRowTask",
    "CINDScanState",
    "DetectionPlan",
    "DetectionSummary",
    "PruneMap",
    "ReportDelta",
    "ScanCache",
    "WitnessSpec",
    "WitnessState",
    "assemble_report",
    "assemble_summary",
    "attribute_positions",
    "carry_forward",
    "cfd_finalize",
    "cfd_group_hits",
    "cfd_map_shard",
    "cind_map_shard",
    "cind_scan_hits",
    "compile_checks",
    "count_violations",
    "database_is_clean",
    "detect",
    "execute_plan",
    "passes",
    "plan_detection",
    "plan_has_violation",
    "projection_column_keys",
    "witness_map_shard",
    "witness_sets",
]


def detect(db: DatabaseInstance, sigma: ConstraintSet) -> ViolationReport:
    """Plan + execute: the shared-scan equivalent of ``check_database``."""
    return execute_plan(plan_detection(sigma), db, mode="full")


def count_violations(
    db: DatabaseInstance, sigma: ConstraintSet
) -> DetectionSummary:
    """Count-only fast path: totals per constraint, no violation objects."""
    return execute_plan(plan_detection(sigma), db, mode="count")


def database_is_clean(db: DatabaseInstance, sigma: ConstraintSet) -> bool:
    """``D |= Σ`` via shared scans with early exit on the first violation."""
    return not plan_has_violation(plan_detection(sigma), db)
