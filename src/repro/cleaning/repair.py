"""Round-batched heuristic repair of CFD/CIND violations.

Constraint-based repairing (the paper's related work [8, 13]) finds a
database close to the original that satisfies Σ. We implement the two
classic local moves, iterated to a fixpoint:

* **CFD repairs** — value modification. For a single-tuple violation
  (constant RHS pattern), rewrite the offending tuple's RHS attribute to
  the pattern constant. For a pair violation (wildcard RHS), rewrite the
  minority tuples of the group to the group's most frequent RHS value
  (cost = number of changed cells, following [8]'s cost intuition).
  Majority ties break by explicit policy (``tie_break=``, see
  :class:`~repro.cleaning.planner.RepairPlanner`).
* **CIND repairs** — by policy, either *insert* the missing witness tuple
  on the RHS (``policy="insert"``; unconstrained columns take values from
  a fill function) or *delete* the violating LHS tuple
  (``policy="delete"``, the minimal-change tuple-deletion semantics of
  [13]).

The engine is **round-batched**. Each round, the full worklist of
current violations is planned up front
(:class:`~repro.cleaning.planner.RepairPlanner`) and applied as *one*
``Session.apply`` batch, where the historical loop paid one apply per
violated group. Every worklist is the report of one ``memory`` session
over the working copy: after a batch, its ``check()`` carries the scan
cache forward by the rows the batch changed, so it re-evaluates only the
CFD groups, witness keys and CIND rows the round touched. That is also
the planner's precondition (:meth:`~repro.cleaning.planner.RepairPlanner.plan_round`):
each worklist lists violations of the database the planner reads, as it
stands when the round is planned, so a CIND item's witness can only come
from the round's own planned inserts. The worklist is
in the engine's report order (constraints in Σ order, pattern rows in
tableau order, groups and tuples in scan order), so the engine produces
final databases bit-identical to the historical eager loop; the
benchmark (``benchmarks/bench_repair.py``) and the property suite hold
it to that.

Repairing is not confluent and may not terminate on adversarial Σ (repair
moves can re-violate other constraints), so rounds are capped; the result
reports whether a clean database was reached and — truthfully — how many
repair rounds actually executed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.cleaning.planner import (
    CFDWork,
    CINDWork,
    RepairEdit,
    RepairPlanner,
    WorkItem,
    default_fill,
)
from repro.core.violations import ConstraintSet, ViolationReport, constraint_labels
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import RelationSchema


@dataclass
class RoundStats:
    """Observability record for one executed repair round.

    ``worklist_s`` is the check that built the round's worklist,
    ``plan_s`` the planning of its batch, ``apply_s`` the batch itself
    and ``after_s`` the carried check after it (the next round's
    ``worklist_s``, or the verdict of the last round).
    ``delta_removed``/``delta_added`` are the violations the batch
    resolved and introduced, and ``cache_hits``/``cache_misses`` the scan
    units the check after the batch answered from the carried cache or
    re-scanned.
    """

    round_no: int
    worklist_size: int
    cfd_items: int
    cind_items: int
    edits: dict[str, int]
    batch_deletes: int
    batch_inserts: int
    applied_deletes: int
    applied_inserts: int
    cache_hits: int
    cache_misses: int
    worklist_s: float
    plan_s: float
    apply_s: float
    after_s: float
    delta_removed: int
    delta_added: int


@dataclass
class RepairResult:
    db: DatabaseInstance
    edits: list[RepairEdit] = field(default_factory=list)
    clean: bool = False
    rounds: int = 0
    round_stats: list[RoundStats] = field(default_factory=list)

    @property
    def cost(self) -> int:
        """Number of edit operations applied."""
        return len(self.edits)

    def edits_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for edit in self.edits:
            out[edit.kind] = out.get(edit.kind, 0) + 1
        return out


def replay_edits(db: DatabaseInstance, edits: list[RepairEdit]) -> DatabaseInstance:
    """Apply a repair edit log to a copy of *db* and return it.

    Replay is uniform across edit kinds: discard ``before``, add
    ``after``. Replaying ``RepairResult.edits`` onto a fresh copy of the
    repair input reproduces ``RepairResult.db`` exactly, including
    relation iteration order — the property suite holds repair to this.
    """
    out = db.copy()
    for edit in edits:
        instance = out[edit.relation]
        if edit.before is not None:
            instance.discard(edit.before)
        if edit.after is not None:
            instance.add(edit.after)
    return out


def _worklist(report: ViolationReport, labels: dict[int, str]) -> list[WorkItem]:
    """One work item per violation, in report order."""
    items: list[WorkItem] = [
        CFDWork(
            cfd=v.cfd,
            pattern_index=v.pattern_index,
            label=labels[id(v.cfd)],
            group=tuple(v.tuples),
        )
        for v in report.cfd_violations
    ]
    items.extend(
        CINDWork(
            cind=v.cind,
            pattern_index=v.pattern_index,
            label=labels[id(v.cind)],
            tuple_=v.tuple_,
        )
        for v in report.cind_violations
    )
    return items


def _work_signatures(worklist: list[WorkItem]) -> set[tuple]:
    """Stable identities of worklist items, for violation-delta sizing."""
    out: set[tuple] = set()
    for item in worklist:
        if isinstance(item, CFDWork):
            key = item.group[0].project(item.cfd.lhs) if item.group else ()
            out.add(("cfd", item.label, item.pattern_index, key))
        else:
            out.add(("cind", item.label, item.pattern_index, item.tuple_))
    return out


def repair(
    db: DatabaseInstance | str | Path,
    sigma: ConstraintSet,
    cind_policy: str = "insert",
    max_rounds: int = 10,
    rng: random.Random | None = None,
    fill: Callable[[RelationSchema, str, list[int]], Any] | None = None,
    workers: int = 1,
    tie_break: str = "first",
) -> RepairResult:
    """Iteratively repair *db* (on a copy) until clean or out of rounds.

    ``db`` may be a :class:`DatabaseInstance` or the path of a sqlite
    database file; a file is loaded read-only (never mutated) and the
    repair runs on the loaded copy.

    ``tie_break`` makes CFD majority-vote ties explicit: ``"first"``
    (default; first tied value in group scan order — the historical
    behaviour), ``"lexicographic"`` (smallest under a type-stable key),
    or ``"random"`` (drawn with *rng*, the only use of it; a default
    ``random.Random(0)`` keeps even that deterministic run-to-run).

    ``rounds`` on the result is the number of repair rounds that actually
    executed — reaching the fixpoint early no longer misreports the
    round cap, and ``max_rounds <= 0`` truthfully reports ``0``. ``clean``
    is the verdict of the check after the last round.

    ``workers > 1`` runs each round's detection with parallel scan-group
    dispatch (see :mod:`repro.api.parallel`).
    """
    from repro.api import ExecutionOptions, connect

    if isinstance(db, (str, Path)):
        from repro.sql.loader import read_database_file

        work = read_database_file(db, sigma.schema)
    else:
        work = db.copy()

    labels = constraint_labels(list(sigma))
    planner = RepairPlanner(
        work,
        cind_policy=cind_policy,
        fill=fill,
        counter=[0],
        tie_break=tie_break,
        rng=rng,
    )
    edits: list[RepairEdit] = []
    stats: list[RoundStats] = []
    perf = time.perf_counter
    with connect(
        work, sigma, options=ExecutionOptions(workers=workers)
    ) as session:
        cache = session.backend.cache
        start = perf()
        worklist = _worklist(session.check(), labels)
        worklist_s = perf() - start
        while worklist and len(stats) < max_rounds:
            start = perf()
            plan = planner.plan_round(worklist)
            plan_s = perf() - start
            if plan.is_empty:
                # Defensive: violations remain but nothing is plannable.
                # Unreachable from a fresh worklist with the current
                # repair moves; the truthful round count still holds.
                break
            start = perf()
            applied = session.apply(inserts=plan.inserts, deletes=plan.deletes)
            apply_s = perf() - start
            edits.extend(plan.edits)
            hits, misses = cache.hits, cache.misses
            start = perf()
            after = _worklist(session.check(), labels)
            after_s = perf() - start
            before_sigs, after_sigs = (
                _work_signatures(worklist), _work_signatures(after)
            )
            cfd_items = sum(1 for item in worklist if isinstance(item, CFDWork))
            stats.append(
                RoundStats(
                    round_no=len(stats) + 1,
                    worklist_size=len(worklist),
                    cfd_items=cfd_items,
                    cind_items=len(worklist) - cfd_items,
                    edits=plan.counts_by_kind(),
                    batch_deletes=len(plan.deletes),
                    batch_inserts=len(plan.inserts),
                    applied_deletes=applied.deleted,
                    applied_inserts=applied.inserted,
                    cache_hits=cache.hits - hits,
                    cache_misses=cache.misses - misses,
                    worklist_s=worklist_s,
                    plan_s=plan_s,
                    apply_s=apply_s,
                    after_s=after_s,
                    delta_removed=len(before_sigs - after_sigs),
                    delta_added=len(after_sigs - before_sigs),
                )
            )
            worklist, worklist_s = after, after_s
    return RepairResult(
        work, edits, clean=not worklist, rounds=len(stats), round_stats=stats
    )


__all__ = [
    "RepairEdit",
    "RepairResult",
    "RoundStats",
    "default_fill",
    "repair",
    "replay_edits",
]
