"""Delta-driven heuristic repair of CFD/CIND violations.

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

The engine is **round-batched and delta-driven**. Each round, the full
worklist of current violations is planned up front
(:class:`~repro.cleaning.planner.RepairPlanner`) and applied as *one*
``Session.apply`` batch — one cache invalidation, one sqlite transaction
on file backends — where the historical loop paid one apply per violated
group. Between rounds, the next worklist comes from one of two sources,
mirroring ``repro.serve``'s delta-source split:

* ``mode="delta"`` on the ``incremental`` backend reads the live
  checker's maintained violation state (updated in O(touched groups) by
  the batch itself — no scan ever runs); on the re-scan backends
  (``naive``/``sql``/``sqlfile``) a *shadow* incremental session mirrors
  each batch and provides the same state.
* ``mode="full"`` re-checks the session every round (the ``memory``
  backend's versioned ``ScanCache`` makes this the natural self-serve
  path, so ``mode="auto"`` picks it there).

Both sources produce the worklist in exactly the engine's report order
(constraints in Σ order, pattern rows in tableau order, groups and
tuples in scan order), so the two modes — and the historical eager loop
— produce bit-identical final databases and edit logs; the benchmark
(``benchmarks/bench_repair.py``) cross-validates this every run.

Repairing is not confluent and may not terminate on adversarial Σ (repair
moves can re-violate other constraints), so rounds are capped; the result
reports whether a clean database was reached and — truthfully — how many
repair rounds actually executed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.cleaning.planner import (
    CFDWork,
    CINDWork,
    RepairEdit,
    RepairPlanner,
    RoundPlan,
    WorkItem,
    default_fill,
)
from repro.core.violations import ConstraintSet, constraint_labels
from repro.errors import ReproError
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.relational.schema import RelationSchema

if TYPE_CHECKING:
    from repro.api.session import Session
    from repro.cleaning.incremental import IncrementalChecker

#: Backends whose own per-round re-check *is* the cheap path (versioned
#: scan cache), mirroring ``repro.serve``'s self-delta classification.
#: ``incremental`` feeds repair from its live checker instead; everything
#: else gets a shadow incremental session under ``mode="delta"``.
_SELF_CHECK_BACKENDS = frozenset({"memory"})

_MODES = ("auto", "delta", "full")


@dataclass
class RoundStats:
    """Observability record for one executed repair round.

    ``delta_removed``/``delta_added`` are the violation-delta sizes the
    round's batch caused (violations resolved / newly introduced); they
    are filled in when the *next* worklist is built and stay ``-1`` when
    that never happens (the round cap was hit on a full-scan source,
    where measuring would cost an extra check).
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
    worklist_s: float = 0.0
    apply_s: float = 0.0
    delta_removed: int = -1
    delta_added: int = -1


@dataclass
class RepairResult:
    db: DatabaseInstance
    edits: list[RepairEdit] = field(default_factory=list)
    clean: bool = False
    rounds: int = 0
    backend: str = "memory"
    mode: str = "full"
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


# -- worklist ordering --------------------------------------------------------


def _scan_order(instance: RelationInstance) -> Callable[[Tuple], float]:
    """Sort key putting tuples in *instance*'s scan order (absent last).

    The engine reports CFD group keys in first-occurrence scan order and
    CIND tuples in scan order; a checker-fed worklist has only *sets*, so
    it is ordered by row id, which ascends in scan order.
    """
    row_id = instance.row_id

    def key(t: Tuple) -> float:
        rowid = row_id(t.values)
        return math.inf if rowid is None else rowid

    return key


def _normalized_alignment(
    sigma: ConstraintSet, checker: "IncrementalChecker"
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Map the checker's normalized children back to original Σ slots.

    Returns ``(cfd_map, cind_map)`` where entry ``j`` of each list is the
    ``(original constraint index, pattern row index)`` that normalized
    child ``j`` came from. Normalization is positional and deterministic:
    ``to_normal_form`` emits one CFD child per (row, RHS attribute) in
    row-major order, ``normalize_cind`` one child per row.
    """
    cfd_map: list[tuple[int, int]] = []
    for index, cfd in enumerate(sigma.cfds):
        for row in range(len(cfd.tableau)):
            cfd_map.extend((index, row) for __ in cfd.rhs)
    cind_map: list[tuple[int, int]] = []
    for index, cind in enumerate(sigma.cinds):
        cind_map.extend((index, row) for row in range(len(cind.tableau)))
    if len(cfd_map) != len(checker.sigma.cfds) or len(cind_map) != len(
        checker.sigma.cinds
    ):
        raise ReproError(
            "normalized Σ does not align with the original constraint set "
            f"({len(cfd_map)}/{len(checker.sigma.cfds)} CFD children, "
            f"{len(cind_map)}/{len(checker.sigma.cinds)} CIND children); "
            "the repair engine's child-to-parent mapping assumes "
            "normalize_cfds/normalize_cinds emit children positionally"
        )
    return cfd_map, cind_map


class _ReportSource:
    """Full-re-scan worklists: one ``session.check()`` per round."""

    def __init__(
        self, session: "Session", labels: dict[int, str]
    ):
        self.session = session
        self.labels = labels

    def _label(self, constraint: Any) -> str:
        return (
            self.labels.get(id(constraint))
            or constraint.name
            or repr(constraint)
        )

    def worklist(self) -> list[WorkItem]:
        report = self.session.check()
        items: list[WorkItem] = []
        for cfd_violation in report.cfd_violations:
            items.append(
                CFDWork(
                    cfd=cfd_violation.cfd,
                    pattern_index=cfd_violation.pattern_index,
                    label=self._label(cfd_violation.cfd),
                    group=tuple(cfd_violation.tuples),
                )
            )
        for cind_violation in report.cind_violations:
            items.append(
                CINDWork(
                    cind=cind_violation.cind,
                    pattern_index=cind_violation.pattern_index,
                    label=self._label(cind_violation.cind),
                    tuple_=cind_violation.tuple_,
                )
            )
        return items

    def commit(self, plan: RoundPlan) -> None:
        pass  # the primary session saw the batch; next check() re-scans

    def final_clean(self) -> bool:
        # Count-only fast path: the final verdict needs no violation
        # objects, and a warm versioned cache answers it without a scan
        # when the last round changed nothing.
        return self.session.count().is_clean

    def close(self) -> None:
        pass


class _CheckerSource:
    """Delta-driven worklists from a live :class:`IncrementalChecker`.

    The checker belongs either to the primary session (``incremental``
    backend) or to a shadow incremental session mirroring the primary's
    batches (re-scan backends). Either way, the next round's worklist is
    assembled from the checker's *maintained* violation state — updated
    in O(touched groups) by the batch itself — then ordered against the
    planning instance so it is bit-identical to what a full re-scan
    would report.
    """

    def __init__(
        self,
        checker: "IncrementalChecker",
        sigma: ConstraintSet,
        plan_db: DatabaseInstance,
        labels: dict[int, str],
        shadow: "Session | None" = None,
    ):
        self.checker = checker
        self.sigma = sigma
        self.plan_db = plan_db
        self.labels = labels
        self.shadow = shadow
        self.cfd_map, self.cind_map = _normalized_alignment(sigma, checker)

    def worklist(self) -> list[WorkItem]:
        # Union the per-child violated keys into original (cfd, row) slots:
        # a multi-attribute RHS normalizes into one child per attribute,
        # and the original task's violated keys are exactly their union.
        per_task: dict[tuple[int, int], set[tuple]] = {}
        for (child, violated), slot in zip(
            self.checker.violated_cfd_groups(), self.cfd_map
        ):
            if violated:
                per_task.setdefault(slot, set()).update(violated)
        items: list[WorkItem] = []
        for index, cfd in enumerate(self.sigma.cfds):
            instance = self.plan_db[cfd.relation.name]
            label = self.labels[id(cfd)]
            for row in range(len(cfd.tableau)):
                keys = per_task.get((index, row))
                if not keys:
                    continue
                groups = {
                    key: instance.lookup(cfd.lhs, key) for key in keys
                }
                order = _scan_order(instance)
                for key in sorted(keys, key=lambda k: order(groups[k][0])):
                    items.append(
                        CFDWork(
                            cfd=cfd,
                            pattern_index=row,
                            label=label,
                            group=tuple(groups[key]),
                        )
                    )
        per_cind: dict[tuple[int, int], tuple[Tuple, ...]] = {}
        for (child, tuples), slot in zip(
            self.checker.violated_cind_entries(), self.cind_map
        ):
            if tuples:
                per_cind[slot] = tuples
        for index, cind in enumerate(self.sigma.cinds):
            order = _scan_order(self.plan_db[cind.lhs_relation.name])
            label = self.labels[id(cind)]
            for row in range(len(cind.tableau)):
                tuples = per_cind.get((index, row))
                if not tuples:
                    continue
                for t in sorted(tuples, key=order):
                    items.append(
                        CINDWork(
                            cind=cind, pattern_index=row, label=label, tuple_=t
                        )
                    )
        return items

    def commit(self, plan: RoundPlan) -> None:
        if self.shadow is not None:
            self.shadow.apply(inserts=plan.inserts, deletes=plan.deletes)

    def final_clean(self) -> bool:
        return self.checker.violation_count == 0

    def close(self) -> None:
        if self.shadow is not None:
            self.shadow.close()


# -- engine -------------------------------------------------------------------


def _resolve_mode(mode: str, backend: str) -> str:
    if mode not in _MODES:
        raise ValueError(
            f"mode must be one of {'|'.join(_MODES)}, got {mode!r}"
        )
    if mode != "auto":
        return mode
    if backend in _SELF_CHECK_BACKENDS:
        return "full"
    return "delta"


def _cache_counters(session: "Session") -> tuple[int, int]:
    cache = getattr(session.backend, "cache", None)
    if cache is None:
        cache = getattr(session.backend, "_cache", None)
    if cache is None:
        return (0, 0)
    return (getattr(cache, "hits", 0), getattr(cache, "misses", 0))


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
    backend: str = "memory",
    mode: str = "auto",
    tie_break: str = "first",
) -> RepairResult:
    """Iteratively repair *db* (on a copy) until clean or out of rounds.

    ``db`` may be a :class:`DatabaseInstance` or the path of a sqlite
    database file; file inputs are loaded (never mutated) and the repair
    runs on the copy. ``backend`` picks the detection/apply engine for
    the repair session (``sqlfile`` stages the working copy into a
    temporary database file and repairs it out-of-core). ``mode`` picks
    the worklist source: ``"full"`` re-checks every round, ``"delta"``
    maintains the violation set incrementally (live checker on the
    ``incremental`` backend, shadow incremental session elsewhere);
    ``"auto"`` chooses ``"full"`` for the memory backend (its versioned
    scan cache already makes re-checks cheap) and ``"delta"`` for the
    rest. Both modes produce bit-identical results — the choice is a
    performance decision.

    ``tie_break`` makes CFD majority-vote ties explicit: ``"first"``
    (default; first tied value in group scan order — the historical
    behaviour), ``"lexicographic"`` (smallest under a type-stable key),
    or ``"random"`` (drawn with *rng*, the only use of it; a default
    ``random.Random(0)`` keeps even that deterministic run-to-run).

    ``rounds`` on the result is the number of repair rounds that actually
    executed — reaching the fixpoint early no longer misreports the
    round cap, and ``max_rounds <= 0`` truthfully reports ``0``.

    ``workers > 1`` runs each round's detection with parallel scan-group
    dispatch (see :mod:`repro.api.parallel`).
    """
    from repro.api import ExecutionOptions, connect

    planner_db: DatabaseInstance
    if isinstance(db, (str, Path)):
        from repro.sql.loader import read_database_file

        work = read_database_file(db, sigma.schema)
    else:
        work = db.copy()

    resolved_mode = _resolve_mode(mode, backend)
    labels = constraint_labels(list(sigma))
    counter = [0]
    planner = RepairPlanner(
        work,
        cind_policy=cind_policy,
        fill=fill,
        counter=counter,
        tie_break=tie_break,
        rng=rng,
    )

    tmpdir: Any = None
    mirror_file = backend == "sqlfile"
    options = ExecutionOptions(workers=workers)
    if mirror_file:
        # Stage the working copy into a temp sqlite file: detection and
        # DML run out-of-core while `work` stays the planning mirror
        # (kept in lockstep batch by batch, same deletes-then-inserts
        # order, so mirror iteration order == file rowid order).
        import tempfile

        from repro.sql.loader import create_database_file

        tmpdir = tempfile.TemporaryDirectory(prefix="repro-repair-")
        staged = Path(tmpdir.name) / "repair.sqlite"
        create_database_file(staged, work)
        session = connect(staged, sigma, backend=backend, options=options)
    else:
        session = connect(work, sigma, backend=backend, options=options)

    shadow: "Session | None" = None
    source: _ReportSource | _CheckerSource
    try:
        if resolved_mode == "full":
            source = _ReportSource(session, labels)
        elif backend == "incremental":
            source = _CheckerSource(
                session.backend.checker, sigma, work, labels
            )
        else:
            shadow = connect(
                work.copy(), sigma, backend="incremental",
                options=ExecutionOptions(),
            )
            source = _CheckerSource(
                shadow.backend.checker, sigma, work, labels, shadow=shadow
            )

        edits: list[RepairEdit] = []
        stats: list[RoundStats] = []
        previous_sigs: set[tuple] | None = None
        rounds_executed = 0
        clean = False

        for round_no in range(1, max(0, max_rounds) + 1):
            worklist_start = time.perf_counter()
            worklist = source.worklist()
            worklist_s = time.perf_counter() - worklist_start
            sigs = _work_signatures(worklist)
            if stats and previous_sigs is not None:
                stats[-1].delta_removed = len(previous_sigs - sigs)
                stats[-1].delta_added = len(sigs - previous_sigs)
            previous_sigs = sigs
            if not worklist:
                clean = True
                break
            plan = planner.plan_round(worklist)
            if plan.is_empty:
                # Defensive: violations remain but nothing is plannable.
                # Unreachable from a fresh worklist with the current
                # repair moves; the truthful round count still holds.
                break
            hits_before, misses_before = _cache_counters(session)
            apply_start = time.perf_counter()
            applied = session.apply(
                inserts=plan.inserts, deletes=plan.deletes
            )
            apply_s = time.perf_counter() - apply_start
            if mirror_file:
                for relation, t in plan.deletes:
                    work[relation].discard(t)
                for relation, t in plan.inserts:
                    work[relation].add(t)
            source.commit(plan)
            edits.extend(plan.edits)
            rounds_executed = round_no
            hits_after, misses_after = _cache_counters(session)
            stats.append(
                RoundStats(
                    round_no=round_no,
                    worklist_size=len(worklist),
                    cfd_items=sum(
                        1 for item in worklist if isinstance(item, CFDWork)
                    ),
                    cind_items=sum(
                        1 for item in worklist if isinstance(item, CINDWork)
                    ),
                    edits=plan.counts_by_kind(),
                    batch_deletes=len(plan.deletes),
                    batch_inserts=len(plan.inserts),
                    applied_deletes=applied.deleted,
                    applied_inserts=applied.inserted,
                    cache_hits=hits_after - hits_before,
                    cache_misses=misses_after - misses_before,
                    worklist_s=worklist_s,
                    apply_s=apply_s,
                )
            )

        if not clean:
            clean = source.final_clean()
            if isinstance(source, _CheckerSource) and stats:
                # The checker makes the final delta free to measure.
                final_sigs = _work_signatures(source.worklist())
                if previous_sigs is not None:
                    stats[-1].delta_removed = len(previous_sigs - final_sigs)
                    stats[-1].delta_added = len(final_sigs - previous_sigs)
        return RepairResult(
            work,
            edits,
            clean=clean,
            rounds=rounds_executed,
            backend=backend,
            mode=resolved_mode,
            round_stats=stats,
        )
    finally:
        source_obj = locals().get("source")
        if isinstance(source_obj, (_ReportSource, _CheckerSource)):
            source_obj.close()
        session.close()
        if tmpdir is not None:
            tmpdir.cleanup()


__all__ = [
    "RepairEdit",
    "RepairResult",
    "RoundStats",
    "default_fill",
    "repair",
    "replay_edits",
]
