"""Round planning for the round-batched repair engine.

:mod:`repro.cleaning.repair` used to fix violations *eagerly*: each
violated CFD group and each witness-less CIND tuple paid its own
``Session.apply`` (one cache invalidation — one sqlite transaction on
file backends — per violation). The planner separates *deciding* the
round's repairs from *applying* them: :meth:`RepairPlanner.plan_round`
walks one round's worklist, simulates the eager loop's intermediate
states with a pending-insert/pending-delete **overlay** (never touching
the database), and returns a :class:`RoundPlan` whose delete/insert
lists the engine submits as one batch. The overlay reproduces the eager
loop's semantics exactly — violation ``k`` sees the effects of
violations ``1..k-1`` — so the planned batch leaves the database
bit-identical (content *and* iteration order) to the historical loop.

The planner also owns the two repair-policy decisions the old loop made
implicitly:

* **tie-breaking** (``tie_break=``): when a CFD group's RHS values are
  tied for the majority, ``"first"`` keeps the historical behaviour
  (first tied value in scan order — ``Counter`` insertion order),
  ``"lexicographic"`` picks the smallest under a type-stable sort key,
  and ``"random"`` draws from the tied values with the caller's seeded
  ``rng`` — explicit, documented, and deterministic for a fixed seed,
  where the old loop's tie outcome was an undocumented artifact.
* **merge detection**: a rewrite whose target tuple already exists (in
  the database or among this round's pending inserts) nets out to a
  deletion under set semantics. The old loop recorded it as a
  ``"modify"`` that produced no tuple; the planner records the honest
  ``"merge"`` edit (no insert op is planned) so the edit log replays
  exactly and costs count what actually happened.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Union

from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.patterns import PatternTuple, matches_all
from repro.relational.domains import FiniteDomain
from repro.relational.instance import DatabaseInstance, Tuple
from repro.relational.schema import RelationSchema
from repro.relational.values import is_wildcard

#: Explicit tie-breaking policies for CFD majority votes.
TIE_BREAKS = ("first", "lexicographic", "random")


@dataclass
class RepairEdit:
    """One applied repair operation.

    ``kind`` is one of ``"modify"`` (rewrite produced a new tuple),
    ``"merge"`` (rewrite target already existed — the tuple was folded
    into it, a net deletion), ``"insert"`` (CIND witness insertion) or
    ``"delete"`` (CIND violating-tuple deletion). Replaying an edit is
    uniform across kinds: discard ``before`` if set, add ``after`` if
    set — for a merge the add is a set-semantics no-op by construction.
    """

    kind: str                 # "modify" | "merge" | "insert" | "delete"
    relation: str
    before: Tuple | None
    after: Tuple | None
    constraint: str

    def __repr__(self) -> str:
        return f"<{self.kind} {self.relation}: {self.before!r} -> {self.after!r} [{self.constraint}]>"


@dataclass(frozen=True)
class CFDWork:
    """One violated CFD group: rewrite its minority tuples."""

    cfd: CFD
    pattern_index: int
    label: str
    group: tuple[Tuple, ...]   # the group's tuples, in scan order


@dataclass(frozen=True)
class CINDWork:
    """One witness-less CIND premise tuple: insert a witness or delete it."""

    cind: CIND
    pattern_index: int
    label: str
    tuple_: Tuple


WorkItem = Union[CFDWork, CINDWork]


@dataclass
class RoundPlan:
    """Everything one repair round will do, before any of it is applied.

    ``deletes``/``inserts`` are ``(relation, tuple)`` ops for one
    ``Session.apply`` call (which runs all deletes, then all inserts —
    the order the overlay planning assumed). ``edits`` is the round's
    slice of the repair log, in worklist order.
    """

    edits: list[RepairEdit] = field(default_factory=list)
    deletes: list[tuple[str, Tuple]] = field(default_factory=list)
    inserts: list[tuple[str, Tuple]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.deletes and not self.inserts

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for edit in self.edits:
            out[edit.kind] = out.get(edit.kind, 0) + 1
        return out


def default_fill(relation: RelationSchema, attribute: str, counter: list[int]) -> Any:
    """Fill value for unconstrained columns of inserted witness tuples."""
    attr = relation.attribute(attribute)
    if isinstance(attr.domain, FiniteDomain):
        return attr.domain.values[0]
    counter[0] += 1
    return f"repair#{counter[0]}"


def _lexicographic_key(value: tuple[Any, ...]) -> tuple[tuple[str, str], ...]:
    """Total order over projection tuples that never compares raw values.

    Mixed-type columns (``2`` vs ``"2"``) would make ``<`` raise; sorting
    by ``(type name, repr)`` pairs is deterministic for any hashable
    domain values.
    """
    return tuple((type(v).__name__, repr(v)) for v in value)


class _RoundOverlay:
    """Pending effects of one round's plan, indexed for witness probes.

    ``deleted``/``inserted`` answer liveness; ``indexes`` holds, per
    ``(relation, y-attribute tuple)``, the pending inserts keyed by their
    ``y`` projection — built lazily on the first witness probe with that
    attribute set and maintained incrementally afterwards, so witness
    checks against pending inserts stay O(candidates) instead of scanning
    every insert planned so far (which made large CIND rounds quadratic).
    """

    def __init__(self) -> None:
        self.deleted: dict[str, set[Tuple]] = {}
        self.inserted: dict[str, set[Tuple]] = {}
        self.indexes: dict[
            tuple[str, tuple[str, ...]], dict[tuple, list[Tuple]]
        ] = {}

    def note_insert(self, relation: str, t: Tuple) -> None:
        for (rel, attrs), index in self.indexes.items():
            if rel == relation:
                index.setdefault(t.project(attrs), []).append(t)

    def note_cancelled_insert(self, relation: str, t: Tuple) -> None:
        for (rel, attrs), index in self.indexes.items():
            if rel == relation:
                bucket = index.get(t.project(attrs))
                if bucket and t in bucket:
                    bucket.remove(t)

    def inserted_matching(
        self, relation: str, attrs: tuple[str, ...], key: tuple
    ) -> list[Tuple]:
        index = self.indexes.get((relation, attrs))
        if index is None:
            index = {}
            for t in self.inserted.get(relation, ()):
                index.setdefault(t.project(attrs), []).append(t)
            self.indexes[(relation, attrs)] = index
        return index.get(key, [])


class RepairPlanner:
    """Plans one batch of repairs per round against a live overlay.

    ``db`` is the planning instance — the working copy the repair
    engine's session mutates. The planner never writes to it; all
    intra-round state lives in the per-call overlay sets.
    """

    def __init__(
        self,
        db: DatabaseInstance,
        cind_policy: str = "insert",
        fill: Callable[[RelationSchema, str, list[int]], Any] | None = None,
        counter: list[int] | None = None,
        tie_break: str = "first",
        rng: random.Random | None = None,
    ):
        if cind_policy not in ("insert", "delete"):
            raise ValueError(
                f"cind_policy must be insert|delete, got {cind_policy!r}"
            )
        if tie_break not in TIE_BREAKS:
            raise ValueError(
                f"tie_break must be one of {'|'.join(TIE_BREAKS)}, "
                f"got {tie_break!r}"
            )
        self.db = db
        self.cind_policy = cind_policy
        self.fill = fill or default_fill
        self.counter = counter if counter is not None else [0]
        self.tie_break = tie_break
        # Only the "random" policy consumes randomness; a fixed default
        # seed keeps even that path reproducible run-to-run unless the
        # caller supplies their own generator.
        self.rng = rng or random.Random(0)

    # -- overlay helpers ----------------------------------------------------

    def _alive(self, relation: str, t: Tuple, overlay: _RoundOverlay) -> bool:
        """Would *t* exist right now if the plan so far had been applied?"""
        if t in overlay.inserted.get(relation, ()):
            return True
        if t in overlay.deleted.get(relation, ()):
            return False
        return t in self.db[relation]

    def _plan_delete(
        self, plan: RoundPlan, relation: str, t: Tuple, overlay: _RoundOverlay
    ) -> None:
        """Remove *t* from the planned end state.

        If *t*'s presence comes from an earlier planned insert this
        round, that insert is *cancelled* instead of a delete being
        queued — ``Session.apply`` runs deletes before inserts, so a
        queued delete could not undo a queued insert of the same tuple.
        """
        pend_ins = overlay.inserted.setdefault(relation, set())
        if t in pend_ins:
            pend_ins.discard(t)
            plan.inserts.remove((relation, t))
            overlay.note_cancelled_insert(relation, t)
            return
        pend_del = overlay.deleted.setdefault(relation, set())
        if t not in pend_del and t in self.db[relation]:
            pend_del.add(t)
            plan.deletes.append((relation, t))

    def _plan_insert(
        self, plan: RoundPlan, relation: str, t: Tuple, overlay: _RoundOverlay
    ) -> None:
        pend_ins = overlay.inserted.setdefault(relation, set())
        if t not in pend_ins:
            pend_ins.add(t)
            plan.inserts.append((relation, t))
            overlay.note_insert(relation, t)

    # -- CFD planning -------------------------------------------------------

    def _majority(self, votes: Counter) -> tuple[Any, ...]:
        top = max(votes.values())
        candidates = [value for value, count in votes.items() if count == top]
        if len(candidates) == 1 or self.tie_break == "first":
            # Counter preserves insertion order: candidates[0] is the
            # first tied value in group scan order — the historical
            # (previously implicit) behaviour, now the documented default.
            return candidates[0]
        if self.tie_break == "lexicographic":
            return min(candidates, key=_lexicographic_key)
        return self.rng.choice(candidates)

    def _plan_cfd(
        self, plan: RoundPlan, item: CFDWork, overlay: _RoundOverlay
    ) -> None:
        cfd = item.cfd
        relation = cfd.relation.name
        row = cfd.tableau[item.pattern_index]
        rhs_pattern = row.rhs_projection(cfd.rhs)
        # Work-item groups are captured at round start, so a group tuple
        # can only have *left* the overlay state, never joined it.
        group = [t for t in item.group if self._alive(relation, t, overlay)]
        if not group:
            return  # already rewritten this round
        constants = [v for v in rhs_pattern if not is_wildcard(v)]
        if len(constants) == len(rhs_pattern):
            target = tuple(rhs_pattern)
        else:
            # Wildcard positions: majority vote within the group.
            votes = Counter(t.project(cfd.rhs) for t in group)
            majority = self._majority(votes)
            target = tuple(
                value if not is_wildcard(value) else majority[i]
                for i, value in enumerate(rhs_pattern)
            )
        for t in group:
            if t.project(cfd.rhs) == target:
                continue
            after = t.replace(**dict(zip(cfd.rhs, target)))
            if self._alive(relation, after, overlay):
                # The rewrite target already exists: set semantics make
                # this a merge (net deletion), not a modification.
                plan.edits.append(
                    RepairEdit("merge", relation, t, after, item.label)
                )
                self._plan_delete(plan, relation, t, overlay)
            else:
                plan.edits.append(
                    RepairEdit("modify", relation, t, after, item.label)
                )
                self._plan_delete(plan, relation, t, overlay)
                self._plan_insert(plan, relation, after, overlay)

    # -- CIND planning ------------------------------------------------------

    def _has_witness(
        self, cind: CIND, t1: Tuple, row: PatternTuple, overlay: _RoundOverlay
    ) -> bool:
        """``find_witness`` against the overlay-adjusted RHS relation."""
        relation = cind.rhs_relation.name
        key = t1.project(cind.x)
        yp_pattern = row.rhs_projection(cind.yp)
        pend_del = overlay.deleted.get(relation, ())
        for t2 in self.db[relation].lookup(cind.y, key):
            if t2 in pend_del:
                continue
            if matches_all(t2.project(cind.yp), yp_pattern):
                return True
        for t2 in overlay.inserted_matching(relation, cind.y, key):
            if matches_all(t2.project(cind.yp), yp_pattern):
                return True
        return False

    def _plan_cind(
        self, plan: RoundPlan, item: CINDWork, overlay: _RoundOverlay
    ) -> None:
        cind = item.cind
        t1 = item.tuple_
        lhs_relation = cind.lhs_relation.name
        if not self._alive(lhs_relation, t1, overlay):
            return  # removed by an earlier repair this round
        row = cind.tableau[item.pattern_index]
        if self._has_witness(cind, t1, row, overlay):
            return  # an earlier planned insertion already fixes it
        if self.cind_policy == "delete":
            plan.edits.append(
                RepairEdit("delete", lhs_relation, t1, None, item.label)
            )
            self._plan_delete(plan, lhs_relation, t1, overlay)
            return
        template = cind.required_rhs_template(t1, row)
        values = {
            attr: (
                self.fill(cind.rhs_relation, attr, self.counter)
                if is_wildcard(value)
                else value
            )
            for attr, value in template.items()
        }
        witness = Tuple(cind.rhs_relation, values)
        relation = cind.rhs_relation.name
        plan.edits.append(
            RepairEdit("insert", relation, None, witness, item.label)
        )
        self._plan_insert(plan, relation, witness, overlay)

    # -- entry point --------------------------------------------------------

    def plan_round(self, worklist: Iterable[WorkItem]) -> RoundPlan:
        """Plan one round's repairs for *worklist*, in worklist order.

        The overlay sets thread each item's planned effects into every
        later item's view, replicating the eager loop's semantics within
        a single batched round.
        """
        plan = RoundPlan()
        overlay = _RoundOverlay()
        for item in worklist:
            if isinstance(item, CFDWork):
                self._plan_cfd(plan, item, overlay)
            else:
                self._plan_cind(plan, item, overlay)
        return plan


__all__ = [
    "CFDWork",
    "CINDWork",
    "RepairEdit",
    "RepairPlanner",
    "RoundPlan",
    "TIE_BREAKS",
    "WorkItem",
    "default_fill",
]
