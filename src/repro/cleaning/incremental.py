"""Incremental violation detection under tuple insertions and deletions.

`check_database` rescans everything; a cleaning tool watching a live
database wants the *delta*. :class:`IncrementalChecker` owns a database
instance and a constraint set (normalised on entry) and maintains, per
constraint, just enough state to update violation sets in time
proportional to the touched groups:

* per normal-form CFD — the tuples of each LHS-pattern-matching group,
  keyed by their ``X`` projection, plus the set of violated group keys;
* per normal-form CIND — a witness count per required ``Y``-projection
  (counting RHS tuples whose ``Yp`` matches the pattern) and the violating
  LHS tuples, indexed by their ``X``-projection so a new witness clears
  exactly its key's bucket.

The initial build reuses the shared-scan primitives of
:mod:`repro.engine`: one group-by per distinct ``(relation, X)``, one
witness-counting pass per RHS relation (deduplicated by ``(Y, Yp,
tp[Yp])``), and one violation pass per LHS relation — instead of replaying
every tuple through the single-tuple bookkeeping.

Every mutation goes through :meth:`insert` / :meth:`delete`, which apply
it to the underlying database *and* the state. The test-suite
cross-validates against full rechecks on randomized operation sequences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.patterns import matches_all
from repro.core.violations import ConstraintSet, constraint_labels
from repro.engine import (
    attribute_positions,
    compile_checks,
    passes,
    projection_column_keys,
)
from repro.engine.executor import filter_by_checks
from repro.engine.shards import shard_key_fn
from repro.errors import ConstraintError
from repro.relational.instance import DatabaseInstance, Tuple
from repro.relational.values import is_wildcard


@dataclass
class _CFDState:
    cfd: CFD
    #: group key (X projection) -> multiset of RHS values in the group
    groups: dict[tuple, Counter] = field(default_factory=dict)
    violated: set[tuple] = field(default_factory=set)

    def group_violated(self, key: tuple) -> bool:
        counter = self.groups.get(key)
        if not counter:
            return False
        if len(counter) > 1:
            return True
        pattern_value = self.cfd.pattern.rhs_value(self.cfd.rhs_attribute)
        if is_wildcard(pattern_value):
            return False
        (value,) = counter
        return value != pattern_value

    def refresh(self, key: tuple) -> None:
        if self.group_violated(key):
            self.violated.add(key)
        else:
            self.violated.discard(key)


@dataclass
class _CINDState:
    cind: CIND
    #: required Y-projection -> number of pattern-matching RHS witnesses
    witness_count: Counter = field(default_factory=Counter)
    #: X-projection -> violating LHS tuples with that key (premise matched,
    #: no witness). Indexed by key so a freshly inserted witness clears its
    #: key's bucket in O(cleared) instead of rebuilding the whole set.
    violated: dict[tuple, set[Tuple]] = field(default_factory=dict)
    violated_total: int = 0

    def add_violation(self, key: tuple, t: Tuple) -> None:
        bucket = self.violated.get(key)
        if bucket is None:
            bucket = self.violated[key] = set()
        if t not in bucket:
            bucket.add(t)
            self.violated_total += 1

    def discard_violation(self, key: tuple, t: Tuple) -> None:
        bucket = self.violated.get(key)
        if bucket is not None and t in bucket:
            bucket.discard(t)
            self.violated_total -= 1
            if not bucket:
                del self.violated[key]

    def clear_violations_for(self, key: tuple) -> None:
        bucket = self.violated.pop(key, None)
        if bucket is not None:
            self.violated_total -= len(bucket)

    def violating_tuples(self) -> Iterable[Tuple]:
        for bucket in self.violated.values():
            yield from bucket


class IncrementalChecker:
    """Violation bookkeeping for one database under single-tuple updates."""

    def __init__(self, db: DatabaseInstance, sigma: ConstraintSet):
        self.db = db
        self.sigma = sigma.normalized()
        self._labels = constraint_labels(self.sigma)
        self._cfd_states: dict[str, list[_CFDState]] = {}
        self._cind_lhs: dict[str, list[_CINDState]] = {}
        self._cind_rhs: dict[str, list[_CINDState]] = {}
        self._cind_states: list[_CINDState] = []
        for cfd in self.sigma.cfds:
            state = _CFDState(cfd)
            self._cfd_states.setdefault(cfd.relation.name, []).append(state)
        for cind in self.sigma.cinds:
            state = _CINDState(cind)
            self._cind_states.append(state)
            self._cind_lhs.setdefault(cind.lhs_relation.name, []).append(state)
            self._cind_rhs.setdefault(cind.rhs_relation.name, []).append(state)
        self._bulk_build()

    def _bulk_build(self) -> None:
        """Initial state via shared scans (engine-style), not per-tuple replay.

        * one group-by per distinct ``(relation, X)`` across all CFD states;
        * one witness-counting pass per RHS relation, deduplicated by
          ``(Y, Yp, tp[Yp])`` across CIND states;
        * one violation pass per LHS relation covering all its CIND states.
        """
        by_scan: dict[tuple[str, tuple[str, ...]], list[_CFDState]] = {}
        for states in self._cfd_states.values():
            for state in states:
                cfd = state.cfd
                by_scan.setdefault((cfd.relation.name, cfd.lhs), []).append(state)
        for (relation, lhs), states in by_scan.items():
            instance = self.db[relation]
            columns = instance.columns()
            keys = projection_column_keys(
                columns, attribute_positions(instance.schema, lhs), len(instance)
            )
            groups: dict[tuple, list[int]] = {}
            for i, key in enumerate(keys):
                groups.setdefault(key, []).append(i)
            for state in states:
                cfd = state.cfd
                key_checks = compile_checks(
                    cfd.pattern.lhs_projection(lhs), range(len(lhs))
                )
                rhs_values = columns[instance.schema.positions[cfd.rhs_attribute]]
                for key, rows in groups.items():
                    if not passes(key, key_checks):
                        continue
                    state.groups[key] = Counter(
                        map(rhs_values.__getitem__, rows)
                    )
                    state.refresh(key)

        # Witness counts: share one Counter computation per (R2, Y, Yp, tp[Yp]).
        shared: dict[tuple, list[_CINDState]] = {}
        for state in self._cind_states:
            cind = state.cind
            key = (
                cind.rhs_relation.name,
                cind.y,
                cind.yp,
                cind.pattern.rhs_projection(cind.yp),
            )
            shared.setdefault(key, []).append(state)
        by_rhs: dict[str, list[tuple]] = {}
        for key in shared:
            by_rhs.setdefault(key[0], []).append(key)
        for relation, keys in by_rhs.items():
            instance = self.db[relation]
            columns = instance.columns()
            positions = instance.schema.positions
            key_lists = shard_key_fn(columns, len(instance))
            for key in keys:
                yp_checks = compile_checks(
                    key[3], tuple(positions[a] for a in key[2])
                )
                y_keys = key_lists(tuple(positions[a] for a in key[1]))
                counter = Counter(filter_by_checks(columns, yp_checks, y_keys))
                consumers = shared[key]
                for state in consumers[:-1]:
                    state.witness_count = counter.copy()
                consumers[-1].witness_count = counter

        # Violation sets: one columnar pass per LHS relation per state;
        # only the violating rows get Tuple views.
        for relation, states in self._cind_lhs.items():
            instance = self.db[relation]
            columns = instance.columns()
            rows = instance.row_ids()
            positions = instance.schema.positions
            key_lists = shard_key_fn(columns, len(rows))
            for state in states:
                cind = state.cind
                lhs_attrs = cind.x + cind.xp
                lhs_checks = compile_checks(
                    cind.pattern.lhs_projection(lhs_attrs),
                    tuple(positions[a] for a in lhs_attrs),
                )
                x_keys = key_lists(tuple(positions[a] for a in cind.x))
                witness_count = state.witness_count
                for key, rowid in filter_by_checks(
                    columns, lhs_checks, zip(x_keys, rows)
                ):
                    if witness_count.get(key, 0) == 0:
                        state.add_violation(key, instance.view(rowid))

    # -- public API -----------------------------------------------------------

    def insert(self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> bool:
        """Insert a tuple; returns False (no-op) if it was already present."""
        stored = self.db[relation].add(row)
        if stored is None:
            return False
        self._account_insert(stored)
        self._settle_cinds_after_insert(stored)
        return True

    def delete(self, relation: str, row: Tuple) -> bool:
        """Delete a tuple; returns False if it was not present."""
        if not isinstance(row, Tuple):
            raise ConstraintError("delete expects a Tuple object")
        if not self.db[relation].discard(row):
            return False
        self._account_delete(row)
        return True

    @property
    def is_clean(self) -> bool:
        return self.violation_count == 0

    @property
    def violation_count(self) -> int:
        total = sum(
            len(s.violated)
            for states in self._cfd_states.values()
            for s in states
        )
        total += sum(s.violated_total for s in self._cind_states)
        return total

    def violations(self) -> dict[str, int]:
        """Current violation counts per stable constraint label.

        Labels come from :func:`repro.core.violations.constraint_labels`
        over the normalized Σ, matching ``ViolationReport.by_constraint`` —
        distinct constraints with equal names/reprs keep separate entries.
        """
        out: dict[str, int] = {}
        for states in self._cfd_states.values():
            for s in states:
                if s.violated:
                    out[self._labels[id(s.cfd)]] = len(s.violated)
        for s in self._cind_states:
            if s.violated_total:
                out[self._labels[id(s.cind)]] = s.violated_total
        return out

    def violating_cind_tuples(self) -> set[Tuple]:
        out: set[Tuple] = set()
        for s in self._cind_states:
            out.update(s.violating_tuples())
        return out

    def violated_cfd_groups(self) -> "Iterator[tuple[CFD, frozenset[tuple]]]":
        """Per normalized CFD, the currently violated group keys.

        Yields one ``(cfd, keys)`` pair per CFD of ``self.sigma`` (the
        *normalized* Σ), aligned with ``self.sigma.cfds`` order, so a
        consumer can map child constraints back to the original Σ by
        position. The key sets are snapshots — safe to hold across
        subsequent inserts/deletes. This is the delta-driven repair
        engine's worklist source: after a batch of edits, only these
        maintained sets are consulted, never a fresh scan.
        """
        by_id = {
            id(state.cfd): state
            for states in self._cfd_states.values()
            for state in states
        }
        for cfd in self.sigma.cfds:
            yield cfd, frozenset(by_id[id(cfd)].violated)

    def violated_cind_entries(self) -> "Iterator[tuple[CIND, tuple[Tuple, ...]]]":
        """Per normalized CIND, the currently violating premise tuples.

        Aligned with ``self.sigma.cinds`` order (one entry per normalized
        child, i.e. per pattern row of the original CIND). Tuple order
        within an entry is unspecified — callers that need scan order
        (the repair engine does) must re-order against their instance.
        """
        for state in self._cind_states:
            yield state.cind, tuple(state.violating_tuples())

    # -- CFD bookkeeping ----------------------------------------------------------

    def _cfd_key(self, state: _CFDState, t: Tuple) -> tuple | None:
        cfd = state.cfd
        key = t.project(cfd.lhs)
        if not matches_all(key, cfd.pattern.lhs_projection(cfd.lhs)):
            return None
        return key

    def _account_insert(self, t: Tuple) -> None:
        for state in self._cfd_states.get(t.schema.name, ()):
            key = self._cfd_key(state, t)
            if key is None:
                continue
            state.groups.setdefault(key, Counter())[
                t[state.cfd.rhs_attribute]
            ] += 1
            state.refresh(key)
        for state in self._cind_rhs.get(t.schema.name, ()):
            cind = state.cind
            if matches_all(
                t.project(cind.yp), cind.pattern.rhs_projection(cind.yp)
            ):
                state.witness_count[t.project(cind.y)] += 1
        for state in self._cind_lhs.get(t.schema.name, ()):
            cind = state.cind
            if not cind.lhs_matches(t, cind.pattern):
                continue
            key = t.project(cind.x)
            if state.witness_count[key] == 0:
                state.add_violation(key, t)

    def _account_delete(self, t: Tuple) -> None:
        for state in self._cfd_states.get(t.schema.name, ()):
            key = self._cfd_key(state, t)
            if key is None:
                continue
            counter = state.groups.get(key)
            if counter is not None:
                value = t[state.cfd.rhs_attribute]
                counter[value] -= 1
                if counter[value] <= 0:
                    del counter[value]
                if not counter:
                    del state.groups[key]
            state.refresh(key)
        for state in self._cind_lhs.get(t.schema.name, ()):
            state.discard_violation(t.project(state.cind.x), t)
        for state in self._cind_rhs.get(t.schema.name, ()):
            cind = state.cind
            if not matches_all(
                t.project(cind.yp), cind.pattern.rhs_projection(cind.yp)
            ):
                continue
            key = t.project(cind.y)
            state.witness_count[key] -= 1
            if state.witness_count[key] <= 0:
                del state.witness_count[key]
                self._mark_orphans(state, key)

    def _settle_cinds_after_insert(self, t: Tuple) -> None:
        """A new RHS witness may clear pending LHS violations.

        The violated sets are indexed by ``X``-projection, so clearing the
        witnessed key costs O(tuples cleared) — not a rebuild of the whole
        violated set per witness insert.
        """
        for state in self._cind_rhs.get(t.schema.name, ()):
            cind = state.cind
            if not matches_all(
                t.project(cind.yp), cind.pattern.rhs_projection(cind.yp)
            ):
                continue
            key = t.project(cind.y)
            if state.witness_count.get(key, 0) > 0:
                state.clear_violations_for(key)

    def _mark_orphans(self, state: _CINDState, key: tuple) -> None:
        """The last witness for *key* vanished: LHS tuples become violations."""
        cind = state.cind
        lhs_instance = self.db[cind.lhs_relation.name]
        for t1 in lhs_instance.lookup(cind.x, key):
            if cind.lhs_matches(t1, cind.pattern):
                state.add_violation(key, t1)
