"""Data sharding *within* a scan unit: row-range shards + mergeable states.

PR 3 made the merge primitives of every scan unit explicit — witness key
sets merge by set union, CFD variant state merges by a first-value /
disagree join, CIND hit lists concatenate per task — but the executor
still computed each unit in one pass, so one giant ``(relation, X)``
group (the common shape on bank/commerce) serialized a whole check even
under the parallel dispatcher. This module turns those primitives into a
shard pipeline:

* :class:`ShardSpec` — a contiguous row-range slice ``[start, stop)`` of
  a relation's columns (:func:`plan_shard_ranges` balances them;
  shard 0 holds the first rows, so merging states *in shard order*
  reproduces scan order exactly);
* :class:`CFDGroupState` — per RHS variant, the first observed RHS
  projection per group key plus the keys whose groups disagree. Shard
  states join associatively: a key unseen by ``self`` is adopted with
  ``other``'s first value, a key seen with a *different* first value
  becomes a disagreement (exactly the pairwise-violation condition);
* :class:`WitnessState` — one key set per witness spec; merge is set
  union (associative *and* commutative);
* :class:`CINDScanState` — per-task hit buckets; merge extends each
  bucket in shard order, so tuples stay in scan order within a task.

Every state is built by a ``*_map_shard`` function and consumed by a
``finalize`` step; the serial executor is literally the 1-shard case
(:func:`repro.engine.executor.cfd_group_hits` maps the whole relation as
one shard and finalizes in place), and the parallel dispatcher maps
shards on a pool, merges in shard order, and finalizes parent-side —
both paths share this code, so their outputs are bit-identical.

Merge laws (Hypothesis-tested in ``tests/test_shards.py``): every merge
here is **associative** over an ordered shard sequence — any parenthesized
merge of ``s0..sn`` in order yields the same state. ``WitnessState`` is
fully commutative; ``CFDGroupState`` is *commutative-safe*: permuting the
merge order may permute key insertion order and which value is recorded
as "first" for a disagreeing key, but the disagree set and the first
value of every non-disagreeing key — everything violation detection reads
— are order-invariant. ``CINDScanState`` buckets are lists, so it is
associative only (shard order *is* scan order).

Mapping functions take the shard's *columns* plus a ``key_lists``
callable (positions -> per-row projection key list for the shard) so
that the serial path can plug in its cache-memoized projection lists
while shard workers slice fresh ones; :func:`shard_columns` and
:func:`shard_key_fn` build the worker-side pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.cache import Columns, projection_column_keys
from repro.engine.planner import CFDScanGroup, CINDRowTask, WitnessSpec, passes
from repro.relational.instance import RelationInstance

#: positions -> per-row projection key list (for one shard's rows).
KeyLists = Callable[[tuple[int, ...]], list]


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous row-range slice of one relation's columns.

    ``index``/``count`` place the shard within its scan unit: states must
    be merged in ``index`` order for hit lists to come out in scan order
    (content-wise the merges tolerate any order; see the module notes).
    """

    relation: str
    start: int
    stop: int
    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(
                f"invalid shard range [{self.start}, {self.stop})"
            )

    @property
    def rows(self) -> int:
        return self.stop - self.start

    @property
    def whole(self) -> bool:
        """True when this is the only shard of its scan unit."""
        return self.count == 1

    def __repr__(self) -> str:
        return (
            f"<ShardSpec {self.relation}[{self.start}:{self.stop}] "
            f"{self.index + 1}/{self.count}>"
        )


def resolve_shard_count(
    n_rows: int,
    workers: int,
    min_shard_rows: int,
    shards: int = 0,
    granularity: int = 0,
) -> int:
    """How many shards one scan unit over *n_rows* rows should use.

    An explicit *shards* wins (benchmarks force specific shapes); otherwise
    the unit is split ``min(workers, n_rows // min_shard_rows)`` ways — a
    shard never holds fewer than *min_shard_rows* rows, so small relations
    stay single-shard and per-shard state overhead cannot dominate the
    scan it parallelizes. A *granularity* ``N >= 1`` raises the worker
    bound to ``workers * N``, over-partitioning the unit into finer
    shards that idle workers can steal when group sizes are skewed (the
    ``min_shard_rows`` floor still applies). Always at least 1, never
    more than ``n_rows``.
    """
    if shards > 0:
        wanted = shards
    else:
        target = workers * granularity if granularity > 0 else workers
        wanted = min(target, max(1, n_rows // max(1, min_shard_rows)))
    return max(1, min(wanted, n_rows)) if n_rows > 0 else 1


def plan_shard_ranges(n_rows: int, count: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` ranges covering ``n_rows``."""
    count = max(1, min(count, n_rows)) if n_rows > 0 else 1
    base, extra = divmod(n_rows, count)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(count):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def make_shards(
    relation: str,
    n_rows: int,
    workers: int,
    min_shard_rows: int,
    shards: int = 0,
    granularity: int = 0,
) -> list[ShardSpec]:
    """The :class:`ShardSpec` list for one scan unit over *relation*."""
    ranges = plan_shard_ranges(
        n_rows,
        resolve_shard_count(
            n_rows, workers, min_shard_rows, shards, granularity
        ),
    )
    count = len(ranges)
    return [
        ShardSpec(relation, start, stop, index=i, count=count)
        for i, (start, stop) in enumerate(ranges)
    ]


def shard_columns(
    columns: Columns, start: int, stop: int
) -> Columns:
    """The ``[start, stop)`` slice of a relation's columns.

    The whole-range call passes the columns through unsliced — the
    serial path and single-shard workers read the relation's own store
    instead of copying it.
    """
    if start == 0 and (not columns or stop >= len(columns[0])):
        return columns
    return tuple(col[start:stop] for col in columns)


def shard_key_fn(
    columns: Columns, n_rows: int
) -> KeyLists:
    """A ``key_lists`` callable over (already sliced) shard columns.

    Memoizes per distinct position tuple, mirroring the executor's
    scan-lifetime projection sharing at shard granularity.
    """
    memo: dict[tuple[int, ...], list] = {}

    def key_lists(positions: tuple[int, ...]) -> list:
        keys = memo.get(positions)
        if keys is None:
            keys = memo[positions] = projection_column_keys(
                columns, positions, n_rows
            )
        return keys

    return key_lists


def instance_key_fn(instance: RelationInstance, cache=None) -> KeyLists:
    """The serial path's ``key_lists``: whole-relation, cache-memoized."""
    if cache is not None:
        return lambda positions: cache.projection_keys(instance, positions)
    columns = instance.columns()
    return shard_key_fn(columns, len(instance))


def filter_by_checks(
    columns: Columns,
    checks: tuple[tuple[int, Any], ...],
    payload: Iterable[Any],
) -> Iterator[Any]:
    """Payload entries whose tuple satisfies the precompiled *checks*.

    Column-wise: the single-check case is a plain ``zip`` + ``==`` pass and
    the multi-check case compares one zipped value tuple against the
    constants tuple, so no per-row ``passes()`` call happens either way.
    """
    if not checks:
        return iter(payload)
    if len(checks) == 1:
        (pos, const), = checks
        return (p for v, p in zip(columns[pos], payload) if v == const)
    consts = tuple(c for __, c in checks)
    zipped = zip(*(columns[p] for p, __ in checks))
    return (p for vs, p in zip(zipped, payload) if vs == consts)


# -- CFD scan groups -----------------------------------------------------------


class CFDGroupState:
    """Mergeable partial state of one CFD scan group over some row range.

    Per RHS variant: ``first`` maps each group key to the first RHS
    projection observed for it (insertion order = first-occurrence order
    within the covered rows) and ``disagree`` holds the keys whose groups
    saw a second distinct projection. Merging two states joins the maps
    with setdefault semantics and promotes first-value conflicts to
    disagreements — the associative first-value/disagree join.
    """

    __slots__ = ("variants",)

    def __init__(
        self,
        variants: dict[
            tuple[int, ...], tuple[dict[tuple[Any, ...], tuple], set]
        ],
    ):
        #: variant positions -> (first map, disagree set)
        self.variants = variants

    def merge(self, other: "CFDGroupState") -> "CFDGroupState":
        """Fold *other* (a later shard) into this state, in place."""
        for variant, (ofirst, odisagree) in other.variants.items():
            mine = self.variants.get(variant)
            if mine is None:
                self.variants[variant] = (dict(ofirst), set(odisagree))
                continue
            first, disagree = mine
            disagree |= odisagree
            setdefault = first.setdefault
            add = disagree.add
            for key, rkey in ofirst.items():
                if setdefault(key, rkey) != rkey:
                    add(key)
        return self

    def payload(self) -> dict:
        """A plain-data image (value tuples only — safe to pickle)."""
        return self.variants

    @classmethod
    def from_payload(cls, payload: dict) -> "CFDGroupState":
        return cls(payload)

    def __repr__(self) -> str:
        keys = sum(len(first) for first, __ in self.variants.values())
        return f"<CFDGroupState {len(self.variants)} variant(s), {keys} key(s)>"


def cfd_map_shard(group: CFDScanGroup, key_lists: KeyLists) -> CFDGroupState:
    """Build the group's partial state over one shard's rows.

    ``key_lists`` must yield per-row projection lists for exactly the
    shard's row range; the whole-relation call is the serial executor.
    Each distinct projection (the ``X`` key and every distinct RHS
    variant) is computed exactly once for the shard.
    """
    lhs_positions = group.lhs_positions
    keys = key_lists(lhs_positions)
    variants: dict[
        tuple[int, ...], tuple[dict[tuple[Any, ...], tuple], set]
    ] = {}
    for variant in group.rhs_variants():
        first: dict[tuple[Any, ...], tuple] = {}
        disagree: set[tuple[Any, ...]] = set()
        if variant == lhs_positions:
            # RHS projection == group key: groups can never disagree.
            # (dict(zip(..)) keeps first-occurrence insertion order; the
            # value is the key itself either way.)
            first = dict(zip(keys, keys))
        else:
            rkeys = key_lists(variant)
            setdefault = first.setdefault
            add = disagree.add
            for key, rkey in zip(keys, rkeys):
                if setdefault(key, rkey) != rkey:
                    add(key)
        variants[variant] = (first, disagree)
    return CFDGroupState(variants)


def merge_cfd_states(states: Sequence[CFDGroupState]) -> CFDGroupState:
    """Fold shard states in shard order into one group-level state."""
    if not states:
        return CFDGroupState({})
    merged = states[0]
    for state in states[1:]:
        merged.merge(state)
    return merged


def cfd_finalize(
    group: CFDScanGroup, state: CFDGroupState
) -> list[tuple[Any, tuple[Any, ...], str]]:
    """Evaluate every task of *group* against the merged state.

    Returns the violating ``(task, key, kind)`` triples — tasks in group
    order, keys in the state's first-occurrence order (scan order when
    shards were merged in shard order). Each distinct ``key_checks``
    filter runs once per distinct group key, and structurally identical
    tasks are evaluated once and replicated.
    """
    variant_state = state.variants
    # Any variant's first-map lists the distinct group keys in scan order.
    first_variant = next(iter(variant_state), None)
    distinct = (
        variant_state[first_variant][0] if first_variant is not None else {}
    )

    hits: list[tuple[Any, tuple[Any, ...], str]] = []
    filtered: dict[tuple, Any] = {}
    evaluated: dict[tuple, list[tuple[tuple[Any, ...], str]]] = {}
    for task in group.tasks:
        # Tasks sharing (key_checks, rhs_positions, rhs_checks) — distinct
        # CFDs with structurally identical pattern rows — hit the same
        # (key, kind) pairs: evaluate once, replicate per task.
        signature = (task.key_checks, task.rhs_positions, task.rhs_checks)
        pairs = evaluated.get(signature)
        if pairs is None:
            key_checks = task.key_checks
            candidates = filtered.get(key_checks)
            if candidates is None:
                if not key_checks:
                    candidates = distinct
                elif len(key_checks) == 1:
                    (pos, const), = key_checks
                    candidates = [k for k in distinct if k[pos] == const]
                else:
                    candidates = [k for k in distinct if passes(k, key_checks)]
                filtered[key_checks] = candidates
            first, disagree = variant_state[task.rhs_positions]
            rhs_checks = task.rhs_checks
            if rhs_checks:
                pairs = []
                for key in candidates:
                    if key in disagree:
                        pairs.append((key, "pair"))
                    elif not passes(first[key], rhs_checks):
                        # A single shared RHS value only violates when it
                        # misses a constant of the pattern's RHS.
                        pairs.append((key, "single"))
            elif disagree:
                pairs = [(key, "pair") for key in candidates if key in disagree]
            else:
                pairs = []
            evaluated[signature] = pairs
        for key, kind in pairs:
            hits.append((task, key, kind))
    return hits


# -- CIND witness passes -------------------------------------------------------


class WitnessState:
    """Mergeable witness key sets, one per spec, for one RHS relation.

    Sets are kept in a list aligned with the plan's spec order for the
    relation (spec objects don't survive pickling with their identity, so
    positions are the cross-process currency). Merge is per-position set
    union — associative and commutative.
    """

    __slots__ = ("sets",)

    def __init__(self, sets: list[set]):
        self.sets = sets

    def merge(self, other: "WitnessState") -> "WitnessState":
        for mine, theirs in zip(self.sets, other.sets):
            mine |= theirs
        return self

    def as_dict(self, specs: Sequence[WitnessSpec]) -> dict[WitnessSpec, set]:
        return dict(zip(specs, self.sets))

    def __repr__(self) -> str:
        return (
            f"<WitnessState {len(self.sets)} spec(s), "
            f"{sum(len(s) for s in self.sets)} key(s)>"
        )


def witness_map_shard(
    specs: Sequence[WitnessSpec],
    columns: Columns,
    key_lists: KeyLists,
) -> WitnessState:
    """Witness key sets for every spec over one shard's rows.

    Specs sharing ``Y`` positions share one projection key list (via the
    memoizing ``key_lists``).
    """
    sets: list[set] = []
    for spec in specs:
        y_keys = key_lists(spec.y_positions)
        sets.append(set(filter_by_checks(columns, spec.yp_checks, y_keys)))
    return WitnessState(sets)


def merge_witness_states(states: Sequence[WitnessState]) -> WitnessState:
    if not states:
        return WitnessState([])
    merged = states[0]
    for state in states[1:]:
        merged.merge(state)
    return merged


# -- CIND LHS probes -----------------------------------------------------------


class CINDScanState:
    """Mergeable per-task hit buckets of one CIND LHS relation scan.

    ``buckets[i]`` holds the violating payload entries of task ``i`` (the
    relation's task-list position) in scan order within the covered rows;
    merge extends each bucket in shard order, so the concatenation is the
    whole relation's scan order. Payload entries are whatever the mapper
    was fed per row — row ids on the serial path, row positions in pool
    workers.
    """

    __slots__ = ("buckets",)

    def __init__(self, buckets: list[list]):
        self.buckets = buckets

    def merge(self, other: "CINDScanState") -> "CINDScanState":
        for mine, theirs in zip(self.buckets, other.buckets):
            mine.extend(theirs)
        return self

    def __repr__(self) -> str:
        return (
            f"<CINDScanState {len(self.buckets)} task(s), "
            f"{sum(len(b) for b in self.buckets)} hit(s)>"
        )


def cind_map_shard(
    tasks: Sequence[CINDRowTask],
    columns: Columns,
    payload: Sequence[Any],
    witnesses: dict[WitnessSpec, set],
    key_lists: KeyLists,
) -> CINDScanState:
    """Per-task violation buckets over one shard's rows.

    *payload* is the per-row value carried into the buckets (rows or value
    tuples), aligned with *columns*. Tasks sharing
    ``(lhs_checks, X positions, witness spec)`` — distinct CINDs with
    structurally identical pattern rows — flag the same entries: evaluated
    once, replicated per task.
    """
    evaluated: dict[tuple, list] = {}
    buckets: list[list] = []
    for task in tasks:
        witness = witnesses[task.witness]
        signature = (task.lhs_checks, task.x_positions, task.witness)
        hit_rows = evaluated.get(signature)
        if hit_rows is None:
            if not task.x_positions:
                # Empty embedded key: every premise-matching tuple shares
                # the key (), so the witness test is one set probe.
                if () in witness:
                    hit_rows = []
                else:
                    hit_rows = list(
                        filter_by_checks(columns, task.lhs_checks, payload)
                    )
            else:
                x_keys = key_lists(task.x_positions)
                hit_rows = [
                    p
                    for key, p in filter_by_checks(
                        columns, task.lhs_checks, zip(x_keys, payload)
                    )
                    if key not in witness
                ]
            evaluated[signature] = hit_rows
        buckets.append(hit_rows)
    return CINDScanState(buckets)


def merge_cind_states(states: Sequence[CINDScanState]) -> CINDScanState:
    if not states:
        return CINDScanState([])
    # Buckets of later shards may alias shared `evaluated` lists; copy the
    # first state's buckets so the in-place extends can't corrupt them.
    merged = CINDScanState([list(b) for b in states[0].buckets])
    for state in states[1:]:
        merged.merge(state)
    return merged


def cind_finalize(
    tasks: Sequence[CINDRowTask], state: CINDScanState
) -> Iterable[tuple[CINDRowTask, Any]]:
    """Flatten per-task buckets into ``(task, payload)`` pairs, task-major."""
    out: list[tuple[CINDRowTask, Any]] = []
    for task, bucket in zip(tasks, state.buckets):
        out.extend((task, p) for p in bucket)
    return out
