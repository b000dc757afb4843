"""Scan-unit kernels: map a unit's rows to a partial state, then finalize.

Each of the paper's scan units is computed by two steps — a ``*_map``
over rows producing a state, then a finalize that evaluates the plan's
tasks against it:

* :class:`CFDGroupState` — per RHS variant, the first observed RHS
  projection per group key plus the keys whose groups disagree (exactly
  the pairwise-violation condition); :func:`cfd_map_shard` builds it,
  :func:`cfd_finalize` evaluates a CFD ``X``-group's tasks against it;
* :class:`WitnessState` — one key set per witness spec
  (:func:`witness_map_shard`);
* :class:`CINDScanState` — per-task hit buckets in row order
  (:func:`cind_map_shard`, flattened by :func:`cind_finalize`).

The serial executor (:mod:`repro.engine.executor`) maps each unit over
the whole relation; the carry-forward (:mod:`repro.engine.carry`) maps
only the rows of the keys a batch touched. Both share this code, so a
carried entry equals the one a re-scan would store.

Mapping functions take the rows' *columns* plus a ``key_lists``
callable (positions -> per-row projection key list for those rows), so
the executor can plug in its cache-memoized projection lists
(:func:`instance_key_fn`) and the carry fresh ones over the rows it
re-evaluates (:func:`shard_key_fn`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.cache import Columns, projection_column_keys
from repro.engine.planner import CFDScanGroup, CINDRowTask, WitnessSpec, passes
from repro.relational.instance import RelationInstance

#: positions -> per-row projection key list (for the mapped rows).
KeyLists = Callable[[tuple[int, ...]], list]


def shard_key_fn(
    columns: Columns, n_rows: int
) -> KeyLists:
    """A ``key_lists`` callable over *columns* of *n_rows* rows.

    Memoizes per distinct position tuple, mirroring the executor's
    scan-lifetime projection sharing.
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
    """The state of one CFD scan group over some rows.

    Per RHS variant: ``first`` maps each group key to the first RHS
    projection observed for it (insertion order = first-occurrence order
    within the rows) and ``disagree`` holds the keys whose groups saw a
    second distinct projection.
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

    def __repr__(self) -> str:
        keys = sum(len(first) for first, __ in self.variants.values())
        return f"<CFDGroupState {len(self.variants)} variant(s), {keys} key(s)>"


def cfd_map_shard(group: CFDScanGroup, key_lists: KeyLists) -> CFDGroupState:
    """Build the group's state over the rows ``key_lists`` projects.

    The whole-relation call is the serial executor; the carry calls it
    over the rows of the keys a batch touched. Each distinct projection
    (the ``X`` key and every distinct RHS variant) is computed exactly
    once.
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


def cfd_finalize(
    group: CFDScanGroup, state: CFDGroupState
) -> list[tuple[Any, tuple[Any, ...], str]]:
    """Evaluate every task of *group* against *state*.

    Returns the violating ``(task, key, kind)`` triples — tasks in group
    order, keys in the state's first-occurrence order (scan order). Each
    distinct ``key_checks``
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
    """Witness key sets, one per spec, for one RHS relation, in the
    order of the specs they were mapped for."""

    __slots__ = ("sets",)

    def __init__(self, sets: list[set]):
        self.sets = sets

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
    """Witness key sets for every spec over the given rows.

    Specs sharing ``Y`` positions share one projection key list (via the
    memoizing ``key_lists``).
    """
    sets: list[set] = []
    for spec in specs:
        y_keys = key_lists(spec.y_positions)
        sets.append(set(filter_by_checks(columns, spec.yp_checks, y_keys)))
    return WitnessState(sets)


# -- CIND LHS probes -----------------------------------------------------------


class CINDScanState:
    """Per-task hit buckets of one CIND LHS relation scan.

    ``buckets[i]`` holds the violating payload entries of task ``i`` (the
    relation's task-list position) in row order. Payload entries are
    whatever the mapper was fed per row — row ids in the executor and
    the carry.
    """

    __slots__ = ("buckets",)

    def __init__(self, buckets: list[list]):
        self.buckets = buckets

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
    """Per-task violation buckets over the given rows.

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


def cind_finalize(
    tasks: Sequence[CINDRowTask], state: CINDScanState
) -> Iterable[tuple[CINDRowTask, Any]]:
    """Flatten per-task buckets into ``(task, payload)`` pairs, task-major."""
    out: list[tuple[CINDRowTask, Any]] = []
    for task, bucket in zip(tasks, state.buckets):
        out.extend((task, p) for p in bucket)
    return out
