"""Scan-unit kernels: map a unit's rows to a partial state, then finalize.

Each of the paper's scan units is computed by two steps — a ``*_map``
over rows producing a state, then a finalize that evaluates the plan's
tasks against it:

* :class:`CFDGroupState` — the distinct group keys in scan order and,
  per RHS variant, the keys whose groups disagree (exactly the
  pairwise-violation condition) plus, for a variant a constant-RHS task
  reads, each key's RHS value; :func:`cfd_map_shard` builds it,
  :func:`cfd_finalize` evaluates a CFD ``X``-group's tasks against it.
  A group of one row cannot disagree, so RHS values are compared only
  when some ``X``-key occurs more than once: with none, the map
  projects only the variants a constant-RHS task reads, and the
  finalize of a wildcard-RHS task reads nothing but its (empty)
  disagreeing keys;
* :func:`witness_map_shard` — one witness key set per spec;
* :func:`cind_map_shard` — per-task hit buckets in row order.

The serial executor (:mod:`repro.engine.executor`) maps each unit over
the whole relation; the carry-forward (:mod:`repro.engine.carry`) maps
only the rows of the keys a batch touched, and the SQL executor only
the rows of the keys its prefilter names (both through
:func:`cfd_evaluate`). All share this code, so a carried entry equals
the one a re-scan would store, on every backend.

Mapping functions take the rows' *columns* plus a ``key_lists``
callable (positions -> per-row projection key list for those rows), so
the executor can plug in its cache-memoized projection lists
(:func:`instance_key_fn`) and the carry fresh ones over the rows it
re-evaluates (:func:`shard_key_fn`). The CFD map projects the repeated
keys' rows straight from the columns.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
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

    ``keys`` lists the distinct group keys in first-occurrence (scan)
    order. Per RHS variant, ``variants`` holds ``(values, disagree)``:

    * ``disagree`` lists the keys whose rows carry more than one distinct
      RHS projection, in first-occurrence order (a dict used as an ordered
      set). A one-row group cannot disagree, so rows need comparing
      only under keys that occur more than once (see
      :func:`cfd_map_shard`);
    * ``values`` maps every key to an RHS projection of its rows, kept
      only for a variant that some constant-RHS task reads (``None``
      otherwise). A key that agrees has exactly one projection, so that
      is its value. A disagreeing key's value is one of its rows'
      projections and is never read: the key violates as a pair.
    """

    __slots__ = ("keys", "variants")

    def __init__(
        self,
        keys: dict[tuple[Any, ...], Any],
        variants: dict[tuple[int, ...], tuple[dict | None, dict]],
    ):
        #: distinct group keys, first-occurrence order
        self.keys = keys
        #: variant positions -> (values map or None, disagreeing keys)
        self.variants = variants

    def __repr__(self) -> str:
        disagree = sum(len(d) for __, d in self.variants.values())
        return (
            f"<CFDGroupState {len(self.variants)} variant(s), "
            f"{len(self.keys)} key(s), {disagree} disagreement(s)>"
        )


def _slot_keys(
    columns: Columns, positions: tuple[int, ...], slots: list[int]
) -> list[tuple[Any, ...]]:
    """The projection on *positions* of the rows at *slots* only."""
    picked = [list(map(columns[p].__getitem__, slots)) for p in positions]
    return projection_column_keys(picked, tuple(range(len(positions))), len(slots))


def _compare(keys: list, rkeys: list) -> tuple[dict, dict]:
    """Each key's first RHS projection over the rows given, and the keys
    whose rows disagree, in first-occurrence order."""
    first: dict[tuple[Any, ...], tuple] = {}
    differs: set[tuple[Any, ...]] = set()
    setdefault = first.setdefault
    add = differs.add
    for key, rkey in zip(keys, rkeys):
        if setdefault(key, rkey) != rkey:
            add(key)
    if not differs:
        return first, {}
    return first, dict.fromkeys(compress(first, map(differs.__contains__, first)))


def cfd_map_shard(
    group: CFDScanGroup, columns: Columns, key_lists: KeyLists
) -> CFDGroupState:
    """Build the group's state over the rows of *columns*.

    The whole-relation call is the serial executor; the carry calls it
    over the rows of the keys a batch touched. The ``X`` key list comes
    from ``key_lists``, and one C-speed pass over it says whether any
    key repeats, since only a repeated key can disagree:

    * no key repeats: nothing is compared, and only the variants a
      constant-RHS task reads are projected (a one-row group can still
      miss a constant);
    * fewer extra rows than keys (most groups have one row): the rows of
      the keys that repeat are found by counting in C, and only they are
      projected, straight from *columns*, and compared;
    * otherwise groups average two rows or more, so selecting rows would
      save little: every row is compared, as one pass.

    A variant a constant-RHS task reads is projected over every row
    through ``key_lists``, once.
    """
    lhs_positions = group.lhs_positions
    keys = key_lists(lhs_positions)
    n = len(keys)
    distinct = dict.fromkeys(keys)
    # The rows to compare: none, the repeated keys' rows, or all (None).
    slots: list[int] | None = []
    if len(distinct) < n:
        slots = None
        if 2 * len(distinct) > n:
            counts = Counter(keys)
            slots = list(
                compress(range(n), map((1).__lt__, map(counts.__getitem__, keys)))
            )
            slot_keys = list(map(keys.__getitem__, slots))
    read = {task.rhs_positions for task in group.tasks if task.rhs_checks}
    variants: dict[tuple[int, ...], tuple[dict | None, dict]] = {}
    for variant in group.rhs_variants():
        first = None
        disagree: dict = {}
        if variant == lhs_positions:
            pass  # the RHS projection is the key itself: no group disagrees
        elif slots is None:
            first, disagree = _compare(keys, key_lists(variant))
        elif slots:
            if variant in read:
                picked = list(map(key_lists(variant).__getitem__, slots))
            else:
                picked = _slot_keys(columns, variant, slots)
            __, disagree = _compare(slot_keys, picked)
        values = None
        if variant in read:
            # A key that agrees has one value, and a disagreeing key's is
            # never read, so any row's value serves: the first, or the
            # last to be written.
            values = first if first is not None else dict(zip(keys, key_lists(variant)))
        variants[variant] = (values, disagree)
    return CFDGroupState(distinct, variants)


def _passing(
    keys: Iterable[tuple[Any, ...]], checks: tuple[tuple[int, Any], ...]
) -> Iterable[tuple[Any, ...]]:
    """The group keys (in order) that satisfy the ``key_checks``."""
    if not checks:
        return keys
    if len(checks) == 1:
        (pos, const), = checks
        return [k for k in keys if k[pos] == const]
    return [k for k in keys if passes(k, checks)]


def cfd_finalize(
    group: CFDScanGroup, state: CFDGroupState
) -> list[tuple[Any, tuple[Any, ...], str]]:
    """Evaluate every task of *group* against *state*.

    Returns the violating ``(task, key, kind)`` triples — tasks in group
    order, keys in the state's first-occurrence order (scan order). A
    constant-RHS task filters every distinct key by its ``key_checks``
    (once per distinct filter); a wildcard-RHS task can only be violated
    by a disagreeing key, so it filters just its variant's disagreeing
    keys. Structurally identical tasks are evaluated once and
    replicated.
    """
    variant_state = state.variants
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
            values, disagree = variant_state[task.rhs_positions]
            rhs_checks = task.rhs_checks
            if rhs_checks:
                candidates = filtered.get(key_checks)
                if candidates is None:
                    candidates = filtered[key_checks] = _passing(
                        state.keys, key_checks
                    )
                pairs = []
                for key in candidates:
                    if key in disagree:
                        pairs.append((key, "pair"))
                    elif not passes(values[key], rhs_checks):
                        # A single shared RHS value only violates when it
                        # misses a constant of the pattern's RHS.
                        pairs.append((key, "single"))
            else:
                pairs = [(key, "pair") for key in _passing(disagree, key_checks)]
            evaluated[signature] = pairs
        for key, kind in pairs:
            hits.append((task, key, kind))
    return hits


def cfd_evaluate(
    group: CFDScanGroup, rows: list, keys: list
) -> list[tuple[Any, tuple[Any, ...], str]]:
    """Every violating ``(task, key, kind)`` of *group* over *rows*
    (value tuples, ordered by their key's first row) whose ``X``-keys
    are *keys*: :func:`cfd_finalize` of :func:`cfd_map_shard` over just
    those rows. The carry calls it on the touched keys' rows, the SQL
    executor on the candidate keys' rows."""
    if not rows:
        return []
    # Each key's rows share it: the X-key list is given, not projected.
    columns = list(zip(*rows))
    project = shard_key_fn(columns, len(rows))

    def key_lists(positions: tuple[int, ...]) -> list:
        return keys if positions == group.lhs_positions else project(positions)

    return cfd_finalize(group, cfd_map_shard(group, columns, key_lists))


# -- CIND witness passes -------------------------------------------------------


def witness_map_shard(
    specs: Sequence[WitnessSpec],
    columns: Columns,
    key_lists: KeyLists,
) -> list[set]:
    """Witness key sets for every spec over the given rows, in the order
    of *specs*.

    Specs sharing ``Y`` positions share one projection key list (via the
    memoizing ``key_lists``).
    """
    sets: list[set] = []
    for spec in specs:
        y_keys = key_lists(spec.y_positions)
        sets.append(set(filter_by_checks(columns, spec.yp_checks, y_keys)))
    return sets


# -- CIND LHS probes -----------------------------------------------------------


def cind_map_shard(
    tasks: Sequence[CINDRowTask],
    columns: Columns,
    payload: Sequence[Any],
    witnesses: dict[WitnessSpec, set],
    key_lists: KeyLists,
) -> list[list]:
    """Per-task violation buckets over the given rows.

    ``buckets[i]`` holds the violating payload entries of task ``i`` (the
    relation's task-list position) in row order. *payload* is the per-row
    value carried into the buckets (row ids in the executor and the
    carry), aligned with *columns*. Tasks sharing
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
    return buckets

