"""One-pass window-function CFD detection for the sqlfile backend.

The legacy executor runs one ``GROUP BY X HAVING COUNT(DISTINCT rhs) >
1`` query per RHS variant plus one tableau self-join per CFD — four to
six sorts of the relation per scan group. The one-pass path replaces
them with two stages:

1. :func:`cfd_candidate_sql` — a single aggregate prefilter scan per
   group returning a *superset* of the violating group keys (a NULL-safe
   ``QUOTE``-encoding of the whole RHS projection detects any
   disagreement; bare first-row columns detect pattern-constant misses).
   On clean data this one scan replaces every legacy query and returns
   zero rows.
2. :func:`cfd_refine_sql` — only when candidates exist: one
   window-function scan restricted to the candidate keys, computing the
   exact per-variant disagreements (``MIN(rhs) OVER (PARTITION BY X) IS
   NOT MAX(rhs) OVER ...`` — sqlite rejects ``COUNT(DISTINCT ...) OVER``,
   and min-vs-max over the partition is the same predicate with the same
   NULL treatment) and each key's first-occurrence row in the same pass,
   replacing the per-variant GROUP BYs *and* the tableau self-join.
   Python-side task evaluation then replays the in-memory engine's
   finalize semantics exactly, so hits are bit-identical including order.

The superset argument makes stage 1 safe by construction: any key a
legacy query would return differs somewhere in its RHS projection (or
misses a constant on every row), and both conditions survive the
encoding — sqlite quirks can only add false positives, which stage 2
discards. :func:`supports_window_functions` probes the library once;
executors fall back to the legacy SQL wholesale when the build is too
old (< 3.25) or the caller forces ``window_functions="off"``.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Sequence

from repro.engine.planner import CFDScanGroup, passes
from repro.relational.schema import RelationSchema
from repro.sql.ddl import distinct_count_expr
from repro.sql.ddl import quote_identifier as q

#: Past this many candidate keys the one-pass path hands the group back to
#: the legacy SQL: the refinement scan's key-restriction list would grow
#: unwieldy, and a group this dirty pays the legacy queries anyway.
MAX_REFINE_CANDIDATES = 64


def supports_window_functions(conn: sqlite3.Connection) -> bool:
    """Does this connection's sqlite library support window functions?

    Probed by running one (sqlite >= 3.25, 2018); version comparison would
    miss builds compiled with ``SQLITE_OMIT_WINDOWFUNC``.
    """
    try:
        conn.execute("SELECT COUNT(*) OVER () FROM (SELECT 1)").fetchall()
    except sqlite3.OperationalError:
        return False
    return True


# -- one-pass CFD detection (prefilter + window-function refinement) -----------


def _key_columns(rel: RelationSchema, group: CFDScanGroup) -> list[str]:
    return [f't.{q(name)}' for name in group.lhs]


def _rhs_union(group: CFDScanGroup) -> list[int]:
    """Every RHS position any non-trivial variant of *group* projects."""
    return sorted(
        {
            p
            for variant in group.rhs_variants()
            if variant != group.lhs_positions
            for p in variant
        }
    )


def _single_signatures(
    group: CFDScanGroup,
) -> list[tuple[tuple[int, ...], tuple]]:
    """Deduplicated ``(rhs_positions, rhs_checks)`` of constant-bearing tasks."""
    return list(
        dict.fromkeys(
            (task.rhs_positions, task.rhs_checks)
            for task in group.tasks
            if task.rhs_checks
        )
    )


def _quote_encoding(rel: RelationSchema, positions: Sequence[int]) -> str:
    """A NULL-safe, injective text encoding of a row's projection.

    ``QUOTE`` never returns NULL (``QUOTE(NULL)`` is the string
    ``'NULL'``) and embeds both type and content, so two rows encode
    equal iff sqlite stores equal projections — any disagreement a
    per-variant query could detect survives this whole-projection
    encoding, which is what makes the prefilter's candidate set a
    superset of every variant's disagree set.
    """
    names = rel.attribute_names
    return " || ',' || ".join(f"QUOTE(t.{q(names[p])})" for p in positions)


def cfd_candidate_sql(
    rel: RelationSchema, group: CFDScanGroup
) -> tuple[str, list[Any]] | None:
    """Stage 1: the single-scan candidate prefilter for one CFD group.

    Returns ``(sql, params)`` — the query yields one row per *candidate*
    group key (key columns, then the key's first rowid), a superset of
    every key any task of the group can flag:

    * ``COUNT(DISTINCT <quote-encoded RHS union>) > 1`` catches every key
      whose tuples disagree on *any* RHS variant (pair violations);
    * one ``NOT (col IS ? AND ...)`` term per distinct RHS-constant
      signature catches every key whose shared RHS misses a pattern
      constant (single violations). The bare columns are evaluated on
      the ``MIN(rowid)`` row (sqlite's documented min/max quirk), but
      correctness never relies on that: a key whose rows differ is
      already a candidate via the encoding term, and a key whose rows
      all agree fails the check on every row alike.

    ``None`` when the group has no detectable violation shape (no
    non-trivial variant and no constant checks — nothing to scan for).
    Groups with an empty LHS get the aggregate form without ``GROUP BY``
    (one all-rows group); the caller treats the single returned row as
    the candidacy verdict for key ``()``.
    """
    names = rel.attribute_names
    rhs_union = _rhs_union(group)
    signatures = _single_signatures(group)
    having: list[str] = []
    params: list[Any] = []
    if rhs_union:
        having.append(
            f"COUNT(DISTINCT {_quote_encoding(rel, rhs_union)}) > 1"
        )
    for positions, checks in signatures:
        term = " AND ".join(
            f"t.{q(names[positions[i]])} IS ?" for i, __ in checks
        )
        having.append(f"NOT ({term})")
        params.extend(const for __, const in checks)
    if not having:
        return None
    predicate = " OR ".join(having)
    key_cols = _key_columns(rel, group)
    if key_cols:
        key_sel = ", ".join(key_cols)
        sql = (
            f"SELECT {key_sel}, MIN(t.rowid) AS fr "
            f"FROM {q(rel.name)} t "
            f"GROUP BY {key_sel} "
            f"HAVING {predicate}"
        )
        return sql, params
    sql = (
        f"SELECT MIN(t.rowid) AS fr, {predicate} "
        f"FROM {q(rel.name)} t"
    )
    return sql, params


def cfd_refine_sql(
    rel: RelationSchema,
    group: CFDScanGroup,
    candidates: Sequence[tuple[Any, ...]],
) -> tuple[str, list[Any], list[int], list[tuple[int, ...]]]:
    """Stage 2: the one-pass window-function refinement over candidates.

    Returns ``(sql, params, positions, variants)``. The query makes one
    scan of the relation restricted to the candidate keys and emits, per
    key, its first-occurrence row: the key columns, the values at
    ``positions`` (the RHS union, taken from the first row), ``rowid``,
    the partition-wide first rowid, then one disagree flag per
    non-trivial variant — ``MIN(enc) OVER w IS NOT MAX(enc) OVER w`` over
    the same NULL-ignoring encoding the legacy ``COUNT(DISTINCT enc) >
    1`` aggregates, so the flags match the legacy per-variant queries
    bit for bit. ``ORDER BY fr`` delivers keys in first-occurrence scan
    order, the engine's candidate order.

    Key restriction uses ``IN (VALUES ...)`` (sqlite builds an ephemeral
    index over the list) unless a candidate key contains NULL, where
    ``IN`` would silently drop it — those fall back to an ``EXISTS`` join
    with NULL-safe ``IS`` comparisons.
    """
    names = rel.attribute_names
    key_cols = _key_columns(rel, group)
    variants = [
        v for v in group.rhs_variants() if v != group.lhs_positions
    ]
    positions = list(
        dict.fromkeys(
            p
            for source in ([v for v in variants]
                           + [sig[0] for sig in _single_signatures(group)])
            for p in source
        )
    )
    sel_cols = [f"t.{q(names[p])}" for p in positions]
    flags = []
    for i, variant in enumerate(variants):
        enc = distinct_count_expr([names[p] for p in variant])
        flags.append(f"(MIN({enc}) OVER w IS NOT MAX({enc}) OVER w) AS d{i}")
    inner_select = ", ".join(
        key_cols
        + sel_cols
        + ["t.rowid AS rid", "MIN(t.rowid) OVER w AS fr"]
        + flags
    )
    params: list[Any] = []
    where = ""
    if key_cols:
        width = len(key_cols)
        placeholders = ", ".join(
            "(" + ", ".join("?" for __ in range(width)) + ")"
            for __ in candidates
        )
        params = [value for key in candidates for value in key]
        if any(value is None for value in params):
            # IN never matches a NULL component; spell the membership test
            # with NULL-safe IS comparisons instead.
            cte_cols = ", ".join(f"c{i}" for i in range(width))
            match = " AND ".join(
                f"__cand.c{i} IS {key_cols[i]}" for i in range(width)
            )
            where = (
                f" WHERE EXISTS (SELECT 1 FROM __cand WHERE {match})"
            )
            prefix = (
                f"WITH __cand({cte_cols}) AS (VALUES {placeholders}) "
            )
        else:
            key_tuple = (
                key_cols[0] if width == 1 else "(" + ", ".join(key_cols) + ")"
            )
            where = f" WHERE {key_tuple} IN (VALUES {placeholders})"
            prefix = ""
        partition = "PARTITION BY " + ", ".join(key_cols)
    else:
        prefix = ""
        partition = ""
    sql = (
        f"{prefix}"
        f"SELECT * FROM ("
        f"SELECT {inner_select} FROM {q(rel.name)} t{where} "
        f"WINDOW w AS ({partition})"
        f") WHERE rid = fr ORDER BY fr"
    )
    return sql, params, positions, variants


def cfd_onepass_hits(
    conn: sqlite3.Connection,
    rel: RelationSchema,
    group: CFDScanGroup,
    max_candidates: int = MAX_REFINE_CANDIDATES,
    first_rowids: dict | None = None,
) -> list[tuple[Any, tuple[Any, ...], str]] | None:
    """The one-pass CFD scan of one group: prefilter, then refine.

    Returns the violating ``(task, key, kind)`` triples in exactly the
    legacy executor's (= the in-memory engine's) order, or ``None`` when
    the group is too dirty for the bounded refinement (the caller falls
    back to the legacy queries — same answer, different plan). A
    *first_rowids* dict receives each hit key's first rowid.
    """
    staged = cfd_candidate_sql(rel, group)
    if staged is None:
        return []
    sql, params = staged
    if group.lhs:
        candidates = [
            tuple(row[:-1]) for row in conn.execute(sql, params)
        ]
    else:
        [row] = conn.execute(sql, params).fetchall()
        candidates = [()] if row[0] is not None and any(row[1:]) else []
    if not candidates:
        return []
    if len(candidates) > max_candidates:
        return None

    sql, params, positions, variants = cfd_refine_sql(rel, group, candidates)
    position_index = {p: i for i, p in enumerate(positions)}
    nk = len(group.lhs)
    np_ = len(positions)
    disagree: dict[tuple[int, ...], dict[tuple[Any, ...], int]] = {
        variant: {} for variant in group.rhs_variants()
    }
    firsts: dict[tuple[Any, ...], tuple] = {}
    frs: dict[tuple[Any, ...], int] = {}
    for row in conn.execute(sql, params):
        key = tuple(row[:nk])
        values = row[nk:nk + np_]
        fr = row[nk + np_ + 1]
        firsts[key] = values
        frs[key] = fr
        for i, variant in enumerate(variants):
            if row[nk + np_ + 2 + i]:
                disagree[variant][key] = fr

    hits: list[tuple[Any, tuple[Any, ...], str]] = []
    for task in group.tasks:
        variant_disagree = disagree[task.rhs_positions]
        task_hits = [
            (fr, key, "pair")
            for key, fr in variant_disagree.items()
            if passes(key, task.key_checks)
        ]
        if task.rhs_checks:
            indices = [position_index[p] for p in task.rhs_positions]
            for key, values in firsts.items():
                if key in variant_disagree:
                    continue
                if not passes(key, task.key_checks):
                    continue
                projection = tuple(values[i] for i in indices)
                if not passes(projection, task.rhs_checks):
                    task_hits.append((frs[key], key, "single"))
        task_hits.sort(key=lambda hit: hit[0])
        hits.extend((task, key, kind) for __, key, kind in task_hits)
        if first_rowids is not None:
            first_rowids.update((key, fr) for fr, key, __ in task_hits)
    return hits
