"""The CFD candidate prefilter of the SQL plan executor.

A CFD is decided per ``X``-group: a pair violation needs two tuples
with equal ``X``, and a single violation is a group whose shared RHS
misses a pattern constant. :func:`cfd_candidate_sql` narrows a scan
group to the ``X``-keys that can hold either, with one aggregate scan
of the relation inside sqlite: one row per *candidate* key (a superset
of every key any task of the group can flag) and the key's first rowid.
On clean data it returns no row.

The superset argument makes the prefilter safe by construction: a key
whose rows differ anywhere in their RHS projection differs in the
prefilter's NULL-safe whole-projection encoding, and a key whose rows
all agree misses a constant on every row alike. sqlite quirks can only
add false positives. The executor
(:meth:`repro.sql.violations.SQLPlanExecutor.scan_cfd_group`) reads the
candidate keys' rows and the engine's kernel
(:func:`repro.engine.shards.cfd_evaluate`) decides them, so every
backend applies one rule and reports identically, order included. The
query needs no window functions.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.planner import CFDScanGroup
from repro.relational.schema import RelationSchema
from repro.sql.ddl import quote_identifier as q


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
    equal iff sqlite stores equal projections — any disagreement on
    any variant survives this whole-projection encoding, which is what
    makes the prefilter's candidate set a superset of every variant's
    disagree set.
    """
    names = rel.attribute_names
    return " || ',' || ".join(f"QUOTE(t.{q(names[p])})" for p in positions)


def cfd_candidate_sql(
    rel: RelationSchema, group: CFDScanGroup
) -> tuple[str, list[Any]] | None:
    """The single-scan candidate prefilter for one CFD group.

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
