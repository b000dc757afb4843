"""SQL DDL generation for relational schemas (sqlite3 dialect).

Identifiers are double-quoted; the INTEGER domain maps to sqlite INTEGER
affinity, everything else to TEXT.
"""

from __future__ import annotations

from repro.relational.domains import INTEGER, Domain, FiniteDomain
from repro.relational.schema import DatabaseSchema, RelationSchema


def quote_identifier(name: str) -> str:
    """Double-quote an identifier, escaping embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


def sql_type(domain: Domain) -> str:
    """sqlite column affinity for a domain.

    Integer-valued domains (the INTEGER singleton, and finite domains
    whose every value is an int — booleans included, ``1 == True``) get
    INTEGER affinity so values round-trip the file by equality; anything
    else is TEXT. A non-string value in a TEXT column would come back as
    its string image and break the backends' bit-identical-report
    contract, which is why the file-backed paths depend on this mapping.
    """
    if domain is INTEGER:
        return "INTEGER"
    if isinstance(domain, FiniteDomain) and all(
        isinstance(v, int) for v in domain.values
    ):
        return "INTEGER"
    return "TEXT"


def create_table_sql(relation: RelationSchema) -> str:
    columns = ", ".join(
        f"{quote_identifier(a.name)} {sql_type(a.domain)}" for a in relation
    )
    return f"CREATE TABLE {quote_identifier(relation.name)} ({columns})"


def create_schema_sql(schema: DatabaseSchema) -> list[str]:
    return [create_table_sql(rel) for rel in schema]


def insert_sql(relation: RelationSchema) -> str:
    placeholders = ", ".join("?" for __ in range(relation.arity))
    return (
        f"INSERT INTO {quote_identifier(relation.name)} VALUES ({placeholders})"
    )


def select_columns(relation: RelationSchema, alias: str = "t") -> str:
    """``alias."A1", alias."A2", ...`` — every column, schema order."""
    return ", ".join(
        f"{alias}.{quote_identifier(a.name)}" for a in relation
    )


def row_predicate(columns: list[str], alias: str = "t") -> str:
    """``alias."A1" IS ? AND ...`` equality over *columns* (``1=1`` if
    none); ``IS`` so that a NULL matches a NULL, as ``None`` does."""
    conds = " AND ".join(
        f"{alias}.{quote_identifier(c)} IS ?" for c in columns
    )
    return conds or "1=1"
