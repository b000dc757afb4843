"""Relational substrate: domains, schemas, instances, values, CSV I/O."""

from repro.relational.domains import (
    BOOL,
    INTEGER,
    STRING,
    Domain,
    FiniteDomain,
    InfiniteDomain,
    enum_domain,
    numbered_finite_domain,
)
from repro.relational.instance import DatabaseInstance, RelationInstance, RowGroup, Tuple
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    RelationSchema,
    database,
    schema,
)
from repro.relational.values import (
    WILDCARD,
    Variable,
    fresh_variables,
    is_constant,
    is_variable,
    is_wildcard,
    value_order_key,
)

__all__ = [
    "BOOL",
    "INTEGER",
    "STRING",
    "WILDCARD",
    "Attribute",
    "DatabaseInstance",
    "DatabaseSchema",
    "Domain",
    "FiniteDomain",
    "InfiniteDomain",
    "RelationInstance",
    "RelationSchema",
    "RowGroup",
    "Tuple",
    "Variable",
    "database",
    "enum_domain",
    "fresh_variables",
    "is_constant",
    "is_variable",
    "is_wildcard",
    "numbered_finite_domain",
    "schema",
    "value_order_key",
]
