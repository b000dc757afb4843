"""repro — conditional dependencies (CINDs + CFDs) for data quality.

A from-scratch reproduction of Bravo, Fan & Ma, *Extending Dependencies with
Conditions* (VLDB 2007): conditional inclusion dependencies, their static
analyses, the chase, and the heuristic consistency-checking algorithms, with
data-cleaning and schema-matching application layers on top.

Quickstart::

    from repro import api
    from repro.datasets import bank_instance, bank_constraints

    session = api.connect(bank_instance(), bank_constraints())
    print(session.check().summary())   # finds the t10 / t12 errors

``api.connect`` fronts every detection path — shared-scan engine (default),
naive oracle, SQL backends — with one report shape;
see :mod:`repro.api`.
"""

from repro.core.cfd import CFD, standard_fd
from repro.core.cind import CIND, standard_ind
from repro.core.patterns import PatternTableau, PatternTuple, matches
from repro.core.violations import ConstraintSet, check_database
from repro.relational.domains import BOOL, INTEGER, STRING, FiniteDomain, enum_domain
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    RelationSchema,
    database,
    schema,
)
from repro.relational.values import WILDCARD

__version__ = "1.1.0"


def __getattr__(name: str):
    # Lazy (PEP 562) re-export of the facade: `from repro import connect`
    # works, but `import repro` alone doesn't drag in the engine/SQL/
    # multiprocessing stack that repro.api sits on.
    if name in ("ExecutionOptions", "Session", "connect"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "ExecutionOptions",
    "Session",
    "connect",
    "BOOL",
    "CFD",
    "CIND",
    "ConstraintSet",
    "DatabaseInstance",
    "DatabaseSchema",
    "FiniteDomain",
    "INTEGER",
    "PatternTableau",
    "PatternTuple",
    "RelationInstance",
    "RelationSchema",
    "STRING",
    "Tuple",
    "WILDCARD",
    "Attribute",
    "check_database",
    "database",
    "enum_domain",
    "matches",
    "schema",
    "standard_fd",
    "standard_ind",
]
