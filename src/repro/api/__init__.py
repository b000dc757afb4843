"""repro.api — the unified Session/Backend facade over all detection paths.

The paper's pitch is *one* constraint language (CFDs + CINDs) checkable
uniformly; this package makes the implementation match: one ``connect()``
call, one report shape, four interchangeable engines, each scanning
serially through the engine's executor or its one SQL push-down, which
both SQL backends run (``sql`` on a ``:memory:`` image of an instance,
``sqlfile`` on a database file).

    from repro import api

    session = api.connect(db, sigma)                  # shared-scan engine
    session = api.connect(db, sigma, backend="sql")   # sqlite3 :memory: image
    session = api.connect("accounts.db", sigma, backend="sqlfile")  # out-of-core

    report  = session.check()      # ViolationReport — identical everywhere
    summary = session.count()      # per-constraint totals
    verdict = session.is_clean()   # cheapest verdict the backend has

    session.apply(inserts=[...], deletes=[...])   # batch DML
    change = session.delta()       # what the batch changed, by position

See :mod:`repro.api.session` for the facade and :mod:`repro.api.backends`
for the engine adapters.
"""

from __future__ import annotations

from repro.api.backends import (
    BACKENDS,
    ApplyResult,
    Backend,
    BaseBackend,
    MemoryBackend,
    NaiveBackend,
    SQLBackend,
    SQLFileBackend,
    summarize,
)
from repro.api.options import ExecutionOptions
from repro.api.session import Session, connect

__all__ = [
    "BACKENDS",
    "ApplyResult",
    "Backend",
    "BaseBackend",
    "ExecutionOptions",
    "MemoryBackend",
    "NaiveBackend",
    "SQLBackend",
    "SQLFileBackend",
    "Session",
    "connect",
    "summarize",
]
