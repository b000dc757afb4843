"""Loading and attaching sqlite3 databases.

Two ways of getting a connection:

* :func:`connect_memory` + :func:`load_database` — serialize an in-memory
  :class:`~repro.relational.instance.DatabaseInstance` into a fresh
  ``:memory:`` database (the classic ``sql`` backend path);
* :func:`connect_file` + :func:`introspect_schema` — attach to an
  *existing* sqlite file and verify its tables match the schema, for the
  out-of-core ``sqlfile`` backend that runs detection where the data
  lives.

:func:`create_database_file` writes an instance out as a sqlite file
(rowid order = tuple insertion order, which is what keeps file-backed
reports bit-identical to the in-memory engine), and :func:`data_version`
is how a ``sqlfile`` session notices another connection's commit.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.errors import SQLBackendError
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema
from repro.sql.ddl import create_table_sql, insert_sql
from repro.sql.ddl import quote_identifier as q


def connect_memory() -> sqlite3.Connection:
    """A fresh in-memory sqlite connection.

    ``check_same_thread=False``: the serving layer runs detection calls on
    a thread pool, so a session's connection legitimately migrates between
    executor threads (creation in one, queries or ``close()`` in another).
    sqlite itself is compiled in serialized mode — per-connection mutexes
    make cross-thread use safe; the service's per-tenant locks order the
    accesses that must not interleave.
    """
    return sqlite3.connect(":memory:", check_same_thread=False)


def connect_file(
    path: str | Path, readonly: bool = False
) -> sqlite3.Connection:
    """Attach to an *existing* sqlite database file.

    Unlike bare ``sqlite3.connect``, a missing file is an error instead of
    a silently created empty database — attaching to a typo'd path and
    reporting "0 tables" would be a miserable way to discover it.

    The connection is opened in autocommit mode (``isolation_level=None``):
    the ``sqlfile`` backend issues its own explicit commits, and python's
    implicit ``BEGIN`` (triggered even by temp-table writes) would
    otherwise leave a read transaction pinning a shared lock — blocking
    every other writer to the file for the session's lifetime.
    """
    path = Path(path)
    mode = "ro" if readonly else "rw"
    try:
        return sqlite3.connect(
            f"file:{path}?mode={mode}",
            uri=True,
            isolation_level=None,
            # The serving layer moves sessions between executor threads;
            # sqlite's serialized mode makes that safe (see connect_memory).
            check_same_thread=False,
        )
    except sqlite3.OperationalError as exc:
        raise SQLBackendError(
            f"cannot open sqlite database {str(path)!r} ({mode}): {exc}"
        ) from exc


def introspect_schema(
    conn: sqlite3.Connection, schema: DatabaseSchema
) -> None:
    """Verify that *conn* holds one table per relation with matching columns.

    Column *names and order* must equal the relation schema's attribute
    list (detection queries and row→``Tuple`` mapping are positional).
    Raises :class:`SQLBackendError` with a precise complaint on the first
    mismatch; extra unrelated tables in the file are fine.
    """
    cursor = conn.cursor()
    for relation in schema:
        rows = cursor.execute(
            f"PRAGMA table_info({q(relation.name)})"
        ).fetchall()
        if not rows:
            names = [
                r[0]
                for r in cursor.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            ]
            raise SQLBackendError(
                f"sqlite database has no table {relation.name!r}; "
                f"tables are {sorted(names)}"
            )
        columns = tuple(row[1] for row in rows)
        expected = relation.attribute_names
        if columns != expected:
            raise SQLBackendError(
                f"table {relation.name!r} has columns {list(columns)}, "
                f"expected {list(expected)} (names and order must match "
                "the relation schema)"
            )


def data_version(conn: sqlite3.Connection) -> int:
    """sqlite's ``PRAGMA data_version`` counter.

    It moves whenever *another* connection commits a change to the file —
    the signal on which a ``sqlfile`` session clears its cache. (A
    connection's own writes do not move its own counter.)

    ``fetchall`` (here and in every other single-row helper) matters: it
    exhausts the statement, releasing sqlite's read lock — a half-stepped
    statement would block concurrent writers until garbage collection.
    """
    [(value,)] = conn.execute("PRAGMA data_version").fetchall()
    return value


def read_database_file(
    path: str | Path, schema: DatabaseSchema
) -> DatabaseInstance:
    """Load a sqlite database file into an in-memory instance.

    The inverse of :func:`create_database_file`: rows are read in rowid
    order, so tuple insertion order — and therefore every order-sensitive
    detection report over the loaded instance — matches what the
    file-backed ``sqlfile`` backend produces over the file itself.
    ``repair()`` uses this to repair a file's rows in memory.
    """
    conn = connect_file(path, readonly=True)
    try:
        introspect_schema(conn, schema)
        db = DatabaseInstance(schema)
        for relation in schema:
            db[relation.name].extend(
                conn.execute(f"SELECT * FROM {q(relation.name)} ORDER BY rowid")
            )
    finally:
        conn.close()
    return db


def create_database_file(
    path: str | Path, db: DatabaseInstance, overwrite: bool = False
) -> Path:
    """Write *db* out as a sqlite database file and return its path.

    Tuples are inserted in instance iteration order, so rowid order equals
    insertion order and file-backed detection reports come out in the same
    order as the in-memory engine's. Refuses to clobber an existing file
    unless ``overwrite=True``.
    """
    path = Path(path)
    if path.exists():
        if not overwrite:
            raise SQLBackendError(
                f"refusing to overwrite existing file {str(path)!r}; "
                "pass overwrite=True to replace it"
            )
        path.unlink()
    conn = sqlite3.connect(path)
    try:
        load_database(conn, db)
    finally:
        conn.close()
    return path


def load_database(conn: sqlite3.Connection, db: DatabaseInstance) -> None:
    """Create one table per relation and bulk-insert every tuple.

    Templates (instances containing chase variables) are rejected: SQL
    violation detection operates on ground data only.
    """
    if not db.is_ground():
        raise SQLBackendError(
            "cannot load a template with chase variables into SQL"
        )
    cursor = conn.cursor()
    for relation in db.schema:
        cursor.execute(create_table_sql(relation))
        cursor.executemany(
            insert_sql(relation), zip(*db[relation.name].columns())
        )
    conn.commit()
