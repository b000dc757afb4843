"""SQL backends: DDL, loading, and plan-level violation detection on sqlite3."""

from repro.sql.ddl import (
    create_schema_sql,
    create_table_sql,
    insert_sql,
    quote_identifier,
    sql_type,
)
from repro.sql.loader import (
    connect_memory,
    create_database_file,
    load_database,
    read_database_file,
)
from repro.sql.violations import SQLPlanExecutor

__all__ = [
    "SQLPlanExecutor",
    "connect_memory",
    "create_database_file",
    "create_schema_sql",
    "create_table_sql",
    "insert_sql",
    "load_database",
    "quote_identifier",
    "read_database_file",
    "sql_type",
]
