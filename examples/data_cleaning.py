"""Data cleaning at scale (the Example 1.2 workflow, scaled up).

Generates a bank database with thousands of accounts and a controlled
error rate, then — all through the unified ``repro.api`` facade —

1. detects violations with the in-memory engine, the SQL backend
   (pattern tableaux shipped as data tables, per [9]) and the
   out-of-core backend over a sqlite file, and checks the three
   *reports* are identical
   (not just the totals: the SQL rows are mapped back to canonical
   tuples, so the reports are comparable object-for-object);
2. shows what the *traditional* FDs/INDs would have caught (nothing);
3. repairs the database and re-checks.

Run:  python examples/data_cleaning.py [n_accounts] [error_rate]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro import api
from repro.cleaning.detect import compare_with_traditional
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.sql.loader import create_database_file


def report_key(report):
    """A backend-independent fingerprint of a ViolationReport."""
    return (
        [
            (report.label_for(v.cfd), v.pattern_index, v.lhs_values,
             tuple(t.values for t in v.tuples), v.kind)
            for v in report.cfd_violations
        ],
        [
            (report.label_for(v.cind), v.pattern_index, v.tuple_.values)
            for v in report.cind_violations
        ],
    )


def main(n_accounts: int = 2000, error_rate: float = 0.05) -> None:
    sigma = bank_constraints()
    db = scaled_bank_instance(n_accounts, error_rate=error_rate, seed=7)
    print(f"database: {db!r}")
    print(f"constraints: {sigma!r}\n")

    print("=== 1. Detection (in-memory engine) ===")
    session = api.connect(db, sigma)
    started = time.perf_counter()
    report = session.check()
    elapsed = time.perf_counter() - started
    print(f"{report.total} violation(s) in {elapsed * 1000:.1f} ms")
    for name, count in sorted(report.by_constraint().items()):
        print(f"  {name}: {count}")

    print("\n=== 1b. Detection (SQL backend, sqlite3) ===")
    started = time.perf_counter()
    with api.connect(db, sigma, backend="sql") as sql_session:
        sql_report = sql_session.check()
    elapsed = time.perf_counter() - started
    print(f"{sql_report.total} violation(s) in {elapsed * 1000:.1f} ms")
    print(f"reports identical: {report_key(sql_report) == report_key(report)}")

    print("\n=== 1c. Detection (out-of-core, inside a sqlite file) ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = create_database_file(Path(tmp) / "bank.db", db)
        started = time.perf_counter()
        with api.connect(path, sigma, backend="sqlfile") as file_session:
            file_report = file_session.check()
        elapsed = time.perf_counter() - started
    print(f"{file_report.total} violation(s) in {elapsed * 1000:.1f} ms")
    print(f"reports identical: {report_key(file_report) == report_key(report)}")

    print("\n=== 2. Conditional vs traditional dependencies ===")
    comparison = compare_with_traditional(db, sigma)
    for kind, stats in comparison.items():
        print(f"  {kind:>12}: {stats['constraints']} constraints, "
              f"{stats['violations']} violations detected")
    missed = (
        comparison["conditional"]["violations"]
        - comparison["traditional"]["violations"]
    )
    print(f"  the conditional dependencies catch {missed} error(s) the "
          f"traditional FD/IND core misses\n  (on the paper's Fig. 1 "
          f"instance the traditional core sees nothing at all — "
          f"Example 1.2)")

    print("\n=== 3. Repair ===")
    started = time.perf_counter()
    result = session.repair(cind_policy="insert", max_rounds=15)
    elapsed = time.perf_counter() - started
    print(f"clean: {result.clean}; {result.cost} edit(s) in "
          f"{elapsed * 1000:.1f} ms; rounds: {result.rounds}")
    post = api.connect(result.db, sigma).count()
    print(f"violations after repair: {post.total}")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    rate = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    main(n, rate)
