"""The out-of-core ``sqlfile`` backend: attach, detect, cache, mutate.

Beyond the :class:`tests.conformance.BackendContract` registration (see
``test_conformance.py``), this module covers what is specific to running
detection *inside a file*:

* attach/introspection errors (missing file, missing table, column
  mismatch) and the CSV→sqlite ingest bridge;
* the session's scan cache: warm re-checks issue no data SQL at all, the
  backend's own DML makes only the touched table's units stale (and the
  next read carries them forward), and writes committed by a *second*
  connection are caught via ``PRAGMA data_version``, which clears the
  cache — including a delete and re-insert behind an unchanged rowid
  envelope;
* a Hypothesis differential suite interleaving SQL-side ``insert`` /
  ``delete`` — session-owned and out-of-band — with ``check`` / ``count``
  / ``is_clean`` against a fresh naive oracle over a mirrored in-memory
  instance (the cache validates at every read, so each externally
  committed write is observed at the next call).
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.cleaning.detect import detect_errors_in_file
from repro.core.violations import check_database_naive
from repro.datasets.bank import (
    bank_constraints,
    bank_schema,
    clean_bank_instance,
    scaled_bank_instance,
)
from repro.errors import ReproError, SQLBackendError
from repro.relational.csvio import database_csv_to_sqlite, write_database_csv
from repro.relational.instance import DatabaseInstance, Tuple
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.sql.loader import connect_file, create_database_file, introspect_schema

from tests.conformance import report_key


@pytest.fixture
def bank_file(bank, tmp_path):
    """The Fig. 1 bank instance written out as a sqlite file."""
    return create_database_file(tmp_path / "bank.db", bank.db)


class TestAttachAndIntrospect:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SQLBackendError, match="cannot open"):
            connect_file(tmp_path / "nope.db")

    def test_connect_requires_sqlfile_path_not_instance(self, bank):
        with pytest.raises(SQLBackendError, match="pass its path"):
            api.connect(bank.db, bank.constraints, backend="sqlfile")

    def test_path_rejected_by_memory_backends(self, bank_file, bank):
        with pytest.raises(ReproError, match="in-memory DatabaseInstance"):
            api.connect(bank_file, bank.constraints, backend="memory")

    def test_missing_table_reported(self, tmp_path, bank):
        path = tmp_path / "partial.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.close()
        with pytest.raises(SQLBackendError, match="no table"):
            api.connect(path, bank.constraints, backend="sqlfile")

    def test_column_mismatch_reported(self, tmp_path):
        schema = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        path = tmp_path / "cols.db"
        conn = sqlite3.connect(path)
        conn.execute('CREATE TABLE "R" ("B" TEXT, "A" TEXT)')  # wrong order
        conn.close()
        conn = connect_file(path)
        with pytest.raises(SQLBackendError, match="expected"):
            introspect_schema(conn, schema)
        conn.close()

    def test_extra_tables_tolerated(self, bank_file, bank):
        conn = sqlite3.connect(bank_file)
        conn.execute("CREATE TABLE side_notes (t TEXT)")
        conn.commit()
        conn.close()
        with api.connect(bank_file, bank.constraints, backend="sqlfile") as s:
            assert s.check().total == 2

    def test_create_refuses_overwrite(self, bank_file, bank):
        with pytest.raises(SQLBackendError, match="refusing to overwrite"):
            create_database_file(bank_file, bank.db)
        create_database_file(bank_file, bank.clean_db, overwrite=True)
        with api.connect(bank_file, bank.constraints, backend="sqlfile") as s:
            assert s.is_clean()

    def test_repair_runs_out_of_core_on_file_sessions(self, bank_file, bank):
        before = bank_file.read_bytes()
        with api.connect(bank_file, bank.constraints, backend="sqlfile") as s:
            result = s.repair()
        assert result.clean
        # Repair loads the file read-only; the attached file stays pristine.
        assert bank_file.read_bytes() == before


class TestValueRoundTrip:
    def test_integer_valued_finite_domain_round_trips(self, tmp_path):
        """Non-string constants must come back from the file by equality:
        an int-valued FiniteDomain maps to INTEGER affinity, so reports
        stay bit-identical to the memory backend (a TEXT column would
        round-trip 1 as '1')."""
        from repro.core.cfd import CFD
        from repro.core.violations import ConstraintSet
        from repro.relational.domains import enum_domain
        from repro.relational.schema import Attribute

        dom = enum_domain("level", (1, 2, 3))
        schema = DatabaseSchema(
            [RelationSchema("R", [Attribute("A", dom), Attribute("B")])]
        )
        rel = schema.relation("R")
        sigma = ConstraintSet(
            schema, cfds=[CFD(rel, ("A",), ("B",), [((1,), ("x",))])]
        )
        db = DatabaseInstance(
            schema, {"R": [(1, "x"), (1, "y"), (2, "z")]}
        )
        expected = report_key(api.connect(db, sigma).check())
        path = create_database_file(tmp_path / "ints.db", db)
        with api.connect(path, sigma, backend="sqlfile") as session:
            assert report_key(session.check()) == expected
            violation = session.check().cfd_violations[0]
            assert violation.lhs_values == (1,)  # int, not '1'


class TestReadonly:
    def test_readonly_blocks_mutations(self, bank_file, bank):
        with api.connect(
            bank_file, bank.constraints, backend="sqlfile", readonly=True
        ) as session:
            assert session.check().total == 2
            row = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}
            with pytest.raises(SQLBackendError, match="read-only"):
                session.insert("interest", row)
            victim = next(iter(bank.db["interest"]))
            with pytest.raises(SQLBackendError, match="read-only"):
                session.delete("interest", Tuple(victim.schema, victim.values))
        # the file is untouched
        with api.connect(bank_file, bank.constraints, backend="sqlfile") as s:
            assert s.check().total == 2


class TestCSVIngest:
    def test_csv_round_trip_matches_memory(self, bank, tmp_path):
        csv_dir = tmp_path / "csv"
        write_database_csv(bank.db, csv_dir)
        db_path = database_csv_to_sqlite(
            bank.schema, csv_dir, tmp_path / "ingested.db"
        )
        reference = check_database_naive(bank.db, bank.constraints)
        with api.connect(db_path, bank.constraints, backend="sqlfile") as s:
            assert report_key(s.check()) == report_key(reference)

    def test_ingest_respects_overwrite_flag(self, bank, tmp_path):
        csv_dir = tmp_path / "csv"
        write_database_csv(bank.db, csv_dir)
        target = tmp_path / "twice.db"
        database_csv_to_sqlite(bank.schema, csv_dir, target)
        with pytest.raises(SQLBackendError):
            database_csv_to_sqlite(bank.schema, csv_dir, target)
        database_csv_to_sqlite(bank.schema, csv_dir, target, overwrite=True)


class TestSQLScanCache:
    """The session's scan cache: kept by its own DML, cleared by another
    connection's commit."""

    def test_warm_recheck_runs_no_data_sql(self, bank_file, bank):
        with api.connect(bank_file, bank.constraints, backend="sqlfile") as s:
            first = s.check()
            statements: list[str] = []
            s.backend.conn.set_trace_callback(statements.append)
            assert report_key(s.check()) == report_key(first)
            assert s.count().total == first.total
            assert s.is_clean() is False
            s.backend.conn.set_trace_callback(None)
            # One PRAGMA data_version per call; nothing touches the tables.
            assert statements, "trace callback saw no statements"
            assert all("data_version" in sql for sql in statements), statements

    def test_own_dml_invalidates_only_touched_table(self, tmp_path, bank):
        """Own DML makes only the touched table's units stale, and the
        next read carries exactly those forward — none re-scans."""
        path = create_database_file(tmp_path / "c.db", bank.clean_db)
        with api.connect(path, bank.constraints, backend="sqlfile") as s:
            assert s.is_clean()
            backend = s.backend
            cache = backend.cache
            versions = dict(backend._versions)
            misses, carried = cache.misses, cache.carried
            row = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}
            s.insert("interest", row)
            moved = {t for t, v in backend._versions.items() if v != versions[t]}
            assert moved == {"interest"}
            assert not s.is_clean()
            assert cache.misses == misses and cache.carried > carried

    def test_second_connection_insert_is_caught(self, tmp_path, bank):
        path = create_database_file(tmp_path / "x.db", bank.clean_db)
        ref = bank.clean_db.copy()
        with api.connect(path, bank.constraints, backend="sqlfile") as s:
            assert s.is_clean()
            other = sqlite3.connect(path)
            other.execute(
                'INSERT INTO "interest" VALUES (?, ?, ?, ?)',
                ("GLA", "UK", "checking", "9.9%"),
            )
            other.commit()
            other.close()
            ref["interest"].add(
                {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}
            )
            assert s.is_clean() is False  # data_version caught it
            assert report_key(s.check()) == report_key(
                check_database_naive(ref, bank.constraints)
            )

    def test_second_connection_delete_is_caught(self, bank_file, bank):
        ref = bank.db.copy()
        with api.connect(bank_file, bank.constraints, backend="sqlfile") as s:
            assert s.check().total == 2
            victim = next(iter(ref["interest"]))
            other = sqlite3.connect(bank_file)
            other.execute(
                'DELETE FROM "interest" WHERE "ab"=? AND "ct"=? AND "at"=? '
                'AND "rt"=?',
                victim.values,
            )
            other.commit()
            other.close()
            ref["interest"].discard(victim)
            assert report_key(s.check()) == report_key(
                check_database_naive(ref, bank.constraints)
            )


class TestFileCLIAndCleaning:
    def test_detect_errors_in_file(self, bank_file, bank):
        result = detect_errors_in_file(bank_file, bank.constraints)
        assert not result.is_clean
        assert result.report.total == 2
        assert result.dirty_count == 2

    def test_cli_check_engine_sqlfile(self, bank_file, tmp_path, capsys):
        from repro.cli import main

        schema_file = tmp_path / "bank.schema"
        schema_file.write_text(
            "relation saving(an, cn, ca, cp, ab)\n"
            "relation checking(an, cn, ca, cp, ab)\n"
            "relation interest(ab, ct, at: enum[saving|checking], rt)\n"
        )
        rules = tmp_path / "bank.rules"
        rules.write_text(
            "[phi3-uk-check] interest: ct='UK', at='checking' -> rt='1.5%'\n"
        )
        code = main([
            "check",
            "--schema", str(schema_file),
            "--constraints", str(rules),
            "--data", str(bank_file),
            "--engine", "sqlfile",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "violation" in out

    def test_cli_sqlfile_rejects_csv_directory(self, tmp_path, capsys):
        from repro.cli import main

        schema_file = tmp_path / "s.schema"
        schema_file.write_text("relation R(A)\n")
        rules = tmp_path / "s.rules"
        rules.write_text("")
        data_dir = tmp_path / "csvs"
        data_dir.mkdir()
        code = main([
            "check",
            "--schema", str(schema_file),
            "--constraints", str(rules),
            "--data", str(data_dir),
            "--engine", "sqlfile",
        ])
        assert code == 2
        assert "sqlite database file" in capsys.readouterr().err


# -- Hypothesis differential suite --------------------------------------------


def _random_row(relation, seed: int) -> dict:
    """A row from a small value pool, so mutations collide with groups."""
    pool = ["NYC", "EDI", "GLA", "a", "b", str(seed % 5)]
    values = {}
    for i, attr in enumerate(relation.attributes):
        if attr.is_finite:
            values[attr.name] = attr.domain.values[seed % len(attr.domain.values)]
        else:
            values[attr.name] = pool[(seed + i) % len(pool)]
    return values


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "delete",
                "external_insert",
                "external_delete",
                "check",
                "count",
                "is_clean",
            ]
        ),
        st.integers(min_value=0, max_value=10 ** 9),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_accounts=st.integers(min_value=3, max_value=10),
    error_rate=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=10_000),
    ops=OPS,
)
def test_sqlfile_differential_with_external_writers(
    n_accounts, error_rate, seed, ops
):
    """A persistent sqlfile session — its cache alive across mutations
    made both through the session (SQL DML) and by a *second* connection
    writing to the file out-of-band — answers every observation exactly
    like a fresh naive oracle over a mirrored in-memory instance.

    Every op is followed by an ``is_clean`` probe, so each externally
    committed write is observed at the next cache validation (the
    ``data_version`` + fingerprint guarantee under test)."""
    sigma = bank_constraints()
    reference = scaled_bank_instance(
        n_accounts, error_rate=error_rate, seed=seed
    )
    relation_names = list(reference.schema.relation_names)
    with tempfile.TemporaryDirectory() as tmp:
        path = create_database_file(Path(tmp) / "diff.db", reference)
        with api.connect(path, sigma, backend="sqlfile") as session:
            for op, op_seed in ops:
                relation = relation_names[op_seed % len(relation_names)]
                schema = reference.schema.relation(relation)
                if op == "insert":
                    row = _random_row(schema, op_seed)
                    expected = reference[relation].add(dict(row)) is not None
                    assert session.insert(relation, dict(row)) == expected
                elif op == "delete":
                    tuples = reference[relation].tuples
                    if not tuples:
                        continue
                    victim = tuples[op_seed % len(tuples)]
                    assert reference[relation].discard(victim)
                    assert session.delete(
                        relation, Tuple(schema, victim.values)
                    ) is True
                elif op == "external_insert":
                    row = Tuple(schema, _random_row(schema, op_seed))
                    if reference[relation].add(row) is None:
                        continue  # keep the file duplicate-free (set semantics)
                    other = sqlite3.connect(path)
                    placeholders = ", ".join("?" for __ in row.values)
                    other.execute(
                        f'INSERT INTO "{relation}" VALUES ({placeholders})',
                        row.values,
                    )
                    other.commit()
                    other.close()
                elif op == "external_delete":
                    tuples = reference[relation].tuples
                    if not tuples:
                        continue
                    victim = tuples[op_seed % len(tuples)]
                    reference[relation].discard(victim)
                    other = sqlite3.connect(path)
                    pred = " AND ".join(
                        f'"{a}" = ?' for a in schema.attribute_names
                    )
                    other.execute(
                        f'DELETE FROM "{relation}" WHERE {pred}', victim.values
                    )
                    other.commit()
                    other.close()
                elif op == "check":
                    assert report_key(session.check()) == report_key(
                        check_database_naive(reference, sigma)
                    )
                elif op == "count":
                    oracle = check_database_naive(reference, sigma)
                    summary = session.count()
                    assert summary.total == oracle.total
                    assert summary.by_constraint() == oracle.by_constraint()
                # Observe after every op: each external commit is validated
                # (and fingerprint-recorded) before the next one lands.
                assert session.is_clean() == check_database_naive(
                    reference, sigma
                ).is_clean


@settings(max_examples=10, deadline=None)
@given(
    n_accounts=st.integers(min_value=5, max_value=25),
    error_rate=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_sqlfile_cold_reports_match_memory(n_accounts, error_rate, seed):
    """File-backed reports are bit-identical to the memory backend's."""
    sigma = bank_constraints()
    db = scaled_bank_instance(n_accounts, error_rate=error_rate, seed=seed)
    expected = report_key(api.connect(db, sigma).check())
    with tempfile.TemporaryDirectory() as tmp:
        path = create_database_file(Path(tmp) / "cold.db", db)
        with api.connect(path, sigma, backend="sqlfile") as session:
            assert report_key(session.check()) == expected


class TestRowidEnvelopeSwap:
    """A foreign writer that deletes the newest row and inserts a
    different one hands the replacement the vacated max rowid, so the
    table's ``(max rowid, COUNT(*))`` envelope comes back unchanged. A
    session must still see the write: ``PRAGMA data_version`` moved, and
    that alone clears its cache.
    """

    DIRTY = ("GLA", "UK", "checking", "9.9%")

    def _swap_newest_interest_row(self, path):
        """Delete interest's max-rowid row, insert DIRTY reusing the rowid.

        Returns the replaced row's values. Asserts the write leaves the
        rowid envelope as it was — the precondition of the whole test.
        """
        other = sqlite3.connect(path)
        envelope = 'SELECT MAX(rowid), COUNT(*) FROM "interest"'
        try:
            [before] = other.execute(envelope).fetchall()
            [(victim_rowid,)] = other.execute(
                'SELECT MAX(rowid) FROM "interest"'
            ).fetchall()
            [victim] = other.execute(
                'SELECT * FROM "interest" WHERE rowid = ?', (victim_rowid,)
            ).fetchall()
            other.execute(
                'DELETE FROM "interest" WHERE rowid = ?', (victim_rowid,)
            )
            other.execute(
                'INSERT INTO "interest" VALUES (?, ?, ?, ?)', self.DIRTY
            )
            other.commit()
            assert other.execute(envelope).fetchall() == [before]
            return victim
        finally:
            other.close()

    def _mirror(self, bank, victim):
        ref = bank.clean_db.copy()
        interest = bank.schema.relation("interest")
        assert ref["interest"].discard(Tuple(interest, victim))
        ref["interest"].add(self.DIRTY)
        return ref

    def test_default_session_catches_the_swap(self, tmp_path, bank):
        path = create_database_file(tmp_path / "swap.db", bank.clean_db)
        with api.connect(path, bank.constraints, backend="sqlfile") as s:
            assert s.is_clean()
            victim = self._swap_newest_interest_row(path)
            oracle = check_database_naive(
                self._mirror(bank, victim), bank.constraints
            )
            assert s.is_clean() is False
            assert report_key(s.check()) == report_key(oracle)


class TestWitnessProbePlan:
    """The pushed-down CIND probe must anti-join via the witness index.

    The witness temp tables exist to turn each per-LHS-row ``NOT EXISTS``
    into an index seek on large files; the covering index is created
    before any probe compiles and ``ANALYZE`` publishes its stats so
    sqlite has real row counts to plan with. Asserted through
    ``EXPLAIN QUERY PLAN`` on a witness table big enough that a scan
    would genuinely hurt (on the tiny bank fixture sqlite may *correctly*
    scan a two-row witness table — that is the stats working, not the
    index failing).
    """

    @pytest.fixture
    def wide_cind_file(self, tmp_path):
        """R1[a] ⊆ R2[b] with an 800-key witness table."""
        from repro.core.cind import CIND
        from repro.core.violations import ConstraintSet
        from repro.relational.schema import (
            Attribute,
            DatabaseSchema,
            RelationSchema,
        )
        from repro.relational.values import WILDCARD as _

        schema = DatabaseSchema(
            [
                RelationSchema("R1", [Attribute("a")]),
                RelationSchema("R2", [Attribute("b")]),
            ]
        )
        db = DatabaseInstance(schema)
        for i in range(800):
            db.add("R1", (f"v{i}",))
            db.add("R2", (f"v{i + 3}",))
        sigma = ConstraintSet(schema)
        sigma.add_cind(
            CIND(
                schema.relation("R1"), ("a",), (), schema.relation("R2"),
                ("b",), (), [((_,), (_,))], name="psi_big",
            )
        )
        path = create_database_file(tmp_path / "wide.db", db)
        return path, sigma

    def test_probe_plan_uses_covering_index(self, wide_cind_file):
        from repro.engine import plan_detection
        from repro.sql.violations import SQLPlanExecutor

        path, sigma = wide_cind_file
        conn = connect_file(path)
        plan = plan_detection(sigma)
        executor = SQLPlanExecutor(conn, plan)
        try:
            [task] = [
                t
                for tasks in plan.cind_scans.values()
                for t in tasks
                if t.x_positions
            ]
            sql, params = executor._cind_sql(task, "t1.*")
            assert sql is not None
            detail = " | ".join(
                str(row[-1])
                for row in conn.execute(
                    "EXPLAIN QUERY PLAN " + sql, params
                ).fetchall()
            )
            assert "__witness_" in detail, detail
            assert "USING COVERING INDEX" in detail, detail
            assert "SCAN w" not in detail, detail
            # ANALYZE materialized stats for the witness table, with the
            # real row count sqlite plans from.
            [(tbl, __, stat)] = conn.execute(
                "SELECT * FROM temp.sqlite_stat1"
            ).fetchall()
            assert tbl.startswith("__witness_")
            assert stat.split()[0] == "800"
        finally:
            executor.close()
            conn.close()
