"""Tests for the SQL backend, incl. cross-validation against the naive
oracle on the bank data and on random schemas/instances.

The ``sql`` backend runs the ``sqlfile`` backend's plan executor over a
``:memory:`` image of the instance, so every cross-check here compares
its whole report — violations, order, labels — with the oracle's.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database_naive
from repro.engine import plan_detection
from repro.errors import SQLBackendError
from repro.relational.domains import INTEGER
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.values import Variable
from repro.sql.ddl import create_table_sql, insert_sql, quote_identifier, sql_type
from repro.sql.loader import (
    connect_memory,
    create_database_file,
    load_database,
    read_database_file,
)
from repro.sql.violations import SQLPlanExecutor, TableauCache

from tests.conformance import report_key
from tests.strategies import cfds, cinds, database_schemas, instances


def _sql_report(db, sigma):
    with api.connect(db, sigma, backend="sql") as session:
        return session.check()


def _assert_matches_oracle(db, sigma):
    """The ``sql`` backend's report equals the naive oracle's, in order."""
    report = _sql_report(db, sigma)
    assert report_key(report) == report_key(check_database_naive(db, sigma))
    return report


class TestDDL:
    def test_quote_identifier(self):
        assert quote_identifier("A") == '"A"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_sql_types(self):
        assert sql_type(INTEGER) == "INTEGER"
        r = RelationSchema("R", ["A"])
        assert sql_type(r.attribute("A").domain) == "TEXT"

    def test_create_table(self):
        r = RelationSchema("R", ["A", Attribute("N", INTEGER)])
        sql = create_table_sql(r)
        assert sql == 'CREATE TABLE "R" ("A" TEXT, "N" INTEGER)'

    def test_insert_placeholders(self):
        r = RelationSchema("R", ["A", "B"])
        assert insert_sql(r) == 'INSERT INTO "R" VALUES (?, ?)'


class TestLoader:
    def test_round_trip(self, bank):
        conn = connect_memory()
        load_database(conn, bank.db)
        (count,) = conn.execute('SELECT COUNT(*) FROM "interest"').fetchone()
        assert count == 4
        rows = set(conn.execute('SELECT * FROM "saving"').fetchall())
        assert ("01", "J. Smith", "NYC, 19087", "212-5820844", "NYC") in rows
        conn.close()

    def test_template_rejected(self):
        schema = DatabaseSchema([RelationSchema("R", ["A"])])
        db = DatabaseInstance(schema, {"R": [(Variable("A", 0),)]})
        conn = connect_memory()
        with pytest.raises(SQLBackendError):
            load_database(conn, db)
        conn.close()


def _temp_table_count(conn, prefix="__tableau") -> int:
    (n,) = conn.execute(
        "SELECT COUNT(*) FROM sqlite_temp_master WHERE name LIKE ?",
        (prefix + "%",),
    ).fetchall()[0]
    return n


@pytest.fixture
def legacy_sql(monkeypatch):
    """Executors built from here on run the legacy GROUP-BY SQL, as on a
    sqlite library without window functions."""
    monkeypatch.setattr(
        "repro.sql.violations.supports_window_functions", lambda conn: False
    )


class TestConnectionOwnership:
    """The ``sql`` backend closes the image it owns; an executor on a
    caller's connection only drops its own temp tables."""

    def test_owned_connection_closed(self, bank):
        with api.connect(bank.db, bank.constraints, backend="sql") as session:
            session.check()
            image = session.backend._image.conn
            image.execute("SELECT 1")
        assert session.backend._image is None
        with pytest.raises(sqlite3.ProgrammingError):
            image.execute("SELECT 1")

    def test_attached_connection_left_open(self, bank, legacy_sql):
        conn = connect_memory()
        load_database(conn, bank.db)
        executor = SQLPlanExecutor(conn, plan_detection(bank.constraints))
        executor.execute("full")
        assert _temp_table_count(conn) > 0
        executor.close()
        # The caller's connection survives close() and still works...
        (count,) = conn.execute('SELECT COUNT(*) FROM "interest"').fetchall()[0]
        assert count == 4
        # ...and the executor's temp tables were cleaned up behind it.
        assert _temp_table_count(conn) == 0
        assert _temp_table_count(conn, "__witness") == 0
        conn.close()


class TestTableauTempTables:
    """Repeated checks must not leak one __tableau_N per CFD per call."""

    def test_repeated_checks_reuse_tableaux(self, bank, legacy_sql):
        conn = connect_memory()
        load_database(conn, bank.db)
        executor = SQLPlanExecutor(conn, plan_detection(bank.constraints))
        for __ in range(4):
            executor.execute("full")
            executor.release_witnesses()
            # One table per CFD content with an RHS constant: only phi3.
            assert _temp_table_count(conn) == 1
        executor.close()
        conn.close()

    def test_equal_content_cfds_share_one_table(self, bank):
        rel = bank.schema.relation("interest")
        twin_a = CFD(rel, ("ct",), ("rt",), [(("UK",), ("1.5%",))], name="a")
        twin_b = CFD(rel, ("ct",), ("rt",), [(("UK",), ("1.5%",))], name="b")
        conn = connect_memory()
        tableaux = TableauCache(conn)
        assert tableaux.get(twin_a) == tableaux.get(twin_b)
        assert _temp_table_count(conn) == 1
        conn.close()


class TestBankCrossValidation:
    """The ``sql`` backend and the oracle agree on Fig. 1, in order."""

    def test_cfd_agreement(self, bank):
        sql_key = report_key(_sql_report(bank.db, bank.constraints))
        oracle_key = report_key(check_database_naive(bank.db, bank.constraints))
        assert sql_key[0] == oracle_key[0]
        assert sql_key[0]  # phi3's violation is there

    def test_cind_agreement(self, bank):
        sql_key = report_key(_sql_report(bank.db, bank.constraints))
        oracle_key = report_key(check_database_naive(bank.db, bank.constraints))
        assert sql_key[1] == oracle_key[1]
        assert sql_key[1]  # psi6's violation is there

    def test_check_summary(self, bank):
        report = _sql_report(bank.db, bank.constraints)
        assert set(report.by_constraint()) == {"phi3", "psi6"}
        assert report.by_constraint()["psi6"] == 1

    def test_clean_instance_clean(self, bank):
        with api.connect(bank.clean_db, bank.constraints, backend="sql") as s:
            assert s.is_clean()
            assert s.count().total == 0

    def test_scaled_dirty_agreement(self):
        from repro.datasets.bank import bank_constraints, scaled_bank_instance

        db = scaled_bank_instance(150, error_rate=0.2, seed=13)
        report = _assert_matches_oracle(db, bank_constraints())
        assert report.cind_violations


class TestEdgeCases:
    def test_empty_lhs_cfd(self):
        schema = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        cfd = CFD(
            schema.relation("R"), (), ("B",), [((), ("only",))], name="c"
        )
        db = DatabaseInstance(schema, {"R": [("1", "only"), ("2", "nope")]})
        report = _assert_matches_oracle(db, ConstraintSet(schema, cfds=[cfd]))
        assert report.total == 1

    def test_empty_x_cind(self):
        schema = DatabaseSchema(
            [RelationSchema("R", ["A"]), RelationSchema("S", ["B"])]
        )
        cind = CIND(
            schema.relation("R"), (), ("A",), schema.relation("S"), (), ("B",),
            [(("k",), ("w",))],
        )
        sigma = ConstraintSet(schema, cinds=[cind])
        db = DatabaseInstance(schema, {"R": [("k",)], "S": [("other",)]})
        assert _assert_matches_oracle(db, sigma).total == 1
        db2 = DatabaseInstance(schema, {"R": [("k",)], "S": [("w",)]})
        assert _assert_matches_oracle(db2, sigma).total == 0

    def test_quoted_identifier_robustness(self):
        # Attribute values containing quotes must survive parameter binding.
        schema = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        cfd = CFD(
            schema.relation("R"), ("A",), ("B",), [(("o'brien",), ("x",))]
        )
        db = DatabaseInstance(schema, {"R": [("o'brien", "y")]})
        report = _assert_matches_oracle(db, ConstraintSet(schema, cfds=[cfd]))
        assert report.total == 1


class TestNullKeys:
    """Rows a foreign connection writes with NULL in a CFD's ``X``: the
    NULL keys group together, as ``None`` keys do in the oracle, on the
    one-pass SQL, on the legacy SQL and on the ``sql`` backend."""

    ROWS = {
        # phi1 = saving: (an, ab) -> (cn, ca, cp): a pair under (None, NYC)
        "saving": [
            (None, "A. Null", "NYC, 10001", "212-0000001", "NYC"),
            (None, "B. Null", "NYC, 10001", "212-0000001", "NYC"),
            (None, "C. Null", "EDI, EH1", "131-0000001", "EDI"),
        ],
        # phi3 = interest: (ct, at) -> rt: a pair under (None, saving)
        "interest": [
            ("EDI", None, "saving", "1%"),
            ("GLA", None, "saving", "2%"),
        ],
    }

    @pytest.fixture
    def null_file(self, bank, tmp_path):
        path = create_database_file(tmp_path / "nulls.db", bank.clean_db)
        conn = sqlite3.connect(path)
        for table, rows in self.ROWS.items():
            marks = ", ".join("?" for __ in rows[0])
            conn.executemany(f'INSERT INTO "{table}" VALUES ({marks})', rows)
        conn.commit()
        conn.close()
        return path

    def _expected(self, bank, path):
        reference = check_database_naive(
            read_database_file(path, bank.schema), bank.constraints
        )
        null_pairs = [
            v for v in reference.cfd_violations
            if None in v.lhs_values and v.kind == "pair"
        ]
        assert len(null_pairs) == 2  # the fixture plants both groups
        return report_key(reference)

    def test_onepass_sql(self, bank, null_file, monkeypatch):
        import repro.sql.windows as windows

        refined = []
        original = windows.cfd_refine_sql

        def spy(rel, group, candidates):
            staged = original(rel, group, candidates)
            refined.append(staged[0])
            return staged

        monkeypatch.setattr(windows, "cfd_refine_sql", spy)
        with api.connect(null_file, bank.constraints, backend="sqlfile") as s:
            assert report_key(s.check()) == self._expected(bank, null_file)
        # The NULL-safe candidate join answered the NULL keys.
        assert any("__cand" in sql for sql in refined)

    def test_legacy_sql(self, bank, null_file, legacy_sql):
        with api.connect(null_file, bank.constraints, backend="sqlfile") as s:
            assert s.backend._executor.use_window_functions is False
            assert report_key(s.check()) == self._expected(bank, null_file)

    def test_sql_backend(self, bank, null_file):
        db = read_database_file(null_file, bank.schema)
        report = _sql_report(db, bank.constraints)
        assert report_key(report) == self._expected(bank, null_file)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sql_matches_memory_on_random_cfds(data):
    schema = data.draw(database_schemas(max_relations=1))
    rel = list(schema)[0]
    cfd = data.draw(cfds(rel))
    db = data.draw(instances(schema, max_tuples=10))
    _assert_matches_oracle(db, ConstraintSet(schema, cfds=[cfd]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sql_matches_memory_on_random_cinds(data):
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    cind = data.draw(cinds(rels[0], rels[-1]))
    db = data.draw(instances(schema, max_tuples=10))
    _assert_matches_oracle(db, ConstraintSet(schema, cinds=[cind]))
