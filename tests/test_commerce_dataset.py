"""Tests for the e-commerce dataset: a second domain through the full stack."""

import random

import pytest

from repro import api
from repro.cleaning.repair import repair
from repro.consistency.checking import checking
from repro.core.violations import check_database
from repro.datasets.commerce import (
    commerce_constraints,
    commerce_instance,
    commerce_schema,
)
from repro.sql.violations import sql_check_database


@pytest.fixture(scope="module")
def setting():
    schema = commerce_schema()
    return schema, commerce_constraints(schema)


class TestCleanInstance:
    def test_clean_generation_satisfies_constraints(self, setting):
        schema, sigma = setting
        db = commerce_instance(150, error_rate=0.0, seed=4, schema=schema)
        report = check_database(db, sigma)
        assert report.is_clean, report.summary()

    def test_deterministic(self, setting):
        schema, __ = setting
        a = commerce_instance(50, seed=9, schema=schema)
        b = commerce_instance(50, seed=9, schema=schema)
        for rel in schema:
            assert {t.values for t in a[rel.name]} == {
                t.values for t in b[rel.name]
            }

    def test_quotes_may_drift_in_price(self, setting):
        # The conditional part: a quote with an off-catalog price is legal.
        schema, sigma = setting
        db = commerce_instance(30, error_rate=0.0, seed=1, schema=schema)
        db.add("orders", ("oX", "c0000", "UK", "sku0", "777", "quote"))
        assert check_database(db, sigma).is_clean
        # ... but the same price on a *paid* order is a violation.
        db.add("orders", ("oY", "c0000", "UK", "sku0", "777", "paid"))
        report = check_database(db, sigma)
        assert not report.is_clean
        assert any("paid_price" in n for n in report.by_constraint())


class TestDirtyInstance:
    def test_errors_detected(self, setting):
        schema, sigma = setting
        db = commerce_instance(300, error_rate=0.15, seed=4, schema=schema)
        detection = api.connect(db, sigma).detect()
        assert not detection.is_clean

    def test_sql_engine_agrees(self, setting):
        schema, sigma = setting
        db = commerce_instance(200, error_rate=0.15, seed=5, schema=schema)
        memory = api.connect(db, sigma).detect()
        sql = sql_check_database(db, sigma)
        assert set(sql) == set(memory.report.by_constraint())

    def test_repairable_with_delete_policy(self, setting):
        # Price-drifted paid orders cannot be fixed by inserting catalog
        # rows (that would break the catalog key); deleting the offending
        # orders converges.
        schema, sigma = setting
        db = commerce_instance(120, error_rate=0.1, seed=6, schema=schema)
        result = repair(db, sigma, cind_policy="delete", max_rounds=15)
        assert result.clean, check_database(result.db, sigma).summary()

    def test_insert_policy_reports_truthfully(self, setting):
        # The insert policy may oscillate on this error class (inserted
        # witnesses violate the catalog FD); whatever happens, the result
        # flag must match an independent recheck.
        schema, sigma = setting
        db = commerce_instance(120, error_rate=0.1, seed=6, schema=schema)
        result = repair(db, sigma, cind_policy="insert", max_rounds=5)
        assert result.clean == check_database(result.db, sigma).is_clean

    def test_error_rate_validation(self, setting):
        with pytest.raises(ValueError):
            commerce_instance(10, error_rate=-0.1)


class TestConstraintSetItself:
    def test_consistent(self, setting):
        schema, sigma = setting
        decision = checking(schema, sigma, rng=random.Random(2))
        assert decision.consistent
        assert sigma.satisfied_by(decision.witness)

    def test_constraint_counts(self, setting):
        __, sigma = setting
        assert len(sigma.cinds) == 6
        assert len(sigma.cfds) == 4
