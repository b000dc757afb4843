"""Cross-validation of the `repro.api` Session/Backend facade.

The facade's contract is that choosing a backend (memory / naive / sql /
sqlfile) or turning on parallel dispatch is a *performance* decision:
``check()`` must return identical ``ViolationReport``s — identical down
to violation-list order — everywhere. The reusable per-backend suite
lives in :mod:`tests.conformance` (registered for all four backends in
``test_conformance.py``); this module keeps the Hypothesis
cross-validation over random schemas/instances and the facade plumbing
(options, mutations, registry).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import ExecutionOptions, MemoryBackend, SQLBackend
from repro.api.parallel import fork_available
from repro.core.violations import ConstraintSet, check_database_naive, constraint_labels
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.errors import ReproError

from tests.conformance import (
    assert_all_backends_agree,
    in_memory_backend_names,
    report_key,
)
from tests.strategies import cfds as cfd_strategy
from tests.strategies import cinds as cind_strategy
from tests.strategies import database_schemas, instances

#: The backends that take an in-memory DatabaseInstance directly (the
#: file-backed ``sqlfile`` backend is held to the same contract through
#: the conformance kit and its own differential suite instead).
ALL_BACKENDS = in_memory_backend_names()


class TestBackendEquivalenceFixed:
    def test_bank_fig1(self, bank):
        reference = assert_all_backends_agree(bank.db, bank.constraints)
        assert reference.total == 2  # t10 and t12, as in the paper

    def test_bank_clean(self, bank):
        reference = assert_all_backends_agree(bank.clean_db, bank.constraints)
        assert reference.is_clean

    def test_commerce(self):
        db = commerce_instance(n_orders=200, error_rate=0.08, seed=11)
        assert_all_backends_agree(db, commerce_constraints())


@settings(max_examples=8, deadline=None)
@given(
    n_accounts=st.integers(min_value=10, max_value=60),
    error_rate=st.sampled_from([0.0, 0.05, 0.25]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_backends_identical_on_bank(n_accounts, error_rate, seed):
    db = scaled_bank_instance(n_accounts, error_rate=error_rate, seed=seed)
    assert_all_backends_agree(db, bank_constraints())


@settings(max_examples=8, deadline=None)
@given(
    n_orders=st.integers(min_value=5, max_value=60),
    error_rate=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_backends_identical_on_commerce(n_orders, error_rate, seed):
    db = commerce_instance(n_orders=n_orders, error_rate=error_rate, seed=seed)
    assert_all_backends_agree(db, commerce_constraints())


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_backends_identical_on_random_constraint_sets(data):
    """Random schemas/instances stress the SQL adapter's report rebuild
    (multi-row tableaux, empty LHS, multi-attribute RHS, self-CINDs)."""
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    sigma = ConstraintSet(schema)
    for __ in range(data.draw(st.integers(min_value=0, max_value=2))):
        sigma.add_cfd(data.draw(cfd_strategy(data.draw(st.sampled_from(rels)))))
    for __ in range(data.draw(st.integers(min_value=0, max_value=2))):
        src = data.draw(st.sampled_from(rels))
        dst = data.draw(st.sampled_from(rels))
        sigma.add_cind(data.draw(cind_strategy(src, dst)))
    db = data.draw(instances(schema, max_tuples=10))
    assert_all_backends_agree(db, sigma)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestProcessParallel:
    """The fork-based process pool path (true CPU parallelism)."""

    def test_matches_serial_on_bank(self):
        db = scaled_bank_instance(300, error_rate=0.05, seed=5)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        parallel = api.connect(
            db, sigma, workers=4, executor="process"
        ).check()
        assert report_key(parallel) == report_key(serial)

    def test_count_mode_matches(self):
        db = commerce_instance(n_orders=150, error_rate=0.1, seed=5)
        sigma = commerce_constraints()
        serial = api.connect(db, sigma).count()
        parallel = api.connect(
            db, sigma, workers=4, executor="process",
        ).count()
        assert parallel.by_constraint() == serial.by_constraint()
        assert parallel.total == serial.total


class TestMutations:
    #: A UK checking interest row with the wrong rate: a single-tuple
    #: violation of ϕ3 (the tableau demands rt='1.5%').
    ROW = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_insert_delete_round_trip(self, bank, backend):
        db = bank.clean_db.copy()
        session = api.connect(db, bank.constraints, backend=backend)
        assert session.is_clean()
        assert session.insert("interest", dict(self.ROW)) is True
        assert session.insert("interest", dict(self.ROW)) is False
        assert not session.is_clean()
        report = session.check()
        assert "phi3" in report.by_constraint()
        t = next(t for t in db["interest"] if t["ab"] == "GLA")
        assert session.delete("interest", t) is True
        assert session.delete("interest", t) is False
        assert session.is_clean()
        session.close()


class TestSQLBackendAdapter:
    def test_violating_rows_keys_every_constraint(self, bank):
        with api.connect(bank.db, bank.constraints, backend="sql") as session:
            rows = session.backend.violating_rows()
            report = session.check()
        labels = set(constraint_labels(bank.constraints).values())
        assert set(rows) == labels  # empty-entry normalization
        violated = {name for name, r in rows.items() if r}
        assert violated == set(report.by_constraint())

    def test_rows_match_canonical_tuples(self, bank):
        with api.connect(bank.db, bank.constraints, backend="sql") as session:
            report = session.check()
        canonical = {
            t for instance in bank.db for t in instance
        }
        for v in report.cind_violations:
            assert v.tuple_ in canonical
        for v in report.cfd_violations:
            assert set(v.tuples) <= canonical


class TestFacadePlumbing:
    def test_unknown_backend_rejected(self, bank):
        with pytest.raises(ReproError):
            api.connect(bank.db, bank.constraints, backend="duckdb")

    def test_backend_class_and_instance_accepted(self, bank):
        by_class = api.connect(bank.db, bank.constraints, backend=MemoryBackend)
        instance = SQLBackend(bank.db, bank.constraints)
        by_instance = api.connect(bank.db, bank.constraints, backend=instance)
        assert report_key(by_class.check()) == report_key(by_instance.check())
        by_instance.close()

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(mode="everything")
        with pytest.raises(ValueError):
            ExecutionOptions(workers=0)
        with pytest.raises(ValueError):
            ExecutionOptions(executor="gpu")
        with pytest.raises(ValueError):
            ExecutionOptions(min_shard_rows=0)
        with pytest.raises(ValueError):
            ExecutionOptions(shards=-1)
        # The shard knobs accept their documented values.
        opts = ExecutionOptions(workers=2, min_shard_rows=1, shards=4)
        assert opts.parallel and opts.shards == 4

    def test_options_and_fields_are_exclusive(self, bank):
        with pytest.raises(ReproError):
            api.connect(
                bank.db, bank.constraints,
                options=ExecutionOptions(), workers=2,
            )

    def test_run_dispatches_on_mode(self, bank):
        db, sigma = bank.db, bank.constraints
        assert api.connect(db, sigma, mode="full").run().total == 2
        assert api.connect(db, sigma, mode="count").run().total == 2
        assert api.connect(db, sigma, mode="early-exit").run() is False

    def test_detection_summary_output_is_sorted(self, bank):
        text = api.connect(bank.db, bank.constraints).detect().summary()
        dirty_lines = [
            line for line in text.splitlines() if line.startswith("  ") and "<-" in line
        ]
        assert dirty_lines == sorted(dirty_lines)
