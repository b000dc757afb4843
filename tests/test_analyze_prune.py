"""`prune_implied=True` is bit-identical across every backend.

The planner prunes only structural duplicates (violation-equivalent by
construction) and replays the donor's buckets into the pruned
constraint's report slots, so a pruned run must be indistinguishable —
violations, order, labels, summaries — from the unpruned one and from
the naive oracle. This suite holds that across all five registered
backends (sqlfile goes through a real on-disk sqlite file) and on a
randomized generator workload with injected violations.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.analyze.redundancy import detection_prune_map
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database_naive
from repro.engine import execute_plan, plan_detection
from repro.generator import (
    SchemaConfig,
    consistent_constraints,
    inject_cfd_violations,
    populate_clean,
    random_schema,
)
from repro.sql.loader import create_database_file
from tests.conformance import (
    assert_reports_bit_identical,
    in_memory_backend_names,
    report_key,
)


@pytest.fixture
def dup_sigma(bank):
    """Bank Σ plus a differently-named structural duplicate of each kind.

    phi3 is violated by the paper's dirty instance, so the duplicated CFD
    has real violations to replay — the pruning path is not exercised
    vacuously.
    """
    phi3 = bank.by_name["phi3"]
    cfd_copy = CFD(
        phi3.relation, phi3.lhs, phi3.rhs, phi3.tableau, name="phi3_copy"
    )
    psi = bank.cinds[0]
    cind_copy = CIND(
        psi.lhs_relation, psi.x, psi.xp,
        psi.rhs_relation, psi.y, psi.yp, psi.tableau,
        name=f"{psi.name}_copy",
    )
    return ConstraintSet(
        bank.schema,
        cfds=list(bank.cfds) + [cfd_copy],
        cinds=list(bank.cinds) + [cind_copy],
    )


class TestPlanLevel:
    def test_prune_map_is_nonempty_and_tasks_are_replayed(self, dup_sigma):
        analysis = detection_prune_map(dup_sigma)
        assert analysis  # the duplicates were found
        plan = plan_detection(dup_sigma, analysis=analysis)
        assert plan.pruned_cfd_donors == analysis.cfd_donors
        assert plan.pruned_cind_donors == analysis.cind_donors
        assert plan.task_donors  # pruned row tasks anchored to donors

    def test_pruned_plan_report_bit_identical(self, bank, dup_sigma):
        reference = check_database_naive(bank.db, dup_sigma)
        assert "phi3_copy" in reference.by_constraint()  # replay is real
        plan = plan_detection(
            dup_sigma, analysis=detection_prune_map(dup_sigma)
        )
        report = execute_plan(plan, bank.db)
        assert_reports_bit_identical(report, reference, "plan-level prune")


class TestAllBackendsBitIdentical:
    def test_in_memory_backends(self, bank, dup_sigma):
        reference = check_database_naive(bank.db, dup_sigma)
        for name in in_memory_backend_names():
            with api.connect(
                bank.db, dup_sigma, backend=name, prune_implied=True
            ) as session:
                context = f"backend={name} prune_implied=True"
                assert_reports_bit_identical(
                    session.check(), reference, context
                )
                assert session.count().by_constraint() == (
                    reference.by_constraint()
                ), context
                assert session.is_clean() == reference.is_clean, context

    def test_sqlfile_backend(self, bank, dup_sigma, tmp_path):
        reference = check_database_naive(bank.db, dup_sigma)
        path = create_database_file(tmp_path / "pruned.db", bank.db)
        with api.connect(
            path, dup_sigma, backend="sqlfile", prune_implied=True
        ) as session:
            assert_reports_bit_identical(
                session.check(), reference, "backend=sqlfile"
            )
            assert session.count().by_constraint() == (
                reference.by_constraint()
            )

    def test_pruned_equals_unpruned_session(self, bank, dup_sigma):
        with api.connect(bank.db, dup_sigma) as plain:
            baseline = plain.check()
        with api.connect(
            bank.db, dup_sigma, prune_implied=True
        ) as pruned:
            assert report_key(pruned.check()) == report_key(baseline)

    def test_prune_without_duplicates_is_a_noop(self, bank):
        reference = check_database_naive(bank.db, bank.constraints)
        with api.connect(
            bank.db, bank.constraints, prune_implied=True
        ) as session:
            assert_reports_bit_identical(session.check(), reference)


class TestGeneratorWorkload:
    def test_randomized_dirty_instance(self):
        """Generator Σ with appended duplicates + injected violations:
        pruned memory backend == naive oracle, bit for bit."""
        rng = random.Random(1907)
        schema = random_schema(SchemaConfig(
            seed=7, n_relations=4, max_arity=5, finite_domain_size=(2, 6)
        ))
        sigma, witness = consistent_constraints(schema, 24, rng=rng)
        duplicates = [
            CFD(c.relation, c.lhs, c.rhs, c.tableau, name=f"dup{i}")
            for i, c in enumerate(sigma.cfds[:3])
        ]
        extended = ConstraintSet(
            schema,
            cfds=list(sigma.cfds) + duplicates,
            cinds=sigma.cinds,
        )
        db = populate_clean(sigma, witness, tuples_per_relation=30, rng=rng)
        inject_cfd_violations(db, sigma, 10, rng=rng)
        reference = check_database_naive(db, extended)
        assert not reference.is_clean  # injections landed
        assert detection_prune_map(extended)  # duplicates detected
        with api.connect(db, extended, prune_implied=True) as session:
            assert_reports_bit_identical(session.check(), reference)
