"""Structural duplicates in Σ keep their own report slots on every backend.

A constraint equal to an earlier one (same relations, attribute lists
and pattern tableau; names may differ) has the same violations on every
instance. The scan kernels evaluate each pattern-row signature once per
scan unit and replicate it, so a duplicate shares its twin's scan while
its violations stay its own: a run over a Σ with duplicates must be
indistinguishable — violations, order, labels, summaries — from the
naive oracle. This suite holds that on every in-memory backend, on
``sqlfile`` through a real on-disk sqlite file, and on a randomized
generator workload with injected violations.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.analyze.redundancy import duplicate_maps
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database_naive
from repro.generator import (
    SchemaConfig,
    consistent_constraints,
    inject_cfd_violations,
    populate_clean,
    random_schema,
)
from repro.sql.loader import create_database_file
from tests.conformance import assert_reports_bit_identical, in_memory_backend_names


@pytest.fixture
def dup_sigma(bank):
    """Bank Σ plus a differently-named structural duplicate of each kind.

    phi3 is violated by the paper's dirty instance, so the duplicated CFD
    has real violations of its own — the duplicate's slots are not
    tested vacuously.
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


class TestAllBackendsBitIdentical:
    def test_in_memory_backends(self, bank, dup_sigma):
        reference = check_database_naive(bank.db, dup_sigma)
        assert "phi3_copy" in reference.by_constraint()
        for name in in_memory_backend_names():
            with api.connect(bank.db, dup_sigma, backend=name) as session:
                context = f"backend={name}"
                assert_reports_bit_identical(
                    session.check(), reference, context
                )
                assert session.count().by_constraint() == (
                    reference.by_constraint()
                ), context
                assert session.is_clean() == reference.is_clean, context

    def test_sqlfile_backend(self, bank, dup_sigma, tmp_path):
        reference = check_database_naive(bank.db, dup_sigma)
        path = create_database_file(tmp_path / "duplicates.db", bank.db)
        with api.connect(path, dup_sigma, backend="sqlfile") as session:
            assert_reports_bit_identical(
                session.check(), reference, "backend=sqlfile"
            )
            assert session.count().by_constraint() == (
                reference.by_constraint()
            )
            assert session.is_clean() == reference.is_clean


class TestGeneratorWorkload:
    def test_randomized_dirty_instance(self):
        """Generator Σ with appended duplicates + injected violations:
        memory backend == naive oracle, bit for bit."""
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
        assert duplicate_maps(extended)[0]  # duplicates detected
        with api.connect(db, extended) as session:
            assert_reports_bit_identical(session.check(), reference)
