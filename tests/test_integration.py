"""End-to-end integration tests across modules.

Pipelines that chain generator → data → detection → repair → consistency,
on random seeds, asserting the cross-module invariants hold:

* consistent-by-construction Σ is accepted by Checking, and its witness
  verifies;
* clean data stays clean after population; injected errors are detected by
  both engines identically and removed by repair;
* normalization, SQL, and in-memory views of the same Σ agree everywhere.
"""

import random

import pytest

from repro import api
from repro.cleaning.repair import repair
from repro.consistency.checking import checking
from repro.consistency.random_checking import random_checking
from repro.core.violations import check_database, check_database_naive
from repro.generator.constraint_gen import consistent_constraints
from repro.generator.data_gen import (
    inject_cfd_violations,
    inject_cind_violations,
    populate_clean,
)
from repro.generator.schema_gen import random_schema

from tests.conformance import report_key


@pytest.mark.parametrize("seed", [3, 11, 27])
class TestGenerateCheckPipeline:
    def test_consistent_sigma_accepted_with_verified_witness(self, seed):
        schema = random_schema(n_relations=6, seed=seed, max_arity=8,
                               finite_ratio=0.25)
        sigma, witness = consistent_constraints(schema, 150, rng=random.Random(seed))
        decision = checking(schema, sigma, rng=random.Random(seed))
        assert decision.consistent
        assert sigma.satisfied_by(decision.witness)
        # The generator's own witness also verifies, independently.
        assert sigma.satisfied_by(witness)

    def test_normalized_sigma_same_verdict(self, seed):
        schema = random_schema(n_relations=5, seed=seed, max_arity=6,
                               finite_ratio=0.2)
        sigma, witness = consistent_constraints(schema, 80, rng=random.Random(seed))
        normal = sigma.normalized()
        assert normal.satisfied_by(witness)
        decision = checking(schema, normal, rng=random.Random(seed))
        assert decision.consistent


@pytest.mark.parametrize("seed", [5, 19])
class TestDirtyDataPipeline:
    def _setting(self, seed):
        schema = random_schema(n_relations=4, seed=seed, min_arity=6,
                               max_arity=9, finite_ratio=0.2)
        sigma, witness = consistent_constraints(schema, 25, rng=random.Random(seed))
        db = populate_clean(sigma, witness, 30, rng=random.Random(seed))
        return schema, sigma, db

    def test_clean_then_inject_then_detect_then_repair(self, seed):
        schema, sigma, db = self._setting(seed)
        assert check_database(db, sigma).is_clean

        rng = random.Random(seed)
        injected = inject_cfd_violations(db, sigma, 4, rng=rng)
        injected_cind = inject_cind_violations(db, sigma, 4, rng=rng)
        total_injected = injected.total + injected_cind.total
        if total_injected == 0:
            pytest.skip("seed produced no injectable violation sites")

        detection = api.connect(db, sigma).detect()
        assert not detection.is_clean

        result = repair(db, sigma, cind_policy="insert", max_rounds=20)
        final = check_database(result.db, sigma)
        assert result.clean == final.is_clean
        if result.clean:
            assert final.is_clean

    def test_sql_and_memory_engines_agree_on_dirty_data(self, seed):
        schema, sigma, db = self._setting(seed)
        rng = random.Random(seed + 1)
        inject_cfd_violations(db, sigma, 3, rng=rng)
        inject_cind_violations(db, sigma, 3, rng=rng)
        with api.connect(db, sigma, backend="sql") as session:
            sql = session.check()
        assert not sql.is_clean
        assert report_key(sql) == report_key(check_database_naive(db, sigma))


class TestBankFullCycle:
    def test_detect_repair_recheck_consistency(self, bank):
        # 1. dirty instance detected
        detection = api.connect(bank.db, bank.constraints).detect()
        assert detection.report.total == 2
        # 2. repair to clean
        repaired = repair(bank.db, bank.constraints)
        assert repaired.clean
        # 3. Σ itself is consistent (both algorithms agree, witnesses verify)
        for algorithm in (checking, random_checking):
            decision = algorithm(bank.schema, bank.constraints,
                                 rng=random.Random(4))
            assert decision.consistent
            assert bank.constraints.satisfied_by(decision.witness)

    def test_parser_round_trip_preserves_detection(self, bank):
        # Formatting Σ to text, re-parsing, and re-checking must find the
        # same two violations.
        from repro.core.parser import format_cfd, format_cind, parse_constraints

        lines = []
        for cind in bank.cinds:
            lines.extend(format_cind(cind))
        for cfd in bank.cfds:
            lines.extend(format_cfd(cfd))
        sigma2 = parse_constraints("\n".join(lines), bank.schema)
        report = check_database(bank.db, sigma2)
        # ψ6/ϕ3 were split into one constraint per row by the round trip,
        # but the violating tuples are identical.
        assert report.total == 2
        assert check_database(bank.clean_db, sigma2).is_clean
