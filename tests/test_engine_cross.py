"""Cross-validation of the shared-scan engine against the naive oracle.

The engine (:mod:`repro.engine`) must be observationally identical to the
per-constraint reference evaluation
(:func:`repro.core.violations.check_database_naive`):

* property-based (Hypothesis, over the generators of
  ``tests/strategies.py``): identical violation sets — and identical list
  *order* — on random schemas, constraint sets, and instances; count-only
  mode agrees on totals and per-constraint counts; the early-exit
  ``database_is_clean`` agrees on cleanliness;
* replay: over randomized insert/delete sequences on both ready-made
  datasets (bank and commerce), a ``memory`` session carrying its scan
  cache forward by the same ops, a cold engine run, and the naive oracle
  agree at every checkpoint, over Σ as given and over ``Σ.normalized()``.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.violations import (
    ConstraintSet,
    check_database_naive,
)
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.engine import (
    count_violations,
    database_is_clean,
    detect,
    execute_plan,
    plan_detection,
)
from repro.relational.domains import FiniteDomain

from tests.conformance import assert_reports_bit_identical
from tests.strategies import cfds as cfd_strategy
from tests.strategies import cinds as cind_strategy
from tests.strategies import database_schemas, instances


def assert_reports_identical(engine_report, naive_report):
    """Same violations, same order (the engine is a drop-in replacement)."""
    assert_reports_bit_identical(engine_report, naive_report)


@st.composite
def constraint_sets(draw, schema, max_cfds: int = 3, max_cinds: int = 3):
    rels = list(schema)
    sigma = ConstraintSet(schema)
    for __ in range(draw(st.integers(min_value=0, max_value=max_cfds))):
        sigma.add_cfd(draw(cfd_strategy(draw(st.sampled_from(rels)))))
    for __ in range(draw(st.integers(min_value=0, max_value=max_cinds))):
        src = draw(st.sampled_from(rels))
        dst = draw(st.sampled_from(rels))
        sigma.add_cind(draw(cind_strategy(src, dst)))
    return sigma


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_engine_matches_naive_oracle(data):
    schema = data.draw(database_schemas(max_relations=3))
    sigma = data.draw(constraint_sets(schema))
    db = data.draw(instances(schema, max_tuples=10))

    naive = check_database_naive(db, sigma)
    engine = detect(db, sigma)
    assert_reports_identical(engine, naive)

    summary = count_violations(db, sigma)
    assert summary.total == naive.total
    assert summary.cfd_total == len(naive.cfd_violations)
    assert summary.cind_total == len(naive.cind_violations)
    assert summary.by_constraint() == naive.by_constraint()

    assert database_is_clean(db, sigma) == naive.is_clean


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_plan_reuse_across_instances(data):
    """One plan, many databases — plans must hold no per-instance state."""
    schema = data.draw(database_schemas(max_relations=2))
    sigma = data.draw(constraint_sets(schema, max_cfds=2, max_cinds=2))
    plan = plan_detection(sigma)
    for __ in range(2):
        db = data.draw(instances(schema, max_tuples=8))
        assert_reports_identical(
            execute_plan(plan, db, mode="full"), check_database_naive(db, sigma)
        )


# -- replay agreement on the ready-made datasets ------------------------------


def _string_pool(sigma) -> list[str]:
    pool = sorted(v for v in sigma.all_constants() if isinstance(v, str))
    return pool + [f"x{i}" for i in range(4)]


def _random_row(rng: random.Random, relation, pool: list[str]) -> list[str]:
    row = []
    for attr in relation:
        if isinstance(attr.domain, FiniteDomain):
            row.append(rng.choice(list(attr.domain.values)))
        else:
            row.append(rng.choice(pool))
    return row


def _assert_three_way_agreement(db, forms, sessions) -> None:
    for sigma, session in zip(forms, sessions):
        naive = check_database_naive(db, sigma)
        assert_reports_identical(detect(db, sigma), naive)
        assert_reports_identical(session.check(), naive)
        assert session.count().by_constraint() == naive.by_constraint()
        assert session.is_clean() == naive.is_clean


def _replay(db, sigma, seed: int, steps: int = 60) -> None:
    """One-row ops on *db*, mirrored into one memory session per form of
    Σ; the sessions see several ops between some checkpoints."""
    rng = random.Random(seed)
    forms = (sigma, sigma.normalized())
    sessions = [api.connect(db.copy(), form) for form in forms]
    _assert_three_way_agreement(db, forms, sessions)
    pool = _string_pool(sigma)
    relations = [inst.schema for inst in db]
    for step in range(steps):
        relation = rng.choice(relations)
        instance = db[relation.name]
        if instance.tuples and rng.random() < 0.45:
            victim = rng.choice(instance.tuples)
            instance.discard(victim)
            op = {"deletes": [(relation.name, victim)]}
        else:
            row = _random_row(rng, relation, pool)
            instance.add(row)
            op = {"inserts": [(relation.name, row)]}
        for session in sessions:
            session.apply(**op)
        if step % 12 == 0:
            _assert_three_way_agreement(db, forms, sessions)
    _assert_three_way_agreement(db, forms, sessions)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_replay_agreement_bank(seed):
    db = scaled_bank_instance(25, error_rate=0.15, seed=seed)
    _replay(db, bank_constraints(), seed)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_replay_agreement_commerce(seed):
    db = commerce_instance(n_orders=40, error_rate=0.15, seed=seed)
    _replay(db, commerce_constraints(), seed)
