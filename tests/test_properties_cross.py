"""Cross-cutting hypothesis properties tying several modules together.

These complement the per-module property tests with invariants that span
subsystem boundaries:

* heuristic consistency answers are *sound* on arbitrary (random, possibly
  inconsistent) constraint sets — a ``True`` always carries a verifying
  witness;
* the ``sql`` backend and the naive oracle agree on whole constraint sets,
  report order included;
* source-side CIND propagation through views is sound on random data;
* the Theorem 3.2 witness keeps verifying when CINDs are first normalised.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.consistency.checking import checking
from repro.consistency.random_checking import random_checking
from repro.core.consistency import build_cind_witness
from repro.core.normalize import normalize_cinds
from repro.core.violations import ConstraintSet, check_database_naive
from repro.generator.constraint_gen import random_constraints
from repro.generator.schema_gen import random_schema
from repro.views.spc import SPView, materialize, propagate_cinds

from tests.conformance import report_key
from tests.strategies import cinds as cind_strategy
from tests.strategies import database_schemas, instances


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=5, max_value=60),
)
def test_heuristic_true_answers_always_verify(seed, n):
    """On arbitrary random Σ: True ⇒ a witness satisfying Σ exists."""
    schema = random_schema(n_relations=4, seed=seed % 50, max_arity=6,
                           finite_ratio=0.25)
    sigma = random_constraints(schema, n, rng=random.Random(seed))
    for decide in (checking, random_checking):
        decision = decide(schema, sigma, k=5, rng=random.Random(seed))
        if decision.consistent:
            assert decision.witness is not None
            assert not decision.witness.is_empty()
            assert sigma.satisfied_by(decision.witness)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_sql_and_memory_agree_on_constraint_sets(data):
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    sigma = ConstraintSet(schema)
    n = data.draw(st.integers(min_value=1, max_value=4))
    for __ in range(n):
        src = data.draw(st.sampled_from(rels))
        dst = data.draw(st.sampled_from(rels))
        sigma.add_cind(data.draw(cind_strategy(src, dst)))
    db = data.draw(instances(schema, max_tuples=8))
    with api.connect(db, sigma, backend="sql") as session:
        sql = session.check()
    assert report_key(sql) == report_key(check_database_naive(db, sigma))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_view_cind_propagation_sound(data):
    """db |= ψ implies materialised view satisfies every propagated CIND."""
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    base = rels[0]
    target = rels[-1]
    cind = data.draw(cind_strategy(base, target, max_rows=2))
    db = data.draw(instances(schema, max_tuples=8))
    from hypothesis import assume

    assume(cind.satisfied_by(db))
    keep_size = data.draw(st.integers(min_value=1, max_value=base.arity))
    keep = base.attribute_names[:keep_size]
    view = SPView("v", base, keep, {})
    for propagated in propagate_cinds(view, [cind]):
        extended = materialize(db, [view])
        assert propagated.satisfied_by(extended)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_theorem_32_witness_stable_under_normalization(seed):
    schema = random_schema(n_relations=3, seed=seed % 40, max_arity=5,
                           finite_ratio=0.2)
    sigma = random_constraints(
        schema, 10, rng=random.Random(seed)
    )
    cinds = list(sigma.cinds)
    if not cinds:
        return
    witness = build_cind_witness(schema, cinds, max_tuples_per_relation=500_000)
    for cind in cinds:
        assert cind.satisfied_by(witness)
    for cind in normalize_cinds(cinds):
        assert cind.satisfied_by(witness)
