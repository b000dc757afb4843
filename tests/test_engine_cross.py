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
  agree at every checkpoint, over Σ as given and over ``Σ.normalized()``;
* the CFD kernel's key regimes: instances whose ``X``-keys are all
  distinct (nothing is compared), partly repeated (only the repeated
  keys' rows are compared) and all repeated (every row is), NULLs
  included, held to the oracle on the ``memory``, ``sqlfile`` and
  ``sql`` backends, and a second row added under an existing key and removed
  again, with the carried report equal to a cold one at each step.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.cfd import CFD
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
from repro.relational.domains import STRING, FiniteDomain
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD as _
from repro.sql.loader import create_database_file

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


# -- the CFD kernel's key regimes -----------------------------------------------

_KEYED = DatabaseSchema(
    [RelationSchema("K", [Attribute(n, STRING) for n in ("a", "b", "c", "e", "t")])]
)


def _keyed_sigma() -> ConstraintSet:
    """CFDs sharing ``X = (a, b)``: a wildcard FD, constant-RHS rows (and
    a structural duplicate the pruner drops), a two-attribute RHS, and an
    RHS equal to ``X``; plus ``X = (a,)``, whose few keys repeat, and an
    empty ``X``, whose one key holds every row."""
    rel = _KEYED.relation("K")
    sigma = ConstraintSet(_KEYED)
    sigma.add_cfd(CFD(rel, ("a", "b"), ("c",), [((_, _), (_,)), (("a0", _), (_,))], name="fd"))
    for name in ("const", "const_twin"):
        sigma.add_cfd(CFD(
            rel, ("a", "b"), ("c",), [((_, _), ("c0",)), (("a1", _), ("c1",))], name=name,
        ))
    sigma.add_cfd(CFD(
        rel, ("a", "b"), ("c", "e"), [((_, _), (_, _)), ((_, _), (_, "e0"))], name="pair",
    ))
    sigma.add_cfd(CFD(
        rel, ("a", "b"), ("a", "b"), [((_, _), (_, _)), (("a0", _), (_, "b1"))], name="rhs_x",
    ))
    sigma.add_cfd(CFD(rel, ("a",), ("e",), [((_,), (_,)), (("a2",), ("e1",))], name="by_a"))
    sigma.add_cfd(CFD(rel, (), ("c",), [((), (_,)), ((), ("c0",))], name="empty_x"))
    return sigma


@st.composite
def keyed_rows(draw):
    """Rows of ``K`` whose ``(a, b)``-keys are all distinct, partly
    repeated or all repeated, in drawn order; ``t`` keeps rows apart.
    ``a``, ``c`` and ``e`` may be ``None`` (NULL in a sqlite file)."""
    regime = draw(st.sampled_from(("distinct", "partly", "repeated")))
    n_keys = draw(st.integers(min_value=1, max_value=5))
    sizes = {
        "distinct": st.just([1] * n_keys),
        "partly": st.lists(
            st.integers(min_value=1, max_value=3), min_size=n_keys, max_size=n_keys
        ).map(lambda drawn: [1, 2] + drawn),
        "repeated": st.lists(
            st.integers(min_value=2, max_value=4), min_size=n_keys, max_size=n_keys
        ),
    }[regime]
    rows = []
    for k, size in enumerate(draw(sizes)):
        key = (draw(st.sampled_from(("a0", "a1", "a2", None))), f"b{k % 3}{k}")
        for __ in range(size):
            rows.append(key + (
                draw(st.sampled_from(("c0", "c1", None))),
                draw(st.sampled_from(("e0", "e1", None))),
                f"t{len(rows)}",
            ))
    return draw(st.permutations(rows))


def _keyed_db(rows) -> DatabaseInstance:
    db = DatabaseInstance(_KEYED)
    for row in rows:
        db.add("K", row)
    return db


@settings(max_examples=120, deadline=None)
@given(rows=keyed_rows())
def test_cfd_kernel_key_regimes_match_oracle(rows):
    """The engine, and the ``memory``, ``sqlfile`` and ``sql`` sessions
    (whose CFD SQL only picks candidate keys for the same kernel), all
    equal the oracle."""
    sigma = _keyed_sigma()
    db = _keyed_db(rows)
    naive = check_database_naive(db, sigma)
    assert_reports_identical(detect(db, sigma), naive)
    summary = count_violations(db, sigma)
    assert summary.by_constraint() == naive.by_constraint()
    assert summary.total == naive.total
    assert database_is_clean(db, sigma) == naive.is_clean
    with tempfile.TemporaryDirectory() as tmp:
        path = create_database_file(Path(tmp) / "keyed.db", db)
        for prune in (False, True):
            for backend, source in (
                ("memory", db.copy()), ("sqlfile", path), ("sql", db)
            ):
                with api.connect(
                    source, sigma, backend=backend, prune_implied=prune
                ) as session:
                    assert session.is_clean() == naive.is_clean
                    assert_reports_identical(session.check(), naive)
                    assert session.count().by_constraint() == naive.by_constraint()


@settings(max_examples=40, deadline=None)
@given(rows=keyed_rows(), data=st.data())
def test_cfd_kernel_second_row_under_a_key_carries(rows, data):
    """Insert a row under an existing ``(a, b)``-key, then delete it: the
    carried check of a memory and of a sqlfile session equals a cold
    check and the oracle after each step."""
    sigma = _keyed_sigma()
    db = _keyed_db(rows)
    a, b, __, __e, __t = data.draw(st.sampled_from(rows))
    extra = (a, b, data.draw(st.sampled_from(("c0", "c1"))), "e1", "t-extra")
    with tempfile.TemporaryDirectory() as tmp:
        path = create_database_file(Path(tmp) / "keyed.db", db)
        sessions = [
            api.connect(db.copy(), sigma),
            api.connect(path, sigma, backend="sqlfile"),
        ]
        try:
            for step in (None, {"inserts": [("K", extra)]}, {"deletes": [("K", extra)]}):
                if step is not None:
                    if "inserts" in step:
                        db.add("K", extra)
                    else:
                        db["K"].discard(db["K"].lookup(("t",), ("t-extra",))[0])
                cold = detect(db, sigma)
                assert_reports_identical(cold, check_database_naive(db, sigma))
                for session in sessions:
                    if step is not None:
                        session.apply(**step)
                    assert_reports_identical(session.check(), cold)
        finally:
            for session in sessions:
                session.close()
