"""Columnar views + versioned ScanCache: consistency under mutation.

The columnar execution layer rests on two invariants:

1. ``RelationInstance.columns()`` — the store itself, compacted after
   deletes — always equals the transpose of the live tuple set, in row
   order, across ``add``/``discard``/``replace_value``;
2. a session's :class:`~repro.engine.cache.ScanCache` never serves a stale
   scan result — any interleaving of mutations and ``check``/``count``/
   ``is_clean`` must answer exactly like a cold naive run over the current
   data, on every backend.

The Hypothesis tests drive randomized ``insert``/``delete`` (every
in-memory backend, persistent sessions so the caches live across
mutations) and ``replace_value`` (memory backend — the chase's in-place
rewrite) against the fresh-oracle answer after every observation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.violations import check_database_naive
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import ScanCache, execute_plan, plan_detection
from repro.relational.instance import RelationInstance, Tuple
from repro.relational.schema import RelationSchema

from tests.conformance import in_memory_backend_names, report_key

#: In-memory backends only: the file-backed ``sqlfile`` backend runs the
#: same interleavings against a real file in ``test_sqlfile.py``.
ALL_BACKENDS = in_memory_backend_names()


# -- columnar view unit behaviour ---------------------------------------------


class TestColumnarView:
    @pytest.fixture
    def inst(self):
        return RelationInstance(
            RelationSchema("R", ["A", "B"]),
            [("1", "x"), ("2", "y"), ("3", "x")],
        )

    def assert_consistent(self, inst):
        rows = inst.rows()
        assert rows == list(inst.tuples)
        columns = inst.columns()
        assert len(columns) == inst.schema.arity
        for i, t in enumerate(rows):
            assert tuple(col[i] for col in columns) == t.values

    def test_columns_transpose_in_insertion_order(self, inst):
        assert inst.columns() == (["1", "2", "3"], ["x", "y", "x"])
        self.assert_consistent(inst)

    def test_empty_instance_columns(self):
        inst = RelationInstance(RelationSchema("R", ["A", "B"]))
        assert inst.columns() == ([], [])
        assert inst.rows() == []

    def test_version_bumps_on_mutations_only(self, inst):
        v0 = inst.version
        assert inst.add(("4", "z")) is not None
        assert inst.version > v0
        v1 = inst.version
        assert inst.add(("4", "z")) is None  # duplicate: no-op
        assert inst.version == v1
        assert inst.discard(Tuple(inst.schema, ("9", "9"))) is False  # absent
        assert inst.version == v1
        assert inst.discard(Tuple(inst.schema, ("4", "z"))) is True
        assert inst.version > v1
        v2 = inst.version
        inst.replace_value("x", "w")
        assert inst.version > v2

    def test_views_track_mutations(self, inst):
        inst.columns()  # materialize, then invalidate
        inst.add(("4", "z"))
        self.assert_consistent(inst)
        inst.discard(Tuple(inst.schema, ("2", "y")))
        self.assert_consistent(inst)
        assert inst.columns() == (["1", "3", "4"], ["x", "x", "z"])
        inst.replace_value("x", "y")
        self.assert_consistent(inst)

    def test_columns_are_the_store(self, inst):
        # No memo to rebuild: columns() hands out the store's own lists,
        # and an append extends them in place.
        before = inst.columns()
        inst.add(("4", "z"))
        after = inst.columns()
        assert all(a is b for a, b in zip(after, before))
        assert after == (["1", "2", "3", "4"], ["x", "y", "x", "z"])

    def test_discard_keeps_index_order(self, inst):
        # Force an index, then remove from the middle of a bucket: the
        # dict-keyed bucket removal must keep the others in insertion order.
        assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["1", "3"]
        inst.discard(Tuple(inst.schema, ("1", "x")))
        assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["3"]
        inst.add(("5", "x"))
        assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["3", "5"]


# -- ScanCache unit behaviour -------------------------------------------------


class TestScanCache:
    def test_warm_check_serves_cached_hits(self):
        db = scaled_bank_instance(30, error_rate=0.2, seed=3)
        session = api.connect(db, bank_constraints())
        first = session.check()
        cache = session.backend.cache
        misses_after_cold = cache.misses
        assert report_key(session.check()) == report_key(first)
        assert cache.misses == misses_after_cold  # all scan units warm
        assert cache.hits > 0

    def test_mutation_invalidates_only_touched_relation(self):
        db = scaled_bank_instance(30, error_rate=0.0, seed=3)
        sigma = bank_constraints()
        session = api.connect(db, sigma)
        assert session.is_clean()
        t = next(iter(db["saving"]))
        session.delete("saving", t)
        session.insert("saving", t.replace(ab="nowhere"))
        report = session.check()
        assert report_key(report) == report_key(check_database_naive(db, sigma))

    def test_cache_rejected_for_foreign_plan(self):
        db = scaled_bank_instance(5, error_rate=0.0, seed=1)
        sigma = bank_constraints()
        plan = plan_detection(sigma)
        foreign = ScanCache(plan_detection(sigma))
        with pytest.raises(ValueError):
            execute_plan(plan, db, cache=foreign)

    def test_count_and_is_clean_share_check_entries(self):
        db = scaled_bank_instance(25, error_rate=0.1, seed=9)
        session = api.connect(db, bank_constraints())
        report = session.check()
        cache = session.backend.cache
        misses = cache.misses
        summary = session.count()
        assert session.is_clean() == report.is_clean
        assert cache.misses == misses
        assert summary.total == report.total
        assert summary.by_constraint() == report.by_constraint()


# -- randomized mutation/observation interleavings ----------------------------


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "check", "count", "is_clean"]),
        st.integers(min_value=0, max_value=10 ** 9),
    ),
    min_size=1,
    max_size=14,
)


def _random_row(relation: RelationSchema, seed: int) -> dict:
    """A row from a small value pool, so mutations collide with groups."""
    pool = ["NYC", "EDI", "GLA", "a", "b", str(seed % 5)]
    values = {}
    for i, attr in enumerate(relation.attributes):
        if attr.is_finite:
            values[attr.name] = attr.domain.values[seed % len(attr.domain.values)]
        else:
            values[attr.name] = pool[(seed + i) % len(pool)]
    return values


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_accounts=st.integers(min_value=3, max_value=12),
    error_rate=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=10_000),
    ops=OPS,
)
def test_cache_consistent_under_mutations_all_backends(
    n_accounts, error_rate, seed, ops
):
    """Persistent sessions (live caches) answer like a fresh naive oracle
    after every mutation, on every backend."""
    sigma = bank_constraints()
    sessions = {
        name: api.connect(
            scaled_bank_instance(n_accounts, error_rate=error_rate, seed=seed),
            sigma,
            backend=name,
        )
        for name in ALL_BACKENDS
    }
    reference_db = scaled_bank_instance(
        n_accounts, error_rate=error_rate, seed=seed
    )
    relation_names = list(reference_db.schema.relation_names)

    for op, op_seed in ops:
        relation = relation_names[op_seed % len(relation_names)]
        if op == "insert":
            row = _random_row(reference_db.schema.relation(relation), op_seed)
            expected = reference_db[relation].add(dict(row)) is not None
            for name, session in sessions.items():
                assert session.insert(relation, dict(row)) == expected, name
        elif op == "delete":
            tuples = reference_db[relation].tuples
            if not tuples:
                continue
            victim = tuples[op_seed % len(tuples)]
            assert reference_db[relation].discard(victim)
            for name, session in sessions.items():
                mirror = Tuple(victim.schema, victim.values)
                assert session.delete(relation, mirror) is True, name
        else:
            oracle = check_database_naive(reference_db, sigma)
            expected_key = report_key(oracle)
            for name, session in sessions.items():
                if op == "check":
                    assert report_key(session.check()) == expected_key, name
                elif op == "count":
                    summary = session.count()
                    assert summary.total == oracle.total, name
                    assert summary.by_constraint() == oracle.by_constraint(), name
                else:
                    assert session.is_clean() == oracle.is_clean, name
    for session in sessions.values():
        session.close()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_accounts=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "delete", "replace", "check", "count", "is_clean"]
            ),
            st.integers(min_value=0, max_value=10 ** 9),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_cache_consistent_under_replace_value(n_accounts, seed, ops):
    """replace_value (the chase's wholesale rewrite) also invalidates the
    columnar views and every dependent cache entry."""
    sigma = bank_constraints()
    db = scaled_bank_instance(n_accounts, error_rate=0.2, seed=seed)
    session = api.connect(db, sigma)
    for op, op_seed in ops:
        relation = db.schema.relation_names[op_seed % len(db.schema.relation_names)]
        instance = db[relation]
        if op == "insert":
            session.insert(
                relation, _random_row(instance.schema, op_seed)
            )
        elif op == "delete":
            if len(instance):
                session.delete(
                    relation, instance.tuples[op_seed % len(instance)]
                )
        elif op == "replace":
            values = sorted({v for t in instance for v in t.values})
            if len(values) >= 2:
                old = values[op_seed % len(values)]
                new = values[(op_seed // 7) % len(values)]
                instance.replace_value(old, new)
        elif op == "check":
            assert report_key(session.check()) == report_key(
                check_database_naive(db, sigma)
            )
        elif op == "count":
            oracle = check_database_naive(db, sigma)
            summary = session.count()
            assert summary.total == oracle.total
            assert summary.by_constraint() == oracle.by_constraint()
        else:
            assert session.is_clean() == check_database_naive(db, sigma).is_clean
