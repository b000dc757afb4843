"""The column store of ``RelationInstance`` against a reference model.

Rows live as one list per attribute under ever-growing row ids; deletes
tombstone a slot and the first columnar read compacts. The model is the
simplest thing with the same semantics: an insertion-ordered dict of
value tuples. After every step of a random add / discard / bulk
discard / re-add / ``replace_value_tracked`` / ``copy`` script,
iteration order, ``lookup()``, ``len`` and ``in`` must match the model
while the step's tombstones are still pending, then ``columns()`` (which
compacts them) must too, and ``version`` may only grow.

The second half pins the point of the store: loading rows builds no
``Tuple`` per row, a cold check keeps ``Tuple`` views only for its
CIND-violating rows, and a session serving one-row commits keeps each
CFD group as a ``RowGroup`` over value tuples the collector stops
tracking. The last part holds ``RowGroup`` to the naive oracle's tuple
of views.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.cfd import CFD, standard_fd
from repro.core.violations import check_database_naive
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.relational.instance import (
    DatabaseInstance,
    RelationInstance,
    RowGroup,
    Tuple,
)
from repro.relational.schema import RelationSchema
from repro.serve import report_records
from repro.sql.loader import create_database_file, read_database_file

SCHEMA = RelationSchema("R", ["A", "B", "C"])
INDEXED = (("A",), ("B", "C"), ("C", "A"))
VALUES = st.sampled_from(["a", "b", "c"])
ROW = st.tuples(VALUES, VALUES, VALUES)
STEP = st.one_of(
    st.tuples(st.just("add"), ROW),
    st.tuples(st.just("discard"), ROW),
    st.tuples(st.just("discard_nth"), st.integers(0, 30)),
    st.tuples(st.just("discard_many"), st.integers(2, 4)),
    st.tuples(st.just("readd_nth"), st.integers(0, 30)),
    st.tuples(st.just("replace"), st.tuples(VALUES, VALUES)),
    st.tuples(st.just("copy"), st.none()),
)


def _project(row: tuple, attrs: tuple[str, ...]) -> tuple:
    return tuple(row[SCHEMA.positions[a]] for a in attrs)


def _assert_matches(inst: RelationInstance, model: dict) -> None:
    rows = list(model)
    # Row views built while the step's tombstones are still pending.
    assert [inst.view(inst.row_id(row)).values for row in rows] == rows
    assert [t.values for t in inst] == rows
    assert len(inst) == len(rows)
    for row in rows:
        assert Tuple(SCHEMA, row) in inst
    assert Tuple(SCHEMA, ("x", "x", "x")) not in inst
    for attrs in INDEXED:
        for key in {_project(row, attrs) for row in rows} | {("x",) * len(attrs)}:
            expected = [row for row in rows if _project(row, attrs) == key]
            assert [t.values for t in inst.lookup(attrs, key)] == expected
            assert list(inst.group_rows(attrs, key).values) == expected
        # No bucket outlives its last row.
        assert all(inst.index_on(attrs).values())
    assert inst.group_rows((), ()).values == tuple(rows)


def _assert_columns(inst: RelationInstance, model: dict) -> None:
    expected = tuple(list(col) for col in zip(*model)) or ([], [], [])
    assert inst.columns() == expected
    rowids = inst.row_ids()
    assert rowids == sorted(rowids)
    assert [inst.view(r).values for r in rowids] == list(model)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.lists(ROW, max_size=12),
    steps=st.lists(STEP, max_size=40),
)
def test_store_matches_ordered_dict_model(initial, steps):
    inst = RelationInstance(SCHEMA, initial)
    model = dict.fromkeys(initial)
    copies: list[tuple[RelationInstance, dict]] = []
    version = inst.version
    for op, arg in steps:
        before = list(model)
        if op == "add":
            stored = inst.add(arg)
            assert (stored is None) == (arg in model)
            if stored is not None:
                assert stored.values == arg
            model.setdefault(arg)
        elif op == "discard":
            assert inst.discard(Tuple(SCHEMA, arg)) == (arg in model)
            model.pop(arg, None)
        elif op in ("discard_nth", "readd_nth") and model:
            row = list(model)[arg % len(model)]
            assert inst.discard(Tuple(SCHEMA, row)) is True
            del model[row]
            if op == "readd_nth":  # re-added rows go to the end
                assert inst.add(list(row)) is not None
                model[row] = None
        elif op == "discard_many":  # every arg-th row: a run of tombstones
            for row in list(model)[::arg]:
                assert inst.discard(Tuple(SCHEMA, row)) is True
                del model[row]
        elif op == "replace":
            old, new = arg
            affected = [row for row in model if old in row]
            for row in affected:
                del model[row]
            rewrites = [tuple(new if v == old else v for v in row) for row in affected]
            for row in rewrites:
                model.setdefault(row)
            tracked = inst.replace_value_tracked(old, new)
            assert [t.values for t in tracked] == rewrites
        elif op == "copy":
            copies.append((inst, dict(model)))
            inst = inst.copy()
        assert inst.version >= version
        if list(model) != before:
            assert inst.version > version
        version = inst.version
        _assert_matches(inst, model)
        _assert_columns(inst, model)
    # Copies are independent of every later mutation.
    for original, snapshot in copies:
        _assert_matches(original, snapshot)
        _assert_columns(original, snapshot)


def test_fresh_key_churn_leaves_index_size_unchanged():
    """Insert/delete cycles of fresh keys must not leave empty buckets
    behind: a served tenant's indexes would otherwise grow forever."""
    inst = RelationInstance(SCHEMA, [("a", "b", "c"), ("b", "c", "a")])
    for attrs in INDEXED:
        inst.index_on(attrs)
    sizes = {attrs: len(inst.index_on(attrs)) for attrs in INDEXED}
    for i in range(200):
        row = (f"new{i}", f"k{i}", "c")
        inst.add(row)
        assert inst.discard(Tuple(SCHEMA, row))
    assert {attrs: len(inst.index_on(attrs)) for attrs in INDEXED} == sizes


def test_delete_then_readd_appends_at_the_end():
    inst = RelationInstance(SCHEMA, [("1", "x", "y"), ("2", "x", "y"), ("3", "x", "y")])
    inst.discard(Tuple(SCHEMA, ("1", "x", "y")))
    inst.add(("1", "x", "y"))
    assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["2", "3", "1"]
    assert inst.columns()[0] == ["2", "3", "1"]


def test_concurrent_readers_compact_consistently():
    """Readers (the serving layer's pooled checks) may all hit the first
    columnar read after deletes at once; each must see the compacted
    columns and correct row views, never a torn mix of old and new."""
    rows = [(f"a{i}", f"b{i % 7}", f"c{i % 3}") for i in range(3000)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for __ in range(12):
            inst = RelationInstance(SCHEMA, rows)
            for row in rows[::3]:
                inst.discard(Tuple(SCHEMA, row))
            live = [row for i, row in enumerate(rows) if i % 3]
            expected = tuple(list(col) for col in zip(*live))
            bad: list[str] = []

            def read() -> None:
                if inst.columns() != expected:
                    bad.append("columns")
                ids = inst.row_ids()
                if [inst.view(r).values for r in ids[:50]] != live[:50]:
                    bad.append("views")

            threads = [threading.Thread(target=read) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert bad == []
    finally:
        sys.setswitchinterval(old_interval)


# -- no Tuple per row ---------------------------------------------------------


def _live_tuples() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Tuple)


def test_loading_keeps_no_tuple_per_row(tmp_path):
    before = _live_tuples()
    db = scaled_bank_instance(300, error_rate=0.1, seed=4)
    copy = db.copy()
    rows = {r.schema.name: list(zip(*r.columns())) for r in db}
    bulk = DatabaseInstance(db.schema, rows)
    path = create_database_file(tmp_path / "bank.db", db)
    loaded = read_database_file(path, db.schema)
    assert db.total_tuples() > 500
    assert copy.total_tuples() == bulk.total_tuples() == loaded.total_tuples()
    assert _live_tuples() == before


def _price_dirty_commerce(n_orders: int = 400):
    """commerce@*n_orders* whose per-SKU price groups violate: Σ_commerce
    plus a constant price CFD per SKU on ``orders(item)`` (as perfbench's
    dense Σ adds) and the plain ``item -> price`` FD. A paid order at a
    drifted price puts every order of its SKU in one violating group."""
    db = commerce_instance(n_orders, error_rate=0.1, seed=3)
    sigma = commerce_constraints(db.schema)
    orders = db.schema.relation("orders")
    for item, __, price in zip(*db["catalog"].columns()):
        sigma.add_cfd(CFD(
            orders, ("item",), ("price",), [((item,), (price,))],
            name=f"price_{item}",
        ))
    sigma.add_cfd(standard_fd(orders, ("item",), ("price",), name="item_price"))
    return db, sigma


def _cold_check_views(db, sigma):
    """A cold check's report, once it is shown to keep one shared view
    per CIND-violating row and none per CFD group row."""
    before = _live_tuples()
    report = api.connect(db, sigma).check()
    assert report.cind_violations
    views = {id(v.tuple_) for v in report.cind_violations}
    rows = {v.tuple_ for v in report.cind_violations}
    # One view per CIND-violating row, shared by every violation naming
    # it; CFD group rows stay value tuples, with no view.
    assert len(views) == len(rows)
    assert all(isinstance(v.tuples, RowGroup) for v in report.cfd_violations)
    assert _live_tuples() - before == len(rows) < db.total_tuples()
    return report


def test_cold_check_keeps_tuples_only_for_violating_rows():
    bank = _cold_check_views(
        scaled_bank_instance(300, error_rate=0.1, seed=4), bank_constraints()
    )
    assert not bank.cfd_violations  # so the commerce case carries the CFD half
    db, sigma = _price_dirty_commerce()
    commerce = _cold_check_views(db, sigma)
    group_rows = {row for v in commerce.cfd_violations for row in v.tuples.values}
    assert len(group_rows) > len(db["orders"]) // 2


@pytest.mark.parametrize("backend", ["memory", "sqlfile"])
def test_served_commits_keep_no_view_per_cfd_group_row(backend, tmp_path):
    """A session serving one-row commits, each followed by its delta and
    a read, holds views only for CIND hits; every cached CFD group holds
    its rows in one container the collector no longer tracks."""
    db, sigma = _price_dirty_commerce()
    source = (
        create_database_file(tmp_path / "shop.db", db)
        if backend == "sqlfile" else db
    )
    cust, country = db["customers"].columns()[0][0], db["customers"].columns()[1][0]
    price = dict(zip(db["catalog"].columns()[0], db["catalog"].columns()[2]))
    drifted = ("orders", ("z1", cust, country, "sku0", "999", "paid"))
    clean = ("orders", ("z2", cust, country, "sku1", price["sku1"], "quote"))
    commits = [([drifted], []), ([], [drifted]), ([clean], []), ([], [clean])] * 2
    before = _live_tuples()
    with api.connect(source, sigma, backend=backend) as session:
        report = session.check()
        for inserts, deletes in commits:
            session.apply(inserts=inserts, deletes=deletes)
            assert session.delta() is not None
            report = session.check()
        assert sum(len(v.tuples) for v in report.cfd_violations) > len(db["orders"])
        assert _live_tuples() - before <= len(report.cind_violations) + 4
        cache, plan = session.backend.cache, session.backend.plan
        memos = [cache.group_tuples_entry(group) for group in plan.cfd_groups]
        cached = [rows for memo in memos if memo for rows in memo[1].values()]
        assert {id(v.tuples) for v in report.cfd_violations} <= set(map(id, cached))
        gc.collect()
        assert not any(gc.is_tracked(rows.values) for rows in cached)


# -- RowGroup -----------------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sql", "sqlfile"])
def test_row_group_sequence_matches_the_naive_tuple_of_views(backend, tmp_path):
    db, sigma = _price_dirty_commerce(200)
    naive = check_database_naive(db, sigma)
    source = (
        create_database_file(tmp_path / "shop.db", db)
        if backend == "sqlfile" else db
    )
    with api.connect(source, sigma, backend=backend) as session:
        report = session.check()
    assert len(report.cfd_violations) == len(naive.cfd_violations)
    assert max(len(v.tuples) for v in report.cfd_violations) > 3
    stranger = Tuple(db.schema.relation("orders"), ("x", "x", "x", "x", "x", "x"))
    for violation, expected in zip(report.cfd_violations, naive.cfd_violations):
        group, views = violation.tuples, expected.tuples
        assert isinstance(group, RowGroup) and type(views) is tuple
        # Row order; len.
        assert [t.values for t in group] == [t.values for t in views]
        assert list(group.values) == [t.values for t in views]
        assert len(group) == len(views)
        # Integer, negative and slice indexing; membership.
        assert group[0] == views[0] and group[-1] == views[-1]
        assert group[1:3] == views[1:3] and isinstance(group[1:3], RowGroup)
        assert group[::-1] == views[::-1]
        with pytest.raises(IndexError):
            group[len(group)]
        assert all(t in group for t in views)
        assert stranger not in group and views[0].values not in group
        assert group.index(views[-1]) == len(group) - 1
        # Equality and hash match the tuple of views, both ways.
        assert group == views and views == group
        assert hash(group) == hash(views)
        assert group != views[:-1] and group != list(views)
        assert repr(group) == repr(views)
        # Views are built on access and kept by none.
        assert group[0] == group[0] and group[0] is not group[0]
    assert report_records(report) == report_records(naive)


def test_report_records_read_row_groups_as_views_would():
    db, sigma = _price_dirty_commerce(200)
    report = api.connect(db, sigma).check()
    assert report.cfd_violations
    by_views = tuple(
        ("cfd", report.label_for(v.cfd), v.pattern_index, v.lhs_values,
         tuple(t.values for t in v.tuples), v.kind)
        for v in report.cfd_violations
    ) + tuple(
        ("cind", report.label_for(v.cind), v.pattern_index, v.tuple_.values)
        for v in report.cind_violations
    )
    assert report_records(report) == by_views
    # The memory store's own value tuples, not copies.
    for v in report.cfd_violations:
        stored = db[v.cfd.relation.name].index_on(v.cfd.lhs)[v.lhs_values]
        assert all(a is b for a, b in zip(v.tuples.values, stored.values()))
