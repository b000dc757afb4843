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
``Tuple`` per row, and a cold check keeps ``Tuple`` views only for the
rows its report hands out.
"""

from __future__ import annotations

import gc
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.relational.schema import RelationSchema
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
        # No bucket outlives its last row.
        assert all(inst.index_on(attrs).values())


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


def test_cold_check_keeps_tuples_only_for_violating_rows():
    db = scaled_bank_instance(300, error_rate=0.1, seed=4)
    sigma = bank_constraints()
    before = _live_tuples()
    report = api.connect(db, sigma).check()
    assert not report.is_clean
    handed_out = {id(t) for v in report.cfd_violations for t in v.tuples}
    handed_out |= {id(v.tuple_) for v in report.cind_violations}
    rows = {t for v in report.cfd_violations for t in v.tuples}
    rows |= {v.tuple_ for v in report.cind_violations}
    # One view per violating row, shared by every violation naming it.
    assert len(handed_out) == len(rows)
    assert _live_tuples() - before == len(rows) < db.total_tuples()
