"""Carrying the scan cache forward by a batch's touched keys.

After a batch, a ``memory`` session — and a ``sqlfile`` session over a
file holding the same data — re-evaluates only the CFD groups, witness
keys and CIND rows the batch's rows touch (:mod:`repro.engine.carry`)
and reads its report delta off the splice. Every test here holds each
session, after every batch, to a fresh cold session over the same data —
``check()`` bit-identical including order, ``count()`` and
``is_clean()`` equal — and holds the batch's position-tagged delta to
the replay contract: replayed over the previous records it gives the new
ones. The size rule and a mutation behind the session's back are tested
on ``memory`` alone; the bucket-index rule is asserted on the ``memory``
session while both sessions are held to the cold one.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.cfd import CFD, standard_fd
from repro.core.cind import CIND, CINDViolation
from repro.core.violations import ConstraintSet, check_database_naive
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.relational.instance import DatabaseInstance, Tuple
from repro.relational.values import WILDCARD as _
from repro.serve import DetectionService, record_delta, replay, report_records
from repro.sql.loader import create_database_file

from tests.conformance import report_key

COUNTRIES = ("UK", "FR", "DE", "US", "JP", "ATLANTIS")
ITEMS = tuple(f"sku{i}" for i in range(8))
PRICES = {item: str(10 + 3 * i) for i, item in enumerate(ITEMS)}


BACKENDS = ("memory", "sqlfile")


class Harness:
    """Sessions under test — one per backend in *backends*, a
    ``sqlfile`` one over a file written from *db* — beside a reference
    copy of the data that takes the same DML and is checked cold after
    every batch. ``session`` is the ``memory`` one."""

    def __init__(self, db, sigma, backends=BACKENDS):
        self.sigma = sigma
        self.reference = db.copy()
        self.sessions = {}
        self._tmp = None
        for backend in backends:
            if backend == "sqlfile":
                self._tmp = tempfile.mkdtemp(prefix="carry-")
                path = create_database_file(Path(self._tmp) / "db.sqlite", db)
                self.sessions[backend] = api.connect(
                    path, sigma, backend="sqlfile"
                )
            else:
                self.sessions[backend] = api.connect(db, sigma)
        self.session = self.sessions.get("memory")
        #: backend -> the delta its session gave for the last step
        self.deltas = {}
        records = {
            backend: report_records(session.check())
            for backend, session in self.sessions.items()
        }
        (self.records,) = set(records.values())

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        for session in self.sessions.values():
            session.close()
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)

    def apply(self, inserts=(), deletes=()):
        """The batch on every session, unchecked and unreferenced."""
        results = {
            session.apply(inserts=inserts, deletes=deletes)
            for session in self.sessions.values()
        }
        (result,) = results
        return result

    def step(self, inserts=(), deletes=(), delta=True):
        result = self.apply(inserts, deletes)
        reference = self.reference
        changed: dict[str, int] = {}
        for relation, row in deletes:
            instance = reference[relation]
            rowid = instance.row_id(instance.coerce(row))
            if rowid is not None:
                instance.discard(instance.view(rowid))
                changed[relation] = changed.get(relation, 0) + 1
        for relation, row in inserts:
            if reference[relation].add(row) is not None:
                changed[relation] = changed.get(relation, 0) + 1
        with api.connect(reference.copy(), self.sigma) as cold:
            expected = cold.check()
            summary = cold.count()
            clean = cold.is_clean()
        records = report_records(expected)
        # Only a batch changing more rows of a relation than it then
        # holds is not carried (re-scanning that relation reads less).
        oversized = any(
            n > len(reference[relation]) for relation, n in changed.items()
        )
        for backend, session in self.sessions.items():
            if delta:
                change = self.deltas[backend] = session.delta()
                assert (change is None) == oversized, backend
                if change is not None:
                    replayed = replay(self.records, record_delta(1, self.records, change))
                    assert replayed == records, backend
            assert report_key(session.check()) == report_key(expected), backend
            got = session.count()
            assert (got.total, got.by_constraint()) == (
                summary.total, summary.by_constraint()
            ), backend
            assert session.is_clean() == clean, backend
        self.records = records
        return result

    def rows(self, relation):
        return [t.values for t in self.reference[relation]]


# -- the Hypothesis model tests ------------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["del", "add", "move", "del_customer", "add_customer",
             "del_shipping", "add_shipping"]
        ),
        st.integers(0, 10 ** 6),
    ),
    min_size=1,
    max_size=4,
)


def _commerce_batch(h: Harness, ops) -> tuple[list, list]:
    """Deletes and inserts for one batch, drawn from value pools small
    enough that groups, witness keys and the empty-``X`` CIND collide."""
    inserts: list = []
    deletes: list = []
    customers = [row[0] for row in h.rows("customers")] + ["ghost"]
    for op, n in ops:
        if op in ("del", "move", "del_customer", "del_shipping"):
            relation = {"del_customer": "customers",
                        "del_shipping": "shipping"}.get(op, "orders")
            rows = h.rows(relation)
            if not rows:
                continue
            row = rows[n % len(rows)]
            deletes.append((relation, row))
            if op == "move":
                inserts.append((relation, row))
        elif op == "add":
            item = ITEMS[n % len(ITEMS)]
            inserts.append(("orders", (
                f"n{n % 40}",
                customers[(n // 7) % len(customers)],
                COUNTRIES[(n // 11) % len(COUNTRIES)],
                item,
                (PRICES[item], "999")[(n // 13) % 2],
                ("quote", "paid", "shipped")[(n // 17) % 3],
            )))
        elif op == "add_customer":
            inserts.append(("customers", (
                customers[n % len(customers)],
                COUNTRIES[(n // 5) % 5],
                ("standard", "vip")[n % 2],
            )))
        else:
            country = ("UK", "US", "FR")[n % 3]
            zone = {"UK": "eu", "US": "na", "FR": "eu"}[country]
            fee = (("5", "9", "5")[n % 3], "0")[(n // 3) % 2]
            inserts.append(("shipping", (country, zone, fee)))
    return inserts, deletes


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    duplicates=st.booleans(),
    batches=st.lists(st.tuples(_OPS, st.booleans()), min_size=1, max_size=6),
)
def test_commerce_batches_match_a_cold_session(seed, duplicates, batches):
    sigma = commerce_constraints()
    if duplicates:
        # A structural duplicate of two constraints: it shares its twin's
        # scans and keeps its own report slots.
        sigma.add_cfd(CFD(sigma.schema.relation("customers"), ("cust",),
                          ("country", "tier"), [((_,), (_, _))], name="dup_key"))
        sigma.add_cind(CIND(sigma.schema.relation("orders"), ("cust",), (),
                            sigma.schema.relation("customers"), ("cust",), (),
                            [((_,), (_,))], name="dup_fk"))
    with Harness(
        commerce_instance(n_orders=60, error_rate=0.2, seed=seed), sigma
    ) as h:
        for ops, delta in batches:
            inserts, deletes = _commerce_batch(h, ops)
            h.step(inserts, deletes, delta=delta)


def _bank_row(relation, n):
    pool = ("NYC", "EDI", "GLA", "a", "b", str(n % 5))
    values = []
    for i, attr in enumerate(relation.attributes):
        if attr.is_finite:
            values.append(attr.domain.values[(n + i) % len(attr.domain.values)])
        else:
            values.append(pool[(n // (i + 1)) % len(pool)])
    return tuple(values)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    batches=st.lists(
        st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                 min_size=1, max_size=4),
        min_size=1, max_size=6,
    ),
)
def test_bank_batches_match_a_cold_session(seed, batches):
    sigma = bank_constraints()
    with Harness(scaled_bank_instance(8, error_rate=0.2, seed=seed), sigma) as h:
        names = h.reference.schema.relation_names
        for batch in batches:
            inserts, deletes = [], []
            for insert, n in batch:
                relation = names[n % len(names)]
                if insert:
                    schema = h.reference.schema.relation(relation)
                    inserts.append((relation, _bank_row(schema, n)))
                else:
                    rows = h.rows(relation)
                    if rows:
                        deletes.append((relation, rows[n % len(rows)]))
            h.step(inserts, deletes)


def _random_bank_op(rng, h: Harness, relations):
    """One insert or delete as the random-sequence test draws it: deletes
    pick a stored row, inserts draw from pools small enough to collide."""
    relation = rng.choice(relations)
    rows = h.rows(relation)
    if rows and rng.random() < 0.45:
        return [], [(relation, rng.choice(rows))]
    if relation == "interest":
        row = [
            rng.choice(("NYC", "EDI", "LON")),
            rng.choice(("US", "UK")),
            rng.choice(("saving", "checking")),
            rng.choice(("1%", "1.5%", "4%", "4.5%")),
        ]
    else:
        arity = h.reference.schema.relation(relation).arity
        row = [f"v{rng.randint(0, 8)}" for __ in range(arity - 1)]
        if relation.startswith("account"):
            row.append(rng.choice(("saving", "checking")))
        else:
            row.append(rng.choice(("NYC", "EDI", "LON")))
    return [(relation, row)], []


@pytest.mark.parametrize("seed", [2, 8, 21])
def test_random_bank_sequences_match_a_cold_session(seed):
    """120 random single-row inserts and deletes, each its own batch."""
    rng = random.Random(seed)
    sigma = bank_constraints()
    with Harness(scaled_bank_instance(40, error_rate=0.1, seed=seed), sigma) as h:
        relations = list(sigma.schema.relation_names)
        for __ in range(120):
            h.step(*_random_bank_op(rng, h, relations))


# -- the named bank cases ------------------------------------------------------


def _twin_fds(schema):
    """Two unnamed, structurally equal FDs: equal reprs, separate labels."""
    interest = schema.relation("interest")
    twins = [standard_fd(interest, ("ab", "ct"), ("rt",)) for __ in range(2)]
    assert repr(twins[0]) == repr(twins[1])
    return ConstraintSet(schema, cfds=twins)


TWIN = "CFD(interest: ab, ct -> rt, 1 pattern(s))"
LON_9 = {"ab": "LON", "ct": "UK", "at": "saving", "rt": "9%"}
LON_45 = dict(LON_9, rt="4.5%")
#: The clean bank's only NYC savings rate: the last witness of psi5.
NYC_SAVING = ("NYC", "US", "saving", "4%")
_INTEREST = bank_constraints().schema.relation("interest")

#: name -> (start instance, Σ, batches); each batch is (inserts, deletes,
#: rows it changes, violation counts after it).
BANK_CASES = {
    "empty_database_takes_inserts": ("empty", bank_constraints, [
        ([("interest", ("NYC", "US", "checking", "1%")),
          ("checking", ("01", "Ann", "NYC, 1", "555-0000001", "NYC"))],
         [], 2, {}),
        ([("checking", ("02", "Bob", "EDI, 2", "555-0000002", "EDI"))],
         [], 1, {"psi4": 1, "psi6": 1}),
        ([], [("interest", ("NYC", "US", "checking", "1%"))],
         1, {"psi4": 2, "psi6": 2}),
    ]),
    "cind_violation_created_by_insert": ("clean", bank_constraints, [
        ([("checking", ("99", "New Guy", "EDI, EH1", "131-0000000", "EDI"))],
         [], 1, {}),
        ([("checking", ("98", "Lost Guy", "???", "000", "MARS"))],
         [], 1, {"psi4": 1}),
    ]),
    "cind_violation_fixed_by_insert": ("dirty", bank_constraints, [
        ([("interest", ("EDI", "UK", "checking", "1.5%"))], [], 1, {"phi3": 2}),
    ]),
    "cfd_violation_removed_by_delete": ("dirty", bank_constraints, [
        ([], [("interest", ("EDI", "UK", "checking", "10.5%"))], 1, {"psi6": 1}),
    ]),
    "cfd_pair_created_by_insert": ("clean", bank_constraints, [
        ([("saving", ("01", "Impostor", "NYC, 19087", "212-5820844", "NYC"))],
         [], 1, {"phi1": 1}),
    ]),
    "last_witness_deleted": ("clean", bank_constraints, [
        ([], [("interest", NYC_SAVING)], 1, {"psi5": 1}),
    ]),
    "duplicate_insert_is_a_noop": ("clean", bank_constraints, [
        ([("interest", NYC_SAVING)], [], 0, {}),
    ]),
    "absent_delete_is_a_noop": ("clean", bank_constraints, [
        ([], [("interest", Tuple(_INTEREST, ("X", "Y", "saving", "0%")))], 0, {}),
    ]),
    "mapping_shaped_row": ("clean", bank_constraints, [
        ([("interest", dict(LON_9))], [], 1, {"phi3": 2}),
        ([], [("interest", dict(LON_9))], 1, {}),
    ]),
    "sequence_shaped_row": ("clean", bank_constraints, [
        ([("interest", tuple(LON_9.values()))], [], 1, {"phi3": 2}),
        ([], [("interest", list(LON_9.values()))], 1, {}),
    ]),
    "canonical_tuple_semantics": ("clean", bank_constraints, [
        ([("interest", dict(zip(LON_9, NYC_SAVING)))], [], 0, {}),
        ([("interest", dict(LON_45))], [], 1, {}),
        ([], [("interest", Tuple(_INTEREST, tuple(LON_45.values())))], 1, {}),
    ]),
    "equal_repr_twins_counted_apart": ("dirty", _twin_fds, [
        ([], [], 0, {f"{TWIN}@0": 2, f"{TWIN}@1": 2}),
        ([], [("interest", ("EDI", "UK", "checking", "10.5%"))],
         1, {f"{TWIN}@0": 1, f"{TWIN}@1": 1}),
    ]),
}


@pytest.mark.parametrize("case", sorted(BANK_CASES))
def test_bank_cases_match_a_cold_session(bank, case):
    """Single-row inserts and deletes on the paper's bank instance, each
    also held to the naive oracle and to the violation counts the case
    is about."""
    start, make_sigma, batches = BANK_CASES[case]
    sigma = make_sigma(bank.schema)
    db = {"dirty": bank.db, "clean": bank.clean_db}.get(start)
    with Harness(db.copy() if db else DatabaseInstance(bank.schema), sigma) as h:
        for inserts, deletes, changed, counts in batches:
            assert h.step(inserts, deletes).changed == changed
            for relation, row in inserts:
                # Every row shape lands under its canonical value tuple.
                stored = h.session.db[relation]
                assert stored.row_id(stored.coerce(row)) is not None
            oracle = report_key(check_database_naive(h.reference, sigma))
            for session in h.sessions.values():
                assert session.count().by_constraint() == counts
                assert report_key(session.check()) == oracle


# -- the named cases -----------------------------------------------------------


def _commerce(n_orders=80, seed=5):
    return commerce_instance(n_orders=n_orders, error_rate=0.2, seed=seed)


def test_deleting_a_groups_first_row_moves_its_key():
    """Two violating customer_key groups; deleting the first row of the
    earlier one moves its key behind the other in scan order."""
    db = _commerce()
    first = [row for row in (t.values for t in db["customers"])][:2]
    with Harness(db, commerce_constraints()) as h:
        # Make both groups violate, with rows appended after both first rows:
        # two more countries for the first customer, one for the second.
        extra = [
            (cust, other, tier)
            for (cust, country, tier), n in zip(first, (2, 1))
            for other in [c for c in ("JP", "DE", "UK") if c != country][:n]
        ]
        h.step(inserts=[("customers", row) for row in extra])
        assert [r[3] for r in h.records if r[0] == "cfd"][:2] == [
            (first[0][0],), (first[1][0],)
        ]
        h.step(deletes=[("customers", first[0])])
        keys = [r[3] for r in h.records if r[0] == "cfd" and r[1] == "customer_key"]
        assert keys.index((first[1][0],)) < keys.index((first[0][0],))


def test_last_witness_deleted_then_reinserted():
    db = _commerce()
    with Harness(db, commerce_constraints()) as h:
        orders = h.rows("orders")
        cust = orders[0][1]
        (customer,) = [row for row in h.rows("customers") if row[0] == cust]
        h.step(deletes=[("customers", customer)])
        fk = [r for r in h.records if r[1] == "fk_customer" and r[3][1] == cust]
        assert len(fk) == sum(1 for row in orders if row[1] == cust)
        h.step(inserts=[("customers", customer)])
        assert not [r for r in h.records if r[1] == "fk_customer" and r[3][1] == cust]


def test_delete_and_reinsert_moves_a_hit_to_the_end():
    db = _commerce()
    with Harness(db, commerce_constraints()) as h:
        h.step(inserts=[("orders", ("z1", "ghost", "UK", "sku1", "13", "paid")),
                        ("orders", ("z2", "ghost", "UK", "sku1", "13", "paid"))])
        first = [r for r in h.records if r[1] == "fk_customer"]
        assert [r[3][0] for r in first[-2:]] == ["z1", "z2"]
        row = first[-2][3]
        h.step(inserts=[("orders", row)], deletes=[("orders", row)])
        moved = [r for r in h.records if r[1] == "fk_customer"]
        assert [r[3][0] for r in moved[-2:]] == ["z2", "z1"]


def test_one_batch_touches_both_sides_of_a_cind():
    db = _commerce()
    with Harness(db, commerce_constraints()) as h:
        victim = next(row for row in h.rows("customers")
                      if any(o[1] == row[0] for o in h.rows("orders")))
        h.step(
            inserts=[("orders", ("z9", "newcomer", "FR", "sku2", "16", "paid")),
                     ("customers", ("newcomer", "FR", "vip"))],
            deletes=[("customers", victim)],
        )
        assert not [r for r in h.records if r[0] == "cind" and r[3][1] == "newcomer"]
        assert [r for r in h.records if r[1] == "fk_customer" and r[3][1] == victim[0]]


def test_prune_implied_duplicates_keep_their_slots():
    """A structural duplicate keeps its own report slots and delta
    records on every backend; nothing is pruned (the name predates the
    removal of ``prune_implied``)."""
    sigma = commerce_constraints()
    schema = sigma.schema
    sigma.add_cind(CIND(schema.relation("orders"), ("cust",), (),
                        schema.relation("customers"), ("cust",), (),
                        [((_,), (_,))], name="fk_again"))
    with Harness(_commerce(), sigma) as h:
        h.step(inserts=[("orders", ("z3", "ghost", "DE", "sku3", "19", "quote"))])
        assert {r[1] for r in h.records if r[0] == "cind" and r[3][1] == "ghost"} == {
            "fk_customer", "fk_again"
        }
        # The delta hands out the cached objects, the duplicate's too.
        for backend, session in h.sessions.items():
            added = {id(v) for __, v in h.deltas[backend].added}
            ghost = [v for v in session.check().cind_violations
                     if v.tuple_.values[1] == "ghost"]
            assert len(ghost) == 2 and all(id(v) in added for v in ghost), backend
        # count() sums the cached lists, a duplicate at its twin's size.
        for backend, session in h.sessions.items():
            report, summary = session.check(), session.count()
            assert (summary.total, summary.by_constraint()) == (
                report.total, report.by_constraint()
            ), backend
        h.step(deletes=[("orders", ("z3", "ghost", "DE", "sku3", "19", "quote"))])


def test_empty_x_cind_follows_its_witness():
    """uk_shipping_row has an empty X: every shipped UK order shares the
    key (), so losing the UK shipping row flips them all at once."""
    db = _commerce()
    with Harness(db, commerce_constraints()) as h:
        uk = ("UK", "eu", "5")
        shipped_uk = [o for o in h.rows("orders") if o[2] == "UK" and o[5] == "shipped"]
        assert shipped_uk
        h.step(deletes=[("shipping", uk)])
        assert len([r for r in h.records if r[1] == "uk_shipping_row"]) == len(shipped_uk)
        h.step(inserts=[("orders", ("z4", "ghost", "UK", "sku0", "10", "shipped"))])
        h.step(inserts=[("shipping", uk)])
        assert not [r for r in h.records if r[1] == "uk_shipping_row"]


# -- shared violation objects -------------------------------------------------


def _same_objects(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_reads_share_the_cached_cind_violations():
    """A report's CIND violations are the cached objects: two checks
    with nothing between them hold the same objects, each report in
    lists of its own, so clearing one report's lists leaves the other
    report and the next check intact."""
    with Harness(_commerce(), commerce_constraints()) as h:
        for backend, session in h.sessions.items():
            first, second = session.check(), session.check()
            assert first.cind_violations, backend
            assert first.cind_violations is not second.cind_violations, backend
            assert first.cfd_violations is not second.cfd_violations, backend
            assert _same_objects(first.cind_violations, second.cind_violations), backend
            expected = report_key(second)
            first.cind_violations.clear()
            first.cfd_violations.clear()
            assert report_key(second) == expected, backend
            assert report_key(session.check()) == expected, backend


def test_the_read_after_a_delta_holds_kept_or_added_violations():
    """An order with CIND violations moves to an unknown customer, in
    one batch: its row goes (its violations with it) and comes back
    under a new row id, violating ``fk_customer`` too. The check after
    ``delta()`` holds no CIND violation that is in neither the previous
    report nor the delta's added violations."""
    with Harness(_commerce(), commerce_constraints()) as h:
        before = {backend: session.check() for backend, session in h.sessions.items()}
        row = next(
            v.tuple_.values for v in before["memory"].cind_violations
            if v.cind.name == "paid_price_in_catalog"
        )
        moved = (row[0], "ghost", *row[2:])
        h.step(inserts=[("orders", moved)], deletes=[("orders", row)])
        for backend, session in h.sessions.items():
            change = h.deltas[backend]
            added = [v for __, v in change.added if isinstance(v, CINDViolation)]
            assert change.removed and {v.cind.name for v in added} >= {
                "fk_customer", "paid_price_in_catalog"
            }, backend
            known = {id(v) for v in before[backend].cind_violations}
            known.update(id(v) for v in added)
            after = session.check()
            assert all(id(v) in known for v in after.cind_violations), backend


# -- exact counts ---------------------------------------------------------------


def test_one_row_commit_rescans_no_unit(tmp_path):
    """A served one-row commit carries every unit forward, on a memory
    and on a sqlfile tenant: its delta and the read after it re-scan
    nothing."""
    db = _commerce(n_orders=200)
    sigma = commerce_constraints()
    path = create_database_file(tmp_path / "t.db", db)
    for backend, source in (("memory", db), ("sqlfile", path)):
        asyncio.run(_one_row_commit(backend, source, db, sigma))


async def _one_row_commit(backend, source, db, sigma):
    async with DetectionService() as service:
        handle = await service.create_tenant("t", source, sigma, backend=backend)
        sub = await service.subscribe("t")
        cache = handle.session.backend.cache
        misses, carried = cache.misses, cache.carried
        order = ("z5", db["orders"].tuples[0].values[1], "FR", "sku4",
                 "999", "paid")
        __, delta = await service.apply("t", inserts=[("orders", order)])
        assert not delta.empty
        assert cache.misses == misses and cache.carried > carried, backend
        await service.check("t")
        assert cache.misses == misses, backend
        got = await sub.__anext__()
        assert replay(sub.baseline, got) == report_records(
            await service.check("t")
        )


def test_units_past_the_derived_size_rescan():
    """Losing the UK shipping row touches the empty key on both sides of
    uk_shipping_row; an empty key's bucket is its whole relation, so
    exactly the witness spec and the orders CIND unit re-scan."""
    with Harness(_commerce(), commerce_constraints(), backends=("memory",)) as h:
        # The country_zone group's bucket index exists, so only the size rule
        # can send a unit back to a scan.
        h.session.db["shipping"].index_on(("country",))
        cache = h.session.backend.cache
        misses = cache.misses
        h.step(deletes=[("shipping", ("UK", "eu", "5"))])
        assert cache.misses == misses + 2
        # A batch noting more rows than the relation then holds is never
        # carried: every shipping unit re-scans.
        misses = cache.misses
        rows = h.rows("shipping")
        h.step(deletes=[("shipping", row) for row in rows],
               inserts=[("shipping", ("UK", "eu", "5"))], delta=False)
        assert cache.misses > misses
        assert h.session.delta() is not None  # synced again by the check


def test_batches_between_checks_net_out():
    """Rows inserted then deleted (and deleted then re-inserted) across
    batches with no check between carry forward as their net change."""
    with Harness(_commerce(), commerce_constraints()) as h:
        ghost = ("z7", "ghost", "UK", "sku1", "13", "paid")
        victim = next(row for row in h.rows("customers")
                      if any(o[1] == row[0] for o in h.rows("orders")))
        before = h.records
        h.apply(inserts=[("orders", ghost)])
        h.apply(deletes=[("customers", victim)])
        h.apply(deletes=[("orders", ghost)])
        h.step(inserts=[("customers", victim)])
        assert h.records == before


#: A violating order: its customer does not exist.
GHOST_ORDER = ("z8", "ghost", "DE", "sku2", "999", "shipped")


def test_newest_row_replaced_in_one_batch():
    """Deleting a relation's newest row and inserting a different
    violating row in one batch: on a file, the new row must not take the
    deleted row's rowid behind the carry's back."""
    with Harness(_commerce(), commerce_constraints()) as h:
        newest = h.rows("orders")[-1]
        h.step(deletes=[("orders", newest)], inserts=[("orders", GHOST_ORDER)])
        assert [r for r in h.records if r[0] == "cind" and r[3] == GHOST_ORDER]


def test_newest_row_replaced_across_two_batches():
    """The same replacement as two batches with no check between them."""
    with Harness(_commerce(), commerce_constraints()) as h:
        newest = h.rows("orders")[-1]
        h.apply(deletes=[("orders", newest)])
        h.reference["orders"].discard(h.reference["orders"].coerce(newest))
        h.step(inserts=[("orders", GHOST_ORDER)])
        assert [r for r in h.records if r[0] == "cind" and r[3] == GHOST_ORDER]


def test_a_change_behind_the_session_falls_back_to_scans():
    """A mutation the session never saw leaves a version step no note
    covers: the cache cannot carry forward, and stale units re-scan."""
    with Harness(_commerce(), commerce_constraints(), backends=("memory",)) as h:
        row = h.rows("customers")[0]
        behind = (row[0], "JP" if row[1] != "JP" else "UK", row[2])
        h.session.db["customers"].add(behind)
        h.reference["customers"].add(behind)
        # The next noted batch on the same relation does not start where the
        # cache synced.
        h.session.apply(inserts=[("customers", ("ghost", "FR", "vip"))])
        h.reference["customers"].add(("ghost", "FR", "vip"))
        assert h.session.delta() is None
        with api.connect(h.reference.copy(), h.sigma) as cold:
            assert report_key(h.session.check()) == report_key(cold.check())


def test_a_missing_bucket_index_is_built_on_its_second_need():
    """Flipping a customer key needs an orders index on cust that no
    scan built: the first batch reads the key's orders by one pass and
    notes the need, the second builds the index; neither re-scans."""
    with Harness(_commerce(), commerce_constraints()) as h:
        orders = h.session.db["orders"]
        referenced = {row[1] for row in h.rows("orders")}
        first, second = [row for row in h.rows("customers") if row[0] in referenced][:2]
        assert not orders.has_index(("cust",))
        misses = _misses(h)
        h.step(deletes=[("customers", first)])
        assert _misses(h) == misses
        assert not orders.has_index(("cust",))
        h.step(deletes=[("customers", second)])
        assert _misses(h) == misses
        assert orders.has_index(("cust",))


def _misses(h: Harness) -> dict:
    return {backend: s.backend.cache.misses for backend, s in h.sessions.items()}


@pytest.fixture()
def calls(monkeypatch):
    """Records the carry's storage reads: ``calls[name]`` lists the
    relation of each ``witness_present`` / ``cind_flipped`` call (on
    either backend) and of each key-restricted pass (memory)."""
    from repro.engine.carry import MemoryCarry
    from repro.sql.violations import SQLCarry

    seen: dict[str, list] = {"witness_present": [], "cind_flipped": [], "pass": []}

    def spy(cls, name, key, relation_of):
        method = getattr(cls, name)

        def wrapper(self, *args):
            seen[key].append(relation_of(*args))
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (MemoryCarry, SQLCarry):
        spy(cls, "witness_present", "witness_present", lambda spec, *a: spec.rhs_relation)
        spy(cls, "cind_flipped", "cind_flipped", lambda relation, *a: relation)
    spy(MemoryCarry, "_pass", "pass", lambda instance, *a: instance.schema.name)
    return seen


def test_an_insert_only_batch_gives_a_key_its_first_witness(calls):
    """A customer for orders that had none: the inserted row is the key's
    witness, so no backend asks its storage whether the key has one."""
    with Harness(_commerce(), commerce_constraints()) as h:
        ghost = ("z1", "ghost", "UK", "sku1", "13", "paid")
        h.step(inserts=[("orders", ghost)])
        assert [r for r in h.records if r[1] == "fk_customer" and r[3] == ghost]
        misses = _misses(h)
        h.step(inserts=[("customers", ("ghost", "UK", "vip"))])
        assert not [r for r in h.records if r[1] == "fk_customer"]
        assert calls["witness_present"] == []
        assert _misses(h) == misses
        assert not h.session.db["customers"].has_index(("cust",))


def test_a_gained_flip_drops_hits_without_an_index_or_a_pass(calls):
    """Orders of a customer that did not exist are hits; inserting the
    customer drops them from the cached hit rows, without reading
    orders at all."""
    with Harness(_commerce(), commerce_constraints()) as h:
        ghosts = [("z2", "ghost", "FR", "sku2", "16", "paid"),
                  ("z3", "ghost", "DE", "sku3", "19", "quote")]
        h.step(inserts=[("orders", row) for row in ghosts])
        assert len([r for r in h.records if r[1] == "fk_customer"]) == 2
        misses = _misses(h)
        h.step(inserts=[("customers", ("ghost", "FR", "vip"))])
        assert not [r for r in h.records if r[1] == "fk_customer"]
        assert calls["cind_flipped"] == []
        assert "orders" not in calls["pass"]
        assert _misses(h) == misses
        assert not h.session.db["orders"].has_index(("cust",))


def test_a_lost_flip_on_first_need_finds_its_rows_by_a_pass(calls):
    """Deleting France's only shipping row flips its key: the shipped
    French orders become hits, found by one pass over orders on memory
    (no index exists) and by one key-restricted query on sqlfile."""
    with Harness(_commerce(), commerce_constraints()) as h:
        orders = h.session.db["orders"]
        (france,) = [row for row in h.rows("shipping") if row[0] == "FR"]
        shipped = [row for row in h.rows("orders") if row[2] == "FR" and row[5] == "shipped"]
        assert shipped
        misses = _misses(h)
        h.step(deletes=[("shipping", france)])
        hits = [r[3] for r in h.records if r[1] == "shipped_country_has_shipping"]
        assert set(shipped) <= set(hits)
        assert calls["cind_flipped"] == ["orders", "orders"]
        assert "orders" in calls["pass"]
        assert _misses(h) == misses
        assert not orders.has_index(("country",))


def test_two_units_needing_one_index_in_one_batch_do_not_build_it(calls):
    """Deleting a customer needs a customers index on cust twice in one
    batch — the customer_key group's rows and the fk_customer witness
    key — and both read by a pass; the next batch that needs the index
    builds it."""
    with Harness(_commerce(), commerce_constraints()) as h:
        customers = h.session.db["customers"]
        first, second = h.rows("customers")[:2]
        assert not customers.has_index(("cust",))
        misses = _misses(h)
        h.step(deletes=[("customers", first)])
        assert calls["pass"].count("customers") == 2
        assert not customers.has_index(("cust",))
        h.step(deletes=[("customers", second)])
        assert customers.has_index(("cust",))
        assert _misses(h) == misses


def test_a_cfd_pass_builds_values_for_touched_keys_only(monkeypatch):
    """Four customer_key groups violate from the start. A batch that makes
    a fifth violate, between them in row order, reads its key's rows by
    a pass: a session that only counts has built no customers index on
    cust (a report's assembly would). The pass also finds the cached hit
    keys' first rows, which place the new hit, but builds value tuples
    only for the touched key's two rows."""
    from repro.engine import carry

    def other(country):
        return "JP" if country != "JP" else "DE"

    db = _commerce()
    first = [t.values for t in db["customers"]][:5]
    for cust, country, tier in first[:2] + first[3:]:
        db["customers"].add((cust, other(country), tier))
    cust, country, tier = first[2]
    row = (cust, other(country), tier)
    reference = db.copy()
    reference["customers"].add(row)
    built: list = []
    values = carry._values

    def spy(instance, slots):
        built.append((instance.schema.name, len(slots)))
        return values(instance, slots)

    monkeypatch.setattr(carry, "_values", spy)
    sigma = commerce_constraints()
    with api.connect(db, sigma) as session, api.connect(reference, sigma) as cold:
        customers = session.db["customers"]
        assert session.count().by_constraint()["customer_key"] == 4
        session.apply(inserts=[("customers", row)])
        got, expected = session.count(), cold.count()
        assert got.by_constraint() == expected.by_constraint()
        assert expected.by_constraint()["customer_key"] == 5
        assert built == [("customers", 2)]
        assert not customers.has_index(("cust",))
        assert report_key(session.check()) == report_key(cold.check())


def test_a_witness_replaced_by_a_row_failing_yp_is_lost():
    """One batch replaces an account's saving row by one in the other
    branch: the key keeps a saving row, but none that passes psi1[NYC]'s
    ``ab = 'NYC'``, so the NYC account becomes a hit."""
    db = scaled_bank_instance(40, error_rate=0.0, seed=3)
    with Harness(db, bank_constraints()) as h:
        account = next(row for row in h.rows("account_NYC") if row[4] == "saving")
        (saving,) = [row for row in h.rows("saving") if row[:4] == account[:4]]
        assert saving[4] == "NYC"
        h.step(deletes=[("saving", saving)], inserts=[("saving", saving[:4] + ("EDI",))])
        assert [r for r in h.records if r[1] == "psi1[NYC]" and r[3] == account]


def _connect(db, sigma, backend, path):
    if backend == "memory":
        return api.connect(db, sigma)
    return api.connect(create_database_file(path, db), sigma, backend="sqlfile")


def test_concurrent_checks_after_a_batch_agree(tmp_path):
    """Eight threads check one session right after a batch — a memory
    session, then a sqlfile one: one carries the cache forward — each
    unit once, as a single reader would — and all get the same fresh
    report, holding the same CIND violation objects."""
    db = _commerce(n_orders=300)
    sigma = commerce_constraints()
    batch = {
        "inserts": [("orders", ("z6", "ghost", "ATLANTIS", "sku5", "25", "shipped")),
                    ("customers", ("ghost", "UK", "vip"))],
        "deletes": [("orders", db["orders"].tuples[3].values)],
    }
    reference = db.copy()
    reference["orders"].discard(reference["orders"].view(3))
    for relation, row in batch["inserts"]:
        reference[relation].add(row)
    expected = report_key(api.connect(reference, sigma).check())
    for backend in BACKENDS:
        single = _connect(db.copy(), sigma, backend, tmp_path / "single.db")
        session = _connect(db.copy(), sigma, backend, tmp_path / "session.db")
        try:
            single.check()
            single.apply(**batch)
            single.check()
            session.check()
            session.apply(**batch)
            reports = _check_in_eight_threads(session)
            assert all(report_key(report) == expected for report in reports), backend
            # Each new hit was built once, by the one carry: every thread
            # holds the same violation objects.
            first = reports[0].cind_violations
            assert all(
                _same_objects(report.cind_violations, first) for report in reports
            ), backend
            carried = session.backend.cache.carried
            assert carried == single.backend.cache.carried > 0, backend
        finally:
            single.close()
            session.close()


def _check_in_eight_threads(session) -> list:
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def worker(i: int) -> None:
        barrier.wait()
        results[i] = session.check()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results
