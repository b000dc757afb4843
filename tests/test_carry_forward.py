"""Carrying the scan cache forward by a batch's touched keys.

After a batch, a ``memory`` session re-evaluates only the CFD groups,
witness keys and CIND rows the batch's rows touch
(:mod:`repro.engine.carry`) and reads its report delta off the splice.
Every test here holds the session, after every batch, to a fresh cold
session over the same data — ``check()`` bit-identical including order,
``count()`` and ``is_clean()`` equal — and holds the batch's
position-tagged delta to the replay contract: replayed over the previous
records it gives the new ones.
"""

from __future__ import annotations

import asyncio
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.datasets.commerce import commerce_constraints, commerce_instance
from repro.relational.values import WILDCARD as _
from repro.serve import DetectionService, record_delta, replay, report_records

from tests.conformance import report_key

COUNTRIES = ("UK", "FR", "DE", "US", "JP", "ATLANTIS")
ITEMS = tuple(f"sku{i}" for i in range(8))
PRICES = {item: str(10 + 3 * i) for i, item in enumerate(ITEMS)}


class Harness:
    """A session under test beside a reference copy of its data that
    takes the same DML and is checked cold after every batch."""

    def __init__(self, db, sigma, options=None):
        self.sigma = sigma
        self.reference = db.copy()
        self.session = api.connect(db, sigma, options=options)
        self.records = report_records(self.session.check())

    def step(self, inserts=(), deletes=(), delta=True):
        self.session.apply(inserts=inserts, deletes=deletes)
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
        if delta:
            change = self.session.delta()
            # Only a batch changing more rows of a relation than it then
            # holds is not carried (re-scanning that relation reads less).
            oversized = any(
                n > len(reference[relation]) for relation, n in changed.items()
            )
            assert (change is None) == oversized
            if change is not None:
                delta = record_delta(1, self.records, change)
                assert replay(self.records, delta) == records
        assert report_key(self.session.check()) == report_key(expected)
        got = self.session.count()
        assert (got.total, got.by_constraint()) == (
            summary.total, summary.by_constraint()
        )
        assert self.session.is_clean() == clean
        self.records = records

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
    prune=st.booleans(),
    batches=st.lists(st.tuples(_OPS, st.booleans()), min_size=1, max_size=6),
)
def test_commerce_batches_match_a_cold_session(seed, prune, batches):
    sigma = commerce_constraints()
    if prune:
        # A structural duplicate of two constraints: with prune_implied it
        # is answered from its donor's slots.
        sigma.add_cfd(CFD(sigma.schema.relation("customers"), ("cust",),
                          ("country", "tier"), [((_,), (_, _))], name="dup_key"))
        sigma.add_cind(CIND(sigma.schema.relation("orders"), ("cust",), (),
                            sigma.schema.relation("customers"), ("cust",), (),
                            [((_,), (_,))], name="dup_fk"))
    h = Harness(
        commerce_instance(n_orders=60, error_rate=0.2, seed=seed),
        sigma,
        api.ExecutionOptions(prune_implied=prune),
    )
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
    h = Harness(scaled_bank_instance(8, error_rate=0.2, seed=seed), sigma)
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


# -- the named cases -----------------------------------------------------------


def _commerce(n_orders=80, seed=5):
    return commerce_instance(n_orders=n_orders, error_rate=0.2, seed=seed)


def test_deleting_a_groups_first_row_moves_its_key():
    """Two violating customer_key groups; deleting the first row of the
    earlier one moves its key behind the other in scan order."""
    db = _commerce()
    first = [row for row in (t.values for t in db["customers"])][:2]
    h = Harness(db, commerce_constraints())
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
    h = Harness(db, commerce_constraints())
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
    h = Harness(db, commerce_constraints())
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
    h = Harness(db, commerce_constraints())
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
    sigma = commerce_constraints()
    schema = sigma.schema
    sigma.add_cind(CIND(schema.relation("orders"), ("cust",), (),
                        schema.relation("customers"), ("cust",), (),
                        [((_,), (_,))], name="fk_again"))
    h = Harness(_commerce(), sigma, api.ExecutionOptions(prune_implied=True))
    assert h.session.backend.plan.pruned_task_count == 1
    h.step(inserts=[("orders", ("z3", "ghost", "DE", "sku3", "19", "quote"))])
    assert {r[1] for r in h.records if r[0] == "cind" and r[3][1] == "ghost"} == {
        "fk_customer", "fk_again"
    }
    h.step(deletes=[("orders", ("z3", "ghost", "DE", "sku3", "19", "quote"))])


def test_empty_x_cind_follows_its_witness():
    """uk_shipping_row has an empty X: every shipped UK order shares the
    key (), so losing the UK shipping row flips them all at once."""
    db = _commerce()
    h = Harness(db, commerce_constraints())
    uk = ("UK", "eu", "5")
    shipped_uk = [o for o in h.rows("orders") if o[2] == "UK" and o[5] == "shipped"]
    assert shipped_uk
    h.step(deletes=[("shipping", uk)])
    assert len([r for r in h.records if r[1] == "uk_shipping_row"]) == len(shipped_uk)
    h.step(inserts=[("orders", ("z4", "ghost", "UK", "sku0", "10", "shipped"))])
    h.step(inserts=[("shipping", uk)])
    assert not [r for r in h.records if r[1] == "uk_shipping_row"]


# -- exact counts ---------------------------------------------------------------


def test_one_row_commit_rescans_no_unit():
    """A served one-row commit carries every unit forward: its delta and
    the read after it re-scan nothing."""
    db = _commerce(n_orders=200)
    sigma = commerce_constraints()

    async def scenario():
        async with DetectionService() as service:
            handle = await service.create_tenant("t", db, sigma)
            sub = await service.subscribe("t")
            cache = handle.session.backend.cache
            misses, carried = cache.misses, cache.carried
            order = ("z5", db["orders"].tuples[0].values[1], "FR", "sku4",
                     "999", "paid")
            __, delta = await service.apply("t", inserts=[("orders", order)])
            assert not delta.empty
            assert cache.misses == misses and cache.carried > carried
            await service.check("t")
            assert cache.misses == misses
            got = await sub.__anext__()
            assert replay(sub.baseline, got) == report_records(
                await service.check("t")
            )

    asyncio.run(scenario())


def test_units_past_the_derived_size_rescan():
    """Losing the UK shipping row touches the empty key on both sides of
    uk_shipping_row; an empty key's bucket is its whole relation, so
    exactly the witness spec and the orders CIND unit re-scan."""
    h = Harness(_commerce(), commerce_constraints())
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
    h = Harness(_commerce(), commerce_constraints())
    ghost = ("z7", "ghost", "UK", "sku1", "13", "paid")
    victim = next(row for row in h.rows("customers")
                  if any(o[1] == row[0] for o in h.rows("orders")))
    before = h.records
    h.session.apply(inserts=[("orders", ghost)])
    h.session.apply(deletes=[("customers", victim)])
    h.session.apply(deletes=[("orders", ghost)])
    h.step(inserts=[("customers", victim)])
    assert h.records == before


def test_a_change_behind_the_session_falls_back_to_scans():
    """A mutation the session never saw leaves a version step no note
    covers: the cache cannot carry forward, and stale units re-scan."""
    h = Harness(_commerce(), commerce_constraints())
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
    scan built: the first batch re-scans the orders CIND unit, the
    second builds the index and carries the unit forward."""
    h = Harness(_commerce(), commerce_constraints())
    cache = h.session.backend.cache
    orders = h.session.db["orders"]
    referenced = {row[1] for row in h.rows("orders")}
    first, second = [row for row in h.rows("customers") if row[0] in referenced][:2]
    assert not orders.has_index(("cust",))
    misses = cache.misses
    h.step(deletes=[("customers", first)])
    assert cache.misses > misses
    assert not orders.has_index(("cust",))
    misses = cache.misses
    h.step(deletes=[("customers", second)])
    assert cache.misses == misses
    assert orders.has_index(("cust",))


def test_concurrent_checks_after_a_batch_agree():
    """Eight threads check one session right after a batch: one carries
    the cache forward — each unit once, as a single reader would — and
    all get the same fresh report."""
    db = _commerce(n_orders=300)
    twin = db.copy()
    sigma = commerce_constraints()
    batch = {
        "inserts": [("orders", ("z6", "ghost", "ATLANTIS", "sku5", "25", "shipped")),
                    ("customers", ("ghost", "UK", "vip"))],
        "deletes": [("orders", db["orders"].tuples[3].values)],
    }
    single = api.connect(twin, sigma)
    single.check()
    single.apply(**batch)
    single.check()
    session = api.connect(db, sigma)
    session.check()
    session.apply(**batch)
    expected = report_key(api.connect(db.copy(), sigma).check())
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def worker(i: int) -> None:
        barrier.wait()
        results[i] = report_key(session.check())

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
    assert all(result == expected for result in results)
    carried = session.backend.cache.carried
    assert carried == single.backend.cache.carried > 0
