"""Seeded benchmark inputs.

The rows are generated here, not by :mod:`repro.datasets`, so a change to
the library's generators cannot shift the workload. Only the schemas and
the base constraint sets come from the library. The dense Σ builders
follow ``benchmarks/bench_detection.py`` (59 constraints on bank, 37 on
commerce) and are copied so that file can change freely too.

Everything is a pure function of its arguments: the same seed gives the
same rows, the same Σ and the same DML stream.

The dirtiness rates, the DML stream's dirty share and its undo lag are
assumptions of this benchmark, not measurements of any real traffic.
"""

from __future__ import annotations

import random

from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet
from repro.datasets.bank import bank_constraints
from repro.datasets.commerce import commerce_constraints
from repro.relational.instance import DatabaseInstance
from repro.relational.values import WILDCARD as _

Row = tuple[str, ...]
Rows = list[tuple[str, Row]]

BANK_ERROR_RATE = 0.03
COMMERCE_ERROR_RATE = 0.01
#: CFDs and CINDs added per hot relation by the dense Σ builders, as
#: ``bench_detection.py`` adds by default.
EXTRA = 12

_BANK_RATES = {
    ("UK", "saving"): "4.5%",
    ("UK", "checking"): "1.5%",
    ("US", "saving"): "4%",
    ("US", "checking"): "1%",
}
_BRANCH_COUNTRY = (("NYC", "US"), ("EDI", "UK"))

COUNTRIES = ("UK", "FR", "DE", "US", "JP")
ZONES = {"UK": "eu", "FR": "eu", "DE": "eu", "US": "na", "JP": "apac"}
FEES = {"eu": "5", "na": "9", "apac": "12"}
ITEMS = tuple(f"sku{i}" for i in range(8))
PRICES = {item: str(10 + 3 * i) for i, item in enumerate(ITEMS)}
CATEGORIES = ("books", "tools", "games", "audio")
STATUSES = ("quote", "paid", "shipped")
TIERS = ("standard", "vip")


def bank_rows(n_accounts: int, seed: int) -> Rows:
    """Bank rows in insertion order: the interest table, then per account
    the source row and its migrated target row (3% of accounts get one
    error: a corrupted branch or a dropped target row)."""
    rng = random.Random(seed)
    rows: Rows = []
    for branch, country in _BRANCH_COUNTRY:
        for at in ("saving", "checking"):
            rows.append(
                ("interest", (branch, country, at, _BANK_RATES[(country, at)]))
            )
    for i in range(n_accounts):
        branch = rng.choice(("NYC", "EDI"))
        at = rng.choice(("saving", "checking"))
        row = (f"{i:06d}", f"Customer {i}", f"{branch}, {10000 + i}",
               f"555-{i:07d}", at)
        rows.append((f"account_{branch}", row))
        target = row[:4] + (branch,)
        if rng.random() < BANK_ERROR_RATE:
            if rng.random() < 0.5:
                wrong = "EDI" if branch == "NYC" else "NYC"
                rows.append((at, target[:4] + (wrong + "-X",)))
        else:
            rows.append((at, target))
    return rows


def commerce_rows(n_orders: int, seed: int) -> Rows:
    """Commerce rows: catalog, shipping, customers, then orders.

    Every 100th order is dirty: in turn a paid order at a drifted price,
    a shipped order to a country with no shipping row, or a wrong fee on
    a shipping row. The SKUs and countries these hit rotate too. One
    wrong fee turns every shipped order to that country into a
    violation, so drawing them at random made the report's size, and
    every commit's and read's cost, depend on the seed; this way every
    seed has the same violation structure, and seeds vary the rest."""
    period = round(1 / COMMERCE_ERROR_RATE)
    rng = random.Random(seed)
    shipping = {c: (c, ZONES[c], FEES[ZONES[c]]) for c in COUNTRIES}
    n_customers = max(3, n_orders // 6)
    customers: list[Row] = []
    for c in range(n_customers):
        customers.append(
            (f"c{c:04d}", rng.choice(COUNTRIES), rng.choice(TIERS))
        )
    orders: list[Row] = []
    for o in range(n_orders):
        cust, country, __ = customers[rng.randrange(n_customers)]
        item = rng.choice(ITEMS)
        status = rng.choice(STATUSES)
        price = PRICES[item]
        if o % period == period - 1:
            kind, turn = divmod(o // period, 3)[::-1]
            if kind == 0:
                item = ITEMS[turn % len(ITEMS)]
                status, price = "paid", "999"
            elif kind == 1:
                status, country = "shipped", "ATLANTIS"
            else:
                victim = COUNTRIES[turn % len(COUNTRIES)]
                del shipping[victim]
                shipping[victim] = (victim, ZONES[victim], "0")
        orders.append((f"o{o:05d}", cust, country, item, price, status))
    catalog = [
        (item, CATEGORIES[i % len(CATEGORIES)], PRICES[item])
        for i, item in enumerate(ITEMS)
    ]
    return (
        [("catalog", r) for r in catalog]
        + [("shipping", r) for r in shipping.values()]
        + [("customers", r) for r in customers]
        + [("orders", r) for r in orders]
    )


def load(sigma: ConstraintSet, rows: Rows) -> DatabaseInstance:
    """A fresh instance holding *rows* in order."""
    db = DatabaseInstance(sigma.schema)
    add = db.add
    for relation, row in rows:
        add(relation, row)
    return db


def dense_bank_sigma() -> ConstraintSet:
    """Σ_bank plus EXTRA CFDs and CINDs on each of saving/checking,
    sharing the ``(an, ab)`` LHS groups and the interest witness keys."""
    sigma = bank_constraints()
    schema = sigma.schema
    interest = schema.relation("interest")
    branches = ("NYC", "EDI")
    rhs_cycle = ("cn", "ca", "cp")
    for rel_name in ("saving", "checking"):
        rel = schema.relation(rel_name)
        for i in range(EXTRA):
            branch = (branches + (_,))[i % 3]
            sigma.add_cfd(CFD(
                rel, ("an", "ab"), (rhs_cycle[i % 3],),
                [((_, branch), (_,))], name=f"x_{rel_name}_cfd{i}",
            ))
        for i in range(EXTRA):
            branch = branches[i % 2]
            at = ("saving", "checking")[(i // 2) % 2]
            sigma.add_cind(CIND(
                rel, (), ("ab",), interest, (), ("ab", "at"),
                [((branch,), (branch, at))], name=f"x_{rel_name}_cind{i}",
            ))
    return sigma


def dense_commerce_sigma() -> ConstraintSet:
    """Σ_commerce plus per-SKU price CFDs on orders and per-country
    shipping / per-item catalog CINDs."""
    sigma = commerce_constraints()
    schema = sigma.schema
    orders = schema.relation("orders")
    catalog = schema.relation("catalog")
    shipping = schema.relation("shipping")
    for i in range(EXTRA):
        sku = ITEMS[i % len(ITEMS)]
        sigma.add_cfd(CFD(
            orders, ("item",), ("price",), [((sku,), (PRICES[sku],))],
            name=f"x_price_{i}",
        ))
    for i in range(EXTRA):
        country = COUNTRIES[i % len(COUNTRIES)]
        status = ("shipped", "paid")[(i // len(COUNTRIES)) % 2]
        sigma.add_cind(CIND(
            orders, ("country",), ("status",), shipping, ("country",), (),
            [((_, status), (_,))], name=f"x_ship_{i}",
        ))
    for i in range(max(2, EXTRA // 4)):
        status = ("paid", "shipped")[i % 2]
        sigma.add_cind(CIND(
            orders, ("item",), ("status",), catalog, ("item",), (),
            [((_, status), (_,))], name=f"x_item_{i}",
        ))
    return sigma


Batch = tuple[list[tuple[str, Row]], list[tuple[str, Row]]]


class CommerceDML:
    """The stationary one-row commit stream of the ``stream`` workload.

    Each batch holds one new operation plus the undo of the operation
    made :attr:`UNDO_LAG` batches earlier, so the database size and
    dirtiness stay level however long the run is. The operations take
    the four :attr:`KINDS` in turn, so each has an equal share of every
    stretch of the stream: a new order, a status change (delete+insert
    in one batch), a cancellation, a new customer. A :attr:`DIRTY` share
    of new orders and customers are dirty. Rows touched by a pending
    operation are never picked again until it is undone, so each batch's
    deletes and inserts are disjoint.

    The equal shares, ``DIRTY`` and ``UNDO_LAG`` are assumptions, not
    measured traffic; the benchmark reports the commit median per kind
    so a reader can see how much the split matters.
    """

    KINDS = ("new_order", "status_change", "cancellation", "new_customer")
    UNDO_LAG = 8
    DIRTY = 0.2

    def __init__(self, rows: Rows, seed: int):
        self._rng = random.Random(f"dml-{seed}")
        self._orders = [row for rel, row in rows if rel == "orders"]
        self._customers = [row for rel, row in rows if rel == "customers"]
        self._busy: set[str] = set()
        self._undo: dict[int, tuple[Batch, str | None]] = {}
        self._k = 0

    def _free_order(self) -> Row:
        while True:
            row = self._orders[self._rng.randrange(len(self._orders))]
            if row[0] not in self._busy:
                return row

    def _operation(self, kind: str, k: int) -> tuple[Batch, Batch, str | None]:
        rng = self._rng
        if kind == "new_order":
            cust, country, __ = rng.choice(self._customers)
            item = rng.choice(ITEMS)
            status, price = rng.choice(STATUSES), PRICES[item]
            if rng.random() < self.DIRTY:
                if rng.random() < 0.5:
                    status, price = "paid", "999"
                else:
                    status, country = "shipped", "ATLANTIS"
            row = (f"n{k:07d}", cust, country, item, price, status)
            return ([], [("orders", row)]), ([("orders", row)], []), None
        if kind == "status_change":
            row = self._free_order()
            status = rng.choice([s for s in STATUSES if s != row[5]])
            new = row[:5] + (status,)
            return (
                ([("orders", row)], [("orders", new)]),
                ([("orders", new)], [("orders", row)]),
                row[0],
            )
        if kind == "cancellation":
            row = self._free_order()
            return ([("orders", row)], []), ([], [("orders", row)]), row[0]
        cust, country, tier = f"n{k:07d}", rng.choice(COUNTRIES), rng.choice(TIERS)
        busy = None
        if rng.random() < self.DIRTY:
            victim = rng.choice(self._customers)
            if victim[0] not in self._busy:
                # A second row for an existing customer with another
                # country: a customer_key violation until undone.
                cust = busy = victim[0]
                country = rng.choice([c for c in COUNTRIES if c != victim[1]])
        row = (cust, country, tier)
        return ([], [("customers", row)]), ([("customers", row)], []), busy

    def next_batch(self) -> tuple[str, list, list]:
        """The next commit: its new operation's kind, then ``deletes``
        and ``inserts`` as ``(relation, row)`` lists."""
        k = self._k
        self._k += 1
        kind = self.KINDS[k % len(self.KINDS)]
        (deletes, inserts), undo, busy = self._operation(kind, k)
        if busy is not None:
            self._busy.add(busy)
        self._undo[k + self.UNDO_LAG] = (undo, busy)
        due = self._undo.pop(k, None)
        if due is not None:
            (undo_deletes, undo_inserts), released = due
            deletes = deletes + undo_deletes
            inserts = inserts + undo_inserts
            if released is not None:
                self._busy.discard(released)
        return kind, deletes, inserts
