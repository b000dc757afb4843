"""X5 (extension): carried vs full violation maintenance under updates.

A cleaning tool watching a live database wants the violation change and
the verdict after every update. A full re-check rescans everything; a
``memory`` session carries its scan cache forward by each update's rows,
so ``delta()`` and ``is_clean()`` re-evaluate only the CFD groups,
witness keys and CIND rows the update touches. This benchmark applies a
stream of inserts to the scaled bank database and measures the cost of
keeping the answer current both ways.
"""

import random

from repro import api
from repro.core.violations import check_database
from repro.datasets.bank import bank_constraints, scaled_bank_instance

from _workloads import record, scaled

EXPERIMENT = "x5: per-update violation maintenance (s per 100 updates)"

N_ACCOUNTS = scaled(2000)
N_UPDATES = 100


def _update_stream(schema, rng):
    ops = []
    for __ in range(N_UPDATES):
        branch = rng.choice(("NYC", "EDI"))
        i = rng.randint(0, 10_000)
        ops.append(
            (
                rng.choice(("saving", "checking")),
                (f"{i:06d}", f"Cust {i}", f"{branch}, {i}", f"555-{i:07d}", branch),
            )
        )
    return ops


def test_x5_full_recheck(benchmark, series):
    sigma = bank_constraints()
    db = scaled_bank_instance(N_ACCOUNTS, error_rate=0.02, seed=31)
    ops = _update_stream(db.schema, random.Random(31))

    def run():
        work = db.copy()
        total = 0
        for relation, row in ops:
            work[relation].add(row)
            total = check_database(work, sigma).total
        return total

    benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, engine="full", n_accounts=N_ACCOUNTS)
    series.add(EXPERIMENT, "full recheck", N_ACCOUNTS, benchmark.stats.stats.mean)


def test_x5_carry_forward(benchmark, series):
    sigma = bank_constraints()
    db = scaled_bank_instance(N_ACCOUNTS, error_rate=0.02, seed=31)
    ops = _update_stream(db.schema, random.Random(31))
    work = db.copy()
    session = api.connect(work, sigma)
    session.check()  # the baseline report the deltas are relative to

    def run():
        for relation, row in ops:
            session.apply(inserts=[(relation, row)])
            assert session.delta() is not None  # one row is always carried
            session.is_clean()

    benchmark.pedantic(run, rounds=1, iterations=1)

    # Cross-check the carried state against a cold check of the same data.
    cold = db.copy()
    for relation, row in ops:
        cold[relation].add(row)
    expected = check_database(cold, sigma)
    summary = session.count()
    assert (summary.total, summary.by_constraint()) == (
        expected.total, expected.by_constraint()
    )
    assert session.is_clean() == expected.is_clean
    session.close()
    record(benchmark, engine="carry-forward", n_accounts=N_ACCOUNTS)
    series.add(EXPERIMENT, "carry-forward", N_ACCOUNTS, benchmark.stats.stats.mean)
    series.note(
        EXPERIMENT,
        "a memory session's apply + delta() + is_clean() per update against "
        "a cold full re-check per update",
    )
