"""Quickstart: the paper's bank example end to end, through `repro.api`.

Builds the Fig. 1 database, the CINDs of Fig. 2 and the CFDs of Fig. 4,
then (1) detects the two planted errors (tuples t10 and t12) via the
unified Session facade, (2) repairs them, and (3) checks the constraint
set itself for consistency.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.consistency.checking import checking
from repro.core.parser import format_cfd, format_cind
from repro.datasets.bank import bank_constraints, bank_instance, bank_schema


def main() -> None:
    schema = bank_schema()
    db = bank_instance(schema)
    sigma = bank_constraints(schema)

    print("=== The constraints (Figures 2 and 4 of the paper) ===")
    for cind in sigma.cinds:
        for line in format_cind(cind):
            print(" ", line)
    for cfd in sigma.cfds:
        for line in format_cfd(cfd):
            print(" ", line)

    print("\n=== 1. Error detection on the Fig. 1 instance ===")
    # One facade over every engine; backend="sql" / "naive" would print
    # the identical report.
    session = api.connect(db, sigma)
    detection = session.detect()
    print(detection.summary())
    print(
        "\nAs in Examples 2.2 and 4.1: tuple t10 violates psi6 (no interest "
        "row with the 1.5% UK checking rate)\nand tuple t12 violates phi3 "
        "(10.5% instead of 1.5%). The traditional FDs/INDs see nothing."
    )

    print("\n=== 2. Repair ===")
    repaired = session.repair(cind_policy="insert")
    print(f"clean after repair: {repaired.clean} "
          f"({repaired.cost} edit(s), {repaired.rounds} round(s))")
    for edit in repaired.edits:
        print(" ", edit)

    print("\n=== 3. Consistency of the constraint set itself ===")
    decision = checking(schema, sigma)
    print(f"Sigma consistent: {decision.consistent} "
          f"(method: {decision.method})")
    if decision.witness is not None:
        print(f"witness database: {decision.witness!r}")


if __name__ == "__main__":
    main()
