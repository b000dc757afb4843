"""Tests for constraint propagation through selection-projection views.

The soundness property under test: whenever ``db |= Σ``, the materialised
view database satisfies every propagated constraint.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cfd import CFD, standard_fd
from repro.core.cind import CIND
from repro.errors import SchemaError
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD as _
from repro.views.spc import SPView, materialize, propagate_cfds, propagate_cinds

from tests.strategies import cfds as cfd_strategy
from tests.strategies import database_schemas, instances


@pytest.fixture
def edi_checking_view(bank):
    """The Edinburgh checking accounts, as a view."""
    return SPView(
        name="edi_checking",
        base=bank.schema.relation("checking"),
        keep=("an", "cn", "ab"),
        conditions={"ab": "EDI"},
    )


class TestViewBasics:
    def test_schema(self, edi_checking_view):
        schema = edi_checking_view.schema
        assert schema.name == "edi_checking"
        assert schema.attribute_names == ("an", "cn", "ab")

    def test_evaluate(self, bank, edi_checking_view):
        result = edi_checking_view.evaluate(bank.db)
        assert len(result) == 1  # only t10 is an EDI checking account
        assert result.tuples[0]["cn"] == "I. Stark"

    def test_materialize(self, bank, edi_checking_view):
        extended = materialize(bank.db, [edi_checking_view])
        assert "edi_checking" in extended.schema
        assert len(extended["checking"]) == len(bank.db["checking"])
        assert len(extended["edi_checking"]) == 1

    def test_validation(self, bank):
        checking = bank.schema.relation("checking")
        with pytest.raises(SchemaError):
            SPView("v", checking, ("nope",), {})
        with pytest.raises(SchemaError):
            SPView("v", checking, ("an",), {"nope": "x"})
        with pytest.raises(SchemaError):
            SPView("v", checking, (), {})

    def test_condition_constant_must_be_in_domain(self, bank):
        interest = bank.schema.relation("interest")
        with pytest.raises(SchemaError):
            SPView("v", interest, ("ab",), {"at": "not-a-type"})


class TestCFDPropagation:
    def test_inherited_fd(self, bank, edi_checking_view):
        # ϕ2's attributes cn ⊆ keep only partially (ca, cp dropped):
        # the (an, ab -> cn) part is expressible after normalisation.
        checking = bank.schema.relation("checking")
        fd = standard_fd(checking, ("an", "ab"), ("cn",), name="key")
        (propagated, *consts) = propagate_cfds(edi_checking_view, [fd])
        assert propagated.relation.name == "edi_checking"
        assert propagated.lhs == ("an", "ab")

    def test_selection_constant_cfd(self, bank, edi_checking_view):
        out = propagate_cfds(edi_checking_view, [])
        (sel,) = out
        assert sel.lhs == ()
        assert sel.pattern.rhs_value("ab") == "EDI"
        extended = materialize(bank.db, [edi_checking_view])
        assert sel.satisfied_by(extended["edi_checking"])

    def test_wildcard_specialised_to_condition(self, bank, edi_checking_view):
        checking = bank.schema.relation("checking")
        cfd = CFD(checking, ("ab",), ("cn",), [((_,), (_,))], name="g")
        propagated = propagate_cfds(edi_checking_view, [cfd])
        inherited = [c for c in propagated if c.name == "g@edi_checking"][0]
        assert inherited.pattern.lhs_value("ab") == "EDI"

    def test_contradicting_row_dropped(self, bank, edi_checking_view):
        checking = bank.schema.relation("checking")
        cfd = CFD(
            checking, ("ab",), ("cn",),
            [(("NYC",), ("x",)), (("EDI",), (_,))],
            name="two-rows",
        )
        propagated = propagate_cfds(edi_checking_view, [cfd])
        inherited = [c for c in propagated if c.name.startswith("two-rows")][0]
        assert len(inherited.tableau) == 1  # the NYC row is vacuous on V

    def test_non_kept_attributes_do_not_propagate(self, bank, edi_checking_view):
        checking = bank.schema.relation("checking")
        cfd = standard_fd(checking, ("cp",), ("cn",))  # cp not kept
        propagated = propagate_cfds(edi_checking_view, [cfd])
        assert all(c.name.startswith("sel(") for c in propagated)


class TestCINDPropagation:
    def test_source_side_propagates(self, bank, edi_checking_view):
        psi4 = bank.by_name["psi4"]  # checking[ab] ⊆ interest[ab]
        (propagated,) = propagate_cinds(edi_checking_view, [psi4])
        assert propagated.lhs_relation.name == "edi_checking"
        assert propagated.rhs_relation.name == "interest"
        extended = materialize(bank.db, [edi_checking_view])
        assert propagated.satisfied_by(extended)

    def test_violation_survives_propagation(self, bank, edi_checking_view):
        # ψ6 restricted to the EDI view still catches t10.
        psi6 = bank.by_name["psi6"]
        (propagated,) = propagate_cinds(edi_checking_view, [psi6])
        # Only the EDI row survives (the NYC row contradicts ab = 'EDI'...
        # actually ab is in Xp with pattern EDI/NYC; the NYC row is vacuous).
        assert len(propagated.tableau) == 1
        extended = materialize(bank.db, [edi_checking_view])
        assert not propagated.satisfied_by(extended)
        clean = materialize(bank.clean_db, [edi_checking_view])
        assert propagated.satisfied_by(clean)

    def test_non_kept_premise_blocks_propagation(self, bank):
        view = SPView(
            "v", bank.schema.relation("checking"), ("an", "cn"), {}
        )
        psi4 = bank.by_name["psi4"]  # needs ab, which is not kept
        assert propagate_cinds(view, [psi4]) == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_propagation_soundness_property(data):
    """db |= Σ implies materialised views satisfy every propagated CFD."""
    schema = data.draw(database_schemas(max_relations=1, allow_finite=False))
    base = list(schema)[0]
    n = data.draw(st.integers(min_value=1, max_value=3))
    sigma = [data.draw(cfd_strategy(base)) for __ in range(n)]
    drawn = data.draw(instances(schema, max_tuples=8))
    # A Σ-satisfying instance built from the draw: each drawn tuple stays
    # only if Σ still holds with it (deleting a tuple never violates a
    # CFD, so every prefix satisfies Σ).
    db = DatabaseInstance(schema)
    relation = db[base.name]
    for t in drawn[base.name]:
        relation.add(t)
        if not all(c.satisfied_by(db) for c in sigma):
            relation.discard(t)
    keep_size = data.draw(st.integers(min_value=1, max_value=base.arity))
    keep = base.attribute_names[:keep_size]
    cond_attr = data.draw(st.sampled_from(list(base.attribute_names)))
    conditions = (
        {cond_attr: data.draw(st.sampled_from(["a", "b", "c"]))}
        if data.draw(st.booleans())
        else {}
    )
    view = SPView("v", base, keep, conditions)
    extended = materialize(db, [view])
    for cfd in propagate_cfds(view, sigma):
        assert cfd.satisfied_by(extended["v"]), (cfd, view)
