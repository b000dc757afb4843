"""Static analysis of Σ (`repro.analyze`): kernel, analyzer, diagnostics.

The consistency kernel is cross-validated against the monolithic SAT
reduction (`sat_cfd_consistency`) — the two must agree on every random
CFD set, including after incremental adds. Redundancy findings are
cross-validated against the cover/implication machinery they summarize.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analyze import (
    RelationKernel,
    SigmaAnalyzer,
    SigmaReport,
    SigmaWarning,
    analyze_sigma,
    chain_findings,
    cind_graph,
    longest_chain,
)
from repro.analyze.redundancy import duplicate_maps
from repro.consistency import cfd_implies, sat_cfd_consistency
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.cover import minimal_cover_cfds
from repro.core.violations import ConstraintSet, constraint_labels
from repro.errors import ConstraintError
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD as _
from tests.strategies import cfds as cfds_strategy
from tests.strategies import relation_schemas


def two_attr_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [RelationSchema("R", [Attribute("A"), Attribute("B")])]
    )


class TestRelationKernel:
    def test_empty_kernel_is_consistent(self):
        relation = two_attr_schema().relation("R")
        kernel = RelationKernel(relation)
        assert kernel.consistent() is True
        assert kernel.diagnose().consistent is True

    def test_rejects_foreign_relation(self):
        schema = DatabaseSchema([
            RelationSchema("R", [Attribute("A"), Attribute("B")]),
            RelationSchema("S", [Attribute("A"), Attribute("B")]),
        ])
        kernel = RelationKernel(schema.relation("R"))
        foreign = CFD(
            schema.relation("S"), ("A",), ("B",), [((_,), ("x",))]
        )
        with pytest.raises(ConstraintError):
            kernel.add(foreign)

    def test_unsat_single_is_named(self):
        relation = two_attr_schema().relation("R")
        # Two wildcard-premise rows forcing different constants: *every*
        # tuple must have B='b1' and B='b2' — unsatisfiable on its own.
        broken = CFD(
            relation, ("A",), ("B",),
            [((_,), ("b1",)), ((_,), ("b2",))],
        )
        kernel = RelationKernel(relation)
        kernel.add(broken)
        diagnosis = kernel.diagnose()
        assert diagnosis.consistent is False
        assert diagnosis.unsat_singles == (0,)
        assert diagnosis.conflict_core == ()

    def test_wildcard_conflict_core_and_pairs(self):
        relation = two_attr_schema().relation("R")
        # Each is satisfiable alone; jointly they force B = w0 and B = w1
        # on *every* tuple — the genuine (wildcard-premise) inconsistency.
        left = CFD(relation, ("A",), ("B",), [((_,), ("w0",))], name="L")
        right = CFD(relation, ("A",), ("B",), [((_,), ("w1",))], name="R")
        bystander = CFD(
            relation, ("A",), ("B",), [(("a",), ("w0",))], name="ok"
        )
        kernel = RelationKernel(relation)
        for cfd in (left, right, bystander):
            kernel.add(cfd)
        diagnosis = kernel.diagnose()
        assert diagnosis.consistent is False
        assert diagnosis.unsat_singles == ()
        assert set(diagnosis.conflict_core) == {0, 1}  # minimal: no bystander
        assert diagnosis.conflict_pairs == ((0, 1),)

    def test_example_3_2_is_inconsistent(self, ab_schema, example_3_2_cfds):
        kernel = RelationKernel(ab_schema.relation("R"))
        for cfd in example_3_2_cfds:
            kernel.add(cfd)
        diagnosis = kernel.diagnose()
        assert diagnosis.consistent is False
        # The paper's four CFDs conflict jointly (A=true ⇒ B=b1 ⇒ A=false);
        # each is satisfiable alone.
        assert diagnosis.unsat_singles == ()
        assert len(diagnosis.conflict_core) >= 2

    def test_pooled_constant_add_is_incremental(self):
        relation = two_attr_schema().relation("R")
        kernel = RelationKernel(relation)
        base = CFD(relation, ("A",), ("B",), [(("a",), ("b",))], name="base")
        kernel.add(base)
        assert kernel.consistent()  # forces the first encoding
        rebuilds = kernel.rebuilds
        copy = CFD(relation, ("A",), ("B",), [(("a",), ("b",))], name="copy")
        kernel.add(copy)
        assert kernel.consistent()
        assert kernel.rebuilds == rebuilds
        assert kernel.incremental_adds == 1

    def test_new_constant_forces_rebuild(self):
        relation = two_attr_schema().relation("R")
        kernel = RelationKernel(relation)
        kernel.add(
            CFD(relation, ("A",), ("B",), [(("a",), ("b",))], name="base")
        )
        assert kernel.consistent()
        rebuilds = kernel.rebuilds
        kernel.add(
            CFD(relation, ("A",), ("B",), [(("ZZ",), ("b",))], name="fresh")
        )
        assert kernel.consistent()
        assert kernel.rebuilds == rebuilds + 1
        assert kernel.incremental_adds == 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_monolithic_sat(self, data):
        """Kernel verdict == `sat_cfd_consistency` at every prefix, with the
        adds arriving one at a time (the incremental code path)."""
        relation = data.draw(relation_schemas(max_arity=3))
        n = data.draw(st.integers(min_value=1, max_value=5))
        constraints = [
            data.draw(cfds_strategy(relation, max_rows=2)) for __ in range(n)
        ]
        kernel = RelationKernel(relation)
        for size, cfd in enumerate(constraints, start=1):
            kernel.add(cfd)
            expected, __, __ = sat_cfd_consistency(
                relation, constraints[:size]
            )
            assert kernel.consistent() == expected, (
                f"kernel diverged from sat_cfd_consistency at |Σ|={size}"
            )
        # The diagnosis verdict agrees too, and on UNSAT every reported
        # single really is unsatisfiable alone.
        diagnosis = kernel.diagnose()
        expected, __, __ = sat_cfd_consistency(relation, constraints)
        assert diagnosis.consistent == expected
        for index in diagnosis.unsat_singles:
            solo, __, __ = sat_cfd_consistency(
                relation, [constraints[index]]
            )
            assert solo is False
        if diagnosis.conflict_core:
            core = [constraints[i] for i in diagnosis.conflict_core]
            joint, __, __ = sat_cfd_consistency(relation, core)
            assert joint is False  # the core really conflicts
            for skip in range(len(core)):
                trial = core[:skip] + core[skip + 1:]
                if trial:
                    sat, __, __ = sat_cfd_consistency(relation, trial)
                    assert sat is True  # and it is minimal


class TestSigmaAnalyzer:
    def test_consistent_sigma_reports_ok(self, bank):
        report = analyze_sigma(bank.constraints)
        assert report.cfds_consistent is True
        assert report.ok is True
        assert report.n_cfds == len(bank.constraints.cfds)
        assert report.n_cinds == len(bank.constraints.cinds)

    def test_wildcard_conflict_surfaces_as_error(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        sigma = ConstraintSet(schema, cfds=[
            CFD(relation, ("A",), ("B",), [((_,), ("w0",))], name="L"),
            CFD(relation, ("A",), ("B",), [((_,), ("w1",))], name="R"),
        ])
        report = analyze_sigma(sigma)
        assert report.cfds_consistent is False
        assert not report.ok
        (finding,) = report.errors
        assert finding.code == "cfd-conflict"
        assert set(finding.constraints) == {"L", "R"}
        assert "L vs R" in finding.message

    def test_constant_premise_conflict_is_consistent(self):
        """Conflicting RHS under a *constant* premise: tuples can avoid the
        premise, so Σ stays consistent (the paper's satisfiability notion)."""
        schema = two_attr_schema()
        relation = schema.relation("R")
        sigma = ConstraintSet(schema, cfds=[
            CFD(relation, ("A",), ("B",), [(("a",), ("w0",))], name="L"),
            CFD(relation, ("A",), ("B",), [(("a",), ("w1",))], name="R"),
        ])
        report = analyze_sigma(sigma)
        # Inconsistent *pair under the premise* but Σ admits tuples with
        # A != 'a' — kernel must report consistent.
        assert report.cfds_consistent is True

    def test_duplicate_cfd_finding_names_donor(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        sigma = ConstraintSet(schema, cfds=[
            CFD(relation, ("A",), ("B",), [(("a",), ("b",))], name="orig"),
            CFD(relation, ("A",), ("B",), [(("a",), ("b",))], name="copy"),
        ])
        report = analyze_sigma(sigma)
        assert report.duplicate_cfds == {1: 0}
        (finding,) = [f for f in report.infos if f.code == "duplicate-cfd"]
        assert finding.constraints == ("copy",)
        assert finding.implicants == ("orig",)

    def test_duplicate_cind_finding(self, bank):
        psi = bank.cinds[0]
        clone = CIND(
            psi.lhs_relation, psi.x, psi.xp,
            psi.rhs_relation, psi.y, psi.yp,
            psi.tableau,
            name="psi_clone",
        )
        sigma = ConstraintSet(
            bank.schema, cfds=bank.cfds, cinds=list(bank.cinds) + [clone]
        )
        report = analyze_sigma(sigma)
        assert report.duplicate_cinds == {len(bank.cinds): 0}
        (finding,) = [f for f in report.infos if f.code == "duplicate-cind"]
        assert finding.constraints == ("psi_clone",)
        assert finding.implicants == (psi.name,)

    def test_implied_cfd_finding_cross_validated(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        general = CFD(
            relation, ("A",), ("B",), [((_,), ("b",))], name="general"
        )
        special = CFD(
            relation, ("A",), ("B",), [(("a",), ("b",))], name="special"
        )
        sigma = ConstraintSet(schema, cfds=[general, special])
        report = analyze_sigma(sigma, implication=True)
        assert report.implication_checked is True
        (finding,) = [f for f in report.infos if f.code == "implied-cfd"]
        assert finding.constraints == ("special",)
        assert "general" in finding.implicants
        # ...and the exact two-tuple SAT test agrees with the finding.
        assert cfd_implies(relation, [general], special).implied is True
        assert cfd_implies(relation, [special], general).implied is False

    def test_implication_off_by_default(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        sigma = ConstraintSet(schema, cfds=[
            CFD(relation, ("A",), ("B",), [((_,), ("b",))], name="general"),
            CFD(relation, ("A",), ("B",), [(("a",), ("b",))], name="special"),
        ])
        report = analyze_sigma(sigma)
        assert report.implication_checked is False
        assert not [f for f in report.findings if f.code == "implied-cfd"]

    def test_incremental_add_matches_from_scratch(self, bank):
        analyzer = SigmaAnalyzer(bank.constraints)
        baseline = analyzer.report()
        extra = CFD(
            bank.schema.relation("interest"),
            ("ct",), ("rt",), [(("UK",), (_,))], name="phi_extra",
        )
        analyzer.add(extra)
        extended = ConstraintSet(
            bank.schema,
            cfds=list(bank.constraints.cfds) + [extra],
            cinds=list(bank.constraints.cinds),
        )
        assert analyzer.report() == SigmaAnalyzer(extended).report()
        assert analyzer.report() != baseline  # the add is visible
        assert analyzer.sigma.cfds[-1] is extra

    def test_incremental_labels_and_donors_match_batch(self, bank):
        """The analyzer's maintained labels and duplicate maps (each
        duplicate's earlier twin) equal the batch recomputation at every
        step of a growing Σ."""
        analyzer = SigmaAnalyzer(
            ConstraintSet(bank.schema)
        )
        for constraint in list(bank.constraints) + [bank.cfds[0]]:
            analyzer.add(constraint)
            sigma = analyzer.sigma
            assert analyzer._labels() == constraint_labels(sigma)
            duplicate_cfds, duplicate_cinds = duplicate_maps(sigma)
            report = analyzer.report()
            assert report.duplicate_cfds == duplicate_cfds
            assert report.duplicate_cinds == duplicate_cinds

    def test_rejects_unknown_constraint_type(self, bank):
        analyzer = SigmaAnalyzer(ConstraintSet(bank.schema))
        with pytest.raises(ConstraintError):
            analyzer.add("not a constraint")  # type: ignore[arg-type]

    def test_analyze_sigma_accepts_iterable_plus_schema(self, bank):
        via_set = analyze_sigma(bank.constraints)
        via_iter = analyze_sigma(
            list(bank.constraints), schema=bank.schema
        )
        assert via_iter == via_set
        with pytest.raises(ConstraintError):
            analyze_sigma(list(bank.constraints))  # schema required


class TestChainDiagnostics:
    def _cind(self, src, dst, name):
        return CIND(
            src, (src.attribute_names[0],), (),
            dst, (dst.attribute_names[0],), (),
            [((_,), (_,))], name=name,
        )

    def _schema(self, *names):
        return DatabaseSchema([
            RelationSchema(name, [Attribute("A"), Attribute("B")])
            for name in names
        ])

    def test_self_cycle_warning(self):
        schema = self._schema("R")
        r = schema.relation("R")
        sigma = ConstraintSet(
            schema, cinds=[self._cind(r, r, "loop")]
        )
        (finding,) = chain_findings(sigma)
        assert finding.code == "cind-self-cycle"
        assert finding.constraints == ("loop",)
        assert finding.relation == "R"

    def test_cycle_warning_lists_members(self):
        schema = self._schema("R", "S")
        r, s = schema.relation("R"), schema.relation("S")
        sigma = ConstraintSet(schema, cinds=[
            self._cind(r, s, "rs"), self._cind(s, r, "sr"),
        ])
        (finding,) = chain_findings(sigma)
        assert finding.code == "cind-cycle"
        assert set(finding.constraints) == {"rs", "sr"}

    def test_deep_chain_and_fanout_thresholds(self):
        schema = self._schema("R0", "R1", "R2", "R3")
        rels = [schema.relation(f"R{i}") for i in range(4)]
        chain = [
            self._cind(rels[i], rels[i + 1], f"hop{i}") for i in range(3)
        ]
        fan = [
            self._cind(rels[0], rels[i], f"fan{i}") for i in (2, 3)
        ]
        sigma = ConstraintSet(schema, cinds=chain + fan)
        graph = cind_graph(sigma.cinds)
        depth, path = longest_chain(graph)
        assert depth == 3
        assert path == ("R0", "R1", "R2", "R3")
        # Defaults (8/8): quiet.
        assert chain_findings(sigma) == []
        findings = chain_findings(sigma, max_chain=2, max_fanout=2)
        codes = sorted(f.code for f in findings)
        assert codes == ["deep-cind-chain", "high-cind-fanout"]
        fanout = [f for f in findings if f.code == "high-cind-fanout"][0]
        assert fanout.relation == "R0"

    def test_cycle_collapses_in_chain_length(self):
        schema = self._schema("R", "S", "T")
        r, s, t = (schema.relation(n) for n in ("R", "S", "T"))
        sigma = ConstraintSet(schema, cinds=[
            self._cind(r, s, "rs"), self._cind(s, r, "sr"),
            self._cind(s, t, "st"),
        ])
        depth, __ = longest_chain(cind_graph(sigma.cinds))
        assert depth == 1  # {R,S} condenses to one node; one hop to T


class TestSessionIntegration:
    def test_session_analyze_memoizes(self, bank):
        with api.connect(bank.db, bank.constraints) as session:
            first = session.analyze()
            assert isinstance(first, SigmaReport)
            assert session.analyze() is first
            with_implication = session.analyze(implication=True)
            assert with_implication.implication_checked is True
            assert session.analyze(implication=True) is with_implication

    def test_validate_warns_on_inconsistent_sigma(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        from repro.relational.instance import DatabaseInstance

        sigma = ConstraintSet(schema, cfds=[
            CFD(relation, ("A",), ("B",), [((_,), ("w0",))], name="L"),
            CFD(relation, ("A",), ("B",), [((_,), ("w1",))], name="R"),
        ])
        with pytest.warns(SigmaWarning, match="statically inconsistent"):
            session = api.connect(
                DatabaseInstance(schema), sigma, validate=True
            )
        # Never blocks: the session is open and usable.
        assert session.is_clean() is True

    def test_validate_quiet_on_consistent_sigma(self, bank):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SigmaWarning)
            with api.connect(
                bank.db, bank.constraints, validate=True
            ) as session:
                assert session.analyze().ok


class TestCoverJustification:
    def test_cover_orders_and_implicants(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        general = CFD(
            relation, ("A",), ("B",), [((_,), ("b",))], name="general"
        )
        special = CFD(
            relation, ("A",), ("B",), [(("a",), ("b",))], name="special"
        )
        for order in ("forward", "reverse"):
            result = minimal_cover_cfds(
                relation, [general, special], order=order
            )
            assert result.cover == [general]
            assert result.removed == [special]
            (removal,) = result.removals
            assert removal.candidate is special
            assert removal.singleton
            assert removal.implicants == (general,)
            # The justification is real: the implicants alone entail the
            # candidate.
            assert cfd_implies(
                relation, list(removal.implicants), removal.candidate
            ).implied

    def test_cover_rejects_unknown_order(self):
        schema = two_attr_schema()
        relation = schema.relation("R")
        with pytest.raises(ConstraintError):
            minimal_cover_cfds(relation, [], order="sideways")
