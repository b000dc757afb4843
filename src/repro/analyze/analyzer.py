"""Σ-level static analysis: consistency, redundancy, chain diagnostics.

:class:`SigmaAnalyzer` is the stateful front end of the package. It owns
one :class:`~repro.analyze.kernel.RelationKernel` per relation that has
CFDs, so the expensive part of analysis — the SAT encodings — persists
across calls:

* ``analyze_sigma(sigma)`` / ``SigmaAnalyzer.report()`` runs the full
  battery (consistency kernel, duplicate/implied redundancy, CIND chain
  diagnostics) and returns a :class:`~repro.analyze.report.SigmaReport`;
* ``add(constraint)`` extends Σ in place and invalidates only the touched
  relation's verdict — the next ``report()`` re-solves one kernel (often
  with a single incremental clause block) instead of re-encoding Σ.

Implication findings (the bounded-chase / two-tuple-SAT tier) are opt-in
via ``implication=True`` because they cost real solver time on large Σ;
everything else is cheap enough to run at every ``connect``.
"""

from __future__ import annotations

from typing import Iterable

from repro.analyze.chains import (
    DEFAULT_MAX_CHAIN,
    DEFAULT_MAX_FANOUT,
    chain_findings,
)
from repro.analyze.kernel import RelationDiagnosis, RelationKernel
from repro.analyze.redundancy import (
    duplicate_findings,
    implication_findings,
)
from repro.analyze.report import Finding, SigmaReport
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, constraint_labels
from repro.errors import ConstraintError


class SigmaAnalyzer:
    """Incremental analyzer over a growing constraint set.

    Constraints are added through :meth:`add` (or all at once via
    :func:`analyze_sigma`); the analyzer never mutates the
    :class:`~repro.core.violations.ConstraintSet` it was seeded from.
    """

    def __init__(self, sigma: ConstraintSet):
        self._schema = sigma.schema
        self._cfds: list[CFD] = []
        self._cinds: list[CIND] = []
        self._kernels: dict[str, RelationKernel] = {}
        #: Σ index of each kernel-local CFD, per relation (kernel order).
        self._positions: dict[str, list[int]] = {}
        #: Relations whose cached diagnosis is still valid.
        self._diagnoses: dict[str, RelationDiagnosis] = {}
        # Incrementally-maintained Σ-wide state, so a +1-constraint
        # re-analysis costs one kernel solve plus O(|Σ|) dict assembly —
        # never an O(|Σ|) repr pass or duplicate rescan.
        self._first_cfd: dict[CFD, int] = {}
        self._first_cind: dict[CIND, int] = {}
        self._duplicate_cfds: dict[int, int] = {}
        self._duplicate_cinds: dict[int, int] = {}
        #: ``name or repr`` per constraint, computed once at add time
        #: (repr over a large unnamed Σ dominates label construction).
        self._cfd_bases: list[str] = []
        self._cind_bases: list[str] = []
        self._sigma_cache: ConstraintSet | None = None
        self._labels_cache: dict[int, str] | None = None
        for constraint in sigma:
            self.add(constraint)

    # -- construction -------------------------------------------------------

    def add(self, constraint: CFD | CIND) -> None:
        """Extend Σ with one constraint; only its relation is re-diagnosed."""
        if isinstance(constraint, CFD):
            name = constraint.relation.name
            if name not in self._schema:
                raise ConstraintError(
                    f"constraint mentions relation {name!r} not in the schema"
                )
            kernel = self._kernels.get(name)
            if kernel is None:
                kernel = RelationKernel(self._schema.relation(name))
                self._kernels[name] = kernel
                self._positions[name] = []
            kernel.add(constraint)
            index = len(self._cfds)
            self._positions[name].append(index)
            self._cfds.append(constraint)
            self._cfd_bases.append(constraint.name or repr(constraint))
            first = self._first_cfd.setdefault(constraint, index)
            if first != index:
                self._duplicate_cfds[index] = first
            self._diagnoses.pop(name, None)
        elif isinstance(constraint, CIND):
            for name in (
                constraint.lhs_relation.name, constraint.rhs_relation.name
            ):
                if name not in self._schema:
                    raise ConstraintError(
                        f"constraint mentions relation {name!r} not in the "
                        "schema"
                    )
            index = len(self._cinds)
            self._cinds.append(constraint)
            self._cind_bases.append(constraint.name or repr(constraint))
            first = self._first_cind.setdefault(constraint, index)
            if first != index:
                self._duplicate_cinds[index] = first
        else:
            raise ConstraintError(
                f"cannot analyze {type(constraint).__name__}: expected a "
                "CFD or CIND"
            )
        self._sigma_cache = None
        self._labels_cache = None

    # -- introspection ------------------------------------------------------

    @property
    def sigma(self) -> ConstraintSet:
        """The analyzed Σ (same constraint objects, current snapshot)."""
        if self._sigma_cache is None:
            self._sigma_cache = ConstraintSet(
                self._schema, cfds=self._cfds, cinds=self._cinds
            )
        return self._sigma_cache

    def _labels(self) -> dict[int, str]:
        """Σ's display labels from the add-time base strings (no reprs)."""
        if self._labels_cache is None:
            self._labels_cache = constraint_labels(
                self._cfds + self._cinds,
                bases=self._cfd_bases + self._cind_bases,
            )
        return self._labels_cache

    @property
    def incremental_adds(self) -> int:
        """CFD blocks appended without a rebuild, across all kernels."""
        return sum(k.incremental_adds for k in self._kernels.values())

    @property
    def rebuilds(self) -> int:
        """Full per-relation re-encodings, across all kernels."""
        return sum(k.rebuilds for k in self._kernels.values())

    # -- analysis -----------------------------------------------------------

    def consistent(self) -> bool:
        """Is the CFD part of Σ satisfiable? (Per-relation, exact.)"""
        return all(self._diagnose(name).consistent for name in self._kernels)

    def _diagnose(self, relation: str) -> RelationDiagnosis:
        diagnosis = self._diagnoses.get(relation)
        if diagnosis is None:
            diagnosis = self._kernels[relation].diagnose()
            self._diagnoses[relation] = diagnosis
        return diagnosis

    def _consistency_findings(self) -> tuple[bool, list[Finding]]:
        labels = self._labels()
        consistent = True
        findings: list[Finding] = []
        for name in sorted(self._kernels):
            diagnosis = self._diagnose(name)
            if diagnosis.consistent:
                continue
            consistent = False
            positions = self._positions[name]

            def label(local: int) -> str:
                return labels[id(self._cfds[positions[local]])]

            for local in diagnosis.unsat_singles:
                findings.append(Finding(
                    severity="error",
                    code="unsat-cfd",
                    message=(
                        "statically unsatisfiable on its own: no single "
                        "tuple can match the premise and the consequent "
                        "(every instance with a matching tuple is dirty)"
                    ),
                    constraints=(label(local),),
                    relation=name,
                ))
            if diagnosis.conflict_core:
                pair_text = "; ".join(
                    f"{label(a)} vs {label(b)}"
                    for a, b in diagnosis.conflict_pairs
                ) or "conflict needs three or more members"
                findings.append(Finding(
                    severity="error",
                    code="cfd-conflict",
                    message=(
                        "minimal jointly-unsatisfiable CFD group (each "
                        "member is satisfiable alone); directly conflicting "
                        f"pairs: {pair_text}"
                    ),
                    constraints=tuple(
                        label(local) for local in diagnosis.conflict_core
                    ),
                    relation=name,
                ))
        return consistent, findings

    def report(
        self,
        implication: bool = False,
        max_chain: int = DEFAULT_MAX_CHAIN,
        max_fanout: int = DEFAULT_MAX_FANOUT,
        max_tuples: int = 200,
        max_branches: int = 128,
    ) -> SigmaReport:
        """Run every analysis tier and assemble the report.

        Consistency verdicts are served from the per-relation cache;
        relations untouched since the last call are not re-solved.
        """
        sigma = self.sigma
        labels = self._labels()
        consistent, findings = self._consistency_findings()
        duplicate_cfds = dict(self._duplicate_cfds)
        duplicate_cinds = dict(self._duplicate_cinds)
        findings.extend(
            duplicate_findings(sigma, duplicate_cfds, duplicate_cinds, labels=labels)
        )
        if implication:
            findings.extend(implication_findings(
                sigma, duplicate_cfds, duplicate_cinds,
                max_tuples=max_tuples, max_branches=max_branches,
                labels=labels,
            ))
        findings.extend(chain_findings(
            sigma, max_chain=max_chain, max_fanout=max_fanout, labels=labels,
        ))
        return SigmaReport(
            n_cfds=len(self._cfds),
            n_cinds=len(self._cinds),
            cfds_consistent=consistent,
            findings=tuple(findings),
            duplicate_cfds=duplicate_cfds,
            duplicate_cinds=duplicate_cinds,
            implication_checked=implication,
        )


def analyze_sigma(
    sigma: ConstraintSet | Iterable[CFD | CIND],
    schema: "object | None" = None,
    implication: bool = False,
    **limits: int,
) -> SigmaReport:
    """One-shot analysis: build an analyzer over *sigma* and report.

    Accepts a :class:`ConstraintSet`, or any iterable of constraints plus
    an explicit ``schema``.
    """
    if not isinstance(sigma, ConstraintSet):
        if schema is None:
            raise ConstraintError(
                "analyze_sigma needs a ConstraintSet, or constraints plus "
                "an explicit schema"
            )
        sigma = ConstraintSet(
            schema,  # type: ignore[arg-type]
            cfds=[c for c in sigma if isinstance(c, CFD)],
            cinds=[c for c in sigma if isinstance(c, CIND)],
        )
    return SigmaAnalyzer(sigma).report(implication=implication, **limits)
