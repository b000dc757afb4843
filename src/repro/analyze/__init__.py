"""Static analysis of Σ before any data is scanned.

The detection engine (:mod:`repro.engine`) answers "does *this instance*
violate Σ?"; this package answers questions about Σ *itself*, using the
paper's reasoning machinery (single-tuple SAT for CFD consistency, the
bounded chase for CIND implication, the dependency graph for structure):

* **consistency** — statically unsatisfiable CFDs and minimal pairwise-
  conflicting groups, via per-relation incremental selector-SAT kernels
  (:mod:`repro.analyze.kernel`);
* **redundancy** — structural duplicates (the same violations as an
  earlier constraint on every instance) and implied constraints
  (advisory), via :mod:`repro.analyze.redundancy` and
  :mod:`repro.core.cover`;
* **chains** — CIND cycles, deep chains, and high fanout over ``G[Σ]``
  (:mod:`repro.analyze.chains`).

Entry points: :func:`analyze_sigma` (one shot), :class:`SigmaAnalyzer`
(incremental), ``Session.analyze()`` / ``connect(..., validate=True)`` at
the API layer, and ``repro lint-sigma`` on the command line.
"""

from __future__ import annotations

from repro.analyze.analyzer import SigmaAnalyzer, analyze_sigma
from repro.analyze.chains import (
    DEFAULT_MAX_CHAIN,
    DEFAULT_MAX_FANOUT,
    chain_findings,
    cind_graph,
    longest_chain,
)
from repro.analyze.kernel import RelationDiagnosis, RelationKernel
from repro.analyze.redundancy import (
    duplicate_findings,
    duplicate_maps,
    implication_findings,
)
from repro.analyze.report import (
    SEVERITIES,
    Finding,
    SigmaReport,
    SigmaWarning,
)

__all__ = [
    "DEFAULT_MAX_CHAIN",
    "DEFAULT_MAX_FANOUT",
    "Finding",
    "RelationDiagnosis",
    "RelationKernel",
    "SEVERITIES",
    "SigmaAnalyzer",
    "SigmaReport",
    "SigmaWarning",
    "analyze_sigma",
    "chain_findings",
    "cind_graph",
    "duplicate_findings",
    "duplicate_maps",
    "implication_findings",
    "longest_chain",
]
