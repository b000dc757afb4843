"""Redundancy analysis: duplicate and implied constraints.

Two tiers, split by what they guarantee:

* **Structural duplicates** — a constraint equal (same relation(s),
  attribute lists, and pattern tableau; names may differ) to an earlier
  one has *exactly* the same violations on every instance.
  :func:`duplicate_maps` computes the later→first index maps. Detection
  needs no help from them: the scan kernels evaluate each pattern-row
  signature once per scan unit, so a duplicate already shares its twin's
  scan and keeps its own report slots.

* **Implied constraints** — entailed by the survivors (exact two-tuple
  SAT for CFDs, bounded three-valued chase for CINDs, via
  :mod:`repro.core.cover`). Implication only guarantees equivalence on
  *consistent* instances: on dirty data an implied constraint's violation
  list is not reconstructible from its implicants, so these are surfaced
  as advisory ``implied-*`` findings (drop them from Σ yourself if you
  only care about the verdict).
"""

from __future__ import annotations

from repro.analyze.report import Finding
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.cover import minimal_cover_cfds, minimal_cover_cinds
from repro.core.violations import ConstraintSet, constraint_labels


def duplicate_maps(
    sigma: ConstraintSet,
) -> tuple[dict[int, int], dict[int, int]]:
    """Structural-duplicate maps: later index -> first index."""
    duplicate_cfds: dict[int, int] = {}
    first_cfd: dict[CFD, int] = {}
    for index, cfd in enumerate(sigma.cfds):
        first = first_cfd.setdefault(cfd, index)
        if first != index:
            duplicate_cfds[index] = first
    duplicate_cinds: dict[int, int] = {}
    first_cind: dict[CIND, int] = {}
    for index, cind in enumerate(sigma.cinds):
        first = first_cind.setdefault(cind, index)
        if first != index:
            duplicate_cinds[index] = first
    return duplicate_cfds, duplicate_cinds


def duplicate_findings(
    sigma: ConstraintSet,
    duplicate_cfds: dict[int, int],
    duplicate_cinds: dict[int, int],
    labels: dict[int, str] | None = None,
) -> list[Finding]:
    if labels is None:
        labels = constraint_labels(sigma)
    findings: list[Finding] = []
    for index, first in sorted(duplicate_cfds.items()):
        cfd = sigma.cfds[index]
        findings.append(Finding(
            severity="info",
            code="duplicate-cfd",
            message=(
                "structurally identical to an earlier CFD: the same "
                "violations on every instance, reported under both labels"
            ),
            constraints=(labels[id(cfd)],),
            relation=cfd.relation.name,
            implicants=(labels[id(sigma.cfds[first])],),
        ))
    for index, first in sorted(duplicate_cinds.items()):
        cind = sigma.cinds[index]
        findings.append(Finding(
            severity="info",
            code="duplicate-cind",
            message=(
                "structurally identical to an earlier CIND: the same "
                "violations on every instance, reported under both labels"
            ),
            constraints=(labels[id(cind)],),
            relation=cind.lhs_relation.name,
            implicants=(labels[id(sigma.cinds[first])],),
        ))
    return findings


def implication_findings(
    sigma: ConstraintSet,
    duplicate_cfds: dict[int, int],
    duplicate_cinds: dict[int, int],
    max_tuples: int = 200,
    max_branches: int = 128,
    labels: dict[int, str] | None = None,
) -> list[Finding]:
    """Advisory ``implied-*`` findings over the non-duplicate constraints.

    Duplicates are excluded from the cover inputs — they are already
    reported; re-flagging them as implied would be noise.
    """
    if labels is None:
        labels = constraint_labels(sigma)
    findings: list[Finding] = []

    by_relation: dict[str, list[CFD]] = {}
    for index, cfd in enumerate(sigma.cfds):
        if index not in duplicate_cfds:
            by_relation.setdefault(cfd.relation.name, []).append(cfd)
    for relation_name in sorted(by_relation):
        cfds = by_relation[relation_name]
        if len(cfds) < 2:
            continue
        result = minimal_cover_cfds(cfds[0].relation, cfds)
        for removal in result.removals:
            findings.append(Finding(
                severity="info",
                code="implied-cfd",
                message=(
                    "entailed by the listed implicant(s) (exact two-tuple "
                    "SAT test); redundant for the clean/dirty verdict, but "
                    "its violation list is its own"
                ),
                constraints=(labels[id(removal.candidate)],),
                relation=relation_name,
                implicants=tuple(
                    labels[id(c)] for c in removal.implicants
                ),
            ))

    cinds = [
        cind
        for index, cind in enumerate(sigma.cinds)
        if index not in duplicate_cinds
    ]
    if len(cinds) >= 2:
        result = minimal_cover_cinds(
            sigma.schema, cinds,
            max_tuples=max_tuples, max_branches=max_branches,
        )
        for removal in result.removals:
            findings.append(Finding(
                severity="info",
                code="implied-cind",
                message=(
                    "entailed by the listed implicant(s) (bounded chase); "
                    "redundant for the clean/dirty verdict, but its "
                    "violation list is its own"
                ),
                constraints=(labels[id(removal.candidate)],),
                relation=removal.candidate.lhs_relation.name,
                implicants=tuple(
                    labels[id(c)] for c in removal.implicants
                ),
            ))
    return findings
