"""Constraint-based error detection (the data-cleaning side of the paper).

Example 1.2's pitch: traditional FDs/INDs miss errors (tuple ``t12``) that
CFDs/CINDs catch. Detection itself lives behind the unified
:mod:`repro.api` facade — ``api.connect(db, sigma, backend=...)`` — which
fronts the shared-scan engine, the naive oracle and the two SQL backends
with one report shape. This module keeps

* :class:`DetectionResult` — the per-tuple error table the repair step
  consumes — and :func:`build_detection_result` which derives it from any
  backend's ``ViolationReport``;
* :func:`compare_with_traditional` — the Example 1.2 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.violations import ConstraintSet, ViolationReport
from repro.engine import database_is_clean
from repro.relational.instance import DatabaseInstance, Tuple


@dataclass
class DetectionResult:
    """Violations organised for reporting and repair."""

    report: ViolationReport
    #: (relation, tuple) -> names of constraints it participates in violating.
    dirty_tuples: dict[tuple[str, Tuple], list[str]] = field(default_factory=dict)

    @property
    def is_clean(self) -> bool:
        return self.report.is_clean

    @property
    def dirty_count(self) -> int:
        return len(self.dirty_tuples)

    def summary(self) -> str:
        lines = [self.report.summary()]
        if self.dirty_tuples:
            lines.append(f"{self.dirty_count} distinct dirty tuple(s):")
            # Sort for deterministic output across Python hash seeds and
            # backends (dict order would expose violation-discovery order).
            shown = sorted(
                self.dirty_tuples.items(),
                key=lambda item: (item[0][0], repr(item[0][1])),
            )
            for (relation, t), names in shown[:20]:
                lines.append(f"  {t!r} <- {', '.join(sorted(set(names)))}")
            if self.dirty_count > 20:
                lines.append(f"  ... and {self.dirty_count - 20} more")
        return "\n".join(lines)


def build_detection_result(report: ViolationReport) -> DetectionResult:
    """Index a report's offending tuples into a :class:`DetectionResult`.

    Works on the report of *any* backend (they are identical), which is
    how ``Session.detect()`` produces repair-ready error tables.
    """
    dirty: dict[tuple[str, Tuple], list[str]] = {}
    for violation in report.cfd_violations:
        name = report.label_for(violation.cfd)
        for t in violation.tuples:
            dirty.setdefault((violation.cfd.relation.name, t), []).append(name)
    for violation in report.cind_violations:
        name = report.label_for(violation.cind)
        key = (violation.cind.lhs_relation.name, violation.tuple_)
        dirty.setdefault(key, []).append(name)
    return DetectionResult(report=report, dirty_tuples=dirty)


def is_clean(db: DatabaseInstance, sigma: ConstraintSet) -> bool:
    """``D |= Σ`` without materializing violations (engine early-exit mode)."""
    return database_is_clean(db, sigma)


def detect_errors_in_file(path, sigma: ConstraintSet) -> DetectionResult:
    """Out-of-core detection: check a sqlite database file *in place*.

    Routes through the facade's ``sqlfile`` backend — nothing is loaded
    into memory beyond the violating tuples — and returns the same
    repair-ready :class:`DetectionResult` as every other path. The file
    is opened read-only (detection never writes), so write-protected
    snapshots audit fine.
    """
    from repro.api import ExecutionOptions, connect

    with connect(
        path,
        sigma,
        backend="sqlfile",
        options=ExecutionOptions(readonly=True),
    ) as session:
        return session.detect()


def compare_with_traditional(
    db: DatabaseInstance, sigma: ConstraintSet
) -> dict[str, dict[str, int]]:
    """Example 1.2 quantified: violations under Σ vs its traditional core.

    The "traditional core" keeps only the standard FDs and INDs of Σ
    (all-wildcard single-row tableaux) — the dependencies pre-CFD/CIND
    cleaning would use. Returns violation counts under both, showing what
    the conditional extensions catch that the classical dependencies miss.
    """
    from repro.api import connect

    traditional = ConstraintSet(
        sigma.schema,
        cfds=[c for c in sigma.cfds if c.is_standard_fd],
        cinds=[c for c in sigma.cinds if c.is_standard_ind],
    )
    # Only totals are reported, so use the backends' count-only fast path.
    full = connect(db, sigma).count()
    classic = connect(db, traditional).count()
    return {
        "conditional": {
            "constraints": len(sigma),
            "violations": full.total,
        },
        "traditional": {
            "constraints": len(traditional),
            "violations": classic.total,
        },
    }
