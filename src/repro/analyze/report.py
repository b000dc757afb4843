"""The structured output of Σ static analysis: findings and SigmaReport.

A :class:`Finding` is one diagnostic about the constraint set itself —
never about data. Severities:

* ``error`` — Σ is statically broken: some relation's CFD set admits no
  satisfying tuple, so any nonempty instance of that relation violates Σ.
* ``warning`` — Σ is legal but hazardous: CIND cycles/self-cycles that
  force chase branching, chains deep enough to dominate reasoning cost,
  high fanout.
* ``info`` — redundancy in Σ: structural duplicates (the same violations
  as an earlier constraint on every instance) and implied constraints
  (advisory — their violations are not reconstructible on dirty data in
  general).

The :class:`SigmaReport` aggregates findings with the verdicts they rest
on (``duplicate_cfds``/``duplicate_cinds``: which constraint each
duplicate repeats) and renders to text or JSON for ``repro
lint-sigma``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Finding severities, most severe first.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One diagnostic about Σ.

    ``constraints`` holds the labels of the constraints the finding is
    about; ``implicants`` the labels of the constraints that justify it
    (for ``duplicate-*``/``implied-*`` findings: the earlier twin or the
    implicants).
    """

    severity: str
    code: str
    message: str
    constraints: tuple[str, ...] = ()
    relation: str | None = None
    implicants: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "constraints": list(self.constraints),
            "relation": self.relation,
            "implicants": list(self.implicants),
        }

    def __str__(self) -> str:
        where = f" [{self.relation}]" if self.relation else ""
        refs = f" ({', '.join(self.constraints)})" if self.constraints else ""
        return f"{self.severity}: {self.code}{where}: {self.message}{refs}"


@dataclass(frozen=True)
class SigmaReport:
    """Everything the static analyzer proved about one constraint set."""

    n_cfds: int
    n_cinds: int
    #: Every relation's CFD set admits a satisfying tuple (exact verdict;
    #: CINDs are diagnosed structurally, not decided — see ``repro
    #: consistency`` for the full chase-based procedure).
    cfds_consistent: bool
    findings: tuple[Finding, ...] = ()
    #: Structural duplicates: constraint index -> index of the earlier,
    #: identical constraint (same violations on every instance).
    duplicate_cfds: Mapping[int, int] = field(default_factory=dict)
    duplicate_cinds: Mapping[int, int] = field(default_factory=dict)
    #: Whether the (expensive) implication pass ran.
    implication_checked: bool = False

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def infos(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "info")

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos don't make Σ unusable)."""
        return not self.errors

    def to_json(self) -> dict[str, Any]:
        return {
            "n_cfds": self.n_cfds,
            "n_cinds": self.n_cinds,
            "cfds_consistent": self.cfds_consistent,
            "ok": self.ok,
            "implication_checked": self.implication_checked,
            "counts": {
                severity: sum(
                    1 for f in self.findings if f.severity == severity
                )
                for severity in SEVERITIES
            },
            "findings": [f.to_json() for f in self.findings],
            "duplicate_cfds": {
                str(k): v for k, v in sorted(self.duplicate_cfds.items())
            },
            "duplicate_cinds": {
                str(k): v for k, v in sorted(self.duplicate_cinds.items())
            },
        }

    def to_json_text(self, indent: int | None = 2) -> str:
        # default=str: pattern constants may be arbitrary domain values.
        return json.dumps(
            self.to_json(), indent=indent, sort_keys=True, default=str
        )

    def render_text(self) -> str:
        lines = [
            f"sigma: {self.n_cfds} CFD(s), {self.n_cinds} CIND(s)",
            f"CFD consistency: {'ok' if self.cfds_consistent else 'INCONSISTENT'}",
        ]
        if not self.findings:
            lines.append("no findings")
            return "\n".join(lines)
        order = {severity: rank for rank, severity in enumerate(SEVERITIES)}
        for finding in sorted(
            self.findings, key=lambda f: order.get(f.severity, len(order))
        ):
            lines.append(f"  {finding}")
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<SigmaReport |Σ|={self.n_cfds + self.n_cinds} "
            f"errors={len(self.errors)} warnings={len(self.warnings)} "
            f"infos={len(self.infos)}>"
        )


class SigmaWarning(UserWarning):
    """Raised-as-warning category for ``connect(..., validate=True)``."""
