"""Execution options shared by every backend of the :mod:`repro.api` facade.

One small immutable dataclass instead of per-backend keyword soup: the
*caller* states what answer it wants (``mode``); each backend maps that
onto its own fast paths. Callers never choose "count-only scan" vs
"early-exit scan" vs "SQL anti-join" directly — that dispatch is the
backend's job, in the spirit of BRAVO's single reader API over
internally-selected fast/slow paths. The SQL backends pick their CFD
queries the same way: from how many candidate keys a group has, never
from an option. Structurally identical constraints need no option
either: the scan kernels evaluate each pattern-row signature once per
scan unit, so a duplicate shares its twin's scan and keeps its own
report slot.

Detection is serial on every backend: each scan unit runs once, through
the serial executor (or its SQL push-down) and the carry-forward.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What a :meth:`Session.run` call should compute.
MODES = ("full", "count", "early-exit")


@dataclass(frozen=True)
class ExecutionOptions:
    """How a :class:`~repro.api.session.Session` executes detection.

    Attributes
    ----------
    mode:
        ``"full"`` — materialize every violation (a ``ViolationReport``);
        ``"count"`` — per-constraint totals only (a ``DetectionSummary``);
        ``"early-exit"`` — just the ``D |= Σ`` verdict (a ``bool``).
        Only :meth:`Session.run` consults it; the explicit ``check`` /
        ``count`` / ``is_clean`` methods ignore it.
    workers:
        Accepted and validated (a positive int), and ignored: detection
        is serial at every value, and a report is identical to
        ``workers=1``'s. The field stays only because the repo benchmark
        (``perfbench``'s audit ``par_check`` op) still passes it; the
        benchmark change that retires that op removes this field too.
    readonly:
        Only meaningful for file-backed backends (``sqlfile``): open the
        database file read-only, so ``insert``/``delete`` fail loudly and
        the session can never write to a file it is only meant to audit.
        In-memory backends ignore it.
    validate:
        Run the fast static-analysis tiers over Σ at connect time
        (consistency kernel, duplicates, chain diagnostics — no
        implication) and issue a
        :class:`~repro.analyze.report.SigmaWarning` when Σ has errors,
        i.e. its CFDs admit no satisfying instance with matching tuples.
        The session still connects — warnings never block — and the full
        report stays available via :meth:`Session.analyze`.
    """

    mode: str = "full"
    workers: int = 1
    readonly: bool = False
    validate: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive int, got {self.workers!r}")
        if not isinstance(self.readonly, bool):
            raise ValueError(
                f"readonly must be a bool, got {self.readonly!r}"
            )
        if not isinstance(self.validate, bool):
            raise ValueError(
                f"validate must be a bool, got {self.validate!r}"
            )
