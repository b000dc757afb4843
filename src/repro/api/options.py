"""Execution options shared by every backend of the :mod:`repro.api` facade.

One small immutable dataclass instead of per-backend keyword soup: the
*caller* states what answer it wants (``mode``); each backend maps that
onto its own fast paths. Callers never choose "count-only scan" vs
"early-exit scan" vs "SQL anti-join" directly — that dispatch is the
backend's job, in the spirit of BRAVO's single reader API over
internally-selected fast/slow paths.

Detection is serial on every backend: each scan unit runs once, through
the serial executor (or its SQL push-down) and the carry-forward.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What a :meth:`Session.run` call should compute.
MODES = ("full", "count", "early-exit")

#: Whether the ``sqlfile`` backend may use sqlite window functions for its
#: one-pass CFD detection queries (``auto`` probes the library at connect
#: time and silently falls back to the legacy GROUP-BY-then-join SQL when
#: the sqlite build predates window functions, i.e. < 3.25).
WINDOW_FUNCTIONS = ("auto", "off", "require")


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
    window_functions:
        Whether the ``sqlfile`` backend's CFD detection may use sqlite
        window functions (``MIN(rhs) OVER (PARTITION BY X)`` one-pass
        queries): ``"auto"`` (default) probes the sqlite library at
        connect time and falls back to the legacy GROUP-BY-then-join SQL
        when unavailable (< 3.25); ``"off"`` forces the legacy SQL
        (benchmark baselines, differential tests); ``"require"`` raises
        :class:`~repro.errors.SQLBackendError` instead of falling back.
        Results are bit-identical either way. Other backends ignore it.
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
    prune_implied:
        Let the planner skip scan work for constraints the static
        analysis proves *violation-equivalent* to an earlier one
        (structural duplicates: same relations, attribute lists, and
        pattern tableau). Reports and summaries are reconstructed from
        the kept twin and are bit-identical — including ordering — to an
        unpruned run's; merely *implied* constraints are never pruned
        (their violation lists are their own). No-op on the plan-free
        ``naive`` and ``sql`` backends.
    """

    mode: str = "full"
    workers: int = 1
    window_functions: str = "auto"
    readonly: bool = False
    validate: bool = False
    prune_implied: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive int, got {self.workers!r}")
        if self.window_functions not in WINDOW_FUNCTIONS:
            raise ValueError(
                f"window_functions must be one of {WINDOW_FUNCTIONS}, got "
                f"{self.window_functions!r}"
            )
        if not isinstance(self.readonly, bool):
            raise ValueError(
                f"readonly must be a bool, got {self.readonly!r}"
            )
        if not isinstance(self.validate, bool):
            raise ValueError(
                f"validate must be a bool, got {self.validate!r}"
            )
        if not isinstance(self.prune_implied, bool):
            raise ValueError(
                f"prune_implied must be a bool, got {self.prune_implied!r}"
            )
