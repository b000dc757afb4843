"""The Session facade: one entry point over every detection path.

``connect(db, sigma)`` is how callers are meant to use the library now::

    from repro import api

    with api.connect(db, sigma) as session:          # shared-scan engine
        report = session.check()                      # ViolationReport
        print(report.summary())

    api.connect(db, sigma, backend="sql").check()     # same report, in sqlite

    live = api.connect(db, sigma)
    live.insert("orders", {...})
    live.delta()                     # the change, O(touched groups and keys)

Every backend returns the same :class:`ViolationReport` shape (identical
down to violation-list order — the cross-validation suite holds them to
it), so choosing an engine is a performance decision, not an API decision.

Sessions are *cheap to re-check*: the memory and sqlfile backends own a
mutation-versioned :class:`~repro.engine.cache.ScanCache`, so a second
``check()``/``count()``/``is_clean()`` over unchanged data replays
memoized scan results instead of re-scanning, and after ``insert``/
``delete``/``apply`` the next check re-evaluates only the groups and keys
the changed rows touch (:meth:`Session.delta` reports what that changed).
The ``sql`` backend keeps its ``:memory:`` image of the instance until
the next DML, so it loads the data once per batch, not once per call.
Keep one session per (db, Σ) workload rather than reconnecting per call.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.analyze.report import SigmaReport
    from repro.engine import ReportDelta

from repro.api.backends import (
    BACKENDS,
    ApplyResult,
    Backend,
    BaseBackend,
    DMLOp,
)
from repro.api.options import ExecutionOptions
from repro.core.cfd import CFDViolation
from repro.core.cind import CINDViolation
from repro.core.violations import ConstraintSet, ViolationReport
from repro.engine import DetectionSummary
from repro.errors import ReproError, SessionClosedError
from repro.relational.instance import DatabaseInstance, Tuple


class Session:
    """A database + constraint set bound to one detection backend.

    ``db`` is either an in-memory :class:`DatabaseInstance` or — for
    file-backed backends like ``sqlfile`` — the path of an existing sqlite
    database file (the out-of-core path: detection runs where the data
    lives, nothing is loaded into memory).
    """

    def __init__(
        self,
        db: DatabaseInstance | str | Path,
        sigma: ConstraintSet,
        backend: str | Backend | type[BaseBackend] = "memory",
        options: ExecutionOptions | None = None,
    ):
        self.db = db
        self.sigma = sigma
        self.options = options or ExecutionOptions()
        self._analysis: dict[bool, "SigmaReport"] = {}
        self._closed = False
        if self.options.validate:
            self._validate_sigma()
        self.backend = self._resolve_backend(backend)

    def _validate_sigma(self) -> None:
        """Fast static checks at connect; warn (never block) on errors."""
        import warnings

        from repro.analyze.report import SigmaWarning

        report = self.analyze()
        if report.errors:
            lines = "; ".join(str(f) for f in report.errors)
            warnings.warn(
                f"Σ is statically inconsistent ({len(report.errors)} "
                f"error(s)): {lines}",
                SigmaWarning,
                stacklevel=4,
            )

    def _resolve_backend(
        self, backend: str | Backend | type[BaseBackend]
    ) -> Backend:
        if isinstance(backend, str):
            try:
                cls = BACKENDS[backend]
            except KeyError:
                raise ReproError(
                    f"unknown backend {backend!r}; available: "
                    f"{', '.join(sorted(BACKENDS))}"
                ) from None
        elif isinstance(backend, type):
            cls = backend
        else:
            return backend
        if isinstance(self.db, (str, Path)) and not getattr(
            cls, "accepts_path", False
        ):
            accepting = sorted(
                name
                for name, candidate in BACKENDS.items()
                if getattr(candidate, "accepts_path", False)
            )
            raise ReproError(
                f"backend {cls.name!r} needs an in-memory DatabaseInstance; "
                f"a database file path only works with: {', '.join(accepting)}"
            )
        return cls(self.db, self.sigma, self.options)

    # -- static analysis ---------------------------------------------------

    def analyze(self, implication: bool = False) -> "SigmaReport":
        """Static analysis of this session's Σ (no data is scanned).

        Consistency kernel + duplicate detection + CIND chain
        diagnostics; ``implication=True`` adds the advisory implied-
        constraint tier (bounded chase / two-tuple SAT — slower on large
        Σ). Results are memoized per flag value: Σ is immutable for the
        session's lifetime, so repeated calls are free.
        """
        report = self._analysis.get(implication)
        if report is None:
            from repro.analyze import analyze_sigma

            report = analyze_sigma(self.sigma, implication=implication)
            self._analysis[implication] = report
        return report

    # -- detection ---------------------------------------------------------

    def check(self) -> ViolationReport:
        """Every violation, materialized (identical across backends)."""
        self._ensure_open()
        return self.backend.check()

    def count(self) -> DetectionSummary:
        """Per-constraint violation totals (no violation objects)."""
        self._ensure_open()
        return self.backend.count()

    def is_clean(self) -> bool:
        """``D |= Σ`` via the backend's cheapest verdict path."""
        self._ensure_open()
        return self.backend.is_clean()

    def stream(self) -> Iterator[CFDViolation | CINDViolation]:
        """Violations one at a time, in report order."""
        self._ensure_open()
        return self.backend.stream()

    def delta(self) -> "ReportDelta | None":
        """How the report changed since the session last produced a
        complete report (a ``check``/``count``, a clean ``is_clean``) or
        delta: removed violations by their position in that report, added
        ones with their position in the current one.

        The ``memory`` and ``sqlfile`` backends carry their scan cache
        forward by the rows their DML changed and read the change off the
        splice, re-evaluating only the groups and keys those rows touch.
        ``None`` when the backend cannot tell: other backends, a session
        that never completed a report, or data changed behind the
        session's back — on ``sqlfile``, another connection's commit (the
        next check re-scans what is stale).
        """
        self._ensure_open()
        return self.backend.delta()

    def run(self) -> ViolationReport | DetectionSummary | bool:
        """Execute according to ``options.mode`` (full/count/early-exit)."""
        mode = self.options.mode
        if mode == "count":
            return self.count()
        if mode == "early-exit":
            return self.is_clean()
        return self.check()

    def detect(self):
        """Check and index the offending tuples (a ``DetectionResult``)."""
        from repro.cleaning.detect import build_detection_result

        return build_detection_result(self.check())

    def repair(self, **kwargs):
        """Run :func:`repro.cleaning.repair.repair` on this session's data.

        Repair works on a copy; the repaired database comes back in the
        ``RepairResult``, the session's own database (or file) is
        untouched. Whatever this session's backend, the repair engine
        repairs its copy through its own ``memory`` session (a file is
        loaded read-only first).
        """
        from repro.cleaning.repair import repair as run_repair

        return run_repair(self.db, self.sigma, **kwargs)

    # -- mutation ----------------------------------------------------------

    def insert(
        self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]
    ) -> bool:
        """Insert a tuple; ``False`` when it was already present.

        On the memory backend the next answer carries the scan cache
        forward by this row; other backends apply it to the database and
        drop data-derived caches.
        """
        self._ensure_open()
        return self.backend.insert(relation, row)

    def delete(
        self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]
    ) -> bool:
        """Delete a tuple (sequence/mapping rows are coerced, as in
        :meth:`apply`); ``False`` when it was not present."""
        self._ensure_open()
        return self.backend.delete(relation, row)

    def apply(
        self, inserts: Sequence[DMLOp] = (), deletes: Sequence[DMLOp] = ()
    ) -> ApplyResult:
        """Batch DML: all *deletes*, then all *inserts*, as one commit.

        Each op is a ``(relation, row)`` pair; rows follow the same
        shapes as :meth:`insert` / :meth:`delete` (delete rows are
        coerced to canonical tuples). Set semantics per row, and the
        result counts only the rows that actually changed. The batch
        pays **one** cache invalidation (and, on ``sqlfile``, one
        transaction) regardless of its size — the write-path contract
        the serving layer's throughput rests on.
        """
        self._ensure_open()
        return self.backend.apply(inserts=inserts, deletes=deletes)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                f"session over backend {self.backend.name!r} is closed "
                "(it was explicitly closed or evicted from a registry)"
            )

    def close(self) -> None:
        """Release backend resources. Idempotent: safe to call twice, and
        every detection/mutation call afterwards raises
        :class:`~repro.errors.SessionClosedError`."""
        if self._closed:
            return
        self._closed = True
        self.backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<Session backend={self.backend.name} |Σ|={len(self.sigma)}>"


def connect(
    db: DatabaseInstance | str | Path,
    sigma: ConstraintSet,
    backend: str | Backend | type[BaseBackend] = "memory",
    options: ExecutionOptions | None = None,
    **option_fields: Any,
) -> Session:
    """Open a :class:`Session` over *db* and *sigma*.

    ``db`` is an in-memory :class:`DatabaseInstance`, or — with the
    ``sqlfile`` backend — the path of an existing sqlite database file to
    run detection in, out-of-core. ``backend`` is a registry name
    (``memory``/``naive``/``sql``/``sqlfile``), a backend
    class, or a ready instance. Options come either as an
    :class:`ExecutionOptions` or as its fields directly::

        connect(db, sigma, backend="sql")
        connect("accounts.db", sigma, backend="sqlfile")
        connect(db, sigma, options=ExecutionOptions(mode="count"))
        connect(db, sigma, validate=True)   # warn if Σ is inconsistent

    ``validate=True`` runs the fast static-analysis tiers over Σ at
    connect time and issues a :class:`~repro.analyze.report.SigmaWarning`
    when Σ's CFDs are statically inconsistent; the full report is always
    available via :meth:`Session.analyze`, with or without the flag.
    """
    if options is not None and option_fields:
        raise ReproError(
            "pass either options= or individual option fields, not both"
        )
    if option_fields:
        options = ExecutionOptions(**option_fields)
    return Session(db, sigma, backend=backend, options=options)
