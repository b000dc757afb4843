"""Execution options shared by every backend of the :mod:`repro.api` facade.

One small immutable dataclass instead of per-backend keyword soup: the
*caller* states what answer it wants (``mode``) and how much parallelism it
tolerates (``workers``/``executor``); each backend maps that onto its own
fast paths. Callers never choose "count-only scan" vs "early-exit scan" vs
"SQL anti-join" directly — that dispatch is the backend's job, in the
spirit of BRAVO's single reader API over internally-selected fast/slow
paths. The same applies *within* the parallel path: callers say
``workers=N`` and the task-graph scheduler decides group- vs shard-level
dispatch (``min_shard_rows``/``shards`` only tune the split).
"""

from __future__ import annotations

from dataclasses import dataclass

#: What a :meth:`Session.run` call should compute.
MODES = ("full", "count", "early-exit")

#: How parallel scan groups are dispatched (``auto`` picks ``process`` when
#: fork is available, else ``thread``).
EXECUTORS = ("auto", "process", "thread")

#: Whether the ``sqlfile`` backend may use sqlite window functions for its
#: one-pass CFD detection queries (``auto`` probes the library at connect
#: time and silently falls back to the legacy GROUP-BY-then-join SQL when
#: the sqlite build predates window functions, i.e. < 3.25).
WINDOW_FUNCTIONS = ("auto", "off", "require")

#: Worker-pool lifecycle for parallel sessions: ``persistent`` keeps one
#: pool (and its shared-memory segments / pooled connections) alive for
#: the whole session; ``per-call`` rebuilds it inside every check.
POOLS = ("persistent", "per-call")


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
        Number of parallel workers for the scan task graph. ``1``
        (default) runs serially; ``N > 1`` splits the plan's scan units —
        CFD ``(relation, X)`` group-bys, CIND witness passes, CIND LHS
        scans — *and, past* ``min_shard_rows``, *the row ranges within
        each unit* across one pool and merges the partial states. The
        memory backend (and everything routed through it) parallelizes
        over Python rows; the ``sqlfile`` backend parallelizes *inside
        sqlite*: each scan unit splits into contiguous rowid windows run
        concurrently on a bounded pool of read-only connections (sqlite
        releases the GIL inside queries, so the pool is always
        thread-based) and the partial states merge bit-identically.
        Other backends ignore the setting.
    pool:
        Worker-pool lifecycle. ``"persistent"`` (default) gives the
        session one long-lived pool — a fork pool whose workers (and
        published shared-memory column segments) survive across
        ``check()``/``count()``/``is_clean()``/``stream()`` calls,
        re-forked only when the relation version counters show the
        parent drifted too far for copy-on-write + shared memory to stay
        exact; for ``sqlfile``, one long-lived read-only connection
        pool. Warm repeated checks stop paying fork/connect cost.
        ``"per-call"`` restores the old behavior: build a pool inside
        every call, tear it down on the way out — useful for one-shot
        batch runs that should release every worker immediately. Serial
        sessions ignore it.
    steal_granularity:
        Work-stealing shard granularity. ``0`` (default) keeps the
        classic split: at most one shard per worker per scan unit.
        ``N >= 1`` over-partitions each scan unit into up to
        ``workers * N`` shards (still bounded by ``min_shard_rows`` and
        the row count) so idle workers steal fine-grained shards from
        the scheduler's ready deque when group sizes are skewed —
        partial states merge in shard-index order, so reports stay
        bit-identical including order. Applies to both the memory
        backend's row shards and the ``sqlfile`` backend's rowid
        windows. An explicit ``shards`` count still wins.
    executor:
        ``"process"`` — fork-based process pool (true CPU parallelism; the
        database is shared with workers copy-on-write, never pickled);
        ``"thread"`` — thread pool (no pickling at all, but GIL-bound);
        ``"auto"`` — process when ``fork`` is available (Linux/macOS),
        thread otherwise. A ``"process"`` request on a fork-less platform
        downgrades to ``"thread"`` with a ``RuntimeWarning``; the session
        reports the concrete choice as ``Session.effective_executor``.
    min_shard_rows:
        Smallest row range worth its own shard task. A scan unit over a
        relation with ``n`` rows is split into
        ``min(workers, n // min_shard_rows)`` contiguous shards (at least
        one), so small relations stay single-shard — per-shard state and
        merge overhead only ever buys parallelism on scans big enough to
        need it. Tune down for expensive-per-row workloads, up if merge
        overhead shows in profiles.
    shards:
        Explicit shard count per scan unit (``0`` = size automatically
        from ``workers`` and ``min_shard_rows``). Mostly for benchmarks
        and tests that must force a specific split (still capped at one
        shard per row). For ``sqlfile`` this is the rowid-window count
        per relation scan.
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
    executor: str = "auto"
    pool: str = "persistent"
    steal_granularity: int = 0
    min_shard_rows: int = 8192
    shards: int = 0
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
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.pool not in POOLS:
            raise ValueError(
                f"pool must be one of {POOLS}, got {self.pool!r}"
            )
        if (
            not isinstance(self.steal_granularity, int)
            or self.steal_granularity < 0
        ):
            raise ValueError(
                f"steal_granularity must be a non-negative int (0 = off), "
                f"got {self.steal_granularity!r}"
            )
        if not isinstance(self.min_shard_rows, int) or self.min_shard_rows < 1:
            raise ValueError(
                f"min_shard_rows must be a positive int, got "
                f"{self.min_shard_rows!r}"
            )
        if not isinstance(self.shards, int) or self.shards < 0:
            raise ValueError(
                f"shards must be a non-negative int (0 = auto), got "
                f"{self.shards!r}"
            )
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

    @property
    def parallel(self) -> bool:
        return self.workers > 1
