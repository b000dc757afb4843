"""Outside-in tracing: timing wrappers on each layer's entry points.

Nothing in ``src/`` is changed. :meth:`Tracer.install` replaces a fixed
list of functions and methods with wrappers that record a span (name,
start, end, parent span, op id) per call, and adds a ``gc.callbacks``
hook that records every collector pause; :meth:`Tracer.uninstall` puts
the originals back. Module functions are wrapped in every ``repro``
module that bound them at import, since callers look them up there
(``repro.serve.feed.diff_records``, ``repro.api.backends.execute_plan``).

Only entry points called at most a few hundred times per op are
wrapped; ``Tuple`` methods never are. Spans are recorded only in the
process that installed the tracer (forked pool workers inherit the
wrappers but record nothing) and only while an op is open. One
closed-loop client means spans never overlap except by nesting, so one
stack gives every span its parent even when the service hands work to
its executor threads.

A span's *self time* is its duration minus its child spans. A
collector pause is charged to whichever span was open when it ran.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
import time
from typing import Any, Callable

perf = time.perf_counter

#: (module, function name, span name). Wrapped wherever it is bound.
FUNCTIONS = (
    ("repro.engine.planner", "plan_detection", "engine.plan"),
    ("repro.api.backends", "build_plan", "engine.plan"),
    ("repro.engine.executor", "execute_plan", "engine.execute"),
    ("repro.engine.executor", "assemble_from_hits", "engine.assemble"),
    ("repro.engine.executor", "assemble_report", "engine.assemble"),
    ("repro.engine.executor", "assemble_summary", "engine.assemble"),
    ("repro.api.session", "connect", "api.connect"),
    ("repro.api.parallel", "execute_plan_parallel", "api.parallel"),
    ("repro.sql.loader", "table_fingerprint", "sql.fingerprint"),
    ("repro.sql.loader", "table_content_fingerprint", "sql.fingerprint"),
    ("repro.sql.loader", "read_database_file", "sql.shadow_load"),
    ("repro.sql.windows", "cfd_onepass_hits", "sql.scan"),
    ("repro.sql.windows", "cfd_window_state", "sql.scan"),
    ("repro.sql.windows", "witness_window_set", "sql.scan"),
    ("repro.sql.windows", "cind_window_state", "sql.scan"),
    ("repro.serve.feed", "report_records", "serve.records"),
    ("repro.serve.feed", "diff_records", "serve.diff"),
    # concurrent.futures.wait, as the parallel dispatcher bound it: the
    # parent's wait for its pool workers.
    ("repro.api.parallel", "wait", "api.worker_wait"),
)

#: (module, class, method, span name, kind); kind is "sync", "async"
#: (coroutine) or "acquire" (async context manager; the span covers
#: only the wait to enter it).
METHODS = (
    ("repro.relational.instance", "RelationInstance", "_refresh_views",
     "relational.columns", "sync"),
    ("repro.api.session", "Session", "apply", "api.apply", "sync"),
    ("repro.api.workerpool", "WorkerPool", "executor", "api.pool", "sync"),
    ("repro.api.workerpool", "WorkerPool", "prepare", "api.pool", "sync"),
    ("repro.api.workerpool", "WorkerPool", "finish", "api.pool", "sync"),
    ("repro.api.workerpool", "WorkerPool", "close", "api.pool", "sync"),
    ("repro.sql.violations", "SQLPlanExecutor", "cfd_group_hits",
     "sql.scan", "sync"),
    ("repro.sql.violations", "SQLPlanExecutor", "cfd_group_tuples",
     "sql.scan", "sync"),
    ("repro.sql.violations", "SQLPlanExecutor", "cind_relation_hits",
     "sql.scan", "sync"),
    ("repro.sql.violations", "SQLPlanExecutor", "cind_relation_clean",
     "sql.scan", "sync"),
    ("repro.sql.violations", "SQLPlanExecutor", "_witness_ready",
     "sql.scan", "sync"),
    ("repro.api.backends", "SQLFileBackend", "apply", "sql.apply", "sync"),
    ("repro.cleaning.planner", "RepairPlanner", "plan_round",
     "cleaning.plan", "sync"),
    ("repro.cleaning.incremental", "IncrementalChecker", "insert",
     "cleaning.shadow", "sync"),
    ("repro.cleaning.incremental", "IncrementalChecker", "delete",
     "cleaning.shadow", "sync"),
    ("repro.api.backends", "IncrementalBackend", "check",
     "cleaning.shadow", "sync"),
    ("repro.serve.service", "DetectionService", "apply", "serve.apply",
     "async"),
    ("repro.serve.service", "DetectionService", "check", "serve.check",
     "async"),
    ("repro.serve.feed", "ViolationFeed", "commit", "serve.delta", "sync"),
    ("repro.serve.feed", "ViolationFeed", "publish", "serve.publish", "sync"),
    ("repro.serve.registry", "ReadWriteLock", "writing", "serve.lock_wait",
     "acquire"),
    ("repro.serve.registry", "ReaderPool", "acquire", "serve.reader_wait",
     "acquire"),
)

#: Span fields, by index.
NAME, START, END, PARENT, OP, ROWS = range(6)


class Tracer:
    """Spans and collector pauses of the ops run while it is installed."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id, rows] per span.
        self.spans: list[list[Any]] = []
        #: (generation, start, end, op id) per collector pause.
        self.pauses: list[tuple[int, float, float, int]] = []
        #: Targets that no longer exist in the program (reported, so a
        #: refactor shows up as a missing layer rather than a crash).
        self.missing: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_start = 0.0
        self._wrappers: dict[int, Callable] = {}

    # -- ops -------------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self._stack.clear()

    def end(self) -> None:
        self.op = None
        self._stack.clear()

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str, rows: int = 0) -> int:
        if self.op is None or os.getpid() != self._pid:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.op, rows])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][END] = perf()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf()
        elif self.op is not None and os.getpid() == self._pid:
            self.pauses.append(
                (info["generation"], self._gc_start, perf(), self.op)
            )

    # -- wrappers --------------------------------------------------------

    def _sync(self, name: str, fn: Callable, rows: bool = False) -> Callable:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer._enter(name, len(args[0]) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index)

        return functools.wraps(fn)(wrapper)

    def _async(self, name: str, fn: Callable) -> Callable:
        tracer = self

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer._enter(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._exit(index)

        return functools.wraps(fn)(wrapper)

    def _acquire(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _TimedEntry(tracer, name, fn(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target and hook the collector (idempotent)."""
        if self._patches:
            return
        self.missing = []
        repro_modules = [
            module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None
        ]
        for module_name, attr, span in FUNCTIONS:
            original = _lookup(module_name, attr)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper_for(original, span)
            for module in repro_modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        for module_name, cls_name, attr, span, kind in METHODS:
            cls = _lookup(module_name, cls_name)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            if kind == "async":
                wrapper = self._async(span, original)
            elif kind == "acquire":
                wrapper = self._acquire(span, original)
            else:
                wrapper = self._sync(
                    span, original, rows=(span == "relational.columns")
                )
            self._patch(cls, attr, wrapper)
        gc.callbacks.append(self._gc_callback)

    def _wrapper_for(self, original: Callable, span: str) -> Callable:
        # One wrapper per original, shared by every module that bound it.
        key = id(original)
        if key not in self._wrappers:
            self._wrappers[key] = self._sync(span, original)
        return self._wrappers[key]

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original (idempotent)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- per-op views ----------------------------------------------------

    def by_op(self) -> dict[int, list[int]]:
        """Span indexes per op id."""
        out: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            out.setdefault(span[OP], []).append(index)
        return out

    def inclusive_ms(self, indexes: list[int], names: frozenset[str]) -> float:
        """Wall time inside spans named in *names*, counting a span only
        when no ancestor is also named in *names* (no double counting of
        nested calls such as ``build_plan`` → ``plan_detection``)."""
        spans = self.spans
        total = 0.0
        for index in indexes:
            span = spans[index]
            if span[NAME] not in names:
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] not in names:
                parent = spans[parent][PARENT]
            if parent < 0:
                total += span[END] - span[START]
        return total * 1e3

    def self_ms(self, indexes: list[int]) -> dict[str, float]:
        """Self time per span name over *indexes* (one op's spans)."""
        spans = self.spans
        child_time: dict[int, float] = {}
        for index in indexes:
            span = spans[index]
            if span[PARENT] >= 0:
                child_time[span[PARENT]] = (
                    child_time.get(span[PARENT], 0.0) + span[END] - span[START]
                )
        out: dict[str, float] = {}
        for index in indexes:
            span = spans[index]
            own = span[END] - span[START] - child_time.get(index, 0.0)
            out[span[NAME]] = out.get(span[NAME], 0.0) + own * 1e3
        return out

    def pause_ms(self, op: int) -> float:
        return sum(end - start for __, start, end, o in self.pauses
                   if o == op) * 1e3

    def collections(self, op: int, generation: int) -> int:
        return sum(1 for g, __, __e, o in self.pauses
                   if o == op and g == generation)


class _TimedEntry:
    """An async context manager whose entry (the wait) is one span."""

    def __init__(self, tracer: Tracer, name: str, inner: Any):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    async def __aenter__(self) -> Any:
        index = self._tracer._enter(self._name)
        try:
            return await self._inner.__aenter__()
        finally:
            self._tracer._exit(index)

    async def __aexit__(self, *exc_info: Any) -> Any:
        return await self._inner.__aexit__(*exc_info)


def _lookup(module_name: str, attr: str) -> Any:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)

