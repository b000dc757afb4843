"""Session-persistent worker pools + shared-memory columnar payloads.

Before this module the parallel dispatcher built a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` inside every
``check()``/``count()`` and tore it down on the way out, so warm traffic
— the serving layer's whole diet — paid fork + pool-teardown cost on
every call and could never amortize it. A :class:`WorkerPool` instead
belongs to the *backend*: created once per parallel
:class:`~repro.api.backends.MemoryBackend` session, handed to
:func:`~repro.api.parallel.execute_plan_parallel` on every call, and torn
down by ``Session.close()`` (with a :mod:`weakref` finalizer unlinking
shared memory even for sessions that are merely garbage-collected).

The correctness question a persistent fork pool raises is staleness:
workers fork *lazily at first submit* — while the dispatcher's
copy-on-write globals hold the live plan and database — so a worker's
inherited database snapshot is exact at fork time but frozen afterwards.
The pool therefore snapshots every relation's mutation
:attr:`~repro.relational.instance.RelationInstance.version` when its
executor is created and, at the start of each execution, splits the
relations into:

* **unchanged** (version still matches the snapshot) — byte-identical in
  every worker's copy-on-write image, read directly, nothing shipped;
* **drifted, small** (total drifted rows ≤ :attr:`WorkerPool.shm_drift_rows`)
  — the relation's columns are published once into a
  :class:`multiprocessing.shared_memory` segment keyed by
  ``(relation, version)`` (a :class:`ShmColumnStore` entry) and workers
  read the segment instead of their stale copy. Worker PIDs stay stable:
  warm re-checks after small DML spawn **zero** new processes;
* **drifted, large** — cheaper to re-fork than to ship: the executor is
  shut down, the snapshot reset, :attr:`WorkerPool.epoch` bumped, and
  every segment dropped; the next submit forks fresh workers that
  inherit the current data copy-on-write.

Merged CIND witness key sets (which exist only after the witness merge
barrier, so copy-on-write can never carry them) travel the same way in
persistent process mode: one segment keyed by the RHS relations'
versions, published at first probe submission and reusable across
executions while those versions hold — they stop being pickled per
shard task.

Segments are refcounted while leased to an in-flight execution, swept
when their keying versions drift, and unlinked wholesale on
``close()``/epoch bump — segment lifetime is parent-owned throughout.
Workers attach by name, copy the bytes out, close the mapping, and
memoize the decoded payload in a small per-process LRU — no lingering
maps, no fd growth per task.

Layering: this module is pinned in ``tools/check_layering.py`` to the
engine/relational surface — it must stay usable by any dispatcher
without dragging in the facade, the CLI, or the serving layer.
"""

from __future__ import annotations

import multiprocessing
import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.relational.instance import DatabaseInstance

#: A store key: ``("columns", relation, version)`` for a relation's
#: columns, ``("witness", relation, deps)`` for a CIND LHS
#: relation's merged witness key sets (``deps`` = the RHS relations'
#: ``(name, version)`` pairs the sets were computed from).
StoreKey = tuple[Any, ...]


@dataclass(frozen=True)
class ShmRef:
    """A pickled payload parked in a named shared-memory segment.

    The only thing that crosses the process boundary for shared payloads:
    workers resolve it with :func:`fetch_payload`. ``length`` is the
    pickled byte count (segments are page-granular, the tail is junk).
    """

    name: str
    length: int


class ShmColumnStore:
    """Refcounted ``multiprocessing.shared_memory`` segments, one per key.

    The parent-side half of the shared-payload path: :meth:`publish`
    pickles a payload into a fresh segment (or re-leases the existing one
    — keys embed the data's version, so key equality *is* payload
    equality), :meth:`release` returns a lease, :meth:`sweep` unlinks
    idle segments whose keying versions drifted, and :meth:`close`
    unlinks everything. Segments at refcount zero are deliberately kept
    until stale or swept: a warm re-check with unchanged versions
    re-leases them for free.
    """

    def __init__(self) -> None:
        #: key -> (segment, ref, lease count)
        self._segments: dict[
            StoreKey, tuple[shared_memory.SharedMemory, ShmRef, int]
        ] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def segment_names(self) -> list[str]:
        """Names of every live segment (tests assert they die on close)."""
        return [ref.name for __, ref, __n in self._segments.values()]

    def publish(self, key: StoreKey, build: Callable[[], Any]) -> ShmRef:
        """Lease the segment for *key*, creating it from ``build()`` if new."""
        entry = self._segments.get(key)
        if entry is not None:
            shm, ref, leases = entry
            self._segments[key] = (shm, ref, leases + 1)
            return ref
        data = pickle.dumps(build(), protocol=pickle.HIGHEST_PROTOCOL)
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
        shm.buf[: len(data)] = data
        ref = ShmRef(name=shm.name, length=len(data))
        self._segments[key] = (shm, ref, 1)
        return ref

    def release(self, key: StoreKey) -> None:
        """Return one lease of *key* (the segment itself stays resident)."""
        entry = self._segments.get(key)
        if entry is not None:
            shm, ref, leases = entry
            self._segments[key] = (shm, ref, max(0, leases - 1))

    def sweep(self, stale: Callable[[StoreKey], bool]) -> None:
        """Unlink every un-leased segment whose key *stale* rejects."""
        for key in [
            key
            for key, (__, __r, leases) in self._segments.items()
            if leases <= 0 and stale(key)
        ]:
            self._drop(key)

    def _drop(self, key: StoreKey) -> None:
        shm, __, __n = self._segments.pop(key)
        shm.close()
        shm.unlink()

    def close(self) -> None:
        """Unlink every segment (pool close / epoch re-fork). Idempotent."""
        for key in list(self._segments):
            self._drop(key)


#: Worker-side decoded-payload memo: segment name -> payload. Bounded so
#: a long-lived worker cannot hoard every historical version's columns.
_PAYLOAD_MEMO: "OrderedDict[str, Any]" = OrderedDict()
_PAYLOAD_MEMO_LIMIT = 32


def fetch_payload(ref: ShmRef) -> Any:
    """Resolve *ref* inside a worker: attach, copy, close, decode, memoize.

    The attach is deliberately short-lived — bytes are copied out and the
    mapping closed before unpickling — so no mapping or fd outlives the
    task. Attaching does re-register the name with the resource tracker
    (CPython registers in ``__init__``, created or not), but fork workers
    share the parent's tracker process — :meth:`WorkerPool.executor`
    starts it before forking — and its cache is a set, so the duplicate
    collapses and the parent's unlink still retires the name exactly
    once.
    """
    payload = _PAYLOAD_MEMO.get(ref.name, _PAYLOAD_MEMO)
    if payload is not _PAYLOAD_MEMO:
        _PAYLOAD_MEMO.move_to_end(ref.name)
        return payload
    shm = shared_memory.SharedMemory(name=ref.name)
    try:
        payload = pickle.loads(bytes(shm.buf[: ref.length]))
    finally:
        shm.close()
    _PAYLOAD_MEMO[ref.name] = payload
    while len(_PAYLOAD_MEMO) > _PAYLOAD_MEMO_LIMIT:
        _PAYLOAD_MEMO.popitem(last=False)
    return payload


class WorkerPool:
    """One executor (fork process pool or thread pool) per session.

    Created by a parallel backend at connect time, threaded into every
    ``execute_plan_parallel`` call, closed with the session. The executor
    itself is lazy — nothing forks until the first execution actually
    submits a shard task, and fork-context workers spawn *at submit time*,
    while the dispatcher's copy-on-write globals are live — and survives
    across calls; :meth:`prepare`/:meth:`finish` bracket each execution
    with the staleness policy described in the module docstring.

    ``thread`` pools have no staleness problem (threads share the live
    heap), so for them :meth:`prepare` is a no-op and only executor reuse
    remains.
    """

    #: Largest total drifted-row count served via shared memory; beyond
    #: it the pool re-forks instead (copy-on-write inheritance of a big
    #: mutated relation beats pickling it into a segment). Class
    #: attribute on purpose: tests pin it to force either path.
    shm_drift_rows: int = 65536

    def __init__(self, kind: str, workers: int):
        if kind not in ("process", "thread"):
            raise ValueError(
                f"pool kind must be 'process' or 'thread', got {kind!r}"
            )
        self.kind = kind
        self.workers = workers
        #: Bumped every re-fork; observability for tests and benchmarks.
        self.epoch = 0
        self._snapshot: dict[str, int] = {}
        self._store = ShmColumnStore()
        self._leased: list[StoreKey] = []
        self._executor: Executor | None = None
        self._closed = False
        # GC safety net: /dev/shm segments outlive the process unless
        # unlinked — a session that is dropped without close() must not
        # leak them. (Executors clean themselves up via their own
        # management-thread weakrefs.)
        self._finalizer = weakref.finalize(
            self, ShmColumnStore.close, self._store
        )

    @property
    def store(self) -> ShmColumnStore:
        return self._store

    @property
    def closed(self) -> bool:
        return self._closed

    def executor(self) -> Executor:
        """The live executor, created (and, for ``process``, armed to
        fork at first submit) on demand."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is None:
            if self.kind == "process":
                # Start the resource tracker *before* any worker forks:
                # children then inherit the live tracker fd and their
                # attach-time registrations land in the parent's tracker
                # (a set, so duplicates collapse). A worker forked with
                # no tracker would lazily spawn its own, which at worker
                # exit believes every attached segment leaked and races
                # the parent's unlink.
                resource_tracker.ensure_running()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            else:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
        return self._executor

    def pids(self) -> frozenset[int]:
        """PIDs of the current worker processes (empty for thread pools)."""
        executor = self._executor
        if isinstance(executor, ProcessPoolExecutor):
            return frozenset(executor._processes)  # type: ignore[attr-defined]
        return frozenset()

    # -- per-execution staleness protocol ----------------------------------

    def prepare(
        self, db: "DatabaseInstance", scan_relations: Iterable[str]
    ) -> dict[str, ShmRef]:
        """Start one execution over *db*; returns the shared-memory refs
        shard tasks must read instead of their copy-on-write snapshot.

        Must run under the dispatcher's execution lock (it mutates pool
        state) and before any submit. *scan_relations* are the relations
        this execution's cold scan units will actually read — drifted
        relations outside that set need no segment (no task touches
        them), but they keep counting toward the re-fork threshold and
        stay drifted until a re-fork resets the snapshot.
        """
        if self.kind != "process":
            return {}
        relations = db.relations()
        current = {name: inst.version for name, inst in relations.items()}
        if self._executor is None:
            # Nothing has forked yet: workers will inherit exactly the
            # current data at first submit. Baseline the snapshot here.
            self._snapshot = current
            self._sweep(current)
            return {}
        drifted = {
            name
            for name, version in current.items()
            if self._snapshot.get(name) != version
        }
        if drifted:
            drift_rows = sum(len(relations[name]) for name in drifted)
            if drift_rows > self.shm_drift_rows:
                self._refork(current)
                self._sweep(current)
                return {}
        refs: dict[str, ShmRef] = {}
        for name in scan_relations:
            if name in drifted:
                refs[name] = self._lease(
                    ("columns", name, current[name]),
                    lambda: tuple(map(tuple, relations[name].columns())),
                )
        self._sweep(current)
        return refs

    def witness_ref(
        self,
        relation: str,
        deps: tuple[tuple[str, int], ...],
        build: Callable[[], Any],
    ) -> ShmRef:
        """Lease a segment holding *relation*'s merged witness key sets.

        Called at CIND-probe submission time (the sets exist only after
        the witness barrier). Keyed by the RHS relations' versions, so an
        execution whose RHS relations did not move re-leases the previous
        execution's segment without rebuilding or re-pickling anything.
        """
        return self._lease(("witness", relation, deps), build)

    def finish(self) -> None:
        """End one execution: return every lease taken since prepare()."""
        leased, self._leased = self._leased, []
        for key in leased:
            self._store.release(key)

    def _lease(self, key: StoreKey, build: Callable[[], Any]) -> ShmRef:
        ref = self._store.publish(key, build)
        self._leased.append(key)
        return ref

    def _sweep(self, current: dict[str, int]) -> None:
        def stale(key: StoreKey) -> bool:
            if key[0] == "columns":
                __, name, version = key
                return current.get(name) != version
            __, __r, deps = key
            return any(current.get(name) != version for name, version in deps)

        self._store.sweep(stale)

    def recover(self) -> None:
        """Retire a broken executor (a worker died) through the re-fork
        path: the epoch bumps, every segment unlinks, and the next
        execution forks fresh workers over the live data."""
        self._refork(self._snapshot)

    def _refork(self, current: dict[str, int]) -> None:
        """Drift too large for segments: retire the workers, re-baseline.

        The executor shuts down synchronously (no submits are in flight —
        prepare() runs under the execution lock, before the graph), the
        snapshot resets to the current versions, and every segment drops:
        the next submit forks fresh workers that inherit the live data
        copy-on-write, for whom no published payload is needed.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.epoch += 1
        self._snapshot = current
        self._leased.clear()
        self._store.close()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down and unlink every segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._leased.clear()
        self._finalizer()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "idle" if self._executor is None else "live"
        )
        return (
            f"<WorkerPool {self.kind} workers={self.workers} "
            f"epoch={self.epoch} {state}>"
        )


__all__ = [
    "ShmColumnStore",
    "ShmRef",
    "WorkerPool",
    "fetch_payload",
]
