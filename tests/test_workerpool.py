"""The persistent worker pool: reuse, drift, leaks, stealing schedules.

Five contracts:

* **reuse** — a warm parallel ``check()`` spawns zero new processes: the
  PID set is identical across calls, including after small DML (the
  drifted relation travels by shared memory, not by re-fork);
* **epoch re-fork** — drift past ``WorkerPool.shm_drift_rows`` retires
  the workers (disjoint PID set, epoch bump) instead of shipping a huge
  relation through ``/dev/shm``;
* **dead workers** — after a worker is killed, the next ``check()``
  re-forks (epoch bump) and answers exactly instead of raising
  ``BrokenProcessPool``;
* **no leaks** — ``Session.close()`` returns the process to its baseline
  file-descriptor count and unlinks every published shm segment (checked
  by name under ``/dev/shm``);
* **schedule invariance** — reports are bit-identical, including list
  order, under any work-stealing schedule: forced skewed shards cross-
  checked against serial, plus a Hypothesis permutation of the
  scheduler's ready-deque pick via ``parallel._SCHEDULE_HOOK``.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
import repro.api.parallel as parallel
from repro.api.options import ExecutionOptions
from repro.api.workerpool import ShmColumnStore, WorkerPool, fetch_payload
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import plan_detection
from repro.engine.executor import execute_plan
from repro.engine.shards import resolve_shard_count

from tests.conformance import report_key

pytestmark = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="persistent process pools need the fork start method",
)

NEW_ROW = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}


def persistent_session(db, sigma, **overrides):
    options = dict(
        workers=2, executor="process", shards=2, min_shard_rows=1,
    )
    options.update(overrides)
    return api.connect(db, sigma, **options)


# -- pool reuse and drift ------------------------------------------------------


class TestPoolReuse:
    def test_same_pids_across_checks(self):
        db = scaled_bank_instance(300, error_rate=0.05, seed=3)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        session = persistent_session(db, sigma)
        assert session.effective_executor == "process-persistent"
        r1 = session.check()
        pool = session.backend._pool
        pids = pool.pids()
        assert pids and all(isinstance(p, int) for p in pids)
        # Cached warm re-check: no graph at all. Force cold re-checks by
        # reconnecting with a fresh cache over the same pool? No — the
        # contract is about the *session's* pool, so mutate to go cold.
        r2 = session.check()
        assert pool.pids() == pids
        assert report_key(r1) == report_key(serial)
        assert report_key(r2) == report_key(serial)
        session.close()

    def test_small_dml_keeps_pids_and_epoch(self, bank):
        db = bank.clean_db.copy()
        session = persistent_session(db, bank.constraints)
        assert session.check().is_clean
        pool = session.backend._pool
        pids, epoch = pool.pids(), pool.epoch
        session.insert("interest", dict(NEW_ROW))
        report = session.check()
        assert pool.pids() == pids
        assert pool.epoch == epoch
        # The drifted relation traveled by shared memory.
        assert len(pool.store) > 0
        oracle = api.connect(db, bank.constraints).check()
        assert report_key(report) == report_key(oracle)
        session.close()

    def test_large_drift_reforks_with_epoch_bump(self, bank, monkeypatch):
        monkeypatch.setattr(WorkerPool, "shm_drift_rows", 0)
        db = bank.clean_db.copy()
        session = persistent_session(db, bank.constraints)
        session.check()
        pool = session.backend._pool
        pids = pool.pids()
        assert pool.epoch == 0
        session.insert("interest", dict(NEW_ROW))
        report = session.check()
        assert pool.epoch == 1
        assert pool.pids().isdisjoint(pids)
        # Re-forked workers read the fresh copy-on-write data, so no
        # column segments survive; CIND witness sets are born after the
        # fork and still (correctly) travel by shared memory.
        assert all(key[0] == "witness" for key in pool.store._segments)
        oracle = api.connect(db, bank.constraints).check()
        assert report_key(report) == report_key(oracle)
        session.close()

    def test_per_call_pool_has_no_persistent_state(self, bank):
        session = api.connect(
            bank.db, bank.constraints, workers=2, executor="process",
            shards=2, min_shard_rows=1, pool="per-call",
        )
        assert session.effective_executor == "process"
        assert session.backend._pool is None
        oracle = api.connect(bank.db, bank.constraints).check()
        assert report_key(session.check()) == report_key(oracle)
        session.close()

    def test_closed_pool_refuses_submissions(self):
        pool = WorkerPool("process", 2)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.executor()
        pool.close()  # idempotent


# -- dead workers --------------------------------------------------------------


class TestDeadWorker:
    def test_killed_worker_reforks_and_check_stays_exact(self):
        """SIGKILL one pool worker, mutate, check: the broken executor is
        retired through the re-fork path (epoch bump) and the check runs
        again on fresh workers instead of raising BrokenProcessPool."""
        db = scaled_bank_instance(300, error_rate=0.05, seed=3)
        sigma = bank_constraints()
        session = persistent_session(db, sigma)
        session.check()
        pool = session.backend._pool
        executor, epoch = pool.executor(), pool.epoch
        os.kill(next(iter(pool.pids())), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor._broken
        session.delete("saving", next(iter(db["saving"])))
        session.insert("interest", dict(NEW_ROW))
        report = session.check()
        assert pool.epoch > epoch
        assert report_key(report) == report_key(api.connect(db, sigma).check())
        # The recovered pool keeps serving.
        session.insert("interest", {**NEW_ROW, "rt": "0.1%"})
        assert report_key(session.check()) == report_key(
            api.connect(db, sigma).check()
        )
        session.close()


# -- resource hygiene ----------------------------------------------------------


class TestNoLeaks:
    def test_close_releases_fds_and_shm_segments(self, bank):
        # Warm-up: the first fork pool lazily spawns the multiprocessing
        # resource-tracker process, whose pipe fd lives until interpreter
        # exit. Pay that cost before taking the baseline.
        warmup = persistent_session(bank.clean_db.copy(), bank.constraints)
        warmup.check()
        warmup.close()
        gc.collect()
        baseline = len(os.listdir("/proc/self/fd"))

        db = bank.clean_db.copy()
        session = persistent_session(db, bank.constraints)
        session.check()
        session.insert("interest", dict(NEW_ROW))
        session.check()  # drift -> published shm segments
        pool = session.backend._pool
        names = pool.store.segment_names()
        assert names, "drift should have published at least one segment"
        assert all(
            os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names
        )
        session.close()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == baseline
        assert not any(
            os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names
        )

    def test_finalizer_unlinks_segments_without_close(self):
        store = ShmColumnStore()
        ref = store.publish(("columns", "r", 0), lambda: [("a", "b")])
        assert os.path.exists(f"/dev/shm/{ref.name.lstrip('/')}")
        assert fetch_payload(ref) == [("a", "b")]
        store.close()
        assert not os.path.exists(f"/dev/shm/{ref.name.lstrip('/')}")

    def test_store_reuses_segments_by_key(self):
        store = ShmColumnStore()
        builds = []

        def build():
            builds.append(1)
            return [("x",)]

        ref1 = store.publish(("columns", "r", 7), build)
        ref2 = store.publish(("columns", "r", 7), build)
        assert ref1 == ref2
        assert len(builds) == 1
        store.release(("columns", "r", 7))
        store.release(("columns", "r", 7))
        # Idle segments survive until their keying version goes stale.
        assert len(store) == 1
        store.sweep(lambda key: key[2] != 8)
        assert len(store) == 0


# -- work stealing -------------------------------------------------------------


class TestWorkStealing:
    def test_steal_granularity_over_partitions(self):
        # granularity 0: classic split, capped at workers.
        assert resolve_shard_count(10_000, 2, 1, 0, 0) == 2
        # granularity N: workers * N fine shards for idle workers to steal.
        assert resolve_shard_count(10_000, 2, 1, 0, 4) == 8
        # min_shard_rows still floors the shard size.
        assert resolve_shard_count(10_000, 2, 5_000, 0, 4) == 2
        # explicit shards always wins.
        assert resolve_shard_count(10_000, 2, 1, 3, 4) == 3

    def test_options_validate_new_fields(self):
        assert ExecutionOptions().pool == "persistent"
        assert ExecutionOptions().steal_granularity == 0
        with pytest.raises(ValueError, match="pool"):
            ExecutionOptions(pool="forever")
        with pytest.raises(ValueError, match="steal_granularity"):
            ExecutionOptions(steal_granularity=-1)
        with pytest.raises(ValueError, match="steal_granularity"):
            ExecutionOptions(steal_granularity="lots")

    def test_skewed_fine_shards_match_serial(self):
        db = scaled_bank_instance(120, error_rate=0.1, seed=11)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        stealing = api.connect(
            db, sigma, workers=2, executor="thread", min_shard_rows=1,
            steal_granularity=5,
        )
        assert report_key(stealing.check()) == report_key(serial)
        process = persistent_session(
            db, sigma, shards=0, steal_granularity=5
        )
        assert report_key(process.check()) == report_key(serial)
        process.close()

    def test_sqlfile_windows_honor_granularity(self, bank, tmp_path):
        from repro.sql.loader import create_database_file

        path = tmp_path / "bank.db"
        create_database_file(path, bank.db)
        serial = api.connect(
            str(path), bank.constraints, backend="sqlfile"
        ).check()
        stealing = api.connect(
            str(path), bank.constraints, backend="sqlfile",
            workers=2, min_shard_rows=1, steal_granularity=4,
        )
        assert stealing.effective_executor == "thread-persistent"
        assert report_key(stealing.check()) == report_key(serial)
        # Warm re-check over the persistent connection pool (the seeded
        # witness tables were dropped; a second cold run must re-seed).
        assert report_key(stealing.check()) == report_key(serial)
        stealing.close()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reports_invariant_under_any_schedule(self, seed):
        """Permute the scheduler's ready-deque pick arbitrarily: the
        report must stay bit-identical, because states merge by shard
        index, never by completion or submission order."""
        db = scaled_bank_instance(90, error_rate=0.1, seed=7)
        sigma = bank_constraints()
        plan = plan_detection(sigma)
        serial = execute_plan(plan, db)
        rnd = random.Random(seed)
        assert parallel._SCHEDULE_HOOK is None
        parallel._SCHEDULE_HOOK = lambda n: rnd.randrange(n)
        try:
            permuted = parallel.execute_plan_parallel(
                plan, db, workers=1, executor="thread",
                min_shard_rows=1, shards=5,
            )
        finally:
            parallel._SCHEDULE_HOOK = None
        assert report_key(permuted) == report_key(serial)
