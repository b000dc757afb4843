"""The ``audit`` half: cold detection and repair over a bank snapshot.

Four ops run round-robin — ``check`` (memory backend, connect included),
``sqlfile_check`` (a fresh sqlfile session's first check), ``par_check``
(as ``check`` with ``workers=nproc`` and the default pool) and
``repair`` — each on an untimed fresh copy or session after an untimed
``gc.collect()``, so every sample starts from the same heap and the
collector's work inside it repeats exactly.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import repro.api as api
from repro.cleaning.repair import repair
from repro.sql.loader import create_database_file

from perfbench.common import Half, perf, report_key, sqlite_policy
from perfbench.data import BANK_ERROR_RATE, bank_rows, dense_bank_sigma, load
from perfbench.metrics import median

KINDS = ("check", "sqlfile_check", "par_check", "repair")


def _db_key(db) -> tuple:
    return tuple(tuple(t.values for t in relation) for relation in db)


class AuditHalf(Half):
    name = "audit"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sigma = dense_bank_sigma()
        self.rows = bank_rows(self.size, self.seed)
        self.path = self.workdir / f"{self.tag}-bank.db"
        self.workers = os.cpu_count() or 1
        self.db = None
        self._reference: tuple | None = None
        self._repaired: tuple | None = None
        self._step = 0

    def setup(self) -> None:
        self.db = None
        self.path.unlink(missing_ok=True)
        gc.collect()
        t0 = perf()
        db = load(self.sigma, self.rows)
        t1 = perf()
        create_database_file(self.path, db)
        t2 = perf()
        self.db = db
        self.setup_s.append(t2 - t0)
        self.setup_layers.append({
            "relational.load_ms": (t1 - t0) * 1e3,
            "sql.ingest_ms": (t2 - t1) * 1e3,
        })
        self.env = {
            "bank_accounts": self.size,
            "tuples": db.total_tuples(),
            "error_rate": BANK_ERROR_RATE,
            "sigma": len(self.sigma),
            "workers": self.workers,
            "sqlite_file": str(self.path.relative_to(self.workdir.parent)),
            "sqlite_policy": sqlite_policy(self.path),
        }

    def step(self) -> None:
        kind = KINDS[self._step % len(KINDS)]
        traced = self.trace and (self._step // len(KINDS)) % 2 == 0
        self._step += 1
        session = copy = None
        if kind == "sqlfile_check":
            session = api.connect(self.path, self.sigma, backend="sqlfile")
        else:
            copy = self.db.copy()
        gc.collect()
        if traced:
            self.tracer.install()
        op = self.new_op(kind, traced)
        try:
            t0 = perf()
            if kind == "check":
                session = api.connect(copy, self.sigma)
                result = session.check()
            elif kind == "sqlfile_check":
                result = session.check()
            elif kind == "par_check":
                session = api.connect(copy, self.sigma, workers=self.workers)
                result = session.check()
            else:
                result = repair(copy, self.sigma)
            t1 = perf()
        finally:
            self.close_op(op)
            if traced:
                self.tracer.uninstall()
            if session is not None:
                session.close()
        op["ms"] = (t1 - t0) * 1e3
        if kind == "repair":
            self._gate_repair(op, result)
        else:
            self._gate_report(op, kind, result)

    def warm_up(self) -> None:
        """One untimed round of the four ops. The process's first pool
        fork starts multiprocessing's resource tracker, and the first
        check and repair are checked against cold references; both are
        one-time costs that belong to no sample."""
        trace, self.trace = self.trace, False
        for __ in KINDS:
            self.step()
        self.trace = trace
        self._step = 0
        del self.ops[:]

    def _gate_report(self, op: dict, kind: str, report) -> None:
        key = report_key(report)
        if self.inject_mismatch and kind == "sqlfile_check":
            key = (key[0], key[1][:-1])
        if self._reference is None:
            self._reference = key
            self.env["initial_violations"] = len(key[0]) + len(key[1])
        elif key != self._reference:
            self.fail(f"{kind} op {op['id']}: report differs from the "
                      "first check's (content or order)")
            op["failed"] = True

    def _gate_repair(self, op: dict, result) -> None:
        op["rounds"] = result.rounds
        op["edits"] = len(result.edits)
        op["worklist_ms"] = sum(s.worklist_s for s in result.round_stats) * 1e3
        op["apply_ms"] = sum(s.apply_s for s in result.round_stats) * 1e3
        key = _db_key(result.db)
        if not result.clean:
            self.fail(f"repair op {op['id']}: result is not clean")
            op["failed"] = True
        elif self._repaired is None:
            with api.connect(result.db.copy(), self.sigma) as session:
                if not session.check().is_clean:
                    self.fail(f"repair op {op['id']}: a cold check of the "
                              "repaired database finds violations")
                    op["failed"] = True
            self._repaired = key
        elif key != self._repaired:
            self.fail(f"repair op {op['id']}: repaired database differs "
                      "from the first repair's")
            op["failed"] = True

    def needs_more(self) -> bool:
        return self._step < 2 * len(KINDS)

    def gate(self) -> None:
        # Every op was gated as it ran; an op kind that never ran
        # cannot be vouched for.
        for kind in KINDS:
            if not any(op["kind"] == kind for op in self.ops):
                self.fail(f"no {kind} op ran")

    def layers(self) -> dict[str, float]:
        tracer = self.tracer
        checks = self.traced_ops("check")
        repairs = self.traced_ops("repair")
        return {
            "gc.pause_ms.check": median(
                [tracer.pause_ms(op["id"]) for op in checks]),
            "gc.gen2.check": median(
                [tracer.collections(op["id"], 2) for op in checks]),
            "gc.pause_ms.repair": median(
                [tracer.pause_ms(op["id"]) for op in repairs]),
            "relational.columns_ms.check": self.per_op(
                "check", ["relational.columns"]),
            "relational.load_ms": self.setup_median("relational.load_ms"),
            "engine.plan_ms.check": self.per_op("check", ["engine.plan"]),
            "engine.execute_ms.check": self.per_op(
                "check", ["engine.execute"]),
            "engine.execute_ms.repair": self.per_op(
                "repair", ["engine.execute"]),
            "api.connect_ms.check": self.per_op("check", ["api.connect"]),
            "api.parallel_ms.par_check": self.per_op_self(
                "par_check", "api.parallel"),
            "api.pool_ms.par_check": self.per_op("par_check", ["api.pool"]),
            "api.worker_wait_ms.par_check": self.per_op(
                "par_check", ["api.worker_wait"]),
            "sql.scan_ms.sqlfile_check": self.per_op(
                "sqlfile_check", ["sql.scan"]),
            "sql.ingest_ms": self.setup_median("sql.ingest_ms"),
            "cleaning.worklist_ms.repair": median(
                [op["worklist_ms"] for op in repairs]),
            "cleaning.plan_ms.repair": self.per_op(
                "repair", ["cleaning.plan"]),
            "cleaning.apply_ms.repair": median(
                [op["apply_ms"] for op in repairs]),
            "cleaning.rounds.repair": median(
                [op["rounds"] for op in repairs]),
            "cleaning.edits.repair": median([op["edits"] for op in repairs]),
        }

    def counts(self) -> dict[str, list]:
        # Collections are counted only for the single-threaded ops: in
        # par_check the pool's management thread allocates concurrently.
        tracer = self.tracer
        return {
            kind: [
                ([tracer.collections(op["id"], g) for g in (0, 1, 2)]
                 if kind != "par_check" else [])
                + [self.rows_transposed(op), op.get("rounds"), op.get("edits")]
                for op in self.traced_ops(kind)
            ]
            for kind in KINDS
        }

    def close(self) -> None:
        self.db = None
        Path(self.path).unlink(missing_ok=True)
