"""What both halves share: op bookkeeping, report identity, per-op
span summaries."""

from __future__ import annotations

import gc
import resource
import sqlite3
import sys
import time
from pathlib import Path
from typing import Any, Iterable

from perfbench.metrics import median
from perfbench.tracing import ROWS, NAME, Tracer

perf = time.perf_counter

#: Set-ups per half; ``setup_s`` is their median.
SETUPS = 5


def report_key(report: Any) -> tuple:
    """A report's identity, including list order."""
    cfds = tuple(
        (report.label_for(v.cfd), v.pattern_index, v.lhs_values,
         tuple(t.values for t in v.tuples), v.kind)
        for v in report.cfd_violations
    )
    cinds = tuple(
        (report.label_for(v.cind), v.pattern_index, v.tuple_.values)
        for v in report.cind_violations
    )
    return cfds, cinds


def sqlite_policy(path: Path) -> dict[str, Any]:
    """The flush policy a default connection to *path* runs with."""
    conn = sqlite3.connect(path)
    try:
        return {
            "journal_mode": conn.execute("PRAGMA journal_mode").fetchone()[0],
            "synchronous": conn.execute("PRAGMA synchronous").fetchone()[0],
        }
    finally:
        conn.close()


class Half:
    """One half of a run, living in its own process.

    Subclasses implement :meth:`setup` (one full set-up, repeated),
    :meth:`step` (one op or cycle), :meth:`needs_more` (a statistic
    still lacks samples), :meth:`gate` (the untimed correctness check)
    and :meth:`layers` (per-layer metrics from the traced ops).
    """

    name = "half"

    def __init__(self, size: int, seed: int, trace: bool, workdir: Path,
                 tag: str, inject_mismatch: bool = False):
        self.size = size
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.tag = tag
        self.inject_mismatch = inject_mismatch
        self.tracer = Tracer()
        #: One record per op: id, kind, ms, traced, plus op extras.
        self.ops: list[dict[str, Any]] = []
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.setup_layers: list[dict[str, float]] = []
        self.env: dict[str, Any] = {}
        self._op_id = 0

    # -- ops -------------------------------------------------------------

    def new_op(self, kind: str, traced: bool) -> dict[str, Any]:
        self._op_id += 1
        op = {"id": self._op_id, "kind": kind, "traced": traced}
        self.ops.append(op)
        if traced:
            self.tracer.begin(self._op_id)
        return op

    def close_op(self, op: dict[str, Any]) -> None:
        if op["traced"]:
            self.tracer.end()

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"perfbench[{self.name}]: {message}", file=sys.stderr)

    def traced_ops(self, kind: str) -> list[dict[str, Any]]:
        """Completed, traced ops of *kind*."""
        return [op for op in self.ops if op["traced"] and op["kind"] == kind
                and "ms" in op]

    # -- per-op span summaries ---------------------------------------------

    def per_op(self, kind: str, names: Iterable[str]) -> float:
        """Median over traced *kind* ops of the wall time inside spans
        named *names* (outermost spans only)."""
        names = frozenset(names)
        spans = self.tracer.by_op()
        return median([
            self.tracer.inclusive_ms(spans.get(op["id"], []), names)
            for op in self.traced_ops(kind)
        ])

    def per_op_self(self, kind: str, name: str) -> float:
        spans = self.tracer.by_op()
        return median([
            self.tracer.self_ms(spans.get(op["id"], [])).get(name, 0.0)
            for op in self.traced_ops(kind)
        ])

    def rows_transposed(self, op: dict[str, Any]) -> int:
        return sum(
            self.tracer.spans[i][ROWS]
            for i in self.tracer.by_op().get(op["id"], [])
            if self.tracer.spans[i][NAME] == "relational.columns"
        )

    def layer_self_ms(self) -> dict[str, dict[str, float]]:
        """Per op kind: median self time per layer (span-name prefix),
        plus the collector's pauses as their own row."""
        spans = self.tracer.by_op()
        out: dict[str, dict[str, float]] = {}
        for kind in sorted({op["kind"] for op in self.ops if op["traced"]}):
            rows: dict[str, list[float]] = {}
            ops = self.traced_ops(kind)
            for op in ops:
                per_name = self.tracer.self_ms(spans.get(op["id"], []))
                layers: dict[str, float] = {}
                for name, ms in per_name.items():
                    layer = name.split(".")[0]
                    layers[layer] = layers.get(layer, 0.0) + ms
                layers["gc"] = self.tracer.pause_ms(op["id"])
                for layer, ms in layers.items():
                    rows.setdefault(layer, []).append(ms)
            out[kind] = {
                layer: median(values + [0.0] * (len(ops) - len(values)))
                for layer, values in sorted(rows.items())
            }
        return out

    # -- protocol --------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        """One op or cycle."""
        raise NotImplementedError

    def needs_more(self) -> bool:
        raise NotImplementedError

    def gate(self) -> None:
        raise NotImplementedError

    def layers(self) -> dict[str, float]:
        raise NotImplementedError

    def counts(self) -> dict[str, list]:
        """Exact per-op counts that must repeat for the same seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work after set-up that no sample should pay for."""

    def close(self) -> None:
        """Release everything the half holds (idempotent)."""

    def run_setup(self) -> None:
        for rep in range(SETUPS):
            gc.collect()
            if self.trace:
                self.tracer.install()
                self.tracer.begin(-1 - rep)
            try:
                self.setup()
            finally:
                if self.trace:
                    self.tracer.end()
                    self.tracer.uninstall()

    def finish(self) -> dict[str, Any]:
        self.tracer.uninstall()
        try:
            self.gate()
        except Exception as exc:  # a crash in the gate is a failed op too
            self.fail(f"correctness gate crashed: {exc!r}")
        samples: dict[str, list[list[Any]]] = {}
        for op in self.ops:
            if "ms" in op:
                samples.setdefault(op["kind"], []).append(
                    [op["ms"], op["traced"]]
                )
                if "dml" in op:
                    samples.setdefault(f"{op['kind']}:{op['dml']}", []).append(
                        [op["ms"], op["traced"]]
                    )
            if "age_ms" in op:
                samples.setdefault("delta_age", []).append(
                    [op["age_ms"], op["traced"]]
                )
        out: dict[str, Any] = {
            "half": self.name,
            "size": self.size,
            "env": self.env,
            "setup_s": self.setup_s,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": len(self.ops),
            "failures": self.failures,
            "samples": samples,
        }
        if self.trace:
            out["layers"] = self.layers()
            out["self_ms"] = self.layer_self_ms()
            out["counts"] = self.counts()
            out["missing_targets"] = self.tracer.missing
        return out

    def setup_median(self, key: str) -> float:
        return median([layer[key] for layer in self.setup_layers
                       if key in layer])
