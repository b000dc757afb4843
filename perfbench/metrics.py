"""The benchmark's metric catalogue: names, units, and the half that
measures each. ``BENCHMARK.json`` lists the same names (a test holds the
two in step)."""

from __future__ import annotations

import statistics
from typing import Sequence

#: End-to-end metrics: (name, unit, half, op kind, statistic). ``None``
#: op kind marks the two metrics of the run's own (primary) half.
END_TO_END = (
    ("setup_s", "s", None, None, None),
    ("peak_rss_mb", "MB", None, None, None),
    ("check_ms.p50", "ms", "audit", "check", "p50"),
    ("sqlfile_check_ms.p50", "ms", "audit", "sqlfile_check", "p50"),
    ("par_check_ms.p50", "ms", "audit", "par_check", "p50"),
    ("repair_ms.p50", "ms", "audit", "repair", "p50"),
    ("commit_ms.p50", "ms", "stream", "commit", "p50"),
    ("commit_ms.p90", "ms", "stream", "commit", "p90"),
    ("sqlfile_commit_ms.p50", "ms", "stream", "sqlfile_commit", "p50"),
    ("sqlfile_commit_ms.p90", "ms", "stream", "sqlfile_commit", "p90"),
    ("delta_age_ms.p50", "ms", "stream", "delta_age", "p50"),
    ("read_ms.p50", "ms", "stream", "read", "p50"),
    ("sqlfile_read_ms.p50", "ms", "stream", "sqlfile_read", "p50"),
)

#: Printed with every run but left out of ``BENCHMARK.json`` and the
#: result line, since on a shared 2-vCPU VM their spread across ten
#: seeds exceeds the 0.25 largest bound a gated metric may have: the tail
#: of the small stream half's short commits moves with the host's noise
#: level (spreads up to 0.47), and a bank@50k parallel check runs at
#: about 1.8x parallelism or, for stretches of seconds up to a whole
#: run while the host holds one vCPU, at about 1.1x (0.6-0.8 s against
#: 1.0-1.2 s for the same CPU time).
UNGATED = ("par_check_ms.p50", "commit_ms.p90", "sqlfile_commit_ms.p90")

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("gc.pause_ms.check", "ms"),
    ("gc.gen2.check", "count"),
    ("gc.pause_ms.repair", "ms"),
    ("gc.pause_ms.commit", "ms"),
    ("gc.collect_ms.commit", "ms"),
    ("relational.columns_ms.check", "ms"),
    ("relational.columns_ms.commit", "ms"),
    ("relational.rows_transposed_per_row_changed", "ratio"),
    ("relational.load_ms", "ms"),
    ("engine.plan_ms.check", "ms"),
    ("engine.execute_ms.check", "ms"),
    ("engine.execute_ms.repair", "ms"),
    ("engine.execute_ms.commit", "ms"),
    ("engine.assemble_ms.read", "ms"),
    ("engine.cache_hit_ratio.read", "ratio"),
    ("engine.cache_hit_ratio.commit", "ratio"),
    ("api.connect_ms.check", "ms"),
    ("api.apply_ms.commit", "ms"),
    ("api.parallel_ms.par_check", "ms"),
    ("api.pool_ms.par_check", "ms"),
    ("api.worker_wait_ms.par_check", "ms"),
    ("sql.scan_ms.sqlfile_check", "ms"),
    ("sql.scan_ms.sqlfile_read", "ms"),
    ("sql.fingerprint_ms.sqlfile_read", "ms"),
    ("sql.cache_hit_ratio.sqlfile_read", "ratio"),
    ("sql.apply_ms.sqlfile_commit", "ms"),
    ("sql.ingest_ms", "ms"),
    ("sql.shadow_load_ms", "ms"),
    ("cleaning.worklist_ms.repair", "ms"),
    ("cleaning.plan_ms.repair", "ms"),
    ("cleaning.apply_ms.repair", "ms"),
    ("cleaning.rounds.repair", "count"),
    ("cleaning.edits.repair", "count"),
    ("cleaning.shadow_ms.sqlfile_commit", "ms"),
    ("serve.lock_wait_ms.commit", "ms"),
    ("serve.delta_ms.commit", "ms"),
    ("serve.records_ms.commit", "ms"),
    ("serve.diff_ms.commit", "ms"),
    ("serve.delivery_ms", "ms"),
    ("serve.delta_records.commit", "count"),
    ("serve.empty_delta_share", "ratio"),
    ("serve.fast_read_share", "ratio"),
    ("serve.reader_wait_ms.sqlfile_read", "ms"),
    ("serve.lagging_evictions", "count"),
)

#: Per-layer metrics both halves produce; the run's primary half wins.
SHARED_PER_LAYER = ("relational.load_ms", "sql.ingest_ms")

#: A tail statistic needs this many samples beyond it: p90 needs 100.
TAIL_MARGIN = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def statistic(name: str, values: Sequence[float]) -> float:
    return p90(values) if name == "p90" else median(values)


def min_samples(name: str) -> int:
    """Samples a statistic needs: p90 leaves TAIL_MARGIN beyond it."""
    return TAIL_MARGIN * 10 if name == "p90" else 1


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
