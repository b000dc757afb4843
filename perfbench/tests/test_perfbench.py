"""The benchmark's own tests: seeded inputs, the naive oracle at a small
size, tiny smoke runs of both workloads (traced and untraced), exact
counts that repeat across traced runs, and the correctness gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import report_key  # noqa: E402
from perfbench.data import (  # noqa: E402
    CommerceDML,
    bank_rows,
    commerce_rows,
    dense_bank_sigma,
    dense_commerce_sigma,
    load,
)
from perfbench.metrics import END_TO_END, PER_LAYER, UNGATED  # noqa: E402
from perfbench.run import REF_MS  # noqa: E402

TINY = ["--sizes", "audit=1500,stream=400", "--seconds", "1"]


def run_bench(out: Path, workload: str, trace: int, *extra: str,
              cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--out", str(out),
         *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Each workload traced and untraced, and audit traced once more
    (every run has both halves, so two audit runs cover every count)."""
    out = tmp_path_factory.mktemp("perfbench")
    done = {}
    for workload, key, trace in (
        ("audit", "plain", 0), ("audit", "traced", 1), ("audit", "again", 1),
        ("stream", "plain", 0), ("stream", "traced", 1),
    ):
        proc = run_bench(out / f"{workload}-{key}", workload, trace)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(
            (out / f"{workload}-{key}" /
             f"{workload}-seed3-trace{trace}.json").read_text())
        done[workload, key] = (last_json(proc), report, proc.stdout)
    return done


def test_benchmark_json_matches_the_catalogue() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, *__ in END_TO_END
        if name not in UNGATED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"audit", "stream"}


def test_same_seed_same_inputs() -> None:
    assert bank_rows(500, 7) == bank_rows(500, 7)
    assert bank_rows(500, 7) != bank_rows(500, 8)
    rows = commerce_rows(300, 7)
    assert rows == commerce_rows(300, 7)
    assert rows != commerce_rows(300, 8)
    first, second = CommerceDML(rows, 7), CommerceDML(rows, 7)
    assert [first.next_batch() for __ in range(200)] == [
        second.next_batch() for __ in range(200)]
    assert len(dense_bank_sigma()) == 59
    assert len(dense_commerce_sigma()) == 37


def test_dml_stream_is_stationary() -> None:
    """Every batch's deletes hit live rows, and each insert is undone:
    after the undo lag drains, the database is back where it began."""
    rows = commerce_rows(300, 5)
    live = {}
    for relation, row in rows:
        live.setdefault(relation, set()).add(row)
    start = {relation: set(values) for relation, values in live.items()}
    dml = CommerceDML(rows, 5)
    kinds = []
    for k in range(400):
        kind, deletes, inserts = dml.next_batch()
        kinds.append(kind)
        for relation, row in deletes:
            assert row in live[relation], (k, row)
            live[relation].remove(row)
        for relation, row in inserts:
            assert row not in live[relation], (k, row)
            live[relation].add(row)
    sizes = [len(values) for values in live.values()]
    assert abs(sum(sizes) - sum(len(v) for v in start.values())) <= (
        2 * CommerceDML.UNDO_LAG)
    # Equal shares: every run of four batches holds each kind once.
    for k in range(0, 400, 4):
        assert sorted(kinds[k:k + 4]) == sorted(CommerceDML.KINDS)


@pytest.mark.parametrize("rows, sigma", [
    (lambda: bank_rows(400, 2), dense_bank_sigma),
    (lambda: commerce_rows(600, 2), dense_commerce_sigma),
])
def test_engine_matches_the_naive_oracle(rows, sigma) -> None:
    from repro.api import connect
    from repro.core.violations import check_database_naive

    sigma = sigma()
    db = load(sigma, rows())
    with connect(db.copy(), sigma) as session:
        engine = session.check()
    naive = check_database_naive(db, sigma)
    assert report_key(engine) == report_key(naive)
    assert report_key(engine) != ((), ())


@pytest.mark.parametrize("workload", ["audit", "stream"])
def test_smoke_untraced(runs, workload) -> None:
    result, report, stdout = runs[workload, "plain"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        name for name, *__ in END_TO_END if name not in UNGATED]
    for name, unit, *__ in END_TO_END:
        if name not in UNGATED:
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0, name
        assert f"  {name} " in stdout  # printed with its unit and n
        assert report["end_to_end"][name]["value"] > 0, name
        assert report["end_to_end"][name]["raw"] > 0, name
    assert set(report["commit_p50_by_dml"]) == {
        f"{commit}:{kind}" for commit in ("commit", "sqlfile_commit")
        for kind in CommerceDML.KINDS}
    env = report["env"]
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert env["ref_ms_p50"] > 0 and env["ref_n"] >= 1
    # Timings are scaled to the reference speed; memory is not.
    for name, value in report["end_to_end"].items():
        scale = REF_MS / env["ref_ms_p50"] if value["unit"] in (
            "ms", "s") else 1.0
        assert value["value"] == pytest.approx(value["raw"] * scale), name
    for half in env["halves"].values():
        assert half["initial_violations"] > 0
        assert half["sqlite_policy"]["journal_mode"]


@pytest.mark.parametrize("workload", ["audit", "stream"])
def test_smoke_traced(runs, workload) -> None:
    result, report, stdout = runs[workload, "traced"]
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(name for name, __ in PER_LAYER)
    assert "tracing overhead" in stdout
    assert set(report["overhead_ms"]) == {
        name for name, __, half, *__r in END_TO_END if half is not None}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cleaning.rounds.repair"] >= 1
    assert metrics["cleaning.edits.repair"] >= 1
    assert metrics["serve.lagging_evictions"] == 0
    assert metrics["engine.execute_ms.check"] > 0
    assert metrics["sql.scan_ms.sqlfile_read"] > 0
    assert metrics["serve.delta_ms.commit"] > 0
    assert metrics["gc.collect_ms.commit"] > 0
    assert metrics["serve.fast_read_share"] > 0


def test_exact_counts_repeat(runs) -> None:
    """Collections per audit sample, rows transposed, repair rounds and
    edits, cache hits/misses and delta records repeat for the same seed
    (compared over the ops both runs traced)."""
    first = runs["audit", "traced"][1]["counts"]
    second = runs["audit", "again"][1]["counts"]
    assert first.keys() == second.keys() == {"audit", "stream"}
    for half in first:
        for kind, ops in first[half].items():
            n = min(len(ops), len(second[half][kind]))
            assert n >= 1, (half, kind)
            assert ops[:n] == second[half][kind][:n], (half, kind)


def test_injected_mismatch_fails_the_run(tmp_path) -> None:
    proc = run_bench(tmp_path, "audit", 0, "--inject-mismatch")
    assert proc.returncode == 1
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 2
    assert "FAILED audit:" in proc.stderr
    assert "FAILED stream:" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "out", "audit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
