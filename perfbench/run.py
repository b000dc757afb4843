#!/usr/bin/env python3
"""The repository benchmark: one seeded run of the ``audit`` or ``stream``
workload.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 45 --trace 0

A run starts two worker processes, one per half — ``audit`` (cold
detection and repair over a bank snapshot) and ``stream`` (a served
commerce database under one-row commits, reads and subscribers). The
workload's own half runs at full size and gets most of the time; the
other half runs small, interleaved with it op by op, so every end-to-end
metric is measured in every run. Only one worker works at a time.

Between steps the driver times a fixed reference loop that uses none of
the program; every end-to-end timing is reported at the reference
speed (see ``REF_MS``), with the raw value beside it.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps each
layer's entry points (see ``tracing.py``), alternates traced and
untraced cycles, and prints every per-layer metric plus the tracing
overhead. The last stdout line is the JSON result; a correctness
mismatch exits 1. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import SETUPS  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SHARED_PER_LAYER,
    UNGATED,
    median,
    min_samples,
    statistic,
)

#: Per workload: its own (primary) half, both halves' sizes (bank
#: accounts for audit, commerce orders for stream), and the share of the
#: measured time the other half gets — enough for its 100 commit cycles
#: (stream) or 25 rounds (audit) within the run.
WORKLOADS = {
    "audit": ("audit", {"audit": 50_000, "stream": 2_000}, 0.25),
    "stream": ("stream", {"audit": 5_000, "stream": 10_000}, 0.2),
}
#: Whole-run deadline, well inside the 180 s a run may take.
DEADLINE_S = 170.0
#: The reference loop's median on the 2-vCPU VM this benchmark was
#: built on (Python 3.11). A timing of t ms in a run whose reference
#: median is r ms is reported as t * REF_MS / r: what it would take on
#: a host running at that VM's usual speed.
REF_MS = 3.0


def reference_ms() -> float:
    """One pass of a fixed pure-Python workload that uses none of the
    program (the driver never imports it): build, sort and walk a
    6,000-entry dict of tuples. Its time tracks the shared host's
    drifting speed."""
    t0 = time.perf_counter()
    table = {}
    for i in range(6000):
        table[(i * 7919) % 6007] = (i, str(i))
    rows = sorted(table.values(), key=lambda row: row[1])
    total = 0
    for __, text in rows:
        total += len(text)
    return (time.perf_counter() - t0) * 1e3


class Worker:
    """One half's process and its line protocol."""

    def __init__(self, half: str, args: list[str], env: dict[str, str]):
        self.half = half
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"),
             "--half", half] + args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, start_new_session=True,
        )
        self._buffer = b""
        self.busy_s = 0.0
        self.more = True

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def receive(self, deadline: float) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.half} worker did not answer in time")
            ready, __, __ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError(f"{self.half} worker exited "
                                       f"(code {self.proc.wait()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def step(self, deadline: float) -> None:
        t0 = time.monotonic()
        self.send("step")
        self.more = self.receive(deadline)["more"]
        self.busy_s += time.monotonic() - t0

    def stop(self) -> None:
        """Stop the worker and everything it started, and reap it.

        The worker leads its own process group, so its pool workers and
        multiprocessing's resource tracker are stopped with it: they get
        two seconds to exit on their own, then SIGKILL."""
        if self.proc.poll() is None:
            self._kill_group()
        self.proc.wait()
        for __ in range(40):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            self._kill_group()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _sizes(text: str | None, defaults: dict[str, int]) -> dict[str, int]:
    sizes = dict(defaults)
    for part in filter(None, (text or "").split(",")):
        half, value = part.split("=")
        sizes[half] = int(value)
    return sizes


def _values(result: dict, kind: str, traced: bool) -> list[float]:
    return [ms for ms, was_traced in result["samples"].get(kind, [])
            if was_traced == traced]


def end_to_end(results: dict[str, dict], primary: str,
               traced: bool) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric: (value, sample count)."""
    own = results[primary]
    out = {
        "setup_s": (statistic("p50", own["setup_s"]), len(own["setup_s"])),
        "peak_rss_mb": (own["rss_mb"], 1),
    }
    for name, __, half, kind, stat in END_TO_END:
        if half is not None:
            values = _values(results[half], kind, traced)
            out[name] = (statistic(stat, values), len(values))
    return out


def per_layer(results: dict[str, dict], primary: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for half, result in results.items():
        for name, value in result["layers"].items():
            if name not in out or (name in SHARED_PER_LAYER
                                   and half == primary):
                out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", help="override half sizes, e.g. "
                        "audit=2000,stream=300 (for quick smoke runs)")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                        help="directory for sqlite files, traces, results")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + DEADLINE_S
    primary, default_sizes, share = WORKLOADS[args.workload]
    secondary = "stream" if primary == "audit" else "audit"
    sizes = _sizes(args.sizes, default_sizes)
    out = args.out
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        TMPDIR=str(out / "tmp"),
    )
    workers: dict[str, Worker] = {}
    reference: list[float] = []
    try:
        # Set up one half at a time so neither set-up competes for CPU.
        for half in (primary, secondary):
            worker_args = [
                "--size", str(sizes[half]), "--seed", str(args.seed),
                "--trace", str(args.trace),
                "--workdir", str(out), "--tag", f"{stem}-{os.getpid()}",
            ]
            if args.trace:
                worker_args += ["--trace-out",
                                str(out / f"{stem}-{half}.spans.json")]
            if args.inject_mismatch:
                worker_args.append("--inject-mismatch")
            workers[half] = Worker(half, worker_args, env)
            workers[half].receive(deadline)
        measure_start = time.monotonic()
        own, other = workers[primary], workers[secondary]
        # Past --seconds, a half keeps stepping only while a statistic
        # still lacks samples, and never past the margin finishing needs.
        while time.monotonic() < deadline - 30.0:
            in_time = time.monotonic() - measure_start < args.seconds
            ready = [w for w in (own, other) if in_time or w.more]
            if not ready:
                break
            # Step the half that is furthest behind its share of the
            # busy time. The halves so alternate op by op, and both
            # sample the host's drifting speed all through the run.
            current = ready[0]
            if len(ready) == 2 and (
                    other.busy_s < share * (own.busy_s + other.busy_s)):
                current = other
            current.step(deadline)
            reference.append(reference_ms())
        measured_s = time.monotonic() - measure_start
        results = {}
        for half, worker in workers.items():
            worker.send("finish")
            results[half] = worker.receive(deadline)
            worker.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (TimeoutError, RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: run aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        for worker in workers.values():
            worker.stop()

    failures = [f"{half}: {message}" for half, result in results.items()
                for message in result["failures"]]
    attempted = sum(result["attempted"] for result in results.values())
    correct = not failures
    env_block = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "primary": primary,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "seconds": args.seconds,
        "measured_s": round(measured_s, 3),
        "setups": SETUPS,
        "secondary_share": share,
        "halves": {half: dict(result["env"], size=result["size"],
                              ops=result["attempted"],
                              busy_s=round(workers[half].busy_s, 3))
                   for half, result in results.items()},
    }
    ref_p50 = median(reference)
    env_block.update(ref_ms_p50=ref_p50, ref_n=len(reference))
    units = {name: unit for name, unit, *__ in END_TO_END}
    units.update(PER_LAYER)
    report: dict = {
        "env": env_block,
        "failures": failures,
        "samples": {h: r["samples"] for h, r in results.items()},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env_block, sort_keys=True))
    if args.trace:
        metrics = per_layer(results, primary)
        traced = end_to_end(results, primary, traced=True)
        untraced = end_to_end(results, primary, traced=False)
        overhead = {
            name: traced[name][0] - untraced[name][0]
            for name, __, half, *__rest in END_TO_END if half is not None
        }
        for name in sorted(metrics):
            print(f"  {name:45s} {metrics[name]:12.4f} {units[name]}")
        print("tracing overhead (traced - untraced median, ms):")
        for name, delta in overhead.items():
            print(f"  {name:45s} {delta:+12.4f}  "
                  f"(traced n={traced[name][1]}, untraced n={untraced[name][1]})")
        print("self time per layer (median per op, ms):")
        for half, result in results.items():
            for kind, layers in result["self_ms"].items():
                cells = "  ".join(f"{layer}={ms:.2f}"
                                  for layer, ms in layers.items())
                print(f"  {half}/{kind}: {cells}")
            if result["missing_targets"]:
                print(f"  {half}: targets missing from the program: "
                      + ", ".join(result["missing_targets"]))
        report.update(per_layer=metrics, overhead_ms=overhead,
                      self_ms={h: r["self_ms"] for h, r in results.items()},
                      counts={h: r["counts"] for h, r in results.items()})
    else:
        values = end_to_end(results, primary, traced=False)
        scaled = {name: value * REF_MS / ref_p50
                  if units[name] in ("ms", "s") else value
                  for name, (value, __) in values.items()}
        metrics = {name: value for name, value in scaled.items()
                   if name not in UNGATED}
        print(f"reference loop p50 {ref_p50:.4f} ms (n={len(reference)}); "
              f"timings below at its {REF_MS} ms speed, raw beside them")
        for name, __, half, kind, stat in END_TO_END:
            value, n = values[name]
            short = " (too few samples for the tail)" if (
                stat and n < min_samples(stat)) else ""
            print(f"  {name:25s} {scaled[name]:12.4f} {units[name]:3s} "
                  f"raw {value:12.4f}  n={n}{short}")
        # The DML kinds' shares are assumed, so show what each costs.
        stream = results["stream"]
        by_dml = {key: statistic("p50", _values(stream, key, traced=False))
                  for key in sorted(stream["samples"]) if ":" in key}
        print("commit p50 by DML kind (ms): " + "  ".join(
            f"{key}={ms:.2f}" for key, ms in by_dml.items()))
        report.update(end_to_end={k: {"value": scaled[k], "raw": v,
                                      "unit": units[k], "n": n}
                                  for k, (v, n) in values.items()},
                      commit_p50_by_dml=by_dml,
                      setup_s={h: r["setup_s"] for h, r in results.items()})
    print(f"ops attempted={attempted} failed={len(failures)}")
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
