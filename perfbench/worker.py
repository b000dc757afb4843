"""One half of a benchmark run, in its own process.

Started by ``run.py``; not meant to be run by hand. Protocol, one JSON
object per line: after set-up the worker writes ``{"ready": ...}``, then
for each ``step`` line it reads it runs one op (or cycle) and answers
``{"more": bool}``; on ``finish`` it runs the correctness gate, writes
its results and exits. Its spans go to ``--trace-out`` when tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--half", choices=("audit", "stream"), required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--inject-mismatch", action="store_true")
    args = parser.parse_args(argv)

    # The protocol owns the real stdout; anything the program prints
    # goes to stderr instead of corrupting it.
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")

    from perfbench.audit import AuditHalf
    from perfbench.stream import StreamHalf

    cls = AuditHalf if args.half == "audit" else StreamHalf
    half = cls(args.size, args.seed, bool(args.trace), args.workdir,
               args.tag, inject_mismatch=args.inject_mismatch)
    try:
        half.run_setup()
        half.warm_up()
        send({"ready": True})
        for line in sys.stdin:
            command = line.split()
            if command[0] == "step":
                try:
                    half.step()
                except Exception:
                    half.fail("op raised:\n" + traceback.format_exc())
                send({"more": half.needs_more()})
            elif command[0] == "finish":
                result = half.finish()
                if args.trace and args.trace_out is not None:
                    args.trace_out.write_text(json.dumps({
                        "half": args.half,
                        "fields": ["name", "start", "end", "parent", "op",
                                   "rows"],
                        "spans": half.tracer.spans,
                        "gc_pauses": half.tracer.pauses,
                        "ops": half.ops,
                    }))
                send(result)
                break
    finally:
        half.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
