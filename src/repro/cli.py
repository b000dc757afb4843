"""Command-line interface: check, repair, and analyse CSV data.

Three subcommands, all driven by two small text files plus a directory of
CSVs (one per relation, named ``<relation>.csv``):

* ``check``       — report CFD/CIND violations (any ``repro.api`` backend:
  memory, naive, sql, sqlfile — all print the same report);
* ``repair``      — write a repaired copy of the data (``--data`` may also
  name a sqlite database file, which is read and never written);
* ``consistency`` — run the heuristic Checking algorithm on Σ itself;
* ``lint-sigma``  — static analysis of Σ (no data needed): exact CFD
  consistency, duplicate/implied constraints, CIND chain diagnostics;
* ``serve``       — host the async multi-tenant detection service
  (line-delimited JSON over TCP; see :mod:`repro.serve`).

Schema file syntax (one relation per line, ``#`` comments)::

    relation interest(ab, ct, at: enum[saving|checking], rt)
    relation orders(id: int, country, total: int)

Attribute types: plain (infinite string), ``int`` (infinite integer), or
``enum[v1|v2|...]`` (finite domain). Constraint files use the syntax of
:mod:`repro.core.parser`.

Usage::

    python -m repro check --schema bank.schema --constraints bank.rules \
        --data ./csv_dir
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from pathlib import Path

from repro.api import BACKENDS, ExecutionOptions, connect
from repro.cleaning.repair import repair as run_repair
from repro.consistency.checking import checking
from repro.core.parser import parse_constraints
from repro.errors import ParseError, ReproError
from repro.relational.csvio import read_database_csv, write_database_csv
from repro.relational.domains import INTEGER, FiniteDomain
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

_RELATION_RE = re.compile(
    r"^\s*relation\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*"
    r"\((?P<body>.*)\)\s*$"
)
_ATTR_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*"
    r"(?::\s*(?P<type>int|enum\[(?P<values>[^\]]*)\]))?\s*$"
)


def parse_schema_text(text: str) -> DatabaseSchema:
    """Parse the schema-file syntax into a :class:`DatabaseSchema`."""
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _RELATION_RE.match(line)
        if not match:
            raise ParseError(
                f"line {lineno}: expected 'relation Name(attr, ...)'", raw
            )
        attrs = []
        for chunk in match.group("body").split(","):
            attr_match = _ATTR_RE.match(chunk)
            if not attr_match:
                raise ParseError(
                    f"line {lineno}: cannot parse attribute {chunk!r}", raw
                )
            name = attr_match.group("name")
            type_spec = attr_match.group("type")
            if type_spec is None:
                attrs.append(Attribute(name))
            elif type_spec == "int":
                attrs.append(Attribute(name, INTEGER))
            else:
                values = [
                    v.strip()
                    for v in attr_match.group("values").split("|")
                    if v.strip()
                ]
                domain = FiniteDomain(f"{match.group('name')}.{name}", values)
                attrs.append(Attribute(name, domain))
        relations.append(RelationSchema(match.group("name"), attrs))
    return DatabaseSchema(relations)


def _positive_int(text: str) -> int:
    """argparse type for --workers: reject 0/negatives at parse time so a
    usage mistake exits 2 (usage error), never 1 (the 'dirty data' code)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return value


def _load(args: argparse.Namespace):
    schema = parse_schema_text(Path(args.schema).read_text())
    sigma = parse_constraints(Path(args.constraints).read_text(), schema)
    return schema, sigma


def _load_data(schema: DatabaseSchema, args: argparse.Namespace):
    coercions = {}
    for rel in schema:
        per_attr = {
            a.name: int for a in rel if a.domain is INTEGER
        }
        if per_attr:
            coercions[rel.name] = per_attr
    return read_database_csv(schema, args.data, coercions)


def cmd_check(args: argparse.Namespace) -> int:
    schema, sigma = _load(args)
    # One facade over every engine: identical reports, one printing path,
    # one exit-code rule (1 = dirty), and --verbose works everywhere. The
    # sqlfile engine is out-of-core: --data names a sqlite database file
    # that is checked in place, never loaded into memory.
    if args.engine == "sqlfile":
        source = Path(args.data)
        if source.is_dir():
            raise ReproError(
                "--engine sqlfile expects --data to be a sqlite database "
                "file, not a CSV directory (build one with "
                "repro.relational.csvio.database_csv_to_sqlite)"
            )
        # check never writes: open read-only so write-protected snapshots
        # (chmod 444, ro mounts) are checkable.
        options = ExecutionOptions(workers=args.workers, readonly=True)
    else:
        source = _load_data(schema, args)
        options = ExecutionOptions(workers=args.workers)
    with connect(source, sigma, backend=args.engine, options=options) as session:
        detection = session.detect()
    print(detection.summary() if args.verbose else detection.report.summary())
    return 0 if detection.is_clean else 1


def cmd_repair(args: argparse.Namespace) -> int:
    schema, sigma = _load(args)
    # A file (rather than a CSV directory) is a sqlite database: repair
    # loads it read-only and never mutates it.
    source = Path(args.data)
    if not source.is_file():
        source = _load_data(schema, args)
    result = run_repair(
        source,
        sigma,
        cind_policy=args.cind_policy,
        max_rounds=args.max_rounds,
        workers=args.workers,
        tie_break=args.tie_break,
        rng=random.Random(args.seed),
    )
    kinds = result.edits_by_kind()
    kinds_text = (
        " (" + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())) + ")"
        if kinds
        else ""
    )
    print(
        f"clean: {result.clean}; {result.cost} edit(s){kinds_text} in "
        f"{result.rounds} round(s)"
    )
    if args.verbose:
        for stats in result.round_stats:
            print(
                f"  round {stats.round_no}: worklist={stats.worklist_size} "
                f"({stats.cfd_items} cfd, {stats.cind_items} cind), "
                f"batch={stats.batch_deletes}del/{stats.batch_inserts}ins, "
                f"delta=-{stats.delta_removed}/+{stats.delta_added}, "
                f"cache={stats.cache_hits}h/{stats.cache_misses}m, "
                f"time: worklist {stats.worklist_s * 1e3:.1f} ms, "
                f"plan {stats.plan_s * 1e3:.1f} ms, "
                f"apply {stats.apply_s * 1e3:.1f} ms, "
                f"after {stats.after_s * 1e3:.1f} ms"
            )
        for edit in result.edits:
            print(f"  {edit}")
    write_database_csv(result.db, args.out)
    print(f"repaired data written to {args.out}")
    return 0 if result.clean else 1


def cmd_consistency(args: argparse.Namespace) -> int:
    schema, sigma = _load(args)
    decision = checking(
        schema, sigma, k=args.k, rng=random.Random(args.seed)
    )
    print(f"consistent: {decision.consistent} (method: {decision.method})")
    if decision.consistent and args.verbose and decision.witness is not None:
        print("witness database:")
        for inst in decision.witness:
            for t in inst:
                print(f"  {t!r}")
    if not decision.consistent:
        print(
            "note: the problem is undecidable in general; a negative answer "
            "means no witness was found within budget"
        )
    return 0 if decision.consistent else 1


def cmd_lint_sigma(args: argparse.Namespace) -> int:
    """Static analysis of Σ. Exit codes: 0 clean, 1 errors, 3 warnings-only
    (promoted to 1 under --strict); 2 stays the operational-failure code."""
    from repro.analyze import analyze_sigma

    schema, sigma = _load(args)
    report = analyze_sigma(sigma, implication=not args.no_implication)
    if args.json:
        print(report.to_json_text())
    else:
        print(report.render_text())
    if report.errors:
        return 1
    if report.warnings:
        return 1 if args.strict else 3
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Host the async multi-tenant detection service over TCP.

    The schema/constraint pair is parsed once and shared by every tenant;
    clients create tenants (inline rows, or a sqlite file path for the
    ``sqlfile`` backend), apply batches, read reports, and subscribe to
    violation deltas over line-delimited JSON — see
    :mod:`repro.serve.protocol` for the op reference and
    ``examples/serve_demo.py`` for a complete client.
    """
    import asyncio

    from repro.serve import DetectionServer, DetectionService

    schema, sigma = _load(args)
    service = DetectionService(
        capacity=args.capacity, max_workers=args.workers
    )
    server = DetectionServer(
        service, schema, sigma, host=args.host, port=args.port
    )

    async def run() -> None:
        await server.start()
        host, port = server.address
        print(f"repro serve: listening on {host}:{port} (NDJSON over TCP)")
        sys.stdout.flush()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conditional dependencies (CINDs + CFDs): check, repair, analyse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_data: bool = True) -> None:
        p.add_argument("--schema", required=True, help="schema file")
        p.add_argument("--constraints", required=True, help="constraint file")
        if with_data:
            p.add_argument(
                "--data", required=True,
                help="directory of <relation>.csv files, or a sqlite "
                "database file (repair takes either; check takes a file "
                "with --engine sqlfile)",
            )
        p.add_argument("-v", "--verbose", action="store_true")

    p_check = sub.add_parser("check", help="detect CFD/CIND violations")
    common(p_check)
    p_check.add_argument(
        "--engine",
        choices=tuple(sorted(BACKENDS)),
        default="memory",
        help="memory = shared-scan engine (default); naive = per-constraint "
        "reference evaluation; sql = sqlite3 backend; sqlfile = out-of-core "
        "detection inside an existing sqlite file (--data names the "
        "file). All engines print the same report.",
    )
    p_check.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel scan-group workers (memory engine only; default 1)",
    )
    p_check.set_defaults(func=cmd_check)

    p_repair = sub.add_parser("repair", help="repair violations and write a copy")
    common(p_repair)
    p_repair.add_argument("--out", required=True, help="output directory")
    p_repair.add_argument("--cind-policy", choices=("insert", "delete"), default="insert")
    p_repair.add_argument("--max-rounds", type=int, default=10)
    p_repair.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel scan-group workers for each detection round",
    )
    p_repair.add_argument(
        "--tie-break",
        choices=("first", "lexicographic", "random"),
        default="first",
        help="CFD majority-vote tie policy: first tied value in scan "
        "order (default, the historical behaviour), smallest under a "
        "type-stable sort, or drawn with the --seed RNG",
    )
    p_repair.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for --tie-break random (default 0)",
    )
    p_repair.set_defaults(func=cmd_repair)

    p_cons = sub.add_parser("consistency", help="check Σ itself for consistency")
    common(p_cons, with_data=False)
    p_cons.add_argument("--k", type=int, default=20, help="RandomChecking attempts")
    p_cons.add_argument("--seed", type=int, default=0)
    p_cons.set_defaults(func=cmd_consistency)

    p_lint = sub.add_parser(
        "lint-sigma",
        help="static analysis of Σ: consistency, redundancy, CIND chains",
    )
    common(p_lint, with_data=False)
    p_lint.add_argument(
        "--json", action="store_true",
        help="machine-readable report on stdout instead of text",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 on warnings too (default: warnings-only exits 3)",
    )
    p_lint.add_argument(
        "--no-implication", action="store_true",
        help="skip the implied-constraint tier (bounded chase / two-tuple "
        "SAT) — faster on large Σ",
    )
    p_lint.set_defaults(func=cmd_lint_sigma)

    p_serve = sub.add_parser(
        "serve",
        help="host the async multi-tenant detection service "
        "(line-delimited JSON over TCP)",
    )
    common(p_serve, with_data=False)
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=7407,
        help="TCP port (default 7407; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--capacity", type=_positive_int, default=64,
        help="max open tenants before LRU eviction (default 64)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=4,
        help="thread-executor size for detection/DML work (default 4)",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
