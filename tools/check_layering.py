#!/usr/bin/env python
"""Repo-specific AST lint: layering, mutable defaults, nondeterminism.

Three rule families, each encoding an invariant the test suite relies on
but ordinary linters don't know about:

* **layering** — ``repro.api`` (the Session facade), ``repro.cli``, and
  ``repro.serve`` (the service layer) sit *on top of* the library. The
  core layers (``LOW_LAYERS``: ``core``, ``engine``, ``consistency``,
  ``relational``, ``sql``, ``graph``, ``analyze``, ``generator``,
  ``datasets``, ``logic``) importing them would invert the dependency
  stack and eventually cycle. Within the top of the stack there is one
  more edge: ``repro.serve`` imports ``repro.api``, never the reverse —
  the facade must stay hostable without knowing about the service. The
  package root (which re-exports the facade), ``__main__``, and
  ``cleaning`` (which *orchestrates* sessions) are deliberately above
  the facade and exempt.

* **layering** also enforces per-module *import allowlists*
  (``MODULE_IMPORT_ALLOWLISTS``) for modules whose dependency surface is
  deliberately narrow. ``repro.sql.windows`` — the CFD candidate
  prefilter — may reach only the planner's scan-group types, the
  relational schema types, and its sql siblings (ddl, loader); growing
  an import there (say, on the columnar views or the matching layer)
  widens what a pushed-down scan can observe and must be a reviewed
  decision, not drift. ``repro.relational.instance`` — the column store
  — may import only ``repro.errors`` and its relational siblings.
  ``repro.analyze.analyzer`` and ``repro.analyze.redundancy`` — static
  analysis of Σ — may import only ``repro.analyze``, ``repro.core`` and
  ``repro.errors``: what they prove about Σ never reaches into the
  detection engine's plans.

* **mutable-default** — a ``def f(x=[])``-style default is shared across
  calls; every instance found in review so far was a latent bug. Literal
  list/dict/set displays and zero-argument ``list()``/``dict()``/
  ``set()`` calls are flagged.

* **nondeterminism** — detection and reasoning must be reproducible:
  identical inputs, identical reports, byte for byte. Module-level
  randomness (``random.random()``, ``random.shuffle``, ... — anything on
  the shared global generator) and wall-clock reads (``time.time``,
  ``time.time_ns``) are forbidden outside ``repro/generator/``
  (whose whole job is seeded randomness). Explicitly seeded
  ``random.Random(seed)`` / ``random.SystemRandom`` instances are fine
  anywhere, as are the monotonic timers (``perf_counter`` etc.).

Usage::

    python tools/check_layering.py              # lints src/repro
    python tools/check_layering.py path/to/file.py dir/ ...

Exit status 0 when clean, 1 when any violation is found. Also imported
by ``tests/test_layering.py``, which keeps the tree clean in tier 1.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: The top of the stack: nothing in LOW_LAYERS may import these.
TOP_LAYERS = ("repro.api", "repro.cli", "repro.serve")

#: The serving layer sits *above* the Session facade: ``repro.serve``
#: may import ``repro.api``, but the facade (and, via LOW_LAYERS,
#: everything under it — engine, core, ...) must never import
#: ``repro.serve``: the library cannot depend on the service hosting it.
#: ``repro.cli`` is the one module allowed to import both.
SERVE_LAYER = "repro.serve"
SERVE_FORBIDDEN_IMPORTERS = ("repro.api",)

#: The library layers underneath the facade. Anything else under repro/
#: (the package root, __main__, cleaning) is allowed to sit on top of it.
LOW_LAYERS = (
    "repro.analyze",
    "repro.chase",
    "repro.consistency",
    "repro.core",
    "repro.datasets",
    "repro.engine",
    "repro.generator",
    "repro.graph",
    "repro.logic",
    "repro.matching",
    "repro.relational",
    "repro.sql",
    "repro.views",
)

#: Modules pinned to an explicit set of allowed ``repro.*`` import
#: prefixes. Keyed by dotted module name; any ``repro.*`` import from
#: that module whose target matches none of the prefixes is flagged.
#: ``repro.sql.windows`` builds the CFD candidate prefilter over arbitrary
#: database files — its inputs are meant to be *only* plan types, schema
#: types, and the sql layer's own DDL/URI helpers. It picks candidate
#: keys and decides nothing: the engine's kernel decides, called by the
#: executor, so the kernel and the cache stay outside this allowlist.
MODULE_IMPORT_ALLOWLISTS: dict[str, tuple[str, ...]] = {
    "repro.sql.windows": (
        "repro.engine.planner",
        "repro.relational",
        "repro.sql.ddl",
        "repro.sql.loader",
    ),
    # The repair planner is pure decision logic: constraint types,
    # pattern matching, and relational values in — a RoundPlan out. It
    # must never touch a Session or a backend; keeping it
    # side-effect-free is what makes planned batches provably equivalent
    # to the historical eager loop (and trivially testable).
    "repro.cleaning.planner": (
        "repro.core",
        "repro.relational",
    ),
    # The relation store (columns, row ids, indexes, Tuple views) is the
    # bottom of the data path: errors and its relational siblings only.
    # Importing an engine cache or the facade would let storage depend on
    # the layers that read it.
    "repro.relational.instance": (
        "repro.errors",
        "repro.relational",
    ),
    # Static analysis of Σ reads constraints, not data: its findings are
    # reports about Σ, and detection needs none of them (duplicates
    # already share their scans), so neither module may import the
    # engine's planner or anything else above the constraint layer.
    "repro.analyze.analyzer": (
        "repro.analyze",
        "repro.core",
        "repro.errors",
    ),
    "repro.analyze.redundancy": (
        "repro.analyze",
        "repro.core",
        "repro.errors",
    ),
}

#: ``random`` attributes that are deterministic to *construct* — seeded
#: generator classes; everything else on the module is global state.
RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: ``time`` attributes that read the wall clock (monotonic timers are fine).
TIME_FORBIDDEN = frozenset({"time", "time_ns"})


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _module_name(path: Path) -> str | None:
    """Dotted module name of *path*, if it lives under a ``repro`` tree."""
    parts = list(path.with_suffix("").parts)
    if "repro" not in parts:
        return None
    parts = parts[parts.index("repro"):]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_low_layer(module: str | None) -> bool:
    return module is not None and module.startswith(LOW_LAYERS)


def _is_generator_module(module: str | None) -> bool:
    return module is not None and module.startswith("repro.generator")


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, module: str | None):
        self.path = path
        self.module = module
        self.violations: list[Violation] = []
        #: Local aliases of the random/time modules (``import random as r``).
        self._random_aliases: set[str] = set()
        self._time_aliases: set[str] = set()

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, node.lineno, rule, message)
        )

    # -- layering -----------------------------------------------------------

    def _check_layering_target(self, node: ast.AST, target: str) -> None:
        if target.startswith(TOP_LAYERS) and _is_low_layer(self.module):
            self._flag(
                node, "layering",
                f"{self.module or self.path} imports {target!r}: core layers "
                "must not depend on the api/cli/serve layer",
            )
        if (
            target.startswith(SERVE_LAYER)
            and self.module is not None
            and self.module.startswith(SERVE_FORBIDDEN_IMPORTERS)
        ):
            self._flag(
                node, "layering",
                f"{self.module} imports {target!r}: the Session facade must "
                "not depend on the serving layer built on top of it",
            )
        allowed = MODULE_IMPORT_ALLOWLISTS.get(self.module or "")
        if (
            allowed is not None
            and target.startswith("repro")
            and not target.startswith(allowed)
        ):
            self._flag(
                node, "layering",
                f"{self.module} imports {target!r}, outside its pinned "
                f"allowlist ({', '.join(allowed)}); widening this module's "
                "dependency surface is a reviewed decision — see "
                "MODULE_IMPORT_ALLOWLISTS",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_layering_target(node, alias.name)
            if alias.name == "random":
                self._random_aliases.add(alias.asname or "random")
            elif alias.name == "time":
                self._time_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0:
            self._check_layering_target(node, module)
            if module == "repro":
                for alias in node.names:
                    self._check_layering_target(node, f"repro.{alias.name}")
            if module == "random" and not _is_generator_module(self.module):
                for alias in node.names:
                    if alias.name not in RANDOM_ALLOWED:
                        self._flag(
                            node, "nondeterminism",
                            f"from random import {alias.name}: global-"
                            "generator randomness outside repro/generator "
                            "(use an explicit random.Random(seed))",
                        )
            if module == "time" and not _is_generator_module(self.module):
                for alias in node.names:
                    if alias.name in TIME_FORBIDDEN:
                        self._flag(
                            node, "nondeterminism",
                            f"from time import {alias.name}: wall-clock read "
                            "(use time.perf_counter for durations)",
                        )
        self.generic_visit(node)

    # -- nondeterminism -----------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and not _is_generator_module(self.module)
        ):
            base = node.value.id
            if (
                base in self._random_aliases
                and node.attr not in RANDOM_ALLOWED
            ):
                self._flag(
                    node, "nondeterminism",
                    f"random.{node.attr}: global-generator randomness "
                    "outside repro/generator (use an explicit "
                    "random.Random(seed))",
                )
            elif base in self._time_aliases and node.attr in TIME_FORBIDDEN:
                self._flag(
                    node, "nondeterminism",
                    f"time.{node.attr}: wall-clock read (use "
                    "time.perf_counter for durations)",
                )
        self.generic_visit(node)

    # -- mutable defaults ---------------------------------------------------

    @staticmethod
    def _is_mutable_default(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in {"list", "dict", "set"}
            and not expr.args
            and not expr.keywords
        )

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_default(default):
                self._flag(
                    default, "mutable-default",
                    f"mutable default argument in {node.name}() is shared "
                    "across calls (default to None, or a tuple/frozenset)",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_file(path: Path) -> list[Violation]:
    """All violations in one python source file."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(str(path), exc.lineno or 0, "syntax", str(exc))]
    linter = _Linter(str(path), _module_name(path))
    linter.visit(tree)
    return linter.violations


def lint_paths(paths: list[Path]) -> list[Violation]:
    """All violations under *paths* (files, or directories walked for .py)."""
    violations: list[Violation] = []
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            violations.extend(lint_file(file))
    return violations


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repo_root = Path(__file__).resolve().parent.parent
    targets = [Path(a) for a in argv] or [repo_root / "src" / "repro"]
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    violations = lint_paths(targets)
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"\n{len(violations)} violation(s) "
            f"(rules: layering / mutable-default / nondeterminism; see "
            f"tools/check_layering.py docstring)",
            file=sys.stderr,
        )
        return 1
    print(f"layering lint: {len(targets)} target(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
