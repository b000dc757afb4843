"""Tier-1 guard for the repo-specific AST lint (tools/check_layering.py).

Two halves: the linter's rules must *fire* on synthetic bad code (so the
tool can't silently rot), and the real ``src/repro`` tree must be clean
(so a layering/nondeterminism regression fails the suite, not just CI).
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_layering import (  # noqa: E402
    LOW_LAYERS,
    Violation,
    lint_file,
    lint_paths,
    main,
)


def _lint_snippet(tmp_path, rel_path: str, code: str) -> list[Violation]:
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code)
    return lint_file(path)


class TestLayeringRule:
    @pytest.mark.parametrize("stmt", [
        "from repro.api import connect",
        "import repro.api",
        "import repro.cli",
        "from repro import api",
        "from repro.api.session import Session",
    ])
    @pytest.mark.parametrize("layer", ["core", "engine", "consistency"])
    def test_low_layer_importing_top_flagged(self, tmp_path, layer, stmt):
        violations = _lint_snippet(
            tmp_path, f"src/repro/{layer}/mod.py", stmt + "\n"
        )
        assert [v.rule for v in violations] == ["layering"]

    @pytest.mark.parametrize("rel", [
        "src/repro/api/session.py",      # the facade itself
        "src/repro/cli.py",              # the CLI
        "src/repro/cleaning/repair.py",  # orchestrates sessions, sits on top
        "src/repro/__init__.py",         # package root re-exports the facade
    ])
    def test_top_of_stack_modules_exempt(self, tmp_path, rel):
        violations = _lint_snippet(
            tmp_path, rel, "from repro.api import connect\n"
        )
        assert violations == []

    @pytest.mark.parametrize("stmt", [
        "import repro.serve",
        "from repro.serve import DetectionService",
        "from repro import serve",
    ])
    @pytest.mark.parametrize("rel", [
        "src/repro/api/session.py",      # the facade may not know serve
        "src/repro/engine/mod.py",       # nor anything under it
        "src/repro/core/mod.py",
    ])
    def test_serve_layer_is_import_terminal(self, tmp_path, rel, stmt):
        violations = _lint_snippet(tmp_path, rel, stmt + "\n")
        assert [v.rule for v in violations] == ["layering"]

    @pytest.mark.parametrize("rel, stmt", [
        # serve sits above the facade: importing api is its whole job
        ("src/repro/serve/service.py", "from repro.api import connect"),
        # the CLI is the one module allowed to import both layers
        ("src/repro/cli.py", "from repro.serve import DetectionServer"),
        ("src/repro/cli.py", "from repro.api import connect"),
    ])
    def test_serve_and_cli_edges_allowed(self, tmp_path, rel, stmt):
        assert _lint_snippet(tmp_path, rel, stmt + "\n") == []

    @pytest.mark.parametrize("stmt", [
        "from repro.engine.shards import cfd_map_shard",
        "from repro.engine.cache import ScanCache",
    ])
    def test_windows_pin_blocks_engine_state(self, tmp_path, stmt):
        """The window-function SQL takes plan types only: the scan
        kernels and the cache stay outside its allowlist."""
        violations = _lint_snippet(
            tmp_path, "src/repro/sql/windows.py", stmt + "\n"
        )
        assert [v.rule for v in violations] == ["layering"]

    @pytest.mark.parametrize("stmt", [
        "from repro.errors import SchemaError",
        "from repro.relational.values import Variable",
        "from repro.relational.schema import RelationSchema",
    ])
    def test_instance_pin_allows_relational_surface(self, tmp_path, stmt):
        assert _lint_snippet(
            tmp_path, "src/repro/relational/instance.py", stmt + "\n"
        ) == []

    @pytest.mark.parametrize("stmt", [
        "from repro.engine.cache import ScanCache",
        "import repro.engine",
        "from repro.api.session import Session",
        "from repro.core.cfd import CFD",
    ])
    def test_instance_pin_blocks_engine_and_api(self, tmp_path, stmt):
        """The relation store may not reach up into the caches, the
        facade, or anything else above the relational layer."""
        violations = _lint_snippet(
            tmp_path, "src/repro/relational/instance.py", stmt + "\n"
        )
        assert violations and {v.rule for v in violations} == {"layering"}

    def test_low_layers_cover_the_real_tree(self):
        """Every library package under src/repro is in LOW_LAYERS (new
        packages must be classified, not silently unlinted)."""
        exempt = {"api", "cleaning", "serve"}
        packages = {
            p.name
            for p in (REPO_ROOT / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        }
        low = {prefix.split(".", 1)[1] for prefix in LOW_LAYERS}
        assert packages - exempt == low


class TestMutableDefaultRule:
    @pytest.mark.parametrize("code", [
        "def f(x=[]):\n    return x\n",
        "def f(x={}):\n    return x\n",
        "def f(*, x=set()):\n    return x\n",
        "def f(x=dict()):\n    return x\n",
        "async def f(x=[1, 2]):\n    return x\n",
    ])
    def test_flagged(self, tmp_path, code):
        violations = _lint_snippet(tmp_path, "mod.py", code)
        assert [v.rule for v in violations] == ["mutable-default"]

    @pytest.mark.parametrize("code", [
        "def f(x=None):\n    return x\n",
        "def f(x=()):\n    return x\n",
        "def f(x=frozenset()):\n    return x\n",
        # argful dict() is still shared, but rare and noisy to ban outright
        "def f(x=dict(a=1)):\n    return x\n",
    ])
    def test_not_flagged(self, tmp_path, code):
        assert _lint_snippet(tmp_path, "mod.py", code) == []


class TestNondeterminismRule:
    @pytest.mark.parametrize("code", [
        "import random\nrandom.shuffle(xs)\n",
        "import random\nx = random.random()\n",
        "import random as r\nx = r.choice(xs)\n",
        "from random import randint\n",
        "import time\nx = time.time()\n",
        "import time\nx = time.time_ns()\n",
        "from time import time\n",
    ])
    def test_flagged_in_core(self, tmp_path, code):
        violations = _lint_snippet(tmp_path, "src/repro/core/mod.py", code)
        assert [v.rule for v in violations] == ["nondeterminism"]

    @pytest.mark.parametrize("code", [
        "import random\nr = random.Random(7)\n",
        "import random\nr = random.SystemRandom()\n",
        "from random import Random\n",
        "import time\nx = time.perf_counter()\n",
        "import time\nx = time.monotonic()\n",
    ])
    def test_seeded_and_monotonic_allowed(self, tmp_path, code):
        assert _lint_snippet(tmp_path, "src/repro/core/mod.py", code) == []

    def test_generator_package_exempt(self, tmp_path):
        violations = _lint_snippet(
            tmp_path, "src/repro/generator/mod.py",
            "import random\nrandom.shuffle(xs)\n",
        )
        assert violations == []


class TestDriver:
    def test_src_repro_is_clean(self):
        """The real tree passes its own lint — the PR-blocking assertion."""
        violations = lint_paths([REPO_ROOT / "src" / "repro"])
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import repro.api\n")
        assert main([str(bad)]) == 1
        assert "layering" in capsys.readouterr().out
        assert main([str(REPO_ROOT / "tools" / "check_layering.py")]) == 0
        assert main([str(tmp_path / "does-not-exist.py")]) == 2

    def test_syntax_error_reported_not_raised(self, tmp_path):
        violations = _lint_snippet(tmp_path, "mod.py", "def broken(:\n")
        assert [v.rule for v in violations] == ["syntax"]
