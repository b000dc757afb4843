"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_schema_text
from repro.errors import ParseError
from repro.relational.csvio import write_database_csv
from repro.relational.domains import INTEGER, FiniteDomain


SCHEMA_TEXT = """
# the bank target side
relation saving(an, cn, ca, cp, ab)
relation checking(an, cn, ca, cp, ab)
relation interest(ab, ct, at: enum[saving|checking], rt)
"""

RULES_TEXT = """
[psi3] saving[ab ; nil] <= interest[ab ; nil]
[psi6-edi] checking[nil ; ab='EDI'] <= interest[nil ; ab='EDI', at='checking', ct='UK', rt='1.5%']
[phi3-uk-check] interest: ct='UK', at='checking' -> rt='1.5%'
"""


class TestSchemaParser:
    def test_basic(self):
        schema = parse_schema_text(SCHEMA_TEXT)
        assert set(schema.relation_names) == {"saving", "checking", "interest"}
        at = schema.relation("interest").attribute("at")
        assert isinstance(at.domain, FiniteDomain)
        assert set(at.domain.values) == {"saving", "checking"}

    def test_int_type(self):
        schema = parse_schema_text("relation r(a: int, b)")
        assert schema.relation("r").attribute("a").domain is INTEGER

    def test_comments_and_blanks(self):
        schema = parse_schema_text("# hi\n\nrelation r(a)\n")
        assert "r" in schema

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError):
            parse_schema_text("relations r(a)")

    def test_bad_attribute_rejected(self):
        with pytest.raises(ParseError):
            parse_schema_text("relation r(a: float)")


@pytest.fixture
def workspace(tmp_path, bank):
    """Schema/rules files + CSV data dir holding the dirty bank target."""
    schema_file = tmp_path / "bank.schema"
    schema_file.write_text(SCHEMA_TEXT)
    rules_file = tmp_path / "bank.rules"
    rules_file.write_text(RULES_TEXT)
    data_dir = tmp_path / "data"
    schema = parse_schema_text(SCHEMA_TEXT)
    from repro.relational.instance import DatabaseInstance

    db = DatabaseInstance(schema)
    for name in ("saving", "checking", "interest"):
        for t in bank.db[name]:
            db[name].add(t.values)
    write_database_csv(db, data_dir)
    return schema_file, rules_file, data_dir, tmp_path


class TestCheckCommand:
    def test_detects_bank_errors(self, workspace, capsys):
        schema_file, rules_file, data_dir, __ = workspace
        code = main([
            "check", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(data_dir),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "phi3-uk-check" in out
        assert "psi6-edi" in out

    def test_sql_engine(self, workspace, capsys):
        schema_file, rules_file, data_dir, __ = workspace
        code = main([
            "check", "--engine", "sql", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(data_dir), "-v",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "psi6-edi" in out

    def test_clean_data_exit_zero(self, workspace, capsys, bank, tmp_path):
        schema_file, rules_file, __, __tmp = workspace
        clean_dir = tmp_path / "clean"
        schema = parse_schema_text(SCHEMA_TEXT)
        from repro.relational.instance import DatabaseInstance

        db = DatabaseInstance(schema)
        for name in ("saving", "checking", "interest"):
            for t in bank.clean_db[name]:
                db[name].add(t.values)
        write_database_csv(db, clean_dir)
        code = main([
            "check", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(clean_dir),
        ])
        assert code == 0


class TestRepairCommand:
    def test_repairs_and_writes(self, workspace, capsys):
        schema_file, rules_file, data_dir, tmp_path = workspace
        out_dir = tmp_path / "repaired"
        code = main([
            "repair", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(data_dir),
            "--out", str(out_dir), "-v",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean: True" in out
        assert (out_dir / "interest.csv").exists()
        # Re-checking the repaired copy must be clean.
        code = main([
            "check", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(out_dir),
        ])
        assert code == 0

    def test_engine_and_mode_flags(self, workspace, capsys):
        """repair has no engine or mode to pick: both flags are usage
        errors, and -v prints the per-round lines."""
        schema_file, rules_file, data_dir, tmp_path = workspace
        out_dir = tmp_path / "repaired_verbose"
        args = [
            "repair", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(data_dir),
            "--out", str(out_dir), "--tie-break", "first", "-v",
        ]
        for flag in (["--engine", "memory"], ["--mode", "delta"]):
            with pytest.raises(SystemExit) as exc:
                main(args + flag)
            assert exc.value.code == 2
        capsys.readouterr()
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0
        assert "clean: True" in out
        assert "round 1:" in out  # per-round observability under -v
        (line,) = [line for line in out.splitlines() if "round 1:" in line]
        for phase in ("worklist", "plan", "apply", "after"):
            assert f"{phase} " in line.split("time:")[1]

    def test_sqlfile_engine_repairs_database_file(
        self, workspace, capsys, tmp_path
    ):
        from repro.relational.csvio import database_csv_to_sqlite

        schema_file, rules_file, data_dir, __ = workspace
        schema = parse_schema_text(SCHEMA_TEXT)
        db_file = tmp_path / "bank.sqlite"
        database_csv_to_sqlite(schema, data_dir, db_file)
        before = db_file.read_bytes()
        out_dir = tmp_path / "repaired_sqlfile"
        code = main([
            "repair", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(db_file),
            "--out", str(out_dir),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean: True" in out
        # A file is read as a sqlite database and never written.
        assert db_file.read_bytes() == before
        code = main([
            "check", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--data", str(out_dir),
        ])
        assert code == 0


class TestConsistencyCommand:
    def test_consistent_rules(self, workspace, capsys):
        schema_file, rules_file, __, __tmp = workspace
        code = main([
            "consistency", "--schema", str(schema_file),
            "--constraints", str(rules_file), "-v",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent: True" in out

    def test_inconsistent_rules(self, workspace, tmp_path, capsys):
        schema_file, __, __data, __tmp = workspace
        # Every relation's CFD set is contradictory, so no relation can be
        # nonempty — Σ is genuinely inconsistent (a lone pair on `interest`
        # would not be: the other relations could hold the witness tuple).
        bad_rules = tmp_path / "bad.rules"
        bad_rules.write_text(
            "saving: nil -> ab='X'\n"
            "saving: nil -> ab='Y'\n"
            "checking: nil -> ab='X'\n"
            "checking: nil -> ab='Y'\n"
            "interest: nil -> ct='UK'\n"
            "interest: nil -> ct='US'\n"
        )
        code = main([
            "consistency", "--schema", str(schema_file),
            "--constraints", str(bad_rules),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "consistent: False" in out


class TestErrorHandling:
    def test_missing_file_reports_cleanly(self, tmp_path, capsys):
        code = main([
            "consistency", "--schema", str(tmp_path / "nope.schema"),
            "--constraints", str(tmp_path / "nope.rules"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestLintSigmaCommand:
    def test_clean_rules_exit_zero(self, workspace, capsys):
        schema_file, rules_file, __, __tmp = workspace
        code = main([
            "lint-sigma", "--schema", str(schema_file),
            "--constraints", str(rules_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "CFD consistency: ok" in out

    def test_errors_exit_one(self, workspace, tmp_path, capsys):
        schema_file, __, __data, __tmp = workspace
        bad_rules = tmp_path / "bad.rules"
        # Wildcard-premise conflict: every interest tuple would need both.
        bad_rules.write_text(
            "interest: nil -> ct='UK'\n"
            "interest: nil -> ct='US'\n"
        )
        code = main([
            "lint-sigma", "--schema", str(schema_file),
            "--constraints", str(bad_rules),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "INCONSISTENT" in out
        assert "cfd-conflict" in out

    def test_warnings_exit_three_or_strict_one(
        self, workspace, tmp_path, capsys
    ):
        schema_file, __, __data, __tmp = workspace
        looped = tmp_path / "loop.rules"
        looped.write_text(
            "[self] interest[ab ; nil] <= interest[ab ; nil]\n"
        )
        args = [
            "lint-sigma", "--schema", str(schema_file),
            "--constraints", str(looped),
        ]
        code = main(args)
        out = capsys.readouterr().out
        assert code == 3
        assert "cind-self-cycle" in out
        assert main(args + ["--strict"]) == 1

    def test_duplicates_are_info_only_exit_zero(
        self, workspace, tmp_path, capsys
    ):
        schema_file, __, __data, __tmp = workspace
        duped = tmp_path / "dup.rules"
        duped.write_text(
            "[orig] interest: ct='UK', at='checking' -> rt='1.5%'\n"
            "[copy] interest: ct='UK', at='checking' -> rt='1.5%'\n"
        )
        code = main([
            "lint-sigma", "--schema", str(schema_file),
            "--constraints", str(duped),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "duplicate-cfd" in out
        assert "copy" in out

    def test_json_output(self, workspace, tmp_path, capsys):
        import json

        schema_file, __, __data, __tmp = workspace
        duped = tmp_path / "dup.rules"
        duped.write_text(
            "[orig] interest: ct='UK', at='checking' -> rt='1.5%'\n"
            "[copy] interest: ct='UK', at='checking' -> rt='1.5%'\n"
        )
        code = main([
            "lint-sigma", "--schema", str(schema_file),
            "--constraints", str(duped), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["cfds_consistent"] is True
        assert payload["duplicate_cfds"] == {"1": 0}
        codes = {f["code"] for f in payload["findings"]}
        assert "duplicate-cfd" in codes

    def test_no_implication_skips_the_expensive_tier(
        self, workspace, capsys
    ):
        import json

        schema_file, rules_file, __, __tmp = workspace
        code = main([
            "lint-sigma", "--schema", str(schema_file),
            "--constraints", str(rules_file), "--no-implication", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["implication_checked"] is False
