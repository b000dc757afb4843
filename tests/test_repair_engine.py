"""Tests for the round-batched repair engine (planner + carried checks).

Covers the three historical ``repair.py`` bugs (each test here fails on
the pre-engine seed code), the one-invalidation-per-round batching
contract, reference comparisons (file inputs, multi-round chains,
session routing), and the Hypothesis property suite: oracle-verified
cleanliness, edit-log replay, and agreement with the historical eager
loop.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.api.backends import MemoryBackend
from repro.cleaning.planner import RepairPlanner
from repro.cleaning.repair import RoundStats, repair, replay_edits
from repro.core.cfd import CFD, standard_fd
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD as _

from benchmarks._eager_repair import seed_eager_repair
from tests.strategies import cfds as cfd_strategy
from tests.strategies import cinds as cind_strategy
from tests.strategies import database_schemas, instances


def snap(db):
    """Content *and* iteration order of every relation."""
    return {name: list(inst.rows()) for name, inst in db.relations().items()}


def dirty_bank(n=120, error_rate=0.25, seed=17):
    return scaled_bank_instance(n, error_rate=error_rate, seed=seed)


def self_feeding_cind():
    """R[A] ⊆ R[B] over one row: every inserted witness needs a witness
    of its own, so the default fill never converges."""
    r = RelationSchema("R", ["A", "B"])
    schema = DatabaseSchema([r])
    cind = CIND(r, ("A",), (), r, ("B",), (), [((_,), (_,))], name="loop")
    sigma = ConstraintSet(schema, cinds=[cind])
    return DatabaseInstance(schema, {"R": [("a0", "b0")]}), sigma


@pytest.fixture()
def kv_tie_db():
    """Two-tuple group with a 1-1 majority tie on the RHS."""
    r = RelationSchema("R", ["ID", "K", "V"])
    schema = DatabaseSchema([r])
    sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
    db = DatabaseInstance(
        schema, {"R": [("1", "k", "left"), ("2", "k", "right")]}
    )
    return db, sigma


class TestRoundsReporting:
    """Bug 1: ``rounds`` must be the number of rounds that executed."""

    def test_nonpositive_round_cap_reports_zero(self):
        # The seed loop returned rounds=max_rounds (-1) with zero rounds
        # executed.
        db = dirty_bank(50, 0.3, 2)
        sigma = bank_constraints()
        result = repair(db, sigma, max_rounds=-1)
        assert result.rounds == 0
        assert not result.clean
        assert result.cost == 0
        assert result.round_stats == []

    def test_zero_round_cap_reports_zero(self):
        result = repair(dirty_bank(), bank_constraints(), max_rounds=0)
        assert result.rounds == 0 and not result.clean

    def test_fixpoint_before_cap(self):
        # bank repairs in one round; a generous cap must not be reported.
        db = dirty_bank()
        sigma = bank_constraints()
        result = repair(db, sigma, max_rounds=50)
        assert result.clean
        assert result.rounds == len(result.round_stats)
        assert 0 < result.rounds < 50

    def test_cap_reached_reports_cap(self):
        db, sigma = self_feeding_cind()
        result = repair(db, sigma, cind_policy="insert", max_rounds=4)
        assert result.rounds == 4
        assert not result.clean
        assert result.clean == check_database(result.db, sigma).is_clean


class TestTieBreaking:
    """Bug 2: majority-vote ties are explicit and ``rng`` is honoured."""

    def test_tie_repairs_identically_across_runs(self, kv_tie_db):
        db, sigma = kv_tie_db
        outcomes = {
            frozenset(t["V"] for t in repair(db.copy(), sigma).db["R"])
            for __ in range(5)
        }
        assert len(outcomes) == 1

    def test_default_first_matches_scan_order(self, kv_tie_db):
        db, sigma = kv_tie_db
        result = repair(db, sigma)  # tie_break="first"
        assert {t["V"] for t in result.db["R"]} == {"left"}

    def test_lexicographic_tie_break(self, kv_tie_db):
        db, sigma = kv_tie_db
        result = repair(db, sigma, tie_break="lexicographic")
        # ("left",) < ("right",) under the repr-based key.
        assert {t["V"] for t in result.db["R"]} == {"left"}

    def test_random_tie_break_uses_rng(self, kv_tie_db):
        db, sigma = kv_tie_db
        picks = {
            tuple(
                sorted(
                    t["V"]
                    for t in repair(
                        db.copy(),
                        sigma,
                        tie_break="random",
                        rng=random.Random(seed),
                    ).db["R"]
                )
            )
            for seed in range(12)
        }
        # Across seeds both tied values get picked; per seed it's stable.
        assert len(picks) == 2
        for seed in range(3):
            a = repair(db.copy(), sigma, tie_break="random", rng=random.Random(seed))
            b = repair(db.copy(), sigma, tie_break="random", rng=random.Random(seed))
            assert snap(a.db) == snap(b.db)

    def test_bad_tie_break_rejected(self, kv_tie_db):
        db, sigma = kv_tie_db
        with pytest.raises(ValueError):
            repair(db, sigma, tie_break="wat")

    def test_planner_validates_tie_break(self):
        r = RelationSchema("R", ["A"])
        db = DatabaseInstance(DatabaseSchema([r]))
        with pytest.raises(ValueError):
            RepairPlanner(db, tie_break="nope")


class TestMergeDetection:
    """Bug 3: rewrites whose target already exists are merges."""

    def test_colliding_rewrite_recorded_as_merge(self):
        # (k, bad) rewrites to (k, good), which already exists: under set
        # semantics the group shrinks by one — a merge, not a modify.
        r = RelationSchema("R", ["K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(schema, {"R": [("k", "good"), ("k", "bad")]})
        result = repair(db, sigma)
        assert result.clean
        assert [e.kind for e in result.edits] == ["merge"]
        assert len(list(result.db["R"])) == 1

    def test_merge_differential_vs_naive_oracle(self):
        r = RelationSchema("R", ["K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(
            schema,
            {"R": [("k", "x"), ("k", "x2"), ("k", "x3"), ("j", "y")]},
        )
        result = repair(db.copy(), sigma)
        assert result.clean == check_database(result.db, sigma).is_clean
        assert result.clean
        # Replaying the log (merges included) reproduces the final state.
        assert snap(replay_edits(db, result.edits)) == snap(result.db)
        # Majority "x" absorbs the two rewritten tuples: 4 - 2 merges.
        kinds = [e.kind for e in result.edits]
        assert kinds.count("merge") == 2
        assert len(list(result.db["R"])) == 2

    def test_merge_cost_counts_what_happened(self):
        r = RelationSchema("R", ["K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(schema, {"R": [("k", "good"), ("k", "bad")]})
        result = repair(db, sigma)
        assert result.cost == 1
        assert result.edits_by_kind() == {"merge": 1}


class TestBatching:
    def test_one_invalidation_per_round(self, bank, monkeypatch):
        # bank has two violations (phi3 CFD + psi6 CIND); the seed loop
        # paid one apply each. The engine batches: one invalidation per
        # executed round, none from single-row DML.
        calls = []
        original = MemoryBackend._invalidate

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(MemoryBackend, "_invalidate", counting)
        result = repair(bank.db, bank.constraints)
        assert result.clean
        # Both violations were on the round-1 worklist (the CFD rewrite
        # happens to create the CIND's witness, so one edit fixes both).
        assert result.round_stats[0].worklist_size == 2
        assert len(calls) == result.rounds

    @pytest.mark.parametrize("n", [300, 2000])
    def test_a_round_builds_no_index_and_rescans_no_unit(self, n):
        """The planner looks for CIND witnesses among the round's planned
        inserts only, and the carried check after the batch reads the
        touched keys by passes: no hash index is left on any relation,
        and no unit re-scans."""
        result = repair(
            scaled_bank_instance(n, error_rate=0.05, seed=7), bank_constraints()
        )
        assert result.clean and result.rounds >= 1
        assert {
            name: instance._indexes for name, instance in result.db.relations().items()
            if instance._indexes
        } == {}
        for stats in result.round_stats:
            assert stats.cache_misses == 0 and stats.cache_hits > 0

    def test_round_stats_observability(self):
        db = dirty_bank(200, 0.3, 5)
        sigma = bank_constraints()
        result = repair(db, sigma)
        assert result.clean
        assert len(result.round_stats) == result.rounds
        total_edits = 0
        for stats in result.round_stats:
            assert isinstance(stats, RoundStats)
            assert stats.worklist_size == stats.cfd_items + stats.cind_items
            assert stats.batch_deletes + stats.batch_inserts > 0
            total_edits += sum(stats.edits.values())
            assert stats.delta_removed >= 0 and stats.delta_added >= 0
            for seconds in (stats.worklist_s, stats.plan_s, stats.apply_s,
                            stats.after_s):
                assert seconds > 0
        assert total_edits == len(result.edits)
        # The check after the last batch found nothing left.
        last = result.round_stats[-1]
        assert last.delta_removed > 0 and last.delta_added == 0
        assert last.cache_hits + last.cache_misses > 0
        # A capped run takes its verdict from one more carried check, so
        # its last round's delta is measured too: each witness the loop
        # CIND inserts resolves one violation and needs a witness itself.
        db, sigma = self_feeding_cind()
        capped = repair(db, sigma, max_rounds=3)
        assert capped.rounds == 3 and not capped.clean
        assert [(s.delta_removed, s.delta_added) for s in capped.round_stats] == [
            (1, 1), (1, 1), (1, 1)
        ]


class TestDeltaFullEquivalence:
    """The engine's carried checks (one delta per round) against the full
    re-checks of the eager loop and of an in-memory repair."""

    def test_sqlfile_identical(self, tmp_path):
        from repro.sql.loader import create_database_file, read_database_file

        db = dirty_bank(150, 0.25, 4)
        sigma = bank_constraints()
        reference = repair(db.copy(), sigma)
        assert snap(reference.db) == snap(seed_eager_repair(db, sigma)[0])
        # Path input: the source file is loaded read-only, never mutated.
        path = tmp_path / "dirty.sqlite"
        create_database_file(path, db)
        result = repair(path, sigma)
        assert snap(result.db) == snap(reference.db)
        assert snap(read_database_file(path, sigma.schema)) == snap(db)

    def test_multi_round_cind_chain(self):
        # A CIND witness insertion violates a CFD on the RHS relation, so
        # round 2 must see (only) the delta the batch introduced.
        s = RelationSchema("S", ["K", "V"])
        t = RelationSchema("T", ["K", "V"])
        schema = DatabaseSchema([s, t])
        cind = CIND(s, ("K",), (), t, ("K",), (), [((_,), (_,))], name="s_in_t")
        cfd = CFD(t, ("K",), ("V",), [(("k1",), ("right",))], name="t_kv")
        sigma = ConstraintSet(schema, cfds=[cfd], cinds=[cind])
        db = DatabaseInstance(
            schema, {"S": [("k1", "x"), ("k2", "y")], "T": [("k2", "ok")]}
        )
        reference, __, reference_clean = seed_eager_repair(db, sigma)
        assert reference_clean
        result = repair(db.copy(), sigma)
        assert result.clean and result.rounds == 2
        assert snap(result.db) == snap(reference)

    def test_session_repair_routes_backend(self):
        db = dirty_bank(80, 0.25, 6)
        sigma = bank_constraints()
        with connect(db, sigma, backend="sql") as session:
            result = session.repair()
        assert result.clean
        assert snap(result.db) == snap(repair(db.copy(), sigma).db)
        # The session's own database is untouched.
        assert snap(db) == snap(dirty_bank(80, 0.25, 6))


def _draw_sigma_and_db(data):
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    sigma = ConstraintSet(schema)
    for __ in range(data.draw(st.integers(min_value=0, max_value=2))):
        sigma.add_cfd(data.draw(cfd_strategy(data.draw(st.sampled_from(rels)))))
    for __ in range(data.draw(st.integers(min_value=0, max_value=2))):
        src = data.draw(st.sampled_from(rels))
        dst = data.draw(st.sampled_from(rels))
        sigma.add_cind(data.draw(cind_strategy(src, dst, max_rows=2)))
    db = data.draw(instances(schema, max_tuples=8))
    return sigma, db


class TestRepairProperties:
    @pytest.mark.parametrize("cind_policy", ["insert", "delete"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_clean_flag_matches_naive_oracle(self, cind_policy, data):
        sigma, db = _draw_sigma_and_db(data)
        result = repair(db, sigma, cind_policy=cind_policy, max_rounds=6)
        assert result.clean == check_database(result.db, sigma).is_clean

    @pytest.mark.parametrize("cind_policy", ["insert", "delete"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_edit_replay_reproduces_result(self, cind_policy, data):
        sigma, db = _draw_sigma_and_db(data)
        result = repair(db.copy(), sigma, cind_policy=cind_policy, max_rounds=6)
        assert snap(replay_edits(db, result.edits)) == snap(result.db)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_matches_the_eager_loop(self, data):
        """Final database (iteration order included) and verdict equal
        the historical eager loop's, capped runs included."""
        sigma, db = _draw_sigma_and_db(data)
        result = repair(db.copy(), sigma, max_rounds=5)
        eager_db, __, eager_clean = seed_eager_repair(db, sigma, max_rounds=5)
        assert snap(result.db) == snap(eager_db)
        assert result.clean == eager_clean
