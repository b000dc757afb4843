"""The historical eager repair loop, the reference the engine must match.

``repro.cleaning.repair.repair`` plans each round as one batch; this loop
applies one mutation per violated group or tuple and re-checks the
whole database every round. The engine's final database must be bit-identical
to this loop's (content and iteration order). ``bench_repair.py`` holds
every timed run to it, and ``tests/test_repair_engine.py`` holds random
inputs to it.
"""

from __future__ import annotations

from collections import Counter

from repro.cleaning.planner import default_fill
from repro.core.violations import check_database
from repro.relational.instance import Tuple
from repro.relational.values import is_wildcard


def seed_eager_repair(db, sigma, max_rounds=10):
    """The historical repair loop, kept verbatim as the reference.

    One full ``check_database`` per round, one mutation per violated
    group/tuple, ``Counter`` insertion-order tie-breaks — the semantics
    the engine must reproduce bit-for-bit (its default
    ``tie_break="first"`` is exactly this loop's implicit tie rule).
    CIND violations always take the insert policy. Returns the repaired
    copy, the edit log and whether a final check finds it clean.
    """
    work = db.copy()
    edits = []
    counter = [0]
    for __round_no in range(1, max(0, max_rounds) + 1):
        report = check_database(work, sigma)
        if report.is_clean:
            return work, edits, True
        for violation in report.cfd_violations:
            cfd = violation.cfd
            instance = work[cfd.relation.name]
            group = [t for t in violation.tuples if t in instance]
            if not group:
                continue
            row = cfd.tableau[violation.pattern_index]
            rhs_pattern = row.rhs_projection(cfd.rhs)
            constants = [v for v in rhs_pattern if not is_wildcard(v)]
            if len(constants) == len(rhs_pattern):
                target = tuple(rhs_pattern)
            else:
                votes = Counter(t.project(cfd.rhs) for t in group)
                majority = votes.most_common(1)[0][0]
                target = tuple(
                    v if not is_wildcard(v) else majority[i]
                    for i, v in enumerate(rhs_pattern)
                )
            for t in group:
                if t.project(cfd.rhs) == target:
                    continue
                after = t.replace(**dict(zip(cfd.rhs, target)))
                instance.discard(t)
                instance.add(after)
                edits.append(("modify", cfd.relation.name, t, after))
        for violation in report.cind_violations:
            cind = violation.cind
            t1 = violation.tuple_
            if t1 not in work[cind.lhs_relation.name]:
                continue
            row = cind.tableau[violation.pattern_index]
            if cind.find_witness(work, t1, row) is not None:
                continue
            template = cind.required_rhs_template(t1, row)
            values = {
                attr: (
                    default_fill(cind.rhs_relation, attr, counter)
                    if is_wildcard(value)
                    else value
                )
                for attr, value in template.items()
            }
            work[cind.rhs_relation.name].add(Tuple(cind.rhs_relation, values))
            edits.append(("insert", cind.rhs_relation.name, None, values))
    return work, edits, check_database(work, sigma).is_clean
