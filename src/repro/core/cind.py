"""Conditional inclusion dependencies (CINDs) — the paper's core contribution.

A CIND ``ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp)`` (Section 2) consists of

* disjoint attribute lists ``X, Xp`` of ``R1`` and ``Y, Yp`` of ``R2`` with
  ``|X| = |Y|``;
* the standard IND ``R1[X] ⊆ R2[Y]`` *embedded* in ``ψ``; and
* a pattern tableau ``Tp`` over ``(X, Xp ‖ Y, Yp)`` with ``tp[X] = tp[Y]``
  for every row.

``(I1, I2) |= ψ`` iff for each ``t1 ∈ I1`` and each row ``tp``: whenever
``t1[X, Xp] ≍ tp[X, Xp]`` there exists ``t2 ∈ I2`` with
``t1[X] = t2[Y] ≍ tp[Y]`` and ``t2[Yp] ≍ tp[Yp]``.

``Xp`` selects which ``R1`` tuples the embedded IND applies to; ``Yp``
constrains the shape of the matching ``R2`` tuples. A standard IND is the
special case ``Xp = Yp = nil`` with a single all-wildcard row.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.core.patterns import PatternTableau, PatternTuple, matches, matches_all
from repro.errors import ConstraintError
from repro.relational.domains import FiniteDomain
from repro.relational.instance import DatabaseInstance, Tuple
from repro.relational.schema import RelationSchema
from repro.relational.values import WILDCARD, is_constant, is_wildcard


def _check_domain_compatibility(
    lhs_relation: RelationSchema,
    x: Sequence[str],
    rhs_relation: RelationSchema,
    y: Sequence[str],
) -> None:
    """Best-effort check of the paper's ``dom(Ai) ⊆ dom(Bi)`` assumption.

    Finite ⊆ finite is checked exactly; finite ⊆ infinite is checked
    value-by-value; infinite ⊆ finite is rejected; two infinite domains must
    be the same domain object (we cannot decide containment otherwise).
    """
    for a_name, b_name in zip(x, y):
        dom_a = lhs_relation.domain_of(a_name)
        dom_b = rhs_relation.domain_of(b_name)
        if dom_a is dom_b:
            continue
        if isinstance(dom_a, FiniteDomain) and isinstance(dom_b, FiniteDomain):
            if not all(dom_b.contains(v) for v in dom_a.values):
                raise ConstraintError(
                    f"dom({lhs_relation.name}.{a_name}) is not contained in "
                    f"dom({rhs_relation.name}.{b_name})"
                )
        elif isinstance(dom_a, FiniteDomain):
            bad = [v for v in dom_a.values if not dom_b.contains(v)]
            if bad:
                raise ConstraintError(
                    f"values {bad!r} of dom({lhs_relation.name}.{a_name}) are "
                    f"outside dom({rhs_relation.name}.{b_name})"
                )
        elif isinstance(dom_b, FiniteDomain):
            raise ConstraintError(
                f"infinite dom({lhs_relation.name}.{a_name}) cannot be "
                f"contained in finite dom({rhs_relation.name}.{b_name})"
            )
        else:
            raise ConstraintError(
                f"cannot verify dom({lhs_relation.name}.{a_name}) ⊆ "
                f"dom({rhs_relation.name}.{b_name}) for distinct infinite "
                f"domains {dom_a.name!r} and {dom_b.name!r}"
            )


class CIND:
    """A conditional inclusion dependency ``(R1[X; Xp] ⊆ R2[Y; Yp], Tp)``.

    Parameters
    ----------
    lhs_relation, rhs_relation:
        Schemas of ``R1`` and ``R2`` (they may be the same relation).
    x, xp:
        Disjoint attribute lists of ``R1``; ``x`` is the LHS of the embedded
        IND, ``xp`` the LHS pattern attributes.
    y, yp:
        Disjoint attribute lists of ``R2``; ``|y| = |x|``.
    tableau:
        Tableau over LHS attributes ``x + xp`` and RHS attributes ``y + yp``;
        each row must satisfy ``tp[X] = tp[Y]`` positionwise.
    name:
        Optional label for reprs and reports.
    """

    def __init__(
        self,
        lhs_relation: RelationSchema,
        x: Sequence[str],
        xp: Sequence[str],
        rhs_relation: RelationSchema,
        y: Sequence[str],
        yp: Sequence[str],
        tableau: PatternTableau | Iterable[Any],
        name: str | None = None,
    ):
        self.lhs_relation = lhs_relation
        self.rhs_relation = rhs_relation
        self.x = lhs_relation.check_attribute_list(x)
        self.xp = lhs_relation.check_attribute_list(xp)
        self.y = rhs_relation.check_attribute_list(y)
        self.yp = rhs_relation.check_attribute_list(yp)
        if set(self.x) & set(self.xp):
            raise ConstraintError(
                f"X and Xp must be disjoint, both contain "
                f"{sorted(set(self.x) & set(self.xp))}"
            )
        if set(self.y) & set(self.yp):
            raise ConstraintError(
                f"Y and Yp must be disjoint, both contain "
                f"{sorted(set(self.y) & set(self.yp))}"
            )
        if len(self.x) != len(self.y):
            raise ConstraintError(
                f"embedded IND is malformed: |X| = {len(self.x)} but "
                f"|Y| = {len(self.y)}"
            )
        _check_domain_compatibility(lhs_relation, self.x, rhs_relation, self.y)
        lhs_attrs = self.x + self.xp
        rhs_attrs = self.y + self.yp
        if isinstance(tableau, PatternTableau):
            if tableau.lhs_attributes != lhs_attrs or tableau.rhs_attributes != rhs_attrs:
                raise ConstraintError(
                    f"tableau attributes {tableau.lhs_attributes} || "
                    f"{tableau.rhs_attributes} do not match ({lhs_attrs} || "
                    f"{rhs_attrs})"
                )
            self.tableau = tableau
        else:
            self.tableau = PatternTableau(lhs_attrs, rhs_attrs, tableau)
        if len(self.tableau) == 0:
            raise ConstraintError("CIND pattern tableau must be nonempty")
        for row in self.tableau:
            for attr, value in row.lhs.items():
                if is_constant(value) and not lhs_relation.domain_of(attr).contains(value):
                    raise ConstraintError(
                        f"pattern constant {value!r} is outside "
                        f"dom({lhs_relation.name}.{attr})"
                    )
            for attr, value in row.rhs.items():
                if is_constant(value) and not rhs_relation.domain_of(attr).contains(value):
                    raise ConstraintError(
                        f"pattern constant {value!r} is outside "
                        f"dom({rhs_relation.name}.{attr})"
                    )
            tp_x = row.lhs_projection(self.x)
            tp_y = row.rhs_projection(self.y)
            for a, b, va, vb in zip(self.x, self.y, tp_x, tp_y):
                same = (va == vb) or (is_wildcard(va) and is_wildcard(vb))
                if not same:
                    raise ConstraintError(
                        f"pattern tuple must satisfy tp[X] = tp[Y]; "
                        f"tp[{a}] = {va!r} but tp[{b}] = {vb!r}"
                    )
        self.name = name

    # -- structural properties ------------------------------------------------

    @property
    def is_standard_ind(self) -> bool:
        """True iff ``Xp = Yp = nil`` and the tableau is one all-wildcard row."""
        if self.xp or self.yp or len(self.tableau) != 1:
            return False
        row = self.tableau[0]
        return all(is_wildcard(v) for v in row.lhs.values()) and all(
            is_wildcard(v) for v in row.rhs.values()
        )

    @property
    def is_normal_form(self) -> bool:
        """Single row whose constants are exactly the ``Xp ∪ Yp`` entries."""
        if len(self.tableau) != 1:
            return False
        row = self.tableau[0]
        for attr in self.x:
            if not is_wildcard(row.lhs_value(attr)):
                return False
        for attr in self.xp:
            if not is_constant(row.lhs_value(attr)):
                return False
        for attr in self.y:
            if not is_wildcard(row.rhs_value(attr)):
                return False
        for attr in self.yp:
            if not is_constant(row.rhs_value(attr)):
                return False
        return True

    @property
    def pattern(self) -> PatternTuple:
        """The single pattern tuple of a normal-form (or single-row) CIND."""
        if len(self.tableau) != 1:
            raise ConstraintError(
                f"{self} has {len(self.tableau)} pattern tuples; use .tableau"
            )
        return self.tableau[0]

    def constants(self) -> set[Any]:
        return self.tableau.constants()

    def lhs_attributes_used(self) -> set[str]:
        return set(self.x) | set(self.xp)

    def rhs_attributes_used(self) -> set[str]:
        return set(self.y) | set(self.yp)

    # -- semantics --------------------------------------------------------------

    def lhs_matches(self, t1: Tuple, row: PatternTuple) -> bool:
        """Does ``t1[X, Xp] ≍ tp[X, Xp]`` hold?"""
        lhs_attrs = self.x + self.xp
        return matches_all(t1.project(lhs_attrs), row.lhs_projection(lhs_attrs))

    def find_witness(
        self, db: DatabaseInstance, t1: Tuple, row: PatternTuple
    ) -> Tuple | None:
        """Find ``t2`` with ``t2[Y] = t1[X]``, ``t2[Yp] ≍ tp[Yp]``, or ``None``."""
        rhs_instance = db[self.rhs_relation.name]
        candidates = rhs_instance.lookup(self.y, t1.project(self.x))
        yp_pattern = row.rhs_projection(self.yp)
        for t2 in candidates:
            if matches_all(t2.project(self.yp), yp_pattern):
                return t2
        return None

    def satisfied_by(self, db: DatabaseInstance) -> bool:
        """Check ``D |= ψ``."""
        for _ in self.iter_violations(db):
            return False
        return True

    def iter_violations(self, db: DatabaseInstance) -> Iterator["CINDViolation"]:
        """Yield one violation per (t1, pattern row) lacking a witness."""
        lhs_instance = db[self.lhs_relation.name]
        for row_index, row in enumerate(self.tableau):
            for t1 in lhs_instance:
                if not self.lhs_matches(t1, row):
                    continue
                if self.find_witness(db, t1, row) is None:
                    yield CINDViolation(
                        cind=self, pattern_index=row_index, tuple_=t1
                    )

    def violating_tuples(self, db: DatabaseInstance) -> set[Tuple]:
        return {v.tuple_ for v in self.iter_violations(db)}

    def required_rhs_template(self, t1: Tuple, row: PatternTuple) -> dict[str, Any]:
        """The constraints a witness tuple must satisfy, as attr → value/``_``.

        Used by the chase's IND step and by the schema-matching migrator:
        ``Y`` attributes get ``t1[X]`` values, ``Yp`` attributes get the
        pattern constants, everything else is unconstrained (wildcard).
        """
        template: dict[str, Any] = {
            a: WILDCARD for a in self.rhs_relation.attribute_names
        }
        for a, b in zip(self.x, self.y):
            template[b] = t1[a]
        for b in self.yp:
            template[b] = row.rhs_value(b)
        return template

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CIND)
            and self.lhs_relation.name == other.lhs_relation.name
            and self.rhs_relation.name == other.rhs_relation.name
            and self.x == other.x
            and self.xp == other.xp
            and self.y == other.y
            and self.yp == other.yp
            and self.tableau == other.tableau
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.lhs_relation.name,
                self.rhs_relation.name,
                self.x,
                self.xp,
                self.y,
                self.yp,
                self.tableau.rows,
            )
        )

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""

        def side(attrs: Sequence[str], pattern_attrs: Sequence[str]) -> str:
            x_part = ", ".join(attrs) if attrs else "nil"
            p_part = ", ".join(pattern_attrs) if pattern_attrs else "nil"
            return f"{x_part}; {p_part}"

        return (
            f"CIND({label}{self.lhs_relation.name}[{side(self.x, self.xp)}] ⊆ "
            f"{self.rhs_relation.name}[{side(self.y, self.yp)}], "
            f"{len(self.tableau)} pattern(s))"
        )


class CINDViolation:
    """A tuple ``t1`` that matches ``tp[X, Xp]`` but has no witness in ``R2``.

    The scan-cache backends (``memory``, ``sqlfile``) build each one
    once, when a scan or a carry-forward finds the hit, keep it in the
    session's scan cache and hand that same object to every report and
    delta that holds the hit; read it, do not mutate it.
    """

    __slots__ = ("cind", "pattern_index", "tuple_")

    def __init__(self, cind: CIND, pattern_index: int, tuple_: Tuple):
        self.cind = cind
        self.pattern_index = pattern_index
        self.tuple_ = tuple_

    def __repr__(self) -> str:
        label = self.cind.name or (
            f"{self.cind.lhs_relation.name} ⊆ {self.cind.rhs_relation.name}"
        )
        return f"<CINDViolation {label} row={self.pattern_index} t1={self.tuple_!r}>"


def standard_ind(
    lhs_relation: RelationSchema,
    x: Sequence[str],
    rhs_relation: RelationSchema,
    y: Sequence[str],
    name: str | None = None,
) -> CIND:
    """A traditional IND ``R1[X] ⊆ R2[Y]`` as a CIND with empty patterns."""
    x = tuple(x)
    y = tuple(y)
    row = ([WILDCARD] * len(x), [WILDCARD] * len(y))
    return CIND(lhs_relation, x, (), rhs_relation, y, (), [row], name=name)
