"""Conditional functional dependencies (CFDs).

A CFD ``φ = (R: X → Y, Tp)`` (Section 4 of the paper, after [9]) consists of

* a standard FD ``R: X → Y`` *embedded* in ``φ``, and
* a pattern tableau ``Tp`` over ``X ∪ Y`` whose entries are constants or the
  wildcard ``_``.

An instance ``D`` of ``R`` satisfies ``φ`` iff for each pair of tuples
``t1, t2`` (possibly identical) and each pattern tuple ``tp``: whenever
``t1[X] = t2[X] ≍ tp[X]``, also ``t1[Y] = t2[Y] ≍ tp[Y]``. A standard FD is
the special case of a single all-wildcard pattern tuple; unlike standard
FDs, a *single* tuple can violate a CFD whose RHS pattern carries a constant
(tuple ``t12`` vs ϕ3 in Example 4.1).

Normal form (Section 4): a single pattern tuple and a single RHS attribute;
:meth:`CFD.to_normal_form` performs the rewriting.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.core.patterns import PatternTableau, PatternTuple, matches, matches_all
from repro.errors import ConstraintError
from repro.relational.instance import DatabaseInstance, RelationInstance, Tuple
from repro.relational.schema import RelationSchema
from repro.relational.values import WILDCARD, is_constant, is_wildcard


class CFD:
    """A conditional functional dependency ``(R: X → Y, Tp)``.

    Parameters
    ----------
    relation:
        Schema of the relation the CFD is defined on.
    lhs:
        The attribute list ``X`` of the embedded FD.
    rhs:
        The attribute list ``Y`` of the embedded FD. ``X`` and ``Y`` may
        overlap (as for FDs in general); normal form requires ``|Y| = 1``.
    tableau:
        A :class:`~repro.core.patterns.PatternTableau` over (X ‖ Y), or an
        iterable of rows coercible by :class:`PatternTableau`.
    name:
        Optional label used in reprs and violation reports.
    """

    def __init__(
        self,
        relation: RelationSchema,
        lhs: Sequence[str],
        rhs: Sequence[str],
        tableau: PatternTableau | Iterable[Any],
        name: str | None = None,
    ):
        self.relation = relation
        self.lhs = relation.check_attribute_list(lhs)
        self.rhs = relation.check_attribute_list(rhs)
        if not self.rhs:
            raise ConstraintError("CFD RHS must contain at least one attribute")
        if isinstance(tableau, PatternTableau):
            if (
                tableau.lhs_attributes != self.lhs
                or tableau.rhs_attributes != self.rhs
            ):
                raise ConstraintError(
                    f"tableau attributes {tableau.lhs_attributes} || "
                    f"{tableau.rhs_attributes} do not match the embedded FD "
                    f"{self.lhs} -> {self.rhs}"
                )
            self.tableau = tableau
        else:
            self.tableau = PatternTableau(self.lhs, self.rhs, tableau)
        if len(self.tableau) == 0:
            raise ConstraintError("CFD pattern tableau must be nonempty")
        for row in self.tableau:
            for attr, value in list(row.lhs.items()) + list(row.rhs.items()):
                if is_constant(value) and not relation.domain_of(attr).contains(value):
                    raise ConstraintError(
                        f"pattern constant {value!r} is outside "
                        f"dom({relation.name}.{attr})"
                    )
        self.name = name

    # -- structural properties ---------------------------------------------

    @property
    def is_normal_form(self) -> bool:
        """Single pattern tuple and a single RHS attribute."""
        return len(self.tableau) == 1 and len(self.rhs) == 1

    @property
    def is_standard_fd(self) -> bool:
        """True iff the tableau is a single all-wildcard row (a plain FD)."""
        if len(self.tableau) != 1:
            return False
        row = self.tableau[0]
        return all(is_wildcard(v) for v in row.lhs.values()) and all(
            is_wildcard(v) for v in row.rhs.values()
        )

    @property
    def is_constant_cfd(self) -> bool:
        """True iff every pattern tuple binds every RHS attribute to a constant.

        Constant CFDs can be violated by a single tuple; variable CFDs need a
        pair. The distinction matters for the single-tuple consistency check.
        """
        return all(
            all(is_constant(v) for v in row.rhs.values()) for row in self.tableau
        )

    def constants(self) -> set[Any]:
        return self.tableau.constants()

    def attributes_used(self) -> set[str]:
        return set(self.lhs) | set(self.rhs)

    def to_normal_form(self) -> list["CFD"]:
        """Equivalent list of normal-form CFDs (one row, one RHS attribute)."""
        out: list[CFD] = []
        for i, row in enumerate(self.tableau):
            for attr in self.rhs:
                label = self.name or "cfd"
                suffix = f"#{i}.{attr}" if (len(self.tableau) > 1 or len(self.rhs) > 1) else ""
                out.append(
                    CFD(
                        self.relation,
                        self.lhs,
                        (attr,),
                        [(row.lhs_projection(self.lhs), (row.rhs_value(attr),))],
                        name=f"{label}{suffix}",
                    )
                )
        return out

    # -- normal-form accessors ----------------------------------------------

    @property
    def pattern(self) -> PatternTuple:
        """The single pattern tuple of a normal-form CFD."""
        if len(self.tableau) != 1:
            raise ConstraintError(
                f"{self} is not in normal form (tableau has {len(self.tableau)} rows)"
            )
        return self.tableau[0]

    @property
    def rhs_attribute(self) -> str:
        """The single RHS attribute ``A`` of a normal-form CFD."""
        if len(self.rhs) != 1:
            raise ConstraintError(
                f"{self} is not in normal form (RHS has {len(self.rhs)} attributes)"
            )
        return self.rhs[0]

    # -- semantics -----------------------------------------------------------

    def _matching_groups(
        self, instance: RelationInstance, row: PatternTuple
    ) -> Iterator[tuple[tuple[Any, ...], list[Tuple]]]:
        """Group tuples matching ``tp[X]`` by their X-projection."""
        groups: dict[tuple[Any, ...], list[Tuple]] = {}
        lhs_pattern = row.lhs_projection(self.lhs)
        for t in instance:
            key = t.project(self.lhs)
            if matches_all(key, lhs_pattern):
                groups.setdefault(key, []).append(t)
        yield from groups.items()

    def satisfied_by(self, data: DatabaseInstance | RelationInstance) -> bool:
        """Check ``D |= φ``."""
        for _ in self.iter_violations(data):
            return False
        return True

    def iter_violations(
        self, data: DatabaseInstance | RelationInstance
    ) -> Iterator["CFDViolation"]:
        """Yield one violation per (pattern row, X-group) that breaks ``φ``.

        A group violates row ``tp`` when its tuples disagree on some RHS
        attribute, or agree on a value that does not match ``tp[Y]``.
        """
        instance = data[self.relation.name] if isinstance(data, DatabaseInstance) else data
        if instance.schema.name != self.relation.name:
            raise ConstraintError(
                f"CFD on {self.relation.name!r} checked against instance of "
                f"{instance.schema.name!r}"
            )
        for row_index, row in enumerate(self.tableau):
            rhs_pattern = row.rhs_projection(self.rhs)
            for key, group in self._matching_groups(instance, row):
                rhs_values = {t.project(self.rhs) for t in group}
                disagree = len(rhs_values) > 1
                mismatched = [
                    vals for vals in rhs_values if not matches_all(vals, rhs_pattern)
                ]
                if disagree or mismatched:
                    yield CFDViolation(
                        cfd=self,
                        pattern_index=row_index,
                        lhs_values=key,
                        tuples=tuple(group),
                        kind="pair" if disagree else "single",
                    )

    def violating_tuples(self, data: DatabaseInstance | RelationInstance) -> set[Tuple]:
        """The set of tuples involved in at least one violation."""
        out: set[Tuple] = set()
        for violation in self.iter_violations(data):
            out |= set(violation.tuples)
        return out

    def tuple_violates(self, t: Tuple) -> bool:
        """Single-tuple check: does ``{t}`` violate ``φ``?

        Only constant-RHS pattern rows can be violated by a lone tuple.
        """
        for row in self.tableau:
            if not matches_all(t.project(self.lhs), row.lhs_projection(self.lhs)):
                continue
            if not matches_all(t.project(self.rhs), row.rhs_projection(self.rhs)):
                return True
        return False

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CFD)
            and self.relation.name == other.relation.name
            and self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.tableau == other.tableau
        )

    def __hash__(self) -> int:
        return hash(
            (self.relation.name, self.lhs, self.rhs, self.tableau.rows)
        )

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return (
            f"CFD({label}{self.relation.name}: "
            f"{', '.join(self.lhs)} -> {', '.join(self.rhs)}, "
            f"{len(self.tableau)} pattern(s))"
        )


class CFDViolation:
    """One violated (pattern row, X-group) pair of a CFD.

    Attributes
    ----------
    cfd:
        The violated dependency.
    pattern_index:
        Index of the violated row in the CFD's tableau.
    lhs_values:
        The shared ``t[X]`` projection of the offending group.
    tuples:
        The tuples in the group, in row order. The detection engine and
        the backends give a :class:`~repro.relational.instance.RowGroup`:
        a sequence over the rows' stored value tuples that builds a
        :class:`~repro.relational.instance.Tuple` view on each index or
        iteration and keeps none (so a view's identity changes between
        accesses; ``tuples.values`` reads the rows without building
        views). The naive checker (:meth:`CFD.iter_violations`) gives a
        tuple of views, which compares equal to it.
    kind:
        ``"single"`` — the group agrees on the RHS but mismatches a constant
        pattern (one tuple suffices to violate); ``"pair"`` — the group
        disagrees on the RHS (classic FD-style violation).
    """

    __slots__ = ("cfd", "pattern_index", "lhs_values", "tuples", "kind")

    def __init__(self, cfd, pattern_index, lhs_values, tuples, kind):
        self.cfd = cfd
        self.pattern_index = pattern_index
        self.lhs_values = lhs_values
        self.tuples = tuples
        self.kind = kind

    def __repr__(self) -> str:
        label = self.cfd.name or f"CFD on {self.cfd.relation.name}"
        return (
            f"<CFDViolation {label} row={self.pattern_index} "
            f"X={self.lhs_values!r} kind={self.kind} tuples={len(self.tuples)}>"
        )


def standard_fd(relation: RelationSchema, lhs: Sequence[str], rhs: Sequence[str], name: str | None = None) -> CFD:
    """A traditional FD as a CFD with one all-wildcard pattern tuple."""
    row = ([WILDCARD] * len(tuple(lhs)), [WILDCARD] * len(tuple(rhs)))
    return CFD(relation, lhs, rhs, [row], name=name)
