"""Attribute domains, finite and infinite.

The paper's static analyses hinge on whether an attribute has a finite or an
infinite domain (``finattr(R)``): finite domains can be exhausted by the
constants mentioned in a set of dependencies, which is what makes CFD
consistency NP-hard and pushes CIND implication from PSPACE to EXPTIME.

A :class:`Domain` therefore knows

* whether it is finite, and if so its full value set;
* how to test membership;
* how to produce *fresh* values — values not in a given exclusion set — which
  the witness constructions (Theorem 3.2) and the heuristic checkers need.

Infinite domains generate fresh values lazily and can always produce one;
finite domains may legitimately fail (return ``None``) once exhausted.
"""

from __future__ import annotations

import itertools
from typing import Any, Collection, Iterable, Iterator

from repro.errors import DomainError


class Domain:
    """Base class for attribute domains.

    Subclasses must implement :meth:`contains` and :meth:`fresh_value`;
    finite subclasses also expose :attr:`values`.
    """

    #: Human-readable name, used in reprs and error messages.
    name: str = "domain"

    @property
    def is_finite(self) -> bool:
        return False

    def contains(self, value: Any) -> bool:
        raise NotImplementedError

    def fresh_value(self, exclude: Collection[Any] = ()) -> Any | None:
        """Return a value of this domain not in *exclude*, or ``None``.

        Infinite domains never return ``None``. Finite domains return
        ``None`` when every domain value is excluded — the situation that
        makes CFDs inconsistent (Example 3.2 of the paper).
        """
        raise NotImplementedError

    def validate(self, value: Any) -> Any:
        """Return *value* if it belongs to the domain, else raise DomainError."""
        if not self.contains(value):
            raise DomainError(f"value {value!r} is not in domain {self.name}")
        return value

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class InfiniteDomain(Domain):
    """An infinite domain with a deterministic fresh-value stream.

    Parameters
    ----------
    name:
        Domain name (``string``, ``integer``, ...).
    factory:
        Callable mapping a non-negative integer *i* to the *i*-th candidate
        fresh value. The stream must be injective.
    predicate:
        Membership test for the domain.
    """

    def __init__(self, name, factory, predicate):
        self.name = name
        self._factory = factory
        self._predicate = predicate

    def contains(self, value: Any) -> bool:
        return self._predicate(value)

    def fresh_value(self, exclude: Collection[Any] = ()) -> Any:
        excluded = exclude if isinstance(exclude, (set, frozenset, dict)) else set(exclude)
        for i in itertools.count():
            candidate = self._factory(i)
            if candidate not in excluded:
                return candidate
        raise AssertionError("unreachable: infinite stream exhausted")

    def fresh_values(self, count: int, exclude: Collection[Any] = ()) -> list[Any]:
        """Return *count* distinct fresh values not in *exclude*."""
        excluded = set(exclude)
        out: list[Any] = []
        for i in itertools.count():
            if len(out) == count:
                break
            candidate = self._factory(i)
            if candidate not in excluded:
                out.append(candidate)
                excluded.add(candidate)
        return out


class FiniteDomain(Domain):
    """A finite domain with an explicit, ordered value set.

    The iteration order of :attr:`values` is the insertion order of the
    constructor argument; it is deterministic, which the valuation
    enumeration of :mod:`repro.chase.valuation` relies on.
    """

    def __init__(self, name: str, values: Iterable[Any]):
        self.name = name
        self._values: tuple[Any, ...] = tuple(dict.fromkeys(values))
        if not self._values:
            raise DomainError(f"finite domain {name!r} must be nonempty")
        self._value_set = frozenset(self._values)

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def contains(self, value: Any) -> bool:
        return value in self._value_set

    def fresh_value(self, exclude: Collection[Any] = ()) -> Any | None:
        excluded = exclude if isinstance(exclude, (set, frozenset, dict)) else set(exclude)
        for candidate in self._values:
            if candidate not in excluded:
                return candidate
        return None

    def __repr__(self) -> str:
        shown = ", ".join(map(repr, self._values[:4]))
        if len(self._values) > 4:
            shown += ", ..."
        return f"<FiniteDomain {self.name} {{{shown}}}>"


def _string_factory(i: int) -> str:
    return f"v{i}"


def _int_factory(i: int) -> int:
    return i


# Named predicates (not lambdas) keep the singleton domains — and with them
# schemas and tuples — picklable.
def _is_string(v: Any) -> bool:
    return isinstance(v, str)


def _is_integer(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


#: The default infinite string domain.
STRING = InfiniteDomain("string", _string_factory, _is_string)

#: The default infinite integer domain.
INTEGER = InfiniteDomain("integer", _int_factory, _is_integer)

#: The two-valued boolean domain of Example 3.2.
BOOL = FiniteDomain("bool", (True, False))


def enum_domain(name: str, values: Iterable[Any]) -> FiniteDomain:
    """Convenience constructor for a finite enumeration domain."""
    return FiniteDomain(name, values)


def numbered_finite_domain(name: str, size: int) -> FiniteDomain:
    """A finite domain ``{name#0, ..., name#size-1}`` as used by the generator.

    The paper's experiments use finite domains with 2–100 elements; the
    random generator creates them through this helper so element names never
    collide across domains.
    """
    if size < 1:
        raise DomainError(f"finite domain size must be >= 1, got {size}")
    return FiniteDomain(name, tuple(f"{name}#{i}" for i in range(size)))
