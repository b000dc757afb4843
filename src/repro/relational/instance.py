"""Relation and database instances (possibly containing chase variables).

Instances follow the paper's set semantics: a relation instance is a *set*
of tuples. It is stored column-wise (the layout detection scans), keeps
insertion order for deterministic iteration, and maintains
per-attribute-list hash indexes so that CIND satisfaction checks
(``exists t2 with t2[Y] = t1[X]``) run in expected constant time per probe
instead of scanning the relation.

A *database template* (Section 5.1) is just a database instance whose tuples
may contain :class:`~repro.relational.values.Variable` objects; the chase
engine manipulates templates through the same API plus
:meth:`RelationInstance.replace_value`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DomainError, SchemaError
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD, Variable, is_constant, is_variable


class Tuple:
    """An immutable row over a relation schema.

    Values may be constants or chase variables. Equality and hashing are by
    (relation name, values), so tuples behave as the paper's set elements
    (the hash is computed on first use). A :class:`RelationInstance` does
    not store Tuples; it hands out Tuple views of its rows.
    """

    __slots__ = ("schema", "_values", "_hash")

    def __init__(self, schema: RelationSchema, values: Mapping[str, Any] | Sequence[Any]):
        self.schema = schema
        names = schema.attribute_names
        if isinstance(values, Mapping):
            missing = [n for n in names if n not in values]
            if missing:
                raise SchemaError(
                    f"tuple for {schema.name!r} is missing attributes {missing}"
                )
            extra = [n for n in values if n not in schema]
            if extra:
                raise SchemaError(
                    f"tuple for {schema.name!r} has unknown attributes {extra}"
                )
            vals = tuple(values[n] for n in names)
        else:
            vals = tuple(values)
            if len(vals) != len(names):
                raise SchemaError(
                    f"tuple for {schema.name!r} needs {len(names)} values, "
                    f"got {len(vals)}"
                )
        self._values = vals
        self._hash: int | None = None

    @classmethod
    def from_row(cls, schema: RelationSchema, values: tuple[Any, ...]) -> "Tuple":
        """A tuple over *values*, a stored row of *schema* (its arity and
        order already hold, so nothing is checked)."""
        return _row_view(schema, values)

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self._values[self.schema.positions[attribute]]
        except KeyError:
            raise SchemaError(
                f"relation {self.schema.name!r} has no attribute {attribute!r}"
            ) from None

    def project(self, attributes: Iterable[str]) -> tuple[Any, ...]:
        """``t[A1, ..., Ak]`` as a value tuple, in the order given."""
        positions = self.schema.positions
        values = self._values
        try:
            return tuple(values[positions[a]] for a in attributes)
        except KeyError as exc:
            raise SchemaError(
                f"relation {self.schema.name!r} has no attribute {exc.args[0]!r}"
            ) from None

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self.schema.attribute_names, self._values))

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def has_variables(self) -> bool:
        return any(is_variable(v) for v in self._values)

    def variables(self) -> set[Any]:
        return {v for v in self._values if is_variable(v)}

    def is_ground(self) -> bool:
        """True if every value is a constant (no chase variables)."""
        return all(is_constant(v) for v in self._values)

    def substitute(self, mapping: Mapping[Any, Any]) -> "Tuple":
        """Return a copy with every value replaced via *mapping* (if present)."""
        return Tuple(self.schema, tuple(mapping.get(v, v) for v in self._values))

    def replace(self, **updates: Any) -> "Tuple":
        """Return a copy with named attributes replaced."""
        d = self.as_dict()
        for k, v in updates.items():
            if k not in self.schema:
                raise SchemaError(
                    f"relation {self.schema.name!r} has no attribute {k!r}"
                )
            d[k] = v
        return Tuple(self.schema, d)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.schema.name == other.schema.name
            and self._values == other._values
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.schema.name, self._values))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.attribute_names, self._values))
        return f"{self.schema.name}({inner})"


def _row_view(schema: RelationSchema, values: tuple[Any, ...]) -> Tuple:
    """A :class:`Tuple` over values the store already validated."""
    t = object.__new__(Tuple)
    t.schema = schema
    t._values = values
    t._hash = None
    return t


class RowGroup(Sequence[Tuple]):
    """An immutable sequence of rows of one relation, held as value tuples.

    Indexing and iteration build a fresh :class:`Tuple` view per row and
    keep none, so a view's identity changes between accesses. The rows
    stay the value tuples the store (or sqlite) handed over, and CPython
    stops tracking a tuple of atomic values after one collection: a
    cached group costs the collector one object, not one per row.

    A group equals, and hashes like, the tuple of its rows' views, so it
    compares equal to the naive checker's ``tuple(group)``. Slicing
    gives a group.
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: RelationSchema, values: tuple[tuple[Any, ...], ...]):
        self.schema = schema
        #: The rows' value tuples, in row order.
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return RowGroup(self.schema, self.values[index])
        return _row_view(self.schema, self.values[index])

    def __iter__(self) -> Iterator[Tuple]:
        return map(_row_view, repeat(self.schema), self.values)

    def __contains__(self, row: object) -> bool:
        return (
            isinstance(row, Tuple)
            and row.schema.name == self.schema.name
            and row._values in self.values
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowGroup):
            return (
                self.schema.name == other.schema.name
                and self.values == other.values
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class RelationInstance:
    """A set of tuples over one relation schema, stored column-wise.

    An append writes the row's values to one list per attribute
    (:meth:`columns`) under a fresh row id; row ids only grow, so row-id
    order is insertion order, and a value-tuple -> row-id dict gives set
    semantics. A delete tombstones the row's slot and the first columnar
    read after deletes compacts the columns in order. Row ids survive
    compaction, so the hash indexes (projection -> row ids) never need
    rewriting. :class:`Tuple` objects are views built only for rows that
    leave the store; :meth:`lookup` and :meth:`view` cache one per row
    until the row is deleted, and :meth:`group_rows` hands out a
    :class:`RowGroup` that caches none.

    Every mutation bumps the monotonic :attr:`version` counter, which keys
    the detection engine's :class:`~repro.engine.cache.ScanCache`.
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[Tuple | Sequence[Any] | Mapping[str, Any]] = ()):
        self.schema = schema
        #: (columns, row id per slot, liveness byte per slot), swapped as
        #: one object by compaction so concurrent readers never pair a
        #: compacted column with a stale row-id list.
        self._slots: tuple[list[list[Any]], list[int], bytearray] = (
            [[] for __ in range(schema.arity)], [], bytearray()
        )
        self._dead = 0
        #: value tuple -> row id, live rows only, in row-id order.
        self._ids: dict[tuple[Any, ...], int] = {}
        self._next_id = 0
        #: attribute positions -> key -> {row id: value tuple}, in row order.
        self._indexes: dict[tuple[int, ...], dict[tuple[Any, ...], dict[int, tuple[Any, ...]]]] = {}
        #: row id -> its cached Tuple view (rows handed out by lookup/view).
        self._views: dict[int, Tuple] = {}
        #: Monotonic mutation counter (never decreases, bumps on every
        #: successful add/discard/replace_value).
        self.version: int = 0
        self.extend(tuples)

    def coerce(self, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> tuple[Any, ...]:
        """*row*'s value tuple, checked against the schema (arity,
        attribute names, the relation of a :class:`Tuple`); raises
        :class:`~repro.errors.SchemaError` without touching the store."""
        if type(row) is tuple and len(row) == self.schema.arity:
            return row
        if isinstance(row, Tuple):
            if row.schema.name != self.schema.name:
                raise SchemaError(
                    f"tuple of {row.schema.name!r} inserted into {self.schema.name!r}"
                )
            return row._values
        return Tuple(self.schema, row)._values  # coerces and checks arity

    def _append(self, values: tuple[Any, ...]) -> bool:
        ids = self._ids
        if values in ids:
            return False
        rowid = self._next_id
        self._next_id = rowid + 1
        ids[values] = rowid
        columns, rowids, live = self._slots
        rowids.append(rowid)
        live.append(1)
        for column, value in zip(columns, values):
            column.append(value)
        for positions, index in self._indexes.items():
            index.setdefault(tuple([values[p] for p in positions]), {})[rowid] = values
        self.version += 1
        return True

    def _remove(self, values: tuple[Any, ...]) -> bool:
        rowid = self._ids.pop(values, None)
        if rowid is None:
            return False
        __, rowids, live = self._slots
        live[bisect_left(rowids, rowid)] = 0
        self._dead += 1
        self._views.pop(rowid, None)
        for positions, index in self._indexes.items():
            key = tuple([values[p] for p in positions])
            bucket = index[key]
            del bucket[rowid]
            if not bucket:
                del index[key]
        self.version += 1
        return True

    def add(self, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> Tuple | None:
        """Insert a tuple (set semantics).

        Returns the stored row as a :class:`Tuple` when it was new —
        callers that passed a Mapping/Sequence get the coerced object back
        without guessing where it landed — and ``None`` for a duplicate.
        (``Tuple`` is always truthy, so boolean uses keep working.)
        """
        values = self.coerce(row)
        if not self._append(values):
            return None
        return row if isinstance(row, Tuple) else _row_view(self.schema, values)

    def extend(self, rows: Iterable[Tuple | Sequence[Any] | Mapping[str, Any]]) -> int:
        """Insert every row (set semantics) without building any
        :class:`Tuple`; returns how many were new."""
        values_of, append = self.coerce, self._append
        return sum(append(values_of(row)) for row in rows)

    def discard(self, row: Tuple) -> bool:
        """Remove a tuple if present; return ``True`` if it was removed."""
        if not isinstance(row, Tuple) or row.schema.name != self.schema.name:
            return False
        return self._remove(row._values)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Tuple]:
        schema, views = self.schema, self._views
        for values, rowid in self._ids.items():
            t = views.get(rowid)
            yield _row_view(schema, values) if t is None else t

    def __contains__(self, row: Tuple) -> bool:
        return (
            isinstance(row, Tuple)
            and row.schema.name == self.schema.name
            and row._values in self._ids
        )

    @property
    def tuples(self) -> tuple[Tuple, ...]:
        return tuple(self)

    def rows(self) -> list[Tuple]:
        """The tuples as a list in row order (views, built on each call)."""
        return list(self)

    def _compacted(self) -> tuple[list[list[Any]], list[int], bytearray]:
        # Readers may race here (writers never do): _dead is read before
        # _slots and cleared after the swap, so a reader that sees no
        # tombstones also sees the compacted slots.
        if self._dead:
            columns, rowids, live = self._slots
            rowids = list(compress(rowids, live))
            self._slots = (
                [list(compress(column, live)) for column in columns],
                rowids,
                bytearray(b"\x01") * len(rowids),
            )
            self._dead = 0
        return self._slots

    def columns(self) -> tuple[list[Any], ...]:
        """The store itself: one value list per attribute, in row order
        (``columns()[schema.positions[A]][i]`` is row ``i``'s ``A``).

        Pending tombstones are compacted first. The lists are live —
        appends extend them in place — so treat them as read-only.
        """
        return tuple(self._compacted()[0])

    def row_ids(self) -> list[int]:
        """Row ids aligned with :meth:`columns` (ascending; read-only)."""
        return self._compacted()[1]

    def row_id(self, values: Sequence[Any]) -> int | None:
        """The row id of the live row with exactly *values*, if any."""
        return self._ids.get(tuple(values))

    def view(self, rowid: int, values: tuple[Any, ...] | None = None) -> Tuple:
        """The :class:`Tuple` view of live row *rowid* (over *values*, its
        stored value tuple, when the caller has it), cached until the row
        is deleted."""
        t = self._views.get(rowid)
        if t is None:
            if values is None:
                columns, rowids, __ = self._slots
                i = bisect_left(rowids, rowid)
                values = tuple([column[i] for column in columns])
            t = self._views[rowid] = _row_view(self.schema, values)
        return t

    def has_index(self, attributes: Sequence[str]) -> bool:
        """Whether :meth:`index_on` *attributes* is already built (and so
        maintained by every mutation)."""
        return self.schema.positions_of(attributes) in self._indexes

    def index_on(self, attributes: Sequence[str]) -> dict[tuple[Any, ...], dict[int, tuple[Any, ...]]]:
        """Hash index mapping projections on *attributes* to row buckets.

        Buckets are insertion-ordered ``{row id: value tuple}`` dicts
        (read-only; a bucket disappears with its last row); use
        :meth:`lookup` for the matching tuples.
        """
        try:
            positions = tuple(self.schema.positions[a] for a in attributes)
        except KeyError as exc:
            raise SchemaError(
                f"relation {self.schema.name!r} has no attribute {exc.args[0]!r}"
            ) from None
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for values, rowid in self._ids.items():
                index.setdefault(tuple([values[p] for p in positions]), {})[rowid] = values
            self._indexes[positions] = index
        return index

    def lookup(self, attributes: Sequence[str], values: Sequence[Any]) -> list[Tuple]:
        """All tuples ``t`` with ``t[attributes] == values``, in row order."""
        if not attributes:
            return list(self)
        bucket = self.index_on(attributes).get(tuple(values))
        if not bucket:
            return []
        try:
            return list(map(self._views.__getitem__, bucket))
        except KeyError:
            view = self.view
            return [view(rowid, stored) for rowid, stored in bucket.items()]

    def group_rows(self, attributes: Sequence[str], values: Sequence[Any]) -> RowGroup:
        """:meth:`lookup` as a :class:`RowGroup` over the index bucket's
        stored value tuples: no view is built or kept."""
        if not attributes:
            return RowGroup(self.schema, tuple(self._ids))
        bucket = self.index_on(attributes).get(tuple(values))
        return RowGroup(self.schema, tuple(bucket.values()) if bucket else ())

    def replace_value(self, old: Any, new: Any) -> int:
        """Replace every occurrence of *old* by *new* across the relation.

        This is the chase's FD-step primitive (variable unification). Returns
        the number of tuples rewritten. Rewriting may merge tuples (set
        semantics), shrinking the relation.
        """
        return len(self.replace_value_tracked(old, new))

    def replace_value_tracked(self, old: Any, new: Any) -> list[Tuple]:
        """Like :meth:`replace_value`, returning the rewritten tuples.

        The affected rows are removed and their rewrites appended in row
        order (a rewrite equal to a surviving row merges into it). The
        chase worklist uses the returned (new) tuples to re-enqueue
        dependency obligations without rescanning the relation.
        """
        affected = [values for values in self._ids if old in values]
        for values in affected:
            self._remove(values)
        mapping = {old: new}
        rewritten = []
        for values in affected:
            replacement = tuple(mapping.get(v, v) for v in values)
            self._append(replacement)
            rewritten.append(_row_view(self.schema, replacement))
        return rewritten

    def variables(self) -> set[Any]:
        return {v for values in self._ids for v in values if is_variable(v)}

    def is_ground(self) -> bool:
        # One C-speed pass over each column's value types.
        return not any(
            issubclass(kind, (Variable, type(WILDCARD)))
            for column in self.columns()
            for kind in set(map(type, column))
        )

    def validate_domains(self) -> None:
        """Check every constant against its attribute domain."""
        for values in self._ids:
            for attr, value in zip(self.schema.attributes, values):
                if is_constant(value) and not attr.domain.contains(value):
                    raise DomainError(
                        f"value {value!r} for {self.schema.name}.{attr.name} "
                        f"is outside domain {attr.domain.name}"
                    )

    def copy(self) -> "RelationInstance":
        """An independent copy (column lists copied, indexes rebuilt lazily)."""
        out = RelationInstance(self.schema)
        columns, rowids, live = self._compacted()
        out._slots = ([list(c) for c in columns], list(rowids), bytearray(live))
        out._ids = dict(self._ids)
        out._next_id = self._next_id
        out.version = self.version
        return out

    def __repr__(self) -> str:
        return f"<RelationInstance {self.schema.name}: {len(self)} tuples>"


class DatabaseInstance:
    """A database instance ``D = (I1, ..., In)`` over a database schema.

    Every relation of the schema is always present (possibly empty), so
    ``db[name]`` never fails for a valid relation name.
    """

    def __init__(self, schema: DatabaseSchema, relations: Mapping[str, Iterable[Any]] | None = None):
        self.schema = schema
        self._relations: dict[str, RelationInstance] = {
            rel.name: RelationInstance(rel) for rel in schema
        }
        if relations:
            for name, rows in relations.items():
                self[name].extend(rows)

    def __getitem__(self, name: str) -> RelationInstance:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"database has no relation {name!r}; relations are "
                f"{list(self._relations)}"
            ) from None

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._relations.values())

    def version_of(self, name: str) -> int:
        """Relation *name*'s mutation version (a scan cache's clock)."""
        return self[name].version

    def relations(self) -> dict[str, RelationInstance]:
        return dict(self._relations)

    def add(self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> Tuple | None:
        """Insert into *relation*; returns the stored Tuple or ``None`` on duplicate."""
        return self[relation].add(row)

    def total_tuples(self) -> int:
        return sum(len(inst) for inst in self._relations.values())

    def is_empty(self) -> bool:
        return self.total_tuples() == 0

    def is_ground(self) -> bool:
        return all(inst.is_ground() for inst in self._relations.values())

    def variables(self) -> set[Any]:
        out: set[Any] = set()
        for inst in self._relations.values():
            out |= inst.variables()
        return out

    def replace_value(self, old: Any, new: Any) -> int:
        """Replace *old* by *new* in every relation (chase unification step)."""
        return sum(inst.replace_value(old, new) for inst in self._relations.values())

    def replace_value_tracked(self, old: Any, new: Any) -> dict[str, list[Tuple]]:
        """Global replacement returning the rewritten tuples per relation."""
        out: dict[str, list[Tuple]] = {}
        for name, inst in self._relations.items():
            rewritten = inst.replace_value_tracked(old, new)
            if rewritten:
                out[name] = rewritten
        return out

    def substitute(self, mapping: Mapping[Any, Any]) -> "DatabaseInstance":
        """A copy of the database with values rewritten through *mapping*."""
        out = DatabaseInstance(self.schema)
        for name, inst in self._relations.items():
            out[name].extend(
                tuple(mapping.get(v, v) for v in values) for values in inst._ids
            )
        return out

    def copy(self) -> "DatabaseInstance":
        out = DatabaseInstance(self.schema)
        out._relations = {
            name: inst.copy() for name, inst in self._relations.items()
        }
        return out

    def validate_domains(self) -> None:
        for inst in self._relations.values():
            inst.validate_domains()

    def map_values(self, fn: Callable[[str, str, Any], Any]) -> "DatabaseInstance":
        """A copy with every value passed through ``fn(relation, attribute, value)``."""
        out = DatabaseInstance(self.schema)
        for name, inst in self._relations.items():
            names = inst.schema.attribute_names
            out[name].extend(
                [fn(name, a, v) for a, v in zip(names, values)]
                for values in inst._ids
            )
        return out

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(i)}" for n, i in self._relations.items())
        return f"<DatabaseInstance {sizes}>"
