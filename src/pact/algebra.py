"""Finite groups given by multiplication tables, with subgroup machinery."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .errors import BoundExceeded, InternalCheckError, ValidationError
from .finspace import bit_indices, check_labels


def _unknown(a: object) -> ValidationError:
    return ValidationError("unknown-element", (a,), f"unknown group element {a!r}")


@dataclass(frozen=True)
class Group:
    """A finite group: ordered element labels, a Cayley table, an identity.

    ``table[i][j]`` is the product ``elements[i] * elements[j]``.  The order
    of ``elements`` fixes every deterministic iteration in the toolkit.
    Instances are assumed valid; construct them through :func:`validate_group`.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]
    identity: str

    def __post_init__(self):
        # Index tables derived from the fields, built once per group:
        # rows[i][j] is the index of elements[i] * elements[j] and
        # inverse_row[i] the index of elements[i]^-1.
        index = {e: i for i, e in enumerate(self.elements)}
        rows = tuple(tuple(map(index.__getitem__, row)) for row in self.table)
        unit = index[self.identity]
        inverse_row = tuple(row.index(unit) for row in rows)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "inverse_row", inverse_row)
        object.__setattr__(self, "_inverse",
                           {e: self.elements[j] for e, j in zip(self.elements, inverse_row)})

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise _unknown(a)

    def mul(self, a: str, b: str) -> str:
        index = self._index
        try:
            return self.table[index[a]][index[b]]
        except KeyError as exc:
            raise _unknown(exc.args[0])

    def inv(self, a: str) -> str:
        try:
            return self._inverse[a]
        except KeyError:
            raise _unknown(a)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set as element indices, greedy in element order:
        each element not in the subgroup generated by those before it is
        added.  Every element is a product of these (no inverses needed in
        a finite group)."""
        start = self._index[self.identity]
        gens: list[int] = []
        mask = 1 << start
        for g in range(len(self.elements)):
            if not mask >> g & 1:
                gens.append(g)
                mask = _closure(self.rows, start, gens)
        return tuple(gens)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The elements whose index bits are set in ``mask``, in element order."""
        return tuple(self.elements[i] for i in bit_indices(mask))

    def is_subgroup(self, mask: int) -> bool:
        """Whether the elements whose index bits are set in ``mask`` form a
        subgroup: their closure over the product rows adds nothing."""
        return _closure(self.rows, self._index[self.identity], bit_indices(mask)) == mask

    @cached_property
    def whole(self) -> Subgroup:
        """The group as a subgroup of itself."""
        return Subgroup(self, (1 << len(self.elements)) - 1)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, a: object) -> bool:
        return a in self._index


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent``, stored as ``mask``, the bitmask of its
    members' element indices, which is trusted: the subgroups pact derives
    are built from masks closed by construction, and member labels from
    outside go through :meth:`from_labels`.  ``members`` and
    ``sorted_members`` are label views, built on first use."""

    parent: Group
    mask: int

    @classmethod
    def from_labels(cls, parent: Group, members: Iterable[str]) -> Subgroup:
        """The subgroup with these member labels, after checking the
        subgroup invariants (identity, closure under inverse and product);
        raises :class:`ValidationError` otherwise.  Members are checked in
        the parent's element order, each first for its inverse and then for
        its products with every member, so the witness does not depend on
        hashing."""
        members = frozenset(members)
        unknown = sorted(m for m in members if m not in parent)
        if unknown:
            raise _unknown(unknown[0])
        mask = sum(1 << parent._index[m] for m in members)
        if not mask >> parent._index[parent.identity] & 1:
            raise ValidationError("subgroup-identity", (parent.identity,),
                                  "subgroup does not contain the identity")
        order = bit_indices(mask)
        inside = frozenset(order)
        elems, rows, inverse_row = parent.elements, parent.rows, parent.inverse_row
        for a in order:
            if inverse_row[a] not in inside:
                raise ValidationError("subgroup-inverse", (elems[a],),
                                      "subgroup not closed under inverse")
            row = rows[a]
            if not inside.issuperset(map(row.__getitem__, order)):
                b = next(b for b in order if row[b] not in inside)
                raise ValidationError("subgroup-closure", (elems[a], elems[b]),
                                      "subgroup not closed under product")
        return cls(parent, mask)

    @cached_property
    def members(self) -> frozenset[str]:
        return frozenset(self.sorted_members)

    @cached_property
    def sorted_members(self) -> tuple[str, ...]:
        return self.parent.labels_of(self.mask)

    def as_group(self) -> Group:
        """The subgroup as a standalone Group, in the parent's element order."""
        parent = self.parent
        order = bit_indices(self.mask)
        table = tuple(tuple(parent.elements[parent.rows[a][b]] for b in order)
                      for a in order)
        return Group(self.sorted_members, table, parent.identity)

    def __len__(self) -> int:
        return self.mask.bit_count()


def validate_group(elements: Sequence[str], table: Sequence[Sequence[str]],
                   identity: str) -> Group:
    """Check the group axioms and return a Group, or raise ValidationError.

    Checks run in a fixed order (labels, shape, closure, identity, inverses,
    associativity) and report the first violation with its witnessing tuple.
    """
    elements = tuple(elements)
    if not elements:
        raise ValidationError("empty-group", (), "a group needs at least one element")
    if len(set(elements)) != len(elements):
        raise ValidationError("duplicate-element", (), "element labels must be unique")
    check_labels(elements)
    if len(table) != len(elements) or any(len(row) != len(elements) for row in table):
        raise ValidationError("table-shape", (len(elements),),
                              "table dimensions must match the element count")
    table = tuple(tuple(row) for row in table)
    index = {e: i for i, e in enumerate(elements)}

    for a in elements:
        for b in elements:
            entry = table[index[a]][index[b]]
            if entry not in index:
                raise ValidationError("closure", (a, b, entry),
                                      f"product {a!r}*{b!r} = {entry!r} is not an element")
    if identity not in index:
        raise ValidationError("unknown-element", (identity,), "identity is not an element")

    def mul(a: str, b: str) -> str:
        return table[index[a]][index[b]]

    for a in elements:
        if mul(identity, a) != a or mul(a, identity) != a:
            raise ValidationError("identity", (a,), f"identity is not two-sided at {a!r}")
    for a in elements:
        if not any(mul(a, b) == identity and mul(b, a) == identity for b in elements):
            raise ValidationError("inverse", (a,), f"{a!r} has no two-sided inverse")
    for a in elements:
        for b in elements:
            for c in elements:
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    raise ValidationError("associativity", (a, b, c),
                                          f"({a!r}*{b!r})*{c!r} != {a!r}*({b!r}*{c!r})")
    return Group(elements, table, identity)


def subgroup_generated(group: Group, gens: Iterable[str]) -> Subgroup:
    """Smallest subgroup containing ``gens``: the identity's bit closed under
    right multiplication by the generators over the product rows (in a
    finite group that closure is already closed under inverses)."""
    steps = [group.index(g) for g in gens]
    return Subgroup(group, _closure(group.rows, group.index(group.identity), steps))


def _closure(rows: Sequence[Sequence[int]], start: int, steps: Sequence[int]) -> int:
    """The mask of the elements reached from ``start`` by right
    multiplication by ``steps``, over the product rows."""
    mask = 1 << start
    frontier = [start]
    while frontier:
        row = rows[frontier.pop()]
        for s in steps:
            p = row[s]
            if not mask >> p & 1:
                mask |= 1 << p
                frontier.append(p)
    return mask


def conjugate_subgroup(subgroup: Subgroup, g: str) -> Subgroup:
    """The conjugate {g^-1 h g : h in subgroup}."""
    parent = subgroup.parent
    gi = parent.index(g)
    rows, left = parent.rows, parent.rows[parent.inverse_row[gi]]
    return Subgroup(parent, sum(1 << rows[left[h]][gi] for h in bit_indices(subgroup.mask)))


def all_subgroups(group: Group, bounds: Bounds = DEFAULT_BOUNDS) -> list[Subgroup]:
    """Every subgroup, each exactly once, ordered by (size, member indices):
    from the trivial subgroup, each one found is joined with every element
    outside it by closure over the product rows."""
    if len(group) > bounds.group_order:
        raise BoundExceeded("subgroup enumeration", bounds.group_order, len(group))
    rows, unit = group.rows, group.index(group.identity)
    found = {1 << unit}
    frontier = [1 << unit]
    while frontier:
        base = frontier.pop()
        members = bit_indices(base)
        for i in range(len(group)):
            if not base >> i & 1:
                bigger = _closure(rows, unit, members + [i])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    subs = [Subgroup(group, mask)
            for mask in sorted(found, key=lambda m: (m.bit_count(), bit_indices(m)))]
    for sub in subs:
        if len(group) % len(sub) != 0:
            raise InternalCheckError(f"Lagrange violated by subgroup {sorted(sub.members)}")
    return subs


def is_subgroup_embedding(small: Group, big: Group) -> bool:
    """True when ``small`` is literally a subgroup of ``big``: its elements are
    elements of ``big``, identities agree, and the tables are consistent.
    Each element is read as its index in ``big`` once; then each row of
    ``small``'s table, so read, must be its element's row of ``big`` at
    those indices."""
    if small.identity != big.identity or any(a not in big for a in small.elements):
        return False
    at = list(map(big.index, small.elements))
    return all([at[j] for j in row] == [big.rows[i][j] for j in at]
               for i, row in zip(at, small.rows))
