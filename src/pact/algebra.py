"""Finite groups given by multiplication tables, with subgroup machinery."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceeded, InternalCheckError, ValidationError
from .finspace import bit_indices


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

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The elements whose index bits are set in ``mask``, in element order."""
        return tuple(self.elements[i] for i in bit_indices(mask))

    def conjugate(self, h: str, g: str) -> str:
        """g^-1 h g."""
        return self.mul(self.mul(self.inv(g), h), g)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, a: object) -> bool:
        return a in self._index


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent``, stored as a member set and, derived from it,
    ``mask``: the bitmask of the members' element indices.

    Construction checks the subgroup invariants (identity, closure under
    inverse and product) and raises :class:`ValidationError` otherwise.
    Members are checked in the parent's element order, each first for its
    inverse and then for its products with every member, so the witness
    does not depend on hashing.
    """

    parent: Group
    members: frozenset[str]

    def __post_init__(self):
        parent = self.parent
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        unknown = sorted(m for m in members if m not in parent)
        if unknown:
            raise _unknown(unknown[0])
        mask = 0
        for m in members:
            mask |= 1 << parent._index[m]
        object.__setattr__(self, "mask", mask)
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
        return len(self.members)

    def __contains__(self, a: object) -> bool:
        return a in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted_members)


def validate_group(elements: Sequence[str], table: Sequence[Sequence[str]],
                   identity: str) -> Group:
    """Check the group axioms and return a Group, or raise ValidationError.

    Checks run in a fixed order (shape, closure, identity, inverses,
    associativity) and report the first violation with its witnessing tuple.
    """
    elements = tuple(elements)
    if not elements:
        raise ValidationError("empty-group", (), "a group needs at least one element")
    if len(set(elements)) != len(elements):
        raise ValidationError("duplicate-element", (), "element labels must be unique")
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
    rows = group.rows
    start = group.index(group.identity)
    mask = 1 << start
    frontier = [start]
    while frontier:
        row = rows[frontier.pop()]
        for s in steps:
            p = row[s]
            if not mask >> p & 1:
                mask |= 1 << p
                frontier.append(p)
    return Subgroup(group, frozenset(group.labels_of(mask)))


def conjugate_subgroup(subgroup: Subgroup, g: str) -> Subgroup:
    """The conjugate {g^-1 h g : h in subgroup}."""
    parent = subgroup.parent
    gi = parent.index(g)
    rows, left = parent.rows, parent.rows[parent.inverse_row[gi]]
    return Subgroup(parent, frozenset(parent.elements[rows[left[h]][gi]]
                                      for h in bit_indices(subgroup.mask)))


def all_subgroups(group: Group, max_order: int = 16) -> list[Subgroup]:
    """Every subgroup, each exactly once, ordered by (size, member indices)."""
    if len(group) > max_order:
        raise BoundExceeded("subgroup enumeration", max_order, len(group))
    trivial = Subgroup(group, frozenset({group.identity}))
    found: dict[int, Subgroup] = {trivial.mask: trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for i, g in enumerate(group.elements):
            if base.mask >> i & 1:
                continue
            bigger = subgroup_generated(group, base.sorted_members + (g,))
            if bigger.mask not in found:
                found[bigger.mask] = bigger
                frontier.append(bigger)
    subs = sorted(found.values(), key=lambda s: (len(s), bit_indices(s.mask)))
    for sub in subs:
        if len(group) % len(sub) != 0:
            raise InternalCheckError(f"Lagrange violated by subgroup {sorted(sub.members)}")
    return subs


def is_subgroup_embedding(small: Group, big: Group) -> bool:
    """True when ``small`` is literally a subgroup of ``big``: its elements are
    elements of ``big``, identities agree, and the tables are consistent."""
    if small.identity != big.identity:
        return False
    if any(a not in big for a in small.elements):
        return False
    return all(small.mul(a, b) == big.mul(a, b)
               for a in small.elements for b in small.elements)


def cyclic_group(n: int) -> Group:
    """Z_n with elements "0".."n-1"; handy for tests and fixtures."""
    elems = tuple(str(i) for i in range(n))
    table = tuple(tuple(str((i + j) % n) for j in range(n)) for i in range(n))
    return Group(elems, table, "0")
