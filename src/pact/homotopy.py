"""Homotopy of maps between finite spaces via fences in map posets.

Finite-scale semantics of the unit interval, fixed once: a (G-)homotopy
X x I -> Y is a fence in the poset of (G-)maps, i.e. a chain of maps in
which neighbours are pointwise comparable.  The straight-line two-step
homotopy between comparable G-maps is itself a G-map because the group acts
trivially on the interval, so this is adopted as the definition and
cross-checked against an explicit finite-interval model by the test suite.

A map poset is a table of index rows: row k holds the target point index of
each source point, rows in sorted order, as the map search produces them.
Comparison, fence components and fences read the rows and the table's
column masks (the rows taking a given value at a given point); labelled
SpaceMaps are made only for witnesses, such as a fence.

Fence components and fences rest on two facts.
  - Every row lies below a maximal row, one whose up-set lies in its
    down-set.  So comparable rows a <= b lie together in the down-set of a
    maximal row above b, which is connected through its top: the
    components are the classes of the maximal rows' down-sets, merged
    while they overlap.
  - A breadth-first search from i that gives each row the first
    neighbour in frontier order as its parent finds each row's
    lexicographically least shortest fence.  By induction on the level:
    a level is ordered by parent, then by row, which is the lexicographic
    order of the tree paths, and a row's first parent ends the least tree
    path among its neighbours on the level before.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, getitem, or_
from typing import Callable

from .bounds import DEFAULT_BOUNDS, Bounds
from .errors import InternalCheckError, ValidationError
from .finspace import (FinSpace, SpaceMap, bit_indices, column_masks,
                       enumerate_monotone_maps, spread, subspace,
                       t0_quotient)
from .paction import (PartialAction, enumerate_G_maps, fixed_points, is_G_map,
                      isotropy_mask)


@dataclass(frozen=True)
class MapPoset:
    """A complete list of maps X -> Y under the pointwise order
    f <= g  iff  f(x) <= g(x) for every x.

    Each map is an index row (the target index of each source point), in
    sorted order."""

    source: FinSpace
    target: FinSpace
    rows: tuple[tuple[int, ...], ...]
    kind: str = "continuous"

    @cached_property
    def _lookup(self) -> dict[tuple[int, ...], int]:
        return {row: i for i, row in enumerate(self.rows)}

    def index_of(self, row: tuple[int, ...]) -> int:
        """The position of the map with index row ``row`` (``SpaceMap.row``)."""
        idx = self._lookup.get(row)
        if idx is None:
            raise ValidationError("not-in-poset", tuple(map(self.target.points.__getitem__, row)),
                                  f"map is not among the enumerated {self.kind} maps")
        return idx

    @cached_property
    def columns(self) -> list[list[int]]:
        """Per (source position, target index): bitmask of the rows that take
        that value there."""
        return column_masks(self.rows, len(self.source), len(self.target))

    @cached_property
    def _value_masks(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per (source position, target index): bitmask of the rows whose
        value there lies below / above that target point."""
        tgt = self.target
        return spread(self.columns, tgt.down), spread(self.columns, tgt._up_masks)

    def _side(self, k: int, up: bool) -> int:
        """Row k's up-set (the rows above it) when ``up``, else its down-set
        (the rows below it); k included."""
        return reduce(and_, map(getitem, self._value_masks[up], self.rows[k]))

    @cached_property
    def _layers(self) -> list[int]:
        """The rows by rank, lowest first.  A row's rank sums the heights
        (down-set sizes) of its values, so a row strictly above another
        ranks higher, whatever the order of the points."""
        heights = [d.bit_count() for d in self.target.down]
        layers = {0: (1 << len(self.rows)) - 1}
        for column in self.columns:
            nxt: dict[int, int] = {}
            for r, mask in layers.items():
                for h, rows in zip(heights, column):
                    nxt[r + h] = nxt.get(r + h, 0) | mask & rows
            layers = nxt
        return [layers[r] for r in sorted(layers)]

    def _close(self, rows: int, closed: int, up: bool) -> int:
        """``closed``, a union of down-sets (up-sets when ``up``), joined
        with the sides of ``rows``.  A row inside the union has its side
        inside it already; the others are taken from the highest layer down
        (lowest up), so each side taken is a maximal (minimal) row's."""
        rest = rows & ~closed
        layers = iter(self._layers if up else reversed(self._layers))
        while rest:
            part = rest & next(layers)
            while part:
                closed |= self._side(part.bit_length() - 1, up)
                rest &= ~closed
                part &= rest
        return closed

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Fence components: connected components of the comparability
        graph, numbered in order of their first row; found as the classes
        of the maximal rows' down-sets (module docstring).  The least row
        not yet covered climbs to a row above it with another up-set (rows
        with the same one are equivalent, as a non-T0 target allows) until
        none is left.  No down-set taken holds the maximal row reached, so
        each class of equivalent maximal rows gives one down-set."""
        classes: list[int] = []
        covered, every = 0, (1 << len(self.rows)) - 1
        while covered != every:
            k = ((covered + 1) & ~covered).bit_length() - 1
            up, same = self._side(k, True), 1 << k
            while higher := up ^ same:
                top = higher.bit_length() - 1
                if (above := self._side(top, True)) == up:
                    same |= 1 << top
                else:
                    k, up, same = top, above, 1 << top
            down = self._side(k, False)
            if down & covered:
                down = reduce(or_, (c for c in classes if c & down), down)
                classes = [c for c in classes if not c & down]
            classes.append(down)
            covered |= down
        classes.sort(key=lambda c: c & -c)
        comp = [0] * len(self.rows)
        for number, members in enumerate(classes[1:], 1):
            for k in bit_indices(members):
                comp[k] = number
        return tuple(comp)

    def fence(self, i: int, j: int) -> list[SpaceMap] | None:
        """The lexicographically least shortest fence from row i to row j
        (module docstring), or None when they lie in different components.
        It builds the breadth-first levels from i as masks, marks back from
        j the rows on some shortest fence, and walks forward from i to the
        least marked neighbour at each step: each one marked still reaches
        j in the steps left, so the walk is the least such fence."""
        def neighbours(rows: int) -> int:
            return self._close(rows, 0, False) | self._close(rows, 0, True)
        levels = [1 << i]
        seen, lower, upper = levels[0], 0, 0
        while not seen >> j & 1:
            lower = self._close(levels[-1], lower, False)
            upper = self._close(levels[-1], upper, True)
            if not (new := (lower | upper) & ~seen):
                return None
            levels.append(new)
            seen |= new
        marked = [1 << j]
        for level in reversed(levels[:-1]):
            marked.append(neighbours(marked[-1]) & level)
        path = [i]
        for on in reversed(marked[:-1]):
            step = neighbours(1 << path[-1]) & on
            path.append((step & -step).bit_length() - 1)
        return [SpaceMap(self.source, self.target, self.rows[k]) for k in path]


def enumerate_maps(source: FinSpace, target: FinSpace,
                   equivariant: tuple[PartialAction, PartialAction] | None = None,
                   bounds: Bounds = DEFAULT_BOUNDS) -> MapPoset:
    """All continuous maps source -> target, or all G-maps when
    ``equivariant=(pa_x, pa_y)`` is supplied; deterministic order."""
    if equivariant is None:
        rows = enumerate_monotone_maps(source, target, bounds)
        return MapPoset(source, target, tuple(rows))
    pa_x, pa_y = equivariant
    if pa_x.space != source or pa_y.space != target:
        raise ValidationError("space-mismatch", (), "actions do not live on the given spaces")
    rows = enumerate_G_maps(pa_x, pa_y, bounds)
    return MapPoset(source, target, tuple(rows), kind="equivariant")


def _beat_point(space: FinSpace, i: int) -> bool:
    """Whether the points strictly below point i have a maximum, or those
    strictly above it a minimum."""
    down, up = space.down, space._up_masks
    below, above = down[i] & ~(1 << i), up[i] & ~(1 << i)
    return (any(not below & ~down[m] for m in bit_indices(below))
            or any(not above & ~up[m] for m in bit_indices(above)))


def core(space: FinSpace) -> FinSpace:
    """Dismantle beat points (lowest index first) until none remain.

    Non-T0 inputs are reduced through the Kolmogorov quotient first; the
    result is unique up to homeomorphism.
    """
    current, _ = t0_quotient(space)
    while True:
        beat = next((i for i in range(len(current)) if _beat_point(current, i)), None)
        if beat is None:
            return current
        current = subspace(current, current.points[:beat] + current.points[beat + 1:])


def is_contractible(space: FinSpace) -> bool:
    """True iff the core of the Kolmogorov quotient is a single point."""
    return len(core(space)) == 1


@dataclass(frozen=True)
class GContract:
    """Outcome of the equivariant contractibility search."""

    value: bool
    fixed_point: str | None = None
    fence: tuple[SpaceMap, ...] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.value

    def fence_tables(self) -> list[dict[str, str]]:
        return [m.as_dict() for m in self.fence] if self.fence else []


def is_G_contractible(pa: PartialAction, g_maps: Callable[[], MapPoset]) -> GContract:
    """Search for a fence from the identity to a constant at a fixed point
    inside the poset of G-self-maps, which ``g_maps()`` returns: the
    caller builds it (``enumerate_maps(pa.space, pa.space,
    equivariant=(pa, pa))``) or hands over one it already has.

    An empty fixed-point set X[G] decides the question immediately, and
    then ``g_maps`` is never called; this fast necessary condition agrees
    with the full search by construction, since only fixed points feed the
    candidate list.
    """
    fixed = fixed_points(pa, pa.group.whole)
    candidates = [x for x in pa.space.points if x in fixed]
    if not candidates:
        return GContract(False, reason="no fixed points")
    poset = g_maps()
    if (poset.source, poset.target, poset.kind) != (pa.space, pa.space, "equivariant"):
        raise ValidationError("space-mismatch", (), "not a poset of G-self-maps of the action")
    ident = poset.index_of(SpaceMap.identity(pa.space).row)
    for w in candidates:
        const = SpaceMap.constant(pa.space, pa.space, w)
        if not is_G_map(const, pa, pa):
            raise InternalCheckError(f"constant at fixed point {w!r} is not a G-map")
        ci = poset.index_of(const.row)
        fence = poset.fence(ident, ci)
        if fence is not None:
            return GContract(True, fixed_point=w, fence=tuple(fence))
    return GContract(False, reason="no fence from the identity to a constant")


def is_locally_G_contractible(pa: PartialAction) -> bool:
    """For every point x and every G_x-invariant open U containing x, some
    G_x-invariant open V with x in V, V inside U admits a fence (of
    G_x-maps V -> U) from the inclusion to a constant at a G_x-fixed point.

    The minimal open set U_x = down[x] is such a V for every U at once, by
    the equivariant cone argument.  Each k in G_x is defined at x, so x
    lies in the open domain X_{k^-1} and hence U_x does too; theta_k is
    monotone and fixes x, so it maps U_x into U_x.  These premises are
    checked at every point on the index tables, with G_x a subgroup
    (:func:`isotropy_mask`), and a failure is an internal error.  The rest
    follows from the definitions, so no restricted action is built:
      - restricted to G_x and U_x, the action is global (U_x is open, and
        G_x holds each theta_k with its inverse);
      - x is fixed by G_x, by the definition of G_x;
      - the constant c at x is a G_x-map U_x -> U_x:
        theta_k(c(y)) = theta_k(x) = x = c(theta_k(y));
      - the inclusion lies below c, as U_x = {y : y <= x}: a two-step fence.
    Composing with the inclusion U_x in U gives the fence into every
    invariant open U containing x, so no U needs to be visited.
    """
    down = pa.space.down
    for i, x in enumerate(pa.space.points):
        ux = down[i]
        for k in bit_indices(isotropy_mask(pa, i)):
            image = pa.images[k]
            for y in bit_indices(ux):
                if image[y] < 0:
                    raise InternalCheckError(f"theta_{pa.group.elements[k]!r} is undefined "
                                             f"on the minimal open set of {x!r}")
                if not ux >> image[y] & 1:
                    raise InternalCheckError(f"theta_{pa.group.elements[k]!r} leaves "
                                             f"the minimal open set of {x!r}")
    return True
