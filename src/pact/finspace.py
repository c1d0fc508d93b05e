"""Finite Alexandrov spaces encoded by down-set masks.

Convention, fixed once: x <= y  iff  x in U_y, and the open sets are exactly
the down-sets of <=.  That makes U_y = {x : x <= y} literally the minimal
open set of y.  A space stores one bitmask per point, the down-set of that
point over point indices, which is its whole topology.  Labels live only at
the edges: :func:`space_from_min_opens` builds a space from them, and
:meth:`FinSpace.min_open_of` and :meth:`FinSpace.set_of` read them back.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import and_, eq, itemgetter, or_
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .errors import BoundExceeded, InternalCheckError, ValidationError


# Masks wider than this many bits are walked as text: each step of the
# bit-clearing loop costs time linear in the width, so that loop is quadratic.
WIDE_MASK_BITS = 1024


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    if mask.bit_length() > WIDE_MASK_BITS:
        digits = bin(mask)[:1:-1]  # least significant digit first, no "0b"
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _unknown_point(x: object) -> ValidationError:
    return ValidationError("unknown-point", (x,), f"unknown point {x!r}")


@dataclass(frozen=True)
class FinSpace:
    """A finite topological space: ordered points plus one down-set mask
    per point.

    Bit i of ``down[j]`` is set iff points[i] <= points[j], i.e. ``down[j]``
    is the minimal open set of ``points[j]`` over point indices.  Instances
    are assumed valid: labelled input goes through
    :func:`space_from_min_opens`, and constructions build their masks
    directly.
    """

    points: tuple[str, ...]
    down: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _up_masks(self) -> tuple[int, ...]:
        """Bitmask per point: bit j set iff that point <= points[j]."""
        up = [0] * len(self.points)
        for j, down in enumerate(self.down):
            for i in bit_indices(down):
                up[i] |= 1 << j
        return tuple(up)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise _unknown_point(x)

    def min_open_of(self, x: str) -> frozenset[str]:
        return self.set_of(self.down[self.index(x)])

    def mask_of(self, subset: Iterable[str]) -> int:
        """The index mask of ``subset``; an unknown label raises naming the
        least one."""
        subset = tuple(subset)
        try:
            return reduce(or_, map((1).__lshift__, map(self._index.__getitem__, subset)), 0)
        except KeyError:
            raise _unknown_point(min(x for x in subset if x not in self._index))

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(map(self.points.__getitem__, bit_indices(mask)))

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, x: object) -> bool:
        return x in self._index


def check_labels(labels: Iterable[str]) -> None:
    """Reject the first label with unbalanced parentheses or a comma outside
    them: exactly the labels that :func:`split_pair_label` does not recover
    as the first coordinate of a pair.  On the labels that pass,
    :func:`pair_label` is injective and builds labels that pass too."""
    for label in labels:
        if split_pair_label(pair_label(label, "")) != (label, ""):
            raise ValidationError("ambiguous-label", (label,), f"ambiguous label {label!r}: "
                                  "unbalanced parentheses or a comma outside them")


def space_from_min_opens(points: Sequence[str],
                         min_open: Mapping[str, Iterable[str]]) -> FinSpace:
    """Validate a minimal-open-set table and build the space.

    Checks: the labels (:func:`check_labels`), every point has a table entry,
    x in U_x, and nesting (y in U_x implies U_y subset of U_x), which
    together make the family a base of minimal opens for an Alexandrov
    topology.
    """
    points = tuple(points)
    if not points:
        raise ValidationError("empty-space", (), "a space needs at least one point")
    if len(set(points)) != len(points):
        raise ValidationError("duplicate-point", (), "point labels must be unique")
    check_labels(points)
    index = {p: i for i, p in enumerate(points)}
    down: list[int] = []
    for p in points:
        if p not in min_open:
            raise ValidationError("missing-min-open", (p,), f"no minimal open set for {p!r}")
        u = frozenset(min_open[p])
        if not index.keys() >= u:
            q = min(u.difference(index))
            raise ValidationError("unknown-point", (q,), f"U_{p!r} mentions unknown point {q!r}")
        if p not in u:
            raise ValidationError("min-open-membership", (p,), f"{p!r} is not in its own minimal open set")
        down.append(reduce(or_, map((1).__lshift__, map(index.__getitem__, u))))
    # U_q for q in U_p in point order, so the witness does not depend on hashing
    for i, p in enumerate(points):
        for j in bit_indices(down[i]):
            extra = down[j] & ~down[i]
            if extra:
                bad = min(map(points.__getitem__, bit_indices(extra)))
                raise ValidationError("min-open-nesting", (points[j], p, bad),
                                      f"U_{points[j]!r} is not contained in U_{p!r}")
    # reflexivity/transitivity of <= follow from the two checks above; assert.
    for i in range(len(points)):
        if not down[i] >> i & 1:
            raise InternalCheckError("preorder not reflexive")
    return FinSpace(points, tuple(down))


def discrete_space(points: Sequence[str]) -> FinSpace:
    return space_from_min_opens(points, {p: [p] for p in points})


def is_open(space: FinSpace, subset: Iterable[str]) -> bool:
    """True iff the subset is a union of minimal opens (a down-set of <=)."""
    return is_down_mask(space.down, space.mask_of(subset))


def is_closed(space: FinSpace, subset: Iterable[str]) -> bool:
    full = (1 << len(space)) - 1
    return is_down_mask(space.down, full & ~space.mask_of(subset))


def block_down_masks(down: Sequence[int], blocks: int) -> list[int]:
    """The down-set masks of D x X for a discrete D of ``blocks`` points,
    given X's down-set masks ``down``: pair (d, x) has index d * |X| + x,
    and (d, x) is below (d, y) iff x is below y."""
    n = len(down)
    return [mask << (d * n) for d in range(blocks) for mask in down]


def is_down_mask(down: Sequence[int], mask: int) -> bool:
    """Whether ``mask`` contains the down-set mask ``down[i]`` of each of
    its points i, i.e. is open."""
    return not any(down[i] & ~mask for i in bit_indices(mask))


def enumerate_opens(space: FinSpace, max_points: int = 20) -> list[frozenset[str]]:
    """All open sets, ordered by (size, point indices).  Exponential; bounded."""
    n = len(space)
    if n > max_points:
        raise BoundExceeded("open-set enumeration", max_points, n)
    opens = []
    for mask in range(1 << n):
        if all((space.down[i] & mask) == space.down[i]
               for i in range(n) if mask & (1 << i)):
            opens.append(space.set_of(mask))
    opens.sort(key=lambda s: (len(s), sorted(space.index(x) for x in s)))
    return opens


@dataclass(frozen=True)
class SpaceMap:
    """A total point function between spaces, stored as its index row:
    ``row[i]`` is the target index of ``source.points[i]``.  Continuity is
    checked, not assumed.  ``assignment`` is the label view of the row,
    built on first use."""

    source: FinSpace
    target: FinSpace
    row: tuple[int, ...]

    @classmethod
    def from_dict(cls, source: FinSpace, target: FinSpace,
                  mapping: Mapping[str, str]) -> "SpaceMap":
        for x in mapping:
            source.index(x)
        missing = [p for p in source.points if p not in mapping]
        if missing:
            raise ValidationError("partial-assignment", (missing[0],),
                                  f"no image for point {missing[0]!r}")
        return cls(source, target, tuple(target.index(mapping[p]) for p in source.points))

    @classmethod
    def identity(cls, space: FinSpace) -> "SpaceMap":
        return cls(space, space, tuple(range(len(space))))

    @classmethod
    def constant(cls, source: FinSpace, target: FinSpace, value: str) -> "SpaceMap":
        return cls(source, target, (target.index(value),) * len(source))

    @cached_property
    def assignment(self) -> tuple[str, ...]:
        """The image label of each source point."""
        return tuple(map(self.target.points.__getitem__, self.row))

    def __call__(self, x: str) -> str:
        return self.target.points[self.row[self.source.index(x)]]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.source.points, self.assignment))

    def is_bijective(self) -> bool:
        return len(self.source) == len(self.target) == len(set(self.row))

    def inverse(self) -> "SpaceMap":
        if not self.is_bijective():
            raise ValidationError("not-bijective", (), "map has no inverse")
        back = [0] * len(self.row)
        for x, y in enumerate(self.row):
            back[y] = x
        return SpaceMap(self.target, self.source, tuple(back))


def monotonicity_violation(src_down: Sequence[int], subset: int,
                           image: Sequence[int], tgt_down: Sequence[int]
                           ) -> tuple[int, int] | None:
    """The integer core of every monotonicity test.

    ``src_down``/``tgt_down`` are down-set masks (``FinSpace.down``),
    ``subset`` masks the source points the map is defined on, and
    ``image[i]`` is the target index of source point i (read only for i in
    ``subset``).  The map is monotone on the subset iff for each y in it and
    each x in down(y) & subset, bit image[x] is set in down(image[y]).

    Returns the first violating pair (x, y) of source indices, least y first
    and then least x, or None when the map is monotone.
    """
    rest = subset
    while rest:
        low = rest & -rest
        rest ^= low
        y = low.bit_length() - 1
        below = src_down[y] & subset & ~low
        if not below:
            continue
        allowed = tgt_down[image[y]]
        while below:
            bit = below & -below
            below ^= bit
            x = bit.bit_length() - 1
            if not allowed >> image[x] & 1:
                return x, y
    return None


def is_continuous(m: SpaceMap) -> bool:
    """Continuity == monotonicity for the specialization preorders."""
    src = m.source
    return monotonicity_violation(src.down, (1 << len(src)) - 1,
                                  m.row, m.target.down) is None


_ZEROS = b"0" * 256


def column_masks(rows: Sequence[Sequence[int]], width: int, m: int) -> list[list[int]]:
    """The column masks of a table of index rows, each row ``width`` values
    in range(m): ``masks[i][j]`` has bit k set iff ``rows[k][i] == j``.

    Each column is one byte per row, last row first, so a value's mask is
    the column translated to b"0"/b"1" and read in base 2: C-level passes
    per (column, value that occurs in it), not a big-int shift per entry.
    Values past a byte (m > 256) fall back to one shift per entry.
    """
    masks = [[0] * m for _ in range(width)]
    if not rows:
        return masks
    if m > 256:
        for k, row in enumerate(rows):
            bit = 1 << k
            for col, j in zip(masks, row):
                col[j] |= bit
        return masks
    flat = bytes(chain.from_iterable(reversed(rows)))
    for i, col in enumerate(masks):
        column = flat[i::width]
        for j in set(column):
            col[j] = int(column.translate(_ZEROS[:j] + b"1" + _ZEROS[j + 1:]), 2)
    return masks


def spread(columns: Sequence[Sequence[int]], masks: Sequence[int]) -> list[list[int]]:
    """Per column, per target point j: the union of the column's masks over
    the points in ``masks[j]``.  With a target's down-set masks this is the
    rows whose value at that column lies below j; with its up-set masks,
    above j.  Each value occurring in a column is ORed into the targets
    whose mask holds it: the work is the number of such (value, target)
    pairs, not the bits of every mask."""
    reach = [[] for _ in masks]
    for j, mask in enumerate(masks):
        for i in bit_indices(mask):
            reach[i].append(j)
    out = []
    for col in columns:
        row = [0] * len(masks)
        for rows, targets in zip(col, reach):
            if rows:
                for j in targets:
                    row[j] |= rows
        out.append(row)
    return out


def is_open_map(m: SpaceMap) -> bool:
    """Images of opens are open; it suffices to check the minimal opens."""
    bit = [1 << y for y in m.row]
    down = m.target.down
    return all(is_down_mask(down, reduce(or_, map(bit.__getitem__, bit_indices(u))))
               for u in m.source.down)


def product(a: FinSpace, b: FinSpace) -> FinSpace:
    """Product space with U_(x,y) = U_x x U_y.  Its size is bounded by the
    callers (``Bounds.envelope_pairs``)."""
    # point (x_i, y_j) has index i * |B| + j, so U_(x_i,y_j) is U_(y_j)'s
    # mask copied into block i' for each x_i' in U_(x_i): the product of
    # U_(y_j)'s mask with one bit per such block, as the copies never overlap
    width = len(b)
    blocks = [reduce(or_, (1 << (i * width) for i in bit_indices(u))) for u in a.down]
    return FinSpace(tuple(pair_label(x, y) for x in a.points for y in b.points),
                    tuple(block * v for block in blocks for v in b.down))


def pair_label(x: str, y: str) -> str:
    return f"({x},{y})"


def split_pair_label(label: str) -> tuple[str, str] | None:
    """Invert pair_label, splitting at the top-level comma; None if malformed."""
    if not (label.startswith("(") and label.endswith(")")):
        return None
    body = label[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return None
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    return None


def quotient(space: FinSpace, classes: Iterable[Iterable[str]]
             ) -> tuple[FinSpace, SpaceMap]:
    """Quotient by a partition; preorder is the transitive closure of the
    induced relation, so the opens are exactly {A : preimage of A open}.

    Classes are ordered by their least member (in source point order) and
    named by their lexicographically least member.
    """
    masks = []
    covered = 0
    for cls in classes:
        mask = space.mask_of(cls)
        if not mask:
            raise ValidationError("not-a-partition", (), "empty class")
        twice = covered & mask
        if twice:
            # the first such point in point order
            x = space.points[(twice & -twice).bit_length() - 1]
            raise ValidationError("not-a-partition", (x,), f"{x!r} appears in two classes")
        covered |= mask
        masks.append(mask)
    uncovered = ((1 << len(space)) - 1) & ~covered
    if uncovered:
        missing = space.points[(uncovered & -uncovered).bit_length() - 1]
        raise ValidationError("not-a-partition", (missing,), f"{missing!r} not covered")
    return _quotient_by_classes(space, sorted(map(bit_indices, masks)))


def _quotient_by_classes(space: FinSpace, members: Sequence[Sequence[int]]
                         ) -> tuple[FinSpace, SpaceMap]:
    """:func:`quotient` by a partition given as disjoint ascending
    point-index lists, sorted, so ordered by least member."""
    cls_of = [0] * len(space)
    for k, idx in enumerate(members):
        for i in idx:
            cls_of[i] = k
    below = quotient_order(space.down, cls_of, members)
    labels = tuple(min(map(space.points.__getitem__, idx)) for idx in members)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate-point", (), "class labels collide")
    qspace = FinSpace(labels, tuple(below))
    return qspace, SpaceMap(space, qspace, tuple(cls_of))


def quotient_order(down: Sequence[int], cls_of: Sequence[int],
                   members: Sequence[Sequence[int]]) -> list[int]:
    """The integer core of :func:`quotient`, and the envelope's order when
    its one-member read fails: for a partition of the points of a space
    with down-set masks ``down``, given as each point's class and each
    class's points, the down-set masks of the quotient: per class, the
    classes below it in the transitive closure of the induced relation."""
    class_bit = [1 << k for k in cls_of]
    below = [reduce(or_, [class_bit[i] for i in bit_indices(reduce(or_, [down[j] for j in idx]))],
                    1 << k)
             for k, idx in enumerate(members)]
    changed = True
    while changed:
        changed = False
        for k, m in enumerate(below):
            acc = m
            for i in bit_indices(m):
                acc |= below[i]
            if acc != m:
                below[k] = acc
                changed = True
    return below


def equivalence_classes(tables: Sequence[Sequence[int]], name: str,
                        label: Callable[[int], object]
                        ) -> tuple[list[int], list[list[int]]]:
    """The classes of the relation with rows {t[i] : t in tables}, over
    index tables with -1 where a step is undefined, certified to be an
    equivalence: the class of each index, and each class's members
    ascending, classes numbered by least member.

    Each index not yet placed, in order, opens the class of its row, of
    which it must be the least member, and which must hold no placed index.
    Then every row must be its index's class, so j lies in row i iff i
    and j share a class.  Every equivalence passes; else
    :func:`_equivalence_scan` names the first failed check.
    """
    cls: list[int] = [-1] * len(tables[0])
    members: list[list[int]] = []
    for i, column in enumerate(zip(*tables)):
        if cls[i] < 0:
            row = sorted(set(column).difference((-1,)))
            if row[:1] != [i] or any(cls[j] >= 0 for j in row):
                _equivalence_scan(tables, name, label)
            for j in row:
                cls[j] = len(members)
            members.append(row)
    # each row, read with a -1 appended, against its class plus -1, so
    # undefined steps drop out, compared in C
    classes = [frozenset(xs).union((-1,)) for xs in members]
    if not all(map(eq, map(set, zip(*tables, repeat(-1))), map(classes.__getitem__, cls))):
        _equivalence_scan(tables, name, label)
    return cls, members


def _equivalence_scan(tables: Sequence[Sequence[int]], name: str,
                      label: Callable[[int], object]) -> NoReturn:
    """The rows of the tables as masks, then the first failed reflexivity,
    symmetry or transitivity check raises InternalCheckError naming the
    relation and indices through ``label``."""
    rel = [sum(1 << j for j in set(column) if j >= 0) for column in zip(*tables)]
    for i, row in enumerate(rel):
        if not row & (1 << i):
            raise InternalCheckError(f"{name} not reflexive at {label(i)!r}")
        for j in bit_indices(row):
            if not rel[j] & (1 << i):
                raise InternalCheckError(
                    f"{name} not symmetric at ({label(i)!r}, {label(j)!r})")
            if rel[j] & ~row:
                raise InternalCheckError(
                    f"{name} not transitive through ({label(i)!r}, {label(j)!r})")
    raise InternalCheckError(f"{name} passes the exhaustive scan but not its certificate")


def subspace(space: FinSpace, subset: Iterable[str]) -> FinSpace:
    """Subspace topology: minimal opens are U_x intersected with the subset."""
    keep = space.mask_of(subset)
    if not keep:
        raise ValidationError("empty-subset", (), "subspace needs a nonempty subset")
    kept = bit_indices(keep)
    bit = dict(zip(kept, map((1).__lshift__, range(len(kept)))))
    return FinSpace(tuple(map(space.points.__getitem__, kept)),
                    tuple(reduce(or_, map(bit.__getitem__, bit_indices(space.down[i] & keep)))
                          for i in kept))


def t0_quotient(space: FinSpace) -> tuple[FinSpace, SpaceMap]:
    """Identify topologically indistinguishable points (x <= y and y <= x),
    which are exactly the points with the same minimal open set."""
    classes: dict[int, list[int]] = {}
    for i, down in enumerate(space.down):
        classes.setdefault(down, []).append(i)
    return _quotient_by_classes(space, sorted(classes.values()))


def is_T1(space: FinSpace) -> bool:
    """Every singleton closed; for finite spaces this is exactly discreteness."""
    down, full = space.down, (1 << len(space)) - 1
    t1 = all(is_down_mask(down, full & ~(1 << i)) for i in range(len(down)))
    discrete = all(mask == 1 << i for i, mask in enumerate(down))
    if t1 != discrete:
        raise InternalCheckError("T1 and discreteness disagree on a finite space")
    return t1


def enumerate_monotone_maps(source: FinSpace, target: FinSpace,
                            bounds: Bounds = DEFAULT_BOUNDS) -> list[tuple[int, ...]]:
    """All continuous (monotone) maps source -> target, as index rows (the
    target index of each source point; ``SpaceMap`` takes one).

    Constraint-propagating DFS with a most-constrained-point heuristic; the
    rows are sorted, so the result is deterministic regardless of the
    internal search order.  Raises BoundExceeded past either budget.
    """
    return _search_maps(source, target, [(1 << len(target)) - 1] * len(source),
                        [()] * len(source), bounds.map_nodes, bounds.max_maps)


def _search_maps(source: FinSpace, target: FinSpace, allowed: Sequence[int],
                 blocks: Sequence[tuple], node_budget: int,
                 max_maps: int) -> list[tuple[int, ...]]:
    """The search behind enumerate_monotone_maps and enumerate_G_maps:
    every monotone map with f(i) in ``allowed[i]`` (a target mask per source
    index) whose values on each block of source points follow from one of
    them, as sorted index rows.

    ``blocks[i]`` is () when point i is a block of its own.  Otherwise it
    is (back, members): the block's points x paired with index rows
    ``forth``, so that f(x) = forth[back[f(i)]] for every member x; back
    takes i's value to the block's representative's and forth takes that
    on to x's.  The rows must be defined on the values ``allowed`` admits.

    DFS over blocks: the most constrained unassigned point (least index on
    ties) picks its block, and each of its candidates, in target order, is
    one node.  Assigning f(i) = j narrows the points above i to the up-set
    of j and those below to the down-set; on a larger block it then writes
    every other member's value, which must be one of that member's
    candidates, and narrows that member's neighbours the same way.

    The search runs in place on one candidate list: each narrowing pushes
    (index, old mask) on a trail, and backtracking pops the trail back to
    the node's mark (the reversible updates of Knuth's "Dancing Links").
    An assigned point keeps the single bit of its value.  The last
    unassigned point, a block of its own, runs in one loop with no checks:
    the order constraints against the assigned points already hold, since
    each assignment narrowed this point's candidates.

    Subtrees that recur are replayed, as component caching does in
    backtracking model counters (Bacchus, Dalmao and Pitassi, JAIR 34,
    2009).  A node with two or more unassigned points is keyed by the tuple
    of cands[i] & value[i] over source points: 0 at an assigned point, as
    its mask 1 << v shares no bit with v, and the candidate mask at an
    unassigned one (value -1), which is nonempty below the root, since
    narrowing fails rather than empty a mask (a root with an empty mask
    ends the search at no node).  The branch pick reads only the unassigned
    points' candidates, and narrowing and settle read and write only
    unassigned points, so the subtree's values on the unassigned points,
    its rows' order and its node count are functions of the key.  Once a
    subtree has been walked, the key records (start, stop, nodes): the
    slice of ``out`` it appended, which stays in place as ``out`` is only
    appended to until the final sort, and the nodes it counted.  A node
    whose key was seen appends that slice again with its own values at the
    assigned points and adds the count, when both fit the budgets;
    otherwise it walks the subtree, so a bound is raised at the same node
    with the same ``needed`` as without the replay.
    """
    n, m = len(source), len(target)
    if not n:
        # the empty source has one map, the empty row, found at no node
        if max_maps < 1:
            raise BoundExceeded("map enumeration (maps)", max_maps, 1)
        return [()]
    tgt_down, tgt_up = target.down, target._up_masks
    src_down = [[i for i in range(n) if source.down[j] & (1 << i) and i != j]
                for j in range(n)]
    src_up = [[j for j in range(n) if source.down[j] & (1 << i) and i != j]
              for i in range(n)]

    cands = list(allowed)
    value = [-1] * n
    trail: list[tuple[int, int]] = []
    out: list[tuple[int, ...]] = []
    nodes = 0
    memo: dict[tuple[int, ...], tuple[int, int, int]] = {}

    # Only the other members of a block go through settle: the chosen
    # point's narrowing stays inline in search, where a search of points
    # that are blocks of their own spends its time.
    def settle(x: int, j: int) -> bool:
        """Assign f(x) = j for a block member x and narrow its unassigned
        neighbours; False when j is no candidate of x or a neighbour is
        left with none."""
        old = cands[x]
        if not old >> j & 1:
            return False
        value[x] = j
        if old != 1 << j:
            trail.append((x, old))
            cands[x] = 1 << j
        for near, narrow in ((src_up[x], tgt_up[j]), (src_down[x], tgt_down[j])):
            for i2 in near:
                if value[i2] < 0:
                    old = cands[i2]
                    new = old & narrow
                    if new != old:
                        if not new:
                            return False
                        trail.append((i2, old))
                        cands[i2] = new
        return True

    def search(left: int):
        nonlocal nodes
        if left > 1:
            key = tuple(map(and_, cands, value))
            seen = memo.get(key)
            if seen:
                start, stop, count = seen
                if nodes + count <= node_budget and len(out) + stop - start <= max_maps:
                    nodes += count
                    # value + row, read at value's index where assigned
                    # and at the row's elsewhere
                    take = itemgetter(*[n + i if k else i for i, k in enumerate(key)])
                    out.extend(map(take, map(tuple(value).__add__, out[start:stop])))
                    return
            start, before = len(out), nodes
        best, best_count = -1, m + 1
        for i in range(n):
            if value[i] < 0:
                count = cands[i].bit_count()
                if count < best_count:
                    best, best_count = i, count
        mask = cands[best]
        if left == 1:
            while mask:
                low = mask & -mask
                mask ^= low
                nodes += 1
                if nodes > node_budget:
                    raise BoundExceeded("map enumeration (nodes)", node_budget, nodes)
                value[best] = low.bit_length() - 1
                out.append(tuple(value))
                if len(out) > max_maps:
                    raise BoundExceeded("map enumeration (maps)", max_maps, len(out))
            value[best] = -1
            return
        up_of, down_of = src_up[best], src_down[best]
        block = blocks[best]
        if block:
            back, members = block
            rest = left - len(members)
        else:
            rest = left - 1
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                raise BoundExceeded("map enumeration (nodes)", node_budget, nodes)
            mark = len(trail)
            trail.append((best, cands[best]))
            cands[best] = low
            ok = True
            narrow = tgt_up[j]
            for i2 in up_of:
                if value[i2] < 0:
                    old = cands[i2]
                    new = old & narrow
                    if new != old:
                        if not new:
                            ok = False
                            break
                        trail.append((i2, old))
                        cands[i2] = new
            if ok:
                narrow = tgt_down[j]
                for i2 in down_of:
                    if value[i2] < 0:
                        old = cands[i2]
                        new = old & narrow
                        if new != old:
                            if not new:
                                ok = False
                                break
                            trail.append((i2, old))
                            cands[i2] = new
            if ok:
                value[best] = j
                if block:
                    r = back[j]
                    for x, forth in members:
                        if x != best and not settle(x, forth[r]):
                            ok = False
                            break
                if ok:
                    if rest:
                        search(rest)
                    else:
                        out.append(tuple(value))
                        if len(out) > max_maps:
                            raise BoundExceeded("map enumeration (maps)", max_maps, len(out))
                if block:
                    for x, _ in members:
                        value[x] = -1
                value[best] = -1
            while len(trail) > mark:
                i2, old = trail.pop()
                cands[i2] = old
        memo[key] = (start, len(out), nodes - before)

    try:
        search(n)
    finally:
        # search refers to itself through its closure; unbinding it frees
        # the search state now instead of at the next full collection
        del search
    out.sort()
    return out
