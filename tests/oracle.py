"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from the raw definitions (unions of
minimal opens, preimages of opens, explicit relation closures) rather than
through the library's preorder shortcuts, so that agreement between the two
is evidence, not tautology.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from pact.envelope import MAX_FAMILIES
from pact.errors import InternalCheckError, ValidationError
from pact.finspace import is_open, monotonicity_violation


# ---------------------------------------------------------------------------
# groups

def group_violation(elements: list[str], table: list[list[str]],
                    identity: str) -> tuple[str, tuple] | None:
    """First violated group axiom in (closure, identity, inverse,
    associativity) order, with witness; None when all hold."""
    index = {e: i for i, e in enumerate(elements)}
    if len(table) != len(elements) or any(len(r) != len(elements) for r in table):
        return ("table-shape", (len(elements),))

    def mul(a, b):
        return table[index[a]][index[b]]

    for a in elements:
        for b in elements:
            if mul(a, b) not in index:
                return ("closure", (a, b, mul(a, b)))
    if identity not in index:
        return ("unknown-element", (identity,))
    for a in elements:
        if mul(identity, a) != a or mul(a, identity) != a:
            return ("identity", (a,))
    for a in elements:
        if not any(mul(a, b) == identity and mul(b, a) == identity
                   for b in elements):
            return ("inverse", (a,))
    for a in elements:
        for b in elements:
            for c in elements:
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    return ("associativity", (a, b, c))
    return None


def brute_subgroups(elements: list[str], table: list[list[str]],
                    identity: str) -> set[frozenset[str]]:
    """Every subgroup by exhaustive subset scan."""
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        return table[index[a]][index[b]]

    def inv(a):
        return next(b for b in elements if mul(a, b) == identity == mul(b, a))

    out = set()
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            s = set(combo)
            if identity not in s:
                continue
            if all(mul(a, b) in s for a in s for b in s) and \
                    all(inv(a) in s for a in s):
                out.add(frozenset(s))
    return out


def subgroup_violation(elements: list[str], table: list[list[str]], identity: str,
                       members: Iterable[str]) -> tuple[str, tuple] | None:
    """First violated subgroup invariant of a member set, with witness, in
    the order (unknown label, identity, then per member in element order
    its inverse and its products with every member); None for a subgroup."""
    index = {e: i for i, e in enumerate(elements)}
    members = set(members)
    unknown = sorted(m for m in members if m not in index)
    if unknown:
        return ("unknown-element", (unknown[0],))
    if identity not in members:
        return ("subgroup-identity", (identity,))

    def mul(a, b):
        return table[index[a]][index[b]]

    inside = [e for e in elements if e in members]
    for a in inside:
        if not any(mul(a, b) == identity for b in inside):
            return ("subgroup-inverse", (a,))
        for b in inside:
            if mul(a, b) not in members:
                return ("subgroup-closure", (a, b))
    return None


def family_scan_intersection(pa, env, subs) -> dict:
    """The generated-intersection identity checked family by family, as
    ``generated_intersection`` reports it: for every nonempty family of
    ``subs`` when there are at most ``MAX_FAMILIES``, else every pair, the
    intersection of iota(X)[K_i] against iota(X)[<union of the K_i>], with
    the generated subgroup closed by label products and fixed sets read
    point by point off the envelope's action rows."""
    grp = pa.group
    n = len(subs)
    if 2 ** n - 1 <= MAX_FAMILIES:
        families = [tuple(i for i in range(n) if m >> i & 1) for m in range(1, 2 ** n)]
    else:
        families = [(i, j) for i in range(n) for j in range(i, n)]

    def fixed(labels):
        ks = [grp.index(k) for k in labels]
        return {c for c in env.embedding_row if all(env.action_rows[k][c] == c for k in ks)}

    holds, witness = True, None
    for family in families:
        inter = set(env.embedding_row)
        generated = {grp.identity}
        for i in family:
            inter &= fixed(subs[i].members)
            generated |= subs[i].members
        while True:
            more = generated | {grp.mul(a, b) for a in generated for b in generated}
            if more == generated:
                break
            generated = more
        if inter != fixed(generated):
            holds = False
            if witness is None:
                witness = [sorted(subs[i].members) for i in family]
    return {"holds": holds, "families_checked": len(families), "witness": witness}


# ---------------------------------------------------------------------------
# spaces: opens as unions of minimal opens

def brute_opens(points: list[str],
                min_open: Mapping[str, Iterable[str]]) -> set[frozenset[str]]:
    """All unions of minimal opens (including the empty union)."""
    base = [frozenset(min_open[p]) for p in points]
    out = set()
    for r in range(len(points) + 1):
        for combo in itertools.combinations(range(len(points)), r):
            u: frozenset[str] = frozenset()
            for i in combo:
                u |= base[i]
            out.add(u)
    return out


def space_violation(points: list[str],
                    min_open: Mapping[str, Iterable[str]]) -> tuple | None:
    pointset = set(points)
    for p in points:
        if p not in min_open:
            return ("missing-min-open", (p,))
        u = set(min_open[p])
        if not u <= pointset:
            return ("unknown-point", (sorted(u - pointset)[0],))
        if p not in u:
            return ("min-open-membership", (p,))
    for p in points:
        for q in min_open[p]:
            if not set(min_open[q]) <= set(min_open[p]):
                return ("min-open-nesting", (q, p))
    return None


def preimage_continuous(points_x: list[str], min_open_x: Mapping,
                        points_y: list[str], min_open_y: Mapping,
                        assignment: Mapping[str, str]) -> bool:
    """Continuity by the raw definition: preimages of opens are open."""
    opens_x = brute_opens(points_x, min_open_x)
    for v in brute_opens(points_y, min_open_y):
        pre = frozenset(x for x in points_x if assignment[x] in v)
        if pre not in opens_x:
            return False
    return True


def label_map_checks(source, target, assignment: Mapping[str, str],
                     source_action: Mapping, target_action: Mapping) -> tuple:
    """The checks of a comparison map by their definitions on labels, as
    ``(checks, collision, unhit)``.  ``source`` and ``target`` are read
    through ``points`` and ``min_open_of``; ``assignment`` is the map, and
    the actions map each element to its point table on either side.

    The map is continuous when preimages of opens are open
    (:func:`preimage_continuous`), equivariant when f(g.x) = g.f(x) for
    every element g and point x, and inverse-continuous when it is a
    bijection whose inverse is continuous.  The collision lists, in source
    order, the points of the first value hit twice, values taken in the
    order of their first preimage; the unhit targets are in target order."""
    points_s, points_t = list(source.points), list(target.points)
    opens_s = {p: source.min_open_of(p) for p in points_s}
    opens_t = {p: target.min_open_of(p) for p in points_t}
    fibres: dict[str, list[str]] = {}
    for x in points_s:
        fibres.setdefault(assignment[x], []).append(x)
    collision = next((xs for xs in fibres.values() if len(xs) > 1), None)
    unhit = [y for y in points_t if y not in fibres]
    bijective = collision is None and not unhit
    checks = {
        "continuous": preimage_continuous(points_s, opens_s, points_t, opens_t, assignment),
        "equivariant": all(assignment[source_action[g][x]] == target_action[g][assignment[x]]
                           for g in source_action for x in points_s),
        "injective": collision is None,
        "surjective": not unhit,
        "bijective": bijective,
        "inverse-continuous": bijective and preimage_continuous(
            points_t, opens_t, points_s, opens_s, {y: x for x, y in assignment.items()}),
    }
    return checks, collision, unhit


def first_monotone_violation(points: list[str], min_open_x: Mapping,
                             min_open_y: Mapping, assignment: Mapping[str, str],
                             subset: Iterable[str]) -> tuple[str, str] | None:
    """Pairwise scan of the raw tables: the first (x, y) in ``subset``, least
    y then least x in ``points`` order, with x in U_y but f(x) not in
    U_f(y); None when f is monotone on the subset."""
    keep = set(subset)
    for y in points:
        if y not in keep:
            continue
        for x in points:
            if (x in keep and x in min_open_x[y]
                    and assignment[x] not in min_open_y[assignment[y]]):
                return x, y
    return None


# ---------------------------------------------------------------------------
# spaces on labels: the reference for the down-set mask FinSpace

@dataclass(frozen=True)
class LabelFinSpace:
    """A finite space as the label minimal open set of each point, the form
    ``pact.finspace.FinSpace`` had before it stored down-set masks."""

    points: tuple[str, ...]
    min_open: tuple[frozenset[str], ...]

    def index(self, x: str) -> int:
        if x not in self.points:
            raise ValidationError("unknown-point", (x,), f"unknown point {x!r}")
        return self.points.index(x)

    def min_open_of(self, x: str) -> frozenset[str]:
        return self.min_open[self.index(x)]

    def leq(self, x: str, y: str) -> bool:
        return x in self.min_open_of(y)

    def __len__(self) -> int:
        return len(self.points)


def as_label_space(space) -> LabelFinSpace:
    """A ``FinSpace`` read through its ``min_open_of`` label sets."""
    return LabelFinSpace(space.points, tuple(map(space.min_open_of, space.points)))


def mask_space(space: LabelFinSpace):
    """The ``FinSpace`` of a label space: one down-set mask per point, bit
    i set for each points[i] in its minimal open set."""
    from pact import FinSpace

    return FinSpace(space.points, tuple(sum(1 << space.index(q) for q in u)
                                        for u in space.min_open))


def label_space_from_min_opens(points, min_open) -> LabelFinSpace:
    """``pact.space_from_min_opens`` as it was when it stored label sets:
    the same checks, in the same order, with the same witnesses."""
    points = tuple(points)
    if not points:
        raise ValidationError("empty-space", (), "a space needs at least one point")
    if len(set(points)) != len(points):
        raise ValidationError("duplicate-point", (), "point labels must be unique")
    pointset = set(points)
    table: list[frozenset[str]] = []
    for p in points:
        if p not in min_open:
            raise ValidationError("missing-min-open", (p,), f"no minimal open set for {p!r}")
        u = frozenset(min_open[p])
        for q in sorted(u):
            if q not in pointset:
                raise ValidationError("unknown-point", (q,), f"U_{p!r} mentions unknown point {q!r}")
        if p not in u:
            raise ValidationError("min-open-membership", (p,), f"{p!r} is not in its own minimal open set")
        table.append(u)
    lookup = dict(zip(points, table))
    for p in points:
        for q in (q for q in points if q in lookup[p]):
            if not lookup[q] <= lookup[p]:
                bad = sorted(lookup[q] - lookup[p])[0]
                raise ValidationError("min-open-nesting", (q, p, bad),
                                      f"U_{q!r} is not contained in U_{p!r}")
    return LabelFinSpace(points, tuple(table))


def label_product(a: LabelFinSpace, b: LabelFinSpace):
    """The product with U_(x,y) = U_x x U_y on pair labels, in (x, y) order,
    plus its two projections as :class:`LabelSpaceMap`."""
    from pact import pair_label

    space = LabelFinSpace(tuple(pair_label(x, y) for x in a.points for y in b.points),
                          tuple(frozenset(pair_label(p, q) for p in u for q in v)
                                for u in a.min_open for v in b.min_open))
    p1 = LabelSpaceMap(space, a, tuple(x for x in a.points for _ in b.points))
    p2 = LabelSpaceMap(space, b, b.points * len(a))
    return space, p1, p2


def label_subspace(space: LabelFinSpace, subset) -> LabelFinSpace:
    """The subspace whose minimal opens are U_x intersected with the subset."""
    keep = set(subset)
    if not keep:
        raise ValidationError("empty-subset", (), "subspace needs a nonempty subset")
    for x in keep:
        space.index(x)
    points = tuple(p for p in space.points if p in keep)
    return LabelFinSpace(points, tuple(space.min_open_of(p) & keep for p in points))


def label_t0_quotient(space):
    """The quotient identifying the points with equal minimal open sets;
    ``space`` may be a ``FinSpace`` or a :class:`LabelFinSpace`."""
    classes: dict[frozenset[str], list[str]] = {}
    for p in space.points:
        classes.setdefault(frozenset(space.min_open_of(p)), []).append(p)
    return label_quotient(space, classes.values())


def label_is_T1(space: LabelFinSpace) -> bool:
    """Every singleton closed, checked against discreteness."""
    table = dict(zip(space.points, space.min_open))
    t1 = all(is_down_set(table, set(space.points) - {x}) for x in space.points)
    discrete = all(u == {x} for x, u in table.items())
    if t1 != discrete:
        raise InternalCheckError("T1 and discreteness disagree on a finite space")
    return t1


# ---------------------------------------------------------------------------
# maps on labels: the reference for the index-row SpaceMap

@dataclass(frozen=True)
class LabelSpaceMap:
    """A total point function as a tuple of image labels, the form
    ``pact.finspace.SpaceMap`` had before it stored index rows."""

    source: object
    target: object
    assignment: tuple[str, ...]

    @classmethod
    def from_row(cls, source, target, row) -> "LabelSpaceMap":
        return cls(source, target, tuple(map(target.points.__getitem__, row)))

    def __call__(self, x: str) -> str:
        return self.assignment[self.source.index(x)]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.source.points, self.assignment))

    def image(self, subset: Iterable[str]) -> frozenset[str]:
        return frozenset(self(x) for x in subset)

    def is_bijective(self) -> bool:
        return (len(self.source) == len(self.target)
                and len(set(self.assignment)) == len(self.target))

    def inverse(self) -> "LabelSpaceMap":
        if not self.is_bijective():
            raise ValidationError("not-bijective", (), "map has no inverse")
        back = {y: x for x, y in zip(self.source.points, self.assignment)}
        return LabelSpaceMap(self.target, self.source,
                             tuple(back[y] for y in self.target.points))


def label_is_open_map(m: LabelSpaceMap) -> bool:
    """Images of minimal opens are open, on label sets."""
    return all(is_open(m.target, m.image(m.source.min_open_of(x)))
               for x in m.source.points)


# ---------------------------------------------------------------------------
# partial actions

def partial_action_violation(elements, table, identity,
                             points, min_open,
                             domains: Mapping[str, Iterable[str]],
                             thetas: Mapping[str, Mapping[str, str]]) -> tuple | None:
    """Exhaustive scan of the partial-action axioms, continuity taken in the
    preimage sense on subspaces.  Assumes the group and space are valid."""
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        return table[index[a]][index[b]]

    def inv(a):
        return next(b for b in elements if mul(a, b) == identity == mul(b, a))

    dom = {g: frozenset(domains.get(g, ())) for g in elements}
    the = {g: dict(thetas.get(g, {})) for g in elements}
    allpts = frozenset(points)

    if dom[identity] != allpts:
        return ("pa3-domain", tuple(sorted(allpts ^ dom[identity])))
    for x in points:
        if the[identity].get(x) != x:
            return ("pa3-identity", (x,))
    opens = brute_opens(points, min_open)
    for g in elements:
        if dom[g] not in opens:
            return ("domain-not-open", (g,))
    for g in elements:
        if frozenset(the[g]) != dom[inv(g)]:
            return ("theta-domain", (g,))
        values = list(the[g].values())
        if len(set(values)) != len(values) or set(values) != set(dom[g]):
            return ("theta-not-bijective", (g,))
    for g in elements:
        src, tgt = dom[inv(g)], dom[g]
        sub_src = {p: set(min_open[p]) & src for p in src}
        sub_tgt = {p: set(min_open[p]) & tgt for p in tgt}
        if src and not preimage_continuous(sorted(src), sub_src, sorted(tgt),
                                           sub_tgt, the[g]):
            return ("theta-not-continuous", (g,))
        back = {y: x for x, y in the[g].items()}
        if tgt and not preimage_continuous(sorted(tgt), sub_tgt, sorted(src),
                                           sub_src, back):
            return ("theta-not-continuous", (inv(g),))
    for g in elements:
        for x, y in the[g].items():
            if the[inv(g)].get(y) != x:
                return ("theta-inverse-mismatch", (g, x))
    for g in elements:
        for h in elements:
            gh = mul(g, h)
            for x in dom[inv(h)]:
                hx = the[h][x]
                if hx in dom[inv(g)]:
                    if x not in dom[inv(gh)] or the[g][hx] != the[gh][x]:
                        return ("pa2", (g, h, x))
    return None


def label_validate_partial_action(group, space, domains: Mapping[str, Iterable[str]],
                                  thetas: Mapping[str, Mapping[str, str]]) -> None:
    """validate_partial_action as it was before it moved to index tables,
    kept as the reference for them: the same axioms in the same order,
    raising the same ValidationError (or InternalCheckError) with the same
    witness.  PA1 and the PA2 triple scan walk label dicts and the PA2
    domain identity walks domain masks.  Returns None when every axiom
    holds."""
    inv = {g: group.inv(g) for g in group.elements}
    dom: dict[str, frozenset[str]] = {}
    for g in group.elements:
        if g not in domains:
            raise ValidationError("domain-keys", (g,), f"no domain for element {g!r}")
        d = frozenset(domains[g])
        for x in sorted(d):
            space.index(x)
        dom[g] = d
    for g in domains:
        group.index(g)
    the: dict[str, dict[str, str]] = {}
    for g in group.elements:
        if g not in thetas:
            raise ValidationError("domain-keys", (g,), f"no map table for element {g!r}")
        table = dict(thetas[g])
        expected = dom[inv[g]]
        if frozenset(table) != expected:
            off = sorted(frozenset(table) ^ expected)[0]
            raise ValidationError("theta-domain", (g, off),
                                  f"theta_{g!r} must be defined exactly on X_({inv[g]!r})")
        for x, y in table.items():
            space.index(y)
        the[g] = table
    for g in thetas:
        group.index(g)

    e = group.identity
    allpts = frozenset(space.points)
    if dom[e] != allpts:
        missing = sorted(allpts - dom[e])[0]
        raise ValidationError("pa3-domain", (missing,), "X_e must be the whole space")
    for x in space.points:
        if the[e][x] != x:
            raise ValidationError("pa3-identity", (x,), "theta_e must be the identity")

    for g in group.elements:
        if not is_open(space, dom[g]):
            raise ValidationError("domain-not-open", (g,) + tuple(sorted(dom[g])),
                                  f"X_{g!r} is not open")

    points, index, down = space.points, space._index, space.down
    mask = {g: space.mask_of(dom[g]) for g in group.elements}
    # each domain in point order, so every scan below finds its first
    # violation in the same place under any hash seed
    ordered = {g: tuple(x for x in points if x in dom[g]) for g in group.elements}
    images: dict[str, list[int]] = {}
    for g in group.elements:
        tgt, table = dom[g], the[g]
        values = list(table.values())
        if len(set(values)) != len(values) or set(values) != set(tgt):
            raise ValidationError("theta-not-bijective", (g,),
                                  f"theta_{g!r} is not a bijection onto X_{g!r}")
        image = [0] * len(points)
        back = [0] * len(points)
        for x, y in table.items():
            i, j = index[x], index[y]
            image[i] = j
            back[j] = i
        images[g] = image
        bad = monotonicity_violation(down, mask[inv[g]], image, down)
        if bad:
            raise ValidationError("theta-not-continuous",
                                  (g, points[bad[0]], points[bad[1]]),
                                  f"theta_{g!r} is not monotone")
        # inverse continuity is PA1 plus the forward check on g^-1, but check
        # it directly so a broken inverse is caught before PA1 runs; the
        # witness (g, x, y) lives in X_g so it replays from theta_g alone.
        bad = monotonicity_violation(down, mask[g], back, down)
        if bad:
            raise ValidationError("theta-inverse-not-continuous",
                                  (g, points[bad[0]], points[bad[1]]),
                                  f"inverse of theta_{g!r} is not monotone")

    for g in group.elements:
        table, table_inv = the[g], the[inv[g]]
        for x in ordered[inv[g]]:
            if table_inv.get(table[x]) != x:
                raise ValidationError("theta-inverse-mismatch", (g, x),
                                      f"theta_{inv[g]!r} does not invert theta_{g!r}")

    pa2_scan: tuple | None = None
    for g in group.elements:
        dom_ginv, the_g = dom[inv[g]], the[g]
        for h in group.elements:
            gh = group.mul(g, h)
            dom_ghinv, the_h, the_gh = dom[inv[gh]], the[h], the[gh]
            for x in ordered[inv[h]]:
                hx = the_h[x]
                if hx not in dom_ginv:
                    continue
                if x not in dom_ghinv or the_g[hx] != the_gh[x]:
                    pa2_scan = (g, h, x)
                    break
            if pa2_scan:
                break
        if pa2_scan:
            break
    pa2_identity: tuple | None = None
    for g in group.elements:
        image = images[g]
        for h in group.elements:
            src, lhs = mask[inv[g]] & mask[h], 0
            while src:
                low = src & -src
                src ^= low
                lhs |= 1 << image[low.bit_length() - 1]
            if lhs != mask[g] & mask[group.mul(g, h)]:
                pa2_identity = (g, h)
                break
        if pa2_identity:
            break
    # The domain identity is a consequence of PA2 (never the other way: a
    # global action by mismatched homeomorphisms satisfies it vacuously), so
    # a passing scan with a failing identity is an internal inconsistency.
    if pa2_scan is None and pa2_identity is not None:
        raise InternalCheckError(
            f"PA2 triple scan passed but the domain identity fails at {pa2_identity}")
    if pa2_scan:
        raise ValidationError("pa2", pa2_scan,
                              "PA2 fails: theta_g(theta_h(x)) != theta_gh(x)")

    return None


def label_restrict_global(pa, open_subset):
    """The restriction of a global action to an open subset U on labels,
    X_g = U & mu_g(U) and theta_g = mu_g restricted, run through the full
    validator: ``pact.restrict_global`` as it was before it re-indexed the
    parent's rows."""
    from pact import is_open, subspace, validate_partial_action

    if not pa.is_global():
        raise ValidationError("not-global", (), "restriction needs a global action")
    u = frozenset(open_subset)
    if not u:
        raise ValidationError("empty-subset", (), "restriction needs a nonempty subset")
    if not is_open(pa.space, u):
        raise ValidationError("not-open", tuple(sorted(u)), "restriction subset must be open")
    sub = subspace(pa.space, u)
    domains = {}
    thetas = {}
    for g in pa.group.elements:
        image = frozenset(label_apply(pa, g, x) for x in u)
        domains[g] = u & image
    for g in pa.group.elements:
        src = domains[pa.group.inv(g)]
        thetas[g] = {x: label_apply(pa, g, x) for x in src}
    return validate_partial_action(pa.group, sub, domains, thetas)



def label_split_diagonal_factors(pa):
    """The two factors of a diagonal-product action read off its pair
    labels, or None, with every check made on its own: each minimal open
    is the product of the factors', each domain is a grid, each theta acts
    coordinate by coordinate, and the rebuilt diagonal product equals
    ``pa`` label for label.  ``pact.split_diagonal_factors`` as it was
    before it left the first three to the last."""
    from pact import (diagonal_product, pair_label, space_from_min_opens,
                      split_pair_label, validate_partial_action)

    pts = pa.space.points
    split = [split_pair_label(p) for p in pts]
    if any(s is None for s in split):
        return None
    firsts: list[str] = []
    seconds: list[str] = []
    for a, b in split:
        if a not in firsts:
            firsts.append(a)
        if b not in seconds:
            seconds.append(b)
    if len(pts) != len(firsts) * len(seconds):
        return None
    if {pair_label(a, b) for a in firsts for b in seconds} != set(pts):
        return None

    def u1(p: str) -> set[str]:
        return {p2 for p2 in firsts
                if all(pair_label(p2, q) in pa.space.min_open_of(pair_label(p, q))
                       for q in seconds)}

    def u2(q: str) -> set[str]:
        return {q2 for q2 in seconds
                if all(pair_label(p, q2) in pa.space.min_open_of(pair_label(p, q))
                       for p in firsts)}

    opens_1 = {p: u1(p) for p in firsts}
    opens_2 = {q: u2(q) for q in seconds}
    for a, b in split:
        expected = {pair_label(p, q) for p in opens_1[a] for q in opens_2[b]}
        if expected != set(pa.space.min_open_of(pair_label(a, b))):
            return None
    try:
        space_1 = space_from_min_opens(firsts, opens_1)
        space_2 = space_from_min_opens(seconds, opens_2)
    except ValidationError:
        return None

    domains_1: dict[str, set[str]] = {}
    domains_2: dict[str, set[str]] = {}
    for g in pa.group.elements:
        domains_1[g] = {a for a, _ in (split_pair_label(p) for p in pa.domains[g])}
        domains_2[g] = {b for _, b in (split_pair_label(p) for p in pa.domains[g])}
        if {pair_label(a, b) for a in domains_1[g] for b in domains_2[g]} != set(pa.domains[g]):
            return None
    thetas_1: dict[str, dict[str, str]] = {}
    thetas_2: dict[str, dict[str, str]] = {}
    for g in pa.group.elements:
        t1: dict[str, str] = {}
        t2: dict[str, str] = {}
        for p in pa.domains[pa.group.inv(g)]:
            a, b = split_pair_label(p)
            ia, ib = split_pair_label(pa.thetas[g][p])
            if t1.setdefault(a, ia) != ia or t2.setdefault(b, ib) != ib:
                return None
        thetas_1[g] = t1
        thetas_2[g] = t2
    try:
        pa_1 = validate_partial_action(pa.group, space_1, domains_1, thetas_1)
        pa_2 = validate_partial_action(pa.group, space_2, domains_2, thetas_2)
        diag = diagonal_product(pa_1, pa_2)
    except ValidationError:
        return None
    same = (set(diag.space.points) == set(pts)
            and all(diag.space.min_open_of(p) == pa.space.min_open_of(p) for p in pts)
            and all(diag.domains[g] == pa.domains[g] for g in pa.group.elements)
            and all(dict(diag.thetas[g]) == dict(pa.thetas[g]) for g in pa.group.elements))
    if not same:
        return None
    return pa_1, pa_2

def brute_orbits(elements, mul, inv, identity, points,
                 domains, thetas) -> list[frozenset[str]]:
    """Orbits by explicit union-find over the one-step reachability."""
    parent = {x: x for x in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for g in elements:
        for x, y in thetas.get(g, {}).items():
            union(x, y)
    groups: dict[str, set[str]] = {}
    for x in points:
        groups.setdefault(find(x), set()).add(x)
    return [frozenset(v) for v in groups.values()]


# ---------------------------------------------------------------------------
# globalization by explicit relation closure

def brute_globalization_classes(elements, table, identity,
                                points, domains, thetas
                                ) -> list[frozenset[tuple[str, str]]]:
    """Classes of G x X under the enveloping relation, computed with an
    explicit reflexive/symmetric/transitive Warshall closure."""
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        return table[index[a]][index[b]]

    def inv(a):
        return next(b for b in elements if mul(a, b) == identity == mul(b, a))

    pairs = [(g, x) for g in elements for x in points]
    pidx = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    rel = [[False] * n for _ in range(n)]
    for (g, x) in pairs:
        for (h, y) in pairs:
            k = mul(inv(g), h)
            if x in domains.get(k, ()) and thetas[inv(k)].get(x) == y:
                rel[pidx[(g, x)]][pidx[(h, y)]] = True
    for i in range(n):
        rel[i][i] = True
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                rel[j][i] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    seen = set()
    classes = []
    for i in range(n):
        members = frozenset(pairs[j] for j in range(n) if rel[i][j])
        if members not in seen:
            seen.add(members)
            classes.append(members)
    return classes


# ---------------------------------------------------------------------------
# quotients and partitions

def closure_quotient_order(points: list[str], min_open: Mapping,
                           classes: list[list[str]]) -> list[set[int]]:
    """Per class j, the indices of the classes below it in the quotient
    preorder: [x] <= [y] for every x in U_y, closed reflexively and
    transitively by Warshall's algorithm."""
    cls_of = {x: k for k, cls in enumerate(classes) for x in cls}
    n = len(classes)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for y in points:
        for x in min_open[y]:
            rel[cls_of[x]][cls_of[y]] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return [{i for i in range(n) if rel[i][j]} for j in range(n)]


def is_down_set(min_open: Mapping, subset: Iterable[str]) -> bool:
    """Openness by the definition: the subset contains U_y for each y in it."""
    keep = set(subset)
    return all(set(min_open[y]) <= keep for y in keep)


def exhaustive_equivalence_classes(rel, name: str, label) -> list[int]:
    """Classes of a relation given as one bitmask of related indices per
    index, after the exhaustive scan of every related pair: the first
    failed reflexivity, symmetry or transitivity check raises
    InternalCheckError naming the relation and the offending indices
    through ``label``.  The class masks come ordered by least member.  The
    reference for ``pact.finspace.equivalence_classes``, whose certificate
    must agree with it on every relation."""
    for i, row in enumerate(rel):
        if not row & (1 << i):
            raise InternalCheckError(f"{name} not reflexive at {label(i)!r}")
        for j in range(len(rel)):
            if not row >> j & 1:
                continue
            if not rel[j] & (1 << i):
                raise InternalCheckError(
                    f"{name} not symmetric at ({label(i)!r}, {label(j)!r})")
            if rel[j] & ~row:
                raise InternalCheckError(
                    f"{name} not transitive through ({label(i)!r}, {label(j)!r})")
    classes = []
    covered = 0
    for i, row in enumerate(rel):
        if not covered >> i & 1:
            classes.append(row)
            covered |= row
    return classes


def random_partition(rng, items: list[str]) -> list[list[str]]:
    k = rng.randint(1, len(items))
    blocks: list[list[str]] = [[] for _ in range(k)]
    for it in items:
        blocks[rng.randrange(k)].append(it)
    return [b for b in blocks if b]


# ---------------------------------------------------------------------------
# class counts in closed form

def globalization_class_count(elements, table, identity, points, domains, thetas
                              ) -> Fraction:
    """The class count of the globalization in closed form, from label
    tables: the sum over the orbits of |G| / |G_r|, G_r the isotropy group
    of a point r of the orbit, as the G-orbit of r's class in X_G is G/G_r
    and these orbits cover X_G.  The orbits are closed by search over the
    theta tables, not read in one step."""
    seen: set[str] = set()
    count = Fraction(0)
    for r in points:
        if r in seen:
            continue
        orbit, todo = {r}, [r]
        while todo:
            x = todo.pop()
            for g in elements:
                y = thetas[g].get(x)
                if y is not None and y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        seen |= orbit
        count += Fraction(len(elements), sum(thetas[g].get(r) == r for g in elements))
    return count


def twisted_class_count(big_order: int, elements, table, identity, points, domains,
                        thetas) -> Fraction:
    """The class count of G x_K X in closed form, from K's label tables and
    |G|: |G| times the sum over x of 1 / |H_x|, H_x = {k : theta_k(x) is
    defined}.  The class of (g, x) is {(g k^-1, theta_k(x)) : k in H_x},
    with one member per k, so each pair counts 1 / |H_x| of a class."""
    return big_order * sum(Fraction(1, sum(x in thetas[k] for k in elements))
                           for x in points)


# ---------------------------------------------------------------------------
# twisted products by explicit one-step union-find

def brute_twisted_classes(big_elements, big_table, identity, k_elements,
                          points, domains, thetas
                          ) -> list[frozenset[tuple[str, str]]]:
    """Classes of G x X under (g,x) ~ (g k^-1, theta_k(x)) for k in K^x."""
    index = {e: i for i, e in enumerate(big_elements)}

    def mul(a, b):
        return big_table[index[a]][index[b]]

    def inv(a):
        return next(b for b in big_elements if mul(a, b) == identity == mul(b, a))

    pairs = [(g, x) for g in big_elements for x in points]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rq] = rp

    for (g, x) in pairs:
        for k in k_elements:
            if x in domains.get(inv(k), ()):
                union((g, x), (mul(g, inv(k)), thetas[k][x]))
    groups: dict[tuple[str, str], set] = {}
    for p in pairs:
        groups.setdefault(find(p), set()).add(p)
    return [frozenset(v) for v in groups.values()]


# ---------------------------------------------------------------------------
# map search: the copying DFS, the reference for the in-place search

def copying_search_maps(source, target, allowed, moves, node_budget: int,
                        max_maps: int, repeats: list | None = None) -> list[tuple[int, ...]]:
    """``pact.finspace._search_maps`` as a copying DFS: the same search,
    copying the whole candidate list at every node.  Each block is given
    point by point: ``moves[i]`` lists (x, row) for every other point x of
    i's block, with f(x) = row[f(i)].  Rows, node counts and every
    ``BoundExceeded`` must match it.

    With a ``repeats`` list, every subtree whose state, the candidate masks
    of the points not yet chosen at two or more of them, was met before
    appends the nodes and the rows counted before it and after it: the
    subtrees the in-place search may replay instead of walking.  A node
    budget or a map cap in [before, after) stops the search inside one."""
    from pact import BoundExceeded

    n, m = len(source), len(target)
    tgt_down, tgt_up = target.down, target._up_masks
    src_down = [[i for i in range(n) if source.down[j] & (1 << i) and i != j]
                for j in range(n)]
    src_up = [[j for j in range(n) if source.down[j] & (1 << i) and i != j]
              for i in range(n)]

    every = range(n)
    out: list[tuple[int, ...]] = []
    nodes = 0

    def assign(cands, chosen, x, v) -> bool:
        # f(x) = v: a candidate of x, narrowing x's unchosen neighbours
        if v < 0 or not cands[x] >> v & 1:
            return False
        cands[x] = 1 << v
        chosen[x] = v
        for near, narrow in ((src_up[x], tgt_up[v]), (src_down[x], tgt_down[v])):
            for i2 in near:
                if i2 not in chosen:
                    cands[i2] &= narrow
                    if not cands[i2]:
                        return False
        return True

    met: set[tuple[int, ...]] = set()

    def search(cands: list[int], chosen: dict[int, int]):
        nonlocal nodes
        if len(chosen) == n:
            out.append(tuple(map(chosen.__getitem__, every)))
            if len(out) > max_maps:
                raise BoundExceeded("map enumeration (maps)", max_maps, len(out))
            return
        state = None
        if repeats is not None and n - len(chosen) > 1:
            state = tuple(-1 if i in chosen else cands[i] for i in every)
            before = nodes, len(out)
        best, best_count = -1, m + 1
        for i in range(n):
            if i not in chosen:
                count = cands[i].bit_count()
                if count < best_count:
                    best, best_count = i, count
        mask = cands[best]
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                raise BoundExceeded("map enumeration (nodes)", node_budget, nodes)
            nxt, now = list(cands), dict(chosen)
            if assign(nxt, now, best, j) and all(assign(nxt, now, x, row[j])
                                                 for x, row in moves[best]):
                search(nxt, now)
        if state is not None:
            if state in met:
                repeats.append((before[0], nodes, before[1], len(out)))
            met.add(state)

    try:
        search(list(allowed), {})
    finally:
        del search
    out.sort()
    return out


def copying_enumerate_G_maps(pa_x, pa_y, node_budget: int = 1_000_000, max_maps: int = 4096,
                             repeats: list | None = None) -> list[tuple[int, ...]]:
    """The G-maps X -> Y by :func:`copying_search_maps`, with the blocks
    read off the label tables point by point: the candidates of x are the
    values v with eta_g(v) defined for every g with theta_g(x) defined,
    and fixed wherever theta_g fixes x; the block of x is its orbit
    {theta_g(x)}, and the value at theta_g(x) is eta_g of the value at x,
    for the first such g in element order."""
    src, tgt = pa_x.space, pa_y.space
    thetas_x, thetas_y = pa_x.thetas, pa_y.thetas
    allowed, moves = [], []
    for x in src.points:
        at_x = [g for g in pa_x.group.elements if x in thetas_x[g]]
        allowed.append(sum(1 << tgt.index(v) for v in tgt.points
                           if all(v in thetas_y[g]
                                  and (thetas_x[g][x] != x or thetas_y[g][v] == v)
                                  for g in at_x)))
        reached: dict[str, str] = {}
        for g in at_x:
            reached.setdefault(thetas_x[g][x], g)
        moves.append([(src.index(x2), [tgt.index(thetas_y[g][v]) if v in thetas_y[g] else -1
                                       for v in tgt.points])
                      for x2, g in reached.items() if x2 != x])
    return copying_search_maps(src, tgt, allowed, moves, node_budget, max_maps, repeats)


def fence_map_count(length: int, points, min_open: Mapping) -> int:
    """The number of monotone maps from the fence x0 < y0 > x1 < ... >
    x_{length-1} into the raw space (points, min_open), by a transfer
    matrix along the fence: ``ways[v]`` counts the maps of the points so
    far that send the last one to v, where a <= b iff a is in U_b."""
    below = {b: set(min_open[b]) for b in points}
    ways = dict.fromkeys(points, 1)
    for _ in range(length - 1):
        peak = {w: sum(ways[v] for v in below[w]) for w in points}
        ways = {v: sum(peak[w] for w in points if v in below[w]) for v in points}
    return sum(ways.values())


def pairs_inside(rng, repeats, count: int = 20) -> list[tuple[int, int]]:
    """(node budget, map cap) pairs that stop a search inside ``count`` of
    the ``repeats`` that :func:`copying_search_maps` lists: a budget with
    maps uncapped and a cap with nodes unbounded for each."""
    unbounded = 1 << 40
    pairs = []
    for nodes_before, nodes_after, rows_before, rows_after in rng.sample(
            repeats, min(count, len(repeats))):
        pairs.append((rng.randrange(nodes_before, nodes_after), unbounded))
        if rows_after > rows_before:
            pairs.append((unbounded, rng.randrange(rows_before, rows_after)))
    return pairs


def search_outcome(search, node_budget: int, max_maps: int):
    """A search's rows, or the kind, limit and need of its BoundExceeded;
    ``search`` takes (node_budget, max_maps)."""
    from pact import BoundExceeded

    try:
        return "rows", search(node_budget, max_maps)
    except BoundExceeded as exc:
        return "bound", exc.what, exc.limit, exc.needed


def assert_same_search(fast, reference, rng, max_budgets: int = 300,
                       extra: Iterable[tuple[int, int]] = ()) -> int:
    """Assert that two searches, each taking (node_budget, max_maps), agree
    on their rows and on every BoundExceeded: at each node budget from 0 up
    to the full node count (a sample of ``max_budgets`` of them when there
    are more) with maps uncapped, at map caps around 0, 1 and the map count
    with nodes unbounded, at a few random pairs of the two, and at the
    ``extra`` pairs.  Returns the full node count."""
    unbounded = 1 << 40
    rows = reference(unbounded, unbounded)
    assert fast(unbounded, unbounded) == rows
    # the full node count is the least budget that lets the search finish
    low, high = -1, 1
    while search_outcome(reference, high, unbounded)[0] == "bound":
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if search_outcome(reference, mid, unbounded)[0] == "bound":
            low = mid
        else:
            high = mid
    nodes = high
    budgets = range(nodes + 1)
    if nodes > max_budgets:
        # one below the node count stops the search at its last node
        budgets = sorted({0, nodes - 1, nodes, *rng.sample(budgets, max_budgets)})
    caps = {0, 1, 2, max(0, len(rows) - 1), len(rows)}
    pairs = ([(budget, unbounded) for budget in budgets]
             + [(unbounded, cap) for cap in caps]
             + [(rng.randint(0, nodes), rng.randint(0, len(rows))) for _ in range(10)]
             + list(extra))
    for budget, cap in pairs:
        assert (search_outcome(fast, budget, cap)
                == search_outcome(reference, budget, cap)), (budget, cap)
    return nodes


# ---------------------------------------------------------------------------
# the finite-interval (fence) model of homotopy

def fence_space_raw(m: int):
    """The zigzag poset f0 <= f1 >= f2 <= ... as raw (points, min_open)."""
    points = [f"f{i}" for i in range(m)]
    min_open = {}
    for i in range(m):
        if i % 2 == 0:
            min_open[points[i]] = [points[i]]
        else:
            inside = [points[i - 1], points[i]]
            if i + 1 < m:
                inside.append(points[i + 1])
            min_open[points[i]] = inside
    return points, min_open


def interval_homotopy_exists(space_x, space_y, f, g, max_m: int = 4) -> bool:
    """Brute-force search for a continuous H : X x F_m -> Y with
    H(.,f0) = f and H(.,last) = g, for some fence length m <= max_m."""
    xs = list(space_x.points)
    for m in range(1, max_m + 1):
        fpoints, fopen = fence_space_raw(m)
        cells = [(x, t) for x in xs for t in fpoints]

        def leq_cell(c1, c2):
            (x1, t1), (x2, t2) = c1, c2
            return x1 in space_x.min_open_of(x2) and t1 in fopen[t2]

        fixed = {}
        for x in xs:
            fixed[(x, fpoints[0])] = f(x)
            fixed[(x, fpoints[-1])] = g(x)
        if m == 1 and any(f(x) != g(x) for x in xs):
            continue
        free = [c for c in cells if c not in fixed]

        def consistent(assign) -> bool:
            return all(assign[c1] in space_y.min_open_of(assign[c2])
                       for c1 in cells for c2 in cells if leq_cell(c1, c2))

        if not free:
            if consistent(fixed):
                return True
            continue
        for values in itertools.product(space_y.points, repeat=len(free)):
            assign = dict(fixed)
            assign.update(dict(zip(free, values)))
            if consistent(assign):
                return True
    return False


def alternating_fence(poset_fence: list) -> list:
    """Pad a fence so comparabilities alternate up/down, matching F_m."""
    if not poset_fence:
        return poset_fence
    out = [poset_fence[0]]
    for nxt in poset_fence[1:]:
        last = out[-1]
        up_needed = (len(out) - 1) % 2 == 0
        target = last.target
        goes_up = all(a in target.min_open_of(b)
                      for a, b in zip(last.assignment, nxt.assignment))
        goes_down = all(b in target.min_open_of(a)
                        for a, b in zip(last.assignment, nxt.assignment))
        if (up_needed and goes_up) or (not up_needed and goes_down):
            out.append(nxt)
        else:
            out.append(last)
            out.append(nxt)
    if (len(out) - 1) % 2 == 1:
        out.append(out[-1])
    return out


def homotopy_from_fence(space_x, space_y, fence: list) -> bool:
    """Build H on X x F_m from an alternating fence and verify continuity."""
    fence = alternating_fence(fence)
    m = len(fence)
    fpoints, fopen = fence_space_raw(m)
    assign = {(x, fpoints[i]): fence[i](x)
              for i in range(m) for x in space_x.points}
    for (x1, t1) in assign:
        for (x2, t2) in assign:
            if x1 in space_x.min_open_of(x2) and t1 in fopen[t2]:
                if assign[(x1, t1)] not in space_y.min_open_of(assign[(x2, t2)]):
                    return False
    return True


def is_contractible(space) -> bool:
    """True iff the core of the Kolmogorov quotient is a single point, by
    pact's ``core`` (which the tests check against :func:`label_core`)."""
    from pact import core

    return len(core(space)) == 1


# ---------------------------------------------------------------------------
# canonical globalization document, rebuilt from the relation closure

def globalization_document(pa) -> dict:
    """The globalization document from the brute-force relation closure,
    following the same canonical labelling rules as the library."""
    from pact import pair_label

    grp, space = pa.group, pa.space
    elements = list(grp.elements)
    table = [list(r) for r in grp.table]
    points = list(space.points)
    domains = {g: pa.domains[g] for g in elements}
    thetas = {g: dict(pa.thetas[g]) for g in elements}
    classes = brute_globalization_classes(elements, table, grp.identity,
                                          points, domains, thetas)

    def least(cls):
        return min(cls, key=lambda gx: (grp.index(gx[0]), space.index(gx[1])))

    ordered = sorted(classes, key=lambda c: (grp.index(least(c)[0]),
                                             space.index(least(c)[1])))
    label = {cls: pair_label(*least(cls)) for cls in ordered}
    of_pair = {gx: label[cls] for cls in ordered for gx in cls}

    def preimage_open(subset) -> bool:
        pre = {gx for gx in of_pair if of_pair[gx] in subset}
        return all((g, y) in pre for (g, x) in pre for y in space.min_open_of(x))

    order = {label[c]: i for i, c in enumerate(ordered)}
    labels = [label[c] for c in ordered]
    min_open = {}
    for cls in ordered:
        a = {label[cls]}
        changed = True
        while changed:
            changed = False
            pre = [gx for gx in of_pair if of_pair[gx] in a]
            for (g, x) in pre:
                for y in space.min_open_of(x):
                    if of_pair[(g, y)] not in a:
                        a.add(of_pair[(g, y)])
                        changed = True
        assert preimage_open(a)
        min_open[label[cls]] = sorted(a, key=order.__getitem__)

    action = {}
    for g in elements:
        action[g] = {}
        for cls in ordered:
            h, x = least(cls)
            action[g][label[cls]] = of_pair[(grp.mul(g, h), x)]
    return {
        "group": list(elements),
        "class_count": len(ordered),
        "classes": {label[c]: [[g, x] for g, x in
                               sorted(c, key=lambda gx: (grp.index(gx[0]),
                                                         space.index(gx[1])))]
                    for c in ordered},
        "total": {"points": labels, "min_open": min_open},
        "action": action,
        "embedding": {x: of_pair[(grp.identity, x)] for x in points},
    }


# ---------------------------------------------------------------------------
# envelope class members and the homotopy-preservation scan, brute force

def brute_members(env, label: str) -> list[tuple[str, str]]:
    """The pairs (g, x) in class ``label``, found by scanning the whole class
    table and sorting in (element, point) order."""
    pairs = [gx for gx, lab in label_view(env).classes.items() if lab == label]
    pairs.sort(key=lambda gx: (env.big_group.index(gx[0]),
                               env.base.space.index(gx[1])))
    return pairs


def pairwise_split_pair(components, images) -> tuple[int, int] | None:
    """Every pair i < j in order: the first with equal components and
    different images, or None."""
    n = len(components)
    for i in range(n):
        for j in range(i + 1, n):
            if components[i] == components[j] and images[i] != images[j]:
                return i, j
    return None


# ---------------------------------------------------------------------------
# predicates only the tests use

def label_apply(pa, g: str, x: str) -> str:
    """theta_g(x) on labels; ValidationError "undefined" off X_{g^-1}."""
    y = pa.images[pa.group.index(g)][pa.space.index(x)]
    if y < 0:
        raise ValidationError("undefined", (g, x), f"theta_{g!r} is undefined at {x!r}")
    return pa.space.points[y]


def _check_parallel(f, g) -> None:
    if f.source != g.source or f.target != g.target:
        raise ValidationError("space-mismatch", (), "maps must be parallel")


def are_homotopic(f, g) -> bool:
    """Fence-connectivity of f and g in the full poset of continuous maps."""
    from pact import enumerate_maps, is_continuous

    _check_parallel(f, g)
    for m in (f, g):
        if not is_continuous(m):
            raise ValidationError("not-continuous", (), "homotopy needs continuous maps")
    poset = enumerate_maps(f.source, f.target)
    return poset.components[poset.index_of(f.row)] == poset.components[poset.index_of(g.row)]


def are_G_homotopic(f, g, pa_x, pa_y) -> bool:
    """Fence-connectivity inside the poset of G-maps."""
    from pact import enumerate_maps, is_G_map

    _check_parallel(f, g)
    for m in (f, g):
        if not is_G_map(m, pa_x, pa_y):
            raise ValidationError("not-a-G-map", (), "equivariant homotopy needs G-maps")
    poset = enumerate_maps(f.source, f.target, equivariant=(pa_x, pa_y))
    return poset.components[poset.index_of(f.row)] == poset.components[poset.index_of(g.row)]


def is_free(pa) -> bool:
    """No nonidentity element fixes a point where it is defined."""
    e = pa.group.identity
    return not any(label_apply(pa, g, x) == x
                   for g in pa.group.elements if g != e
                   for x in pa.domains[pa.group.inv(g)])


def is_G_homeomorphism(f, pa_x, pa_y) -> bool:
    """Bijective G-map whose inverse is also a G-map."""
    from pact import is_G_map

    if not f.is_bijective():
        return False
    if not is_G_map(f, pa_x, pa_y):
        return False
    return is_G_map(f.inverse(), pa_y, pa_x)


def envelopes_G_homotopic(f, g, pa_x, pa_y) -> bool:
    """Whether the maps f, g induce G-homotopic maps of the globalizations."""
    from pact import envelope_of_map, globalize

    env_x, env_y = globalize(pa_x), globalize(pa_y)
    ef = envelope_of_map(f, pa_x, pa_y, env_x=env_x, env_y=env_y)
    eg = envelope_of_map(g, pa_x, pa_y, env_x=env_x, env_y=env_y)
    return are_G_homotopic(ef, eg, env_x.as_global_action(), env_y.as_global_action())


def label_envelope_of_map(f, pa_x, pa_y, big=None, env_x=None, env_y=None):
    """The induced map [g,x] |-> [g,f(x)] of one map, on labels: descend
    through the class table, then check continuity and equivariance point
    by point.  The reference for ``pact.envelope.lift_maps``."""
    from pact import SpaceMap, is_continuous, is_G_map, twisted_product

    if not is_G_map(f, pa_x, pa_y):
        raise ValidationError("not-a-G-map", (), "envelope_of_map needs an equivariant map")
    big = big or pa_x.group
    if env_x is None:
        env_x = twisted_product(pa_x, big)
    if env_y is None:
        env_y = twisted_product(pa_y, big)
    view_x, view_y = label_view(env_x), label_view(env_y)
    values, clash = view_x.descend(lambda g, x: view_y.class_of(g, f(x)))
    if clash is not None:
        raise InternalCheckError(f"induced map not well defined at {clash!r}")
    out = SpaceMap.from_dict(env_x.total, env_y.total, dict(zip(env_x.total.points, values)))
    if not is_continuous(out):
        raise InternalCheckError("induced map is not continuous")
    for g in big.elements:
        for c in env_x.total.points:
            if view_y.action[g][out(c)] != out(view_x.action[g][c]):
                raise InternalCheckError("induced map is not equivariant")
    return out


def label_g_map_faults(rows, pa_x, pa_y) -> tuple[int, int]:
    """Bitmasks of the index rows (maps X -> Y) that are not monotone, by a
    pairwise scan of the minimal open sets, and of those with
    eta_g(f(x)) != f(theta_g(x)), or eta_g(f(x)) undefined, for some g and
    x in X_{g^-1}, on labels."""
    src, tgt, grp = pa_x.space, pa_y.space, pa_x.group
    min_open_x = {x: src.min_open_of(x) for x in src.points}
    min_open_y = {y: tgt.min_open_of(y) for y in tgt.points}
    discontinuous = non_equivariant = 0
    for k, row in enumerate(rows):
        f = {x: tgt.points[j] for x, j in zip(src.points, row)}
        if first_monotone_violation(list(src.points), min_open_x, min_open_y,
                                    f, src.points) is not None:
            discontinuous |= 1 << k
        if any(f[x] not in pa_y.thetas[g]
               or label_apply(pa_y, g, f[x]) != f[label_apply(pa_x, g, x)]
               for g in grp.elements for x in pa_x.domains[grp.inv(g)]):
            non_equivariant |= 1 << k
    return discontinuous, non_equivariant


def label_lift_rows(source, target, rows, pa_x, pa_y, env_x, env_y, big=None):
    """Each row lifted by :func:`label_envelope_of_map`, one at a time and in
    order, as index rows; the first failure propagates."""
    from pact import SpaceMap

    index = env_y.total.index
    return [tuple(map(index, label_envelope_of_map(
                SpaceMap(source, target, row), pa_x, pa_y, big,
                env_x=env_x, env_y=env_y).assignment))
            for row in rows]


def _label_comparable(f, g) -> bool:
    below = f.target.min_open_of
    pairs = list(zip(f.assignment, g.assignment))
    return all(a in below(b) for a, b in pairs) or all(b in below(a) for a, b in pairs)


def label_components(maps) -> tuple[int, ...]:
    """Fence components of a list of SpaceMaps, numbered in order of their
    first member, by search over pairwise label comparisons."""
    comp = [-1] * len(maps)
    current = 0
    for start in range(len(maps)):
        if comp[start] >= 0:
            continue
        comp[start] = current
        stack = [start]
        while stack:
            a = stack.pop()
            for b in range(len(maps)):
                if comp[b] < 0 and _label_comparable(maps[a], maps[b]):
                    comp[b] = current
                    stack.append(b)
        current += 1
    return tuple(comp)


def label_fence(maps, i: int, j: int):
    """A shortest fence from maps[i] to maps[j] by breadth-first search with
    neighbours in list order, or None."""
    prev = {i: None}
    frontier = [i]
    while frontier and j not in prev:
        nxt = []
        for a in frontier:
            for b in range(len(maps)):
                if b not in prev and _label_comparable(maps[a], maps[b]):
                    prev[b] = a
                    nxt.append(b)
        frontier = nxt
    if j not in prev:
        return None
    path = []
    cur = j
    while cur is not None:
        path.append(maps[cur])
        cur = prev[cur]
    return path[::-1]


def full_comparability_masks(rows, down) -> list[int]:
    """Per index row k: bitmask of the rows pointwise comparable to it,
    itself included, ``down`` the target's down-set masks.  Every row's
    whole mask is built, from column masks made one entry at a time: the
    rows below k are those whose value at each column lies in the down-set
    of k's value there, and the rows above k those whose value has k's value
    in its down-set."""
    m = len(down)
    columns = column_masks_by_definition(rows, len(rows[0]), m)
    below = [[0] * m for _ in columns]
    above = [[0] * m for _ in columns]
    for col, lo, hi in zip(columns, below, above):
        for j in range(m):
            for v in range(m):
                if down[j] >> v & 1:
                    lo[j] |= col[v]
                if down[v] >> j & 1:
                    hi[j] |= col[v]
    masks = []
    for row in rows:
        lo = hi = (1 << len(rows)) - 1
        for c, value in enumerate(row):
            lo &= below[c][value]
            hi &= above[c][value]
        masks.append(lo | hi)
    return masks


def _set_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def unpruned_components(masks) -> tuple[int, ...]:
    """Fence components from full comparability masks: a breadth-first
    sweep per component that takes every row's whole mask and runs until no
    row is new; components numbered in order of their first row."""
    comp = [-1] * len(masks)
    current = 0
    for start in range(len(masks)):
        if comp[start] >= 0:
            continue
        frontier = seen = 1 << start
        while frontier:
            reach = 0
            for k in _set_bits(frontier):
                reach |= masks[k]
            frontier = reach & ~seen
            seen |= frontier
        for k in _set_bits(seen):
            comp[k] = current
        current += 1
    return tuple(comp)


def unpruned_fence(masks, i: int, j: int) -> list[int] | None:
    """A shortest fence from row i to row j as row positions, or None:
    breadth-first from i over full comparability masks, each level run to
    its end, new rows taken in row order under the first parent in
    frontier order."""
    prev = {i: None}
    seen = 1 << i
    frontier = [i]
    while frontier and j not in prev:
        nxt = []
        for a in frontier:
            new = masks[a] & ~seen
            seen |= new
            for b in _set_bits(new):
                prev[b] = a
                nxt.append(b)
        frontier = nxt
    if j not in prev:
        return None
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def column_masks_by_definition(rows, width: int, m: int) -> list[list[int]]:
    """masks[i][j] has bit k set iff rows[k][i] == j, one entry at a time."""
    masks = [[0] * m for _ in range(width)]
    for k, row in enumerate(rows):
        for i, j in enumerate(row):
            masks[i][j] |= 1 << k
    return masks


def spread_by_definition(columns, masks) -> list[list[int]]:
    """Per column and target point j: the rows whose value in that column
    lies in ``masks[j]``.  Each row's value is read off the column masks one
    row at a time (row k has value v where bit k of ``col[v]`` is set), and
    each row is tested against each target's mask."""
    out = []
    for col in columns:
        value = {}
        for v, rows in enumerate(col):
            digits = bin(rows)[:1:-1]  # row 0's digit first
            k = digits.find("1")
            while k >= 0:
                value[k] = v
                k = digits.find("1", k + 1)
        out.append([sum(1 << k for k, v in value.items() if mask >> v & 1)
                    for mask in masks])
    return out


def theta_map(pa, g: str):
    """theta_g as a map of subspaces X_{g^-1} -> X_g."""
    from pact import SpaceMap, ValidationError, subspace

    ginv = pa.group.inv(g)
    if not pa.domains[ginv]:
        raise ValidationError("empty-subset", (g,), f"X_{ginv!r} is empty")
    src = subspace(pa.space, pa.domains[ginv])
    tgt = subspace(pa.space, pa.domains[g])
    return SpaceMap.from_dict(src, tgt, dict(pa.thetas[g]))


def worst_status(reports) -> str:
    order = {"fails": 3, "skipped-bounds": 2, "precondition-unmet": 1, "holds": 0}
    worst = "holds"
    for rep in reports:
        if order[rep.status] > order[worst]:
            worst = rep.status
    return worst


# ---------------------------------------------------------------------------
# local equivariant contractibility by exhaustive neighbourhood scan

def exhaustive_locally_G_contractible(pa, max_points: int = 12) -> bool:
    """For every point x and every G_x-invariant open U containing x, some
    G_x-invariant open V with x in V, V inside U admits a fence (of
    G_x-maps V -> U) from the inclusion to a constant at a G_x-fixed point.

    All invariant open neighbourhoods are enumerated and every (x, U, V)
    runs a G-map search; no minimality shortcut is taken.
    """
    from pact import (BoundExceeded, SpaceMap, Subgroup, enumerate_maps, enumerate_opens,
                      fixed_points, is_invariant, restrict_invariant, restrict_to_subgroup)

    if len(pa.space) > max_points:
        raise BoundExceeded("local contractibility", max_points, len(pa.space))
    opens = enumerate_opens(pa.space, max_points=max_points)
    for x in pa.space.points:
        # G_x read off the label tables
        gx = [g for g in pa.group.elements if pa.thetas[g].get(x) == x]
        sub = restrict_to_subgroup(pa, Subgroup.from_labels(pa.group, gx))
        candidates_u = [u for u in opens
                        if x in u and is_invariant(sub, u, sub.group.whole)]
        for u in candidates_u:
            pa_u = restrict_invariant(sub, u)
            targets = fixed_points(pa_u, pa_u.group.whole)
            found = False
            for v in sorted((v for v in candidates_u if x in v and v <= u),
                            key=lambda s: (len(s), sorted(pa.space.index(p) for p in s))):
                pa_v = restrict_invariant(sub, v)
                inclusion = SpaceMap.from_dict(pa_v.space, pa_u.space,
                                               {p: p for p in pa_v.space.points})
                poset = enumerate_maps(pa_v.space, pa_u.space, equivariant=(pa_v, pa_u))
                inc = poset.index_of(inclusion.row)
                for w in sorted(targets, key=pa.space.index):
                    const = SpaceMap.constant(pa_v.space, pa_u.space, w)
                    if poset.components[inc] == poset.components[poset.index_of(const.row)]:
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


# ---------------------------------------------------------------------------
# cores on labels: the reference for the mask scan

def label_beat_point(space, x) -> bool:
    """Whether x's punctured down-set has a maximum or its punctured
    up-set a minimum, by pairwise label comparisons."""
    down = [y for y in space.min_open_of(x) if y != x]
    up = [y for y in space.points if x in space.min_open_of(y) and y != x]
    return bool(down and any(all(d in space.min_open_of(m) for d in down) for m in down)
                or up and any(all(m in space.min_open_of(u) for u in up) for m in up))


def label_core(space) -> LabelFinSpace:
    """``pact.core`` on labels: the Kolmogorov quotient, then dismantle the
    lowest-indexed beat point (:func:`label_beat_point`) until none is
    left."""
    current, _ = label_t0_quotient(space)
    while True:
        point = next((x for x in current.points if label_beat_point(current, x)), None)
        if point is None:
            return current
        current = label_subspace(current, [p for p in current.points if p != point])


# ---------------------------------------------------------------------------
# homeomorphism search

def _color_refinement(*spaces) -> list[tuple[int, ...]]:
    """Isomorphism-invariant point colors, one tuple per space, used as
    pruning for the search.  The spaces are refined together with one
    palette per round, so equal colors mean the same thing in every space."""
    downs, ups = [], []
    for space in spaces:
        n = len(space)
        downs.append([[i for i in range(n) if space.down[j] >> i & 1] for j in range(n)])
        ups.append([[j for j in range(n) if space.down[j] >> i & 1] for i in range(n)])
    current = [[(len(down[i]), len(up[i])) for i in range(len(down))]
               for down, up in zip(downs, ups)]
    while True:  # each round splits a color class or stops
        palette: dict[tuple, int] = {}
        refined = [[palette.setdefault((colors[i],
                                        tuple(sorted(colors[j] for j in down[i])),
                                        tuple(sorted(colors[j] for j in up[i]))), len(palette))
                    for i in range(len(down))]
                   for colors, down, up in zip(current, downs, ups)]
        if len(palette) == len({c for colors in current for c in colors}):
            return [tuple(colors) for colors in refined]
        current = refined


def find_homeomorphism(a, b, max_points: int = 24):
    """A preorder isomorphism a -> b as a SpaceMap, or None.

    Backtracking over color-compatible assignments; deterministic under the
    point orderings (the lexicographically first witness is returned).
    """
    from pact import BoundExceeded, SpaceMap

    if max(len(a), len(b)) > max_points:
        raise BoundExceeded("homeomorphism search", max_points, max(len(a), len(b)))
    if len(a) != len(b):
        return None
    ca, cb = _color_refinement(a, b)
    if sorted(ca) != sorted(cb):
        return None
    n = len(a)
    assigned: list[int] = []
    used = [False] * n

    def consistent(i: int, j: int) -> bool:
        x, y = a.points[i], b.points[j]
        for i2, j2 in enumerate(assigned):
            x2, y2 = a.points[i2], b.points[j2]
            if (x in a.min_open_of(x2)) != (y in b.min_open_of(y2)):
                return False
            if (x2 in a.min_open_of(x)) != (y2 in b.min_open_of(y)):
                return False
        return True

    def search() -> bool:
        i = len(assigned)
        if i == n:
            return True
        for j in range(n):
            if not used[j] and ca[i] == cb[j] and consistent(i, j):
                used[j] = True
                assigned.append(j)
                if search():
                    return True
                assigned.pop()
                used[j] = False
        return False

    if not search():
        return None
    return SpaceMap(a, b, tuple(assigned))


# ---------------------------------------------------------------------------
# envelopes on labels: the reference for the integer assembly

@dataclass(frozen=True)
class LabelEnvelope:
    """An envelope as label dicts, the form ``pact.envelope`` computed on
    before it moved to index tables.  ``label_assemble`` builds one from
    class label sets; ``label_view`` reads one off an ``EnvelopeResult``."""

    base: object
    big_group: object
    total: object
    action: Mapping[str, Mapping[str, str]]
    projection: object
    embedding: object
    classes: Mapping[tuple[str, str], str]
    product_space: object
    kstar: frozenset[str]
    members: Mapping[str, tuple[tuple[str, str], ...]]

    def class_of(self, g: str, x: str) -> str:
        return self.classes[(g, x)]

    def members_of(self, label: str) -> tuple[tuple[str, str], ...]:
        return self.members[label]

    def descend(self, f: Callable[[str, str], str]
                ) -> tuple[tuple[str, ...], str | None]:
        """The map on classes induced by f(g, x): per class in total-point
        order, the one value f takes on the class's members, plus the first
        class whose members disagree (None when the map is well defined).
        A disagreeing class gets its least value, so a failing check still
        yields a map to report."""
        values = []
        clash = None
        for label in self.total.points:
            seen = {f(g, x) for g, x in self.members[label]}
            if len(seen) != 1 and clash is None:
                clash = label
            values.append(min(seen))
        return tuple(values), clash

    def to_document(self) -> dict:
        """JSON-ready document: class table, opens of the total space,
        action table and embedding table."""
        classes = {}
        for label in self.total.points:
            classes[label] = [[g, x] for g, x in self.members_of(label)]
        order = {p: i for i, p in enumerate(self.total.points)}
        return {
            "group": list(self.big_group.elements),
            "class_count": len(self.total),
            "classes": classes,
            "total": {
                "points": list(self.total.points),
                "min_open": {p: sorted(self.total.min_open_of(p), key=order.__getitem__)
                             for p in self.total.points},
            },
            "action": {g: {c: self.action[g][c] for c in self.total.points}
                       for g in self.big_group.elements},
            "embedding": {x: self.embedding(x) for x in self.base.space.points},
        }


def label_quotient(space, classes, names=None):
    """Quotient by a partition, on label sets, with the preorder closed by
    :func:`closure_quotient_order`; classes are ordered by least member and
    named by ``names`` (default: the lexicographically least member).
    ``space`` is read through ``points``, ``index`` and ``min_open_of``, so
    it may be a ``FinSpace`` or a :class:`LabelFinSpace`; the quotient is a
    :class:`LabelFinSpace` with a :class:`LabelSpaceMap` projection."""
    sets = [frozenset(c) for c in classes]
    seen: dict[str, int] = {}
    for k, cls in enumerate(sets):
        if not cls:
            raise ValidationError("not-a-partition", (), "empty class")
        for x in sorted(cls):
            space.index(x)
        for x in sorted(cls, key=space.index):
            if x in seen:
                raise ValidationError("not-a-partition", (x,), f"{x!r} appears in two classes")
            seen[x] = k
    if len(seen) != len(space):
        missing = next(p for p in space.points if p not in seen)
        raise ValidationError("not-a-partition", (missing,), f"{missing!r} not covered")

    sets.sort(key=lambda c: min(space.index(x) for x in c))
    labels = [names(c) if names else min(c) for c in sets]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate-point", (), "class labels collide")
    cls_of = {x: k for k, cls in enumerate(sets) for x in cls}
    below = closure_quotient_order(list(space.points),
                                   {p: space.min_open_of(p) for p in space.points}, sets)
    qspace = LabelFinSpace(tuple(labels),
                           tuple(frozenset(map(labels.__getitem__, b)) for b in below))
    proj = LabelSpaceMap(space, qspace, tuple(labels[cls_of[x]] for x in space.points))
    return qspace, proj


def label_assemble(pa, big, prod, class_sets) -> LabelEnvelope:
    """Common tail of both constructions, on labels: name classes, build the
    quotient, the action, the projection and the embedding, and assert the
    trusted invariants.  The reference for ``pact.envelope._assemble``."""
    from pact import SpaceMap, is_continuous, is_open_map

    space = pa.space
    k = pa.group

    def pair_of(label: str) -> tuple[str, str]:
        gi, xi = divmod(prod.index(label), len(space))
        return big.elements[gi], space.points[xi]

    def label_of(g: str, x: str) -> str:
        return prod.points[big.index(g) * len(space) + space.index(x)]

    def name(cls: frozenset[str]) -> str:
        return min(cls, key=prod.index)

    label_total, label_proj = label_quotient(prod, class_sets, names=name)
    total = mask_space(label_total)
    proj = SpaceMap.from_dict(prod, total, label_proj.as_dict())
    classes = {pair_of(p): proj(p) for p in prod.points}
    members_by_label: dict[str, list[tuple[str, str]]] = {c: [] for c in total.points}
    for p in prod.points:
        members_by_label[proj(p)].append(pair_of(p))
    members = {c: tuple(pairs) for c, pairs in members_by_label.items()}

    action: dict[str, dict[str, str]] = {}
    for g in big.elements:
        table: dict[str, str] = {}
        for label in total.points:
            targets = {classes[(big.mul(g, h), y)] for h, y in members[label]}
            if len(targets) != 1:
                raise InternalCheckError(
                    f"enveloping action not well defined at ({g!r}, {label!r})")
            table[label] = targets.pop()
        action[g] = table

    ident = action[big.identity]
    if any(ident[c] != c for c in total.points):
        raise InternalCheckError("mu_e is not the identity")
    for g in big.elements:
        for h in big.elements:
            gh = big.mul(g, h)
            if any(action[g][action[h][c]] != action[gh][c] for c in total.points):
                raise InternalCheckError(f"mu is not an action at ({g!r}, {h!r})")
    for g in big.elements:
        m = SpaceMap.from_dict(total, total, action[g])
        if not (m.is_bijective() and is_continuous(m) and is_continuous(m.inverse())):
            raise InternalCheckError(f"mu_{g!r} is not a homeomorphism of the total space")

    if not is_continuous(proj):
        raise InternalCheckError("projection is not continuous")
    if not is_open_map(proj):
        raise InternalCheckError("projection is not open")
    if set(proj.assignment) != set(total.points):
        raise InternalCheckError("projection is not surjective")

    e = big.identity
    emb = SpaceMap.from_dict(space, total, {x: classes[(e, x)] for x in space.points})
    if len(set(emb.assignment)) != len(space):
        raise InternalCheckError("embedding is not injective")
    if not is_continuous(emb):
        raise InternalCheckError("embedding is not continuous")

    kstar = frozenset(label_of(g, x)
                      for g in k.elements for x in pa.domains[k.inv(g)])
    image = frozenset(emb.assignment)
    preimage = frozenset(p for p in prod.points if proj(p) in image)
    if preimage != kstar:
        raise InternalCheckError("p^-1(iota(X)) differs from K*X")

    for g in k.elements:
        for x in pa.domains[k.inv(g)]:
            if action[g][emb(x)] != emb(label_apply(pa, g, x)):
                raise InternalCheckError(
                    f"action and embedding disagree at ({g!r}, {x!r})")

    covered = {action[g][c] for g in big.elements for c in image}
    if covered != set(total.points):
        raise InternalCheckError("G.iota(X) does not cover the total space")

    return LabelEnvelope(pa, big, total, action, proj, emb, classes, prod, kstar,
                         members)


def label_view(env) -> LabelEnvelope:
    """The label dicts of an ``EnvelopeResult``, read off its index tables."""
    from pact import SpaceMap
    from pact.finspace import bit_indices

    elements, points = env.big_group.elements, env.base.space.points
    labels, prod = env.total.points, env.product_space
    n = len(points)

    def pair(p: int) -> tuple[str, str]:
        return elements[p // n], points[p % n]

    return LabelEnvelope(
        env.base, env.big_group, env.total,
        {g: {c: labels[d] for c, d in zip(labels, row)}
         for g, row in zip(elements, env.action_rows)},
        SpaceMap(prod, env.total, env.pair_class),
        env.embedding,
        {pair(p): labels[c] for p, c in enumerate(env.pair_class)},
        prod,
        frozenset(prod.points[p] for p in bit_indices(env.kstar)),
        {c: tuple(map(pair, pairs)) for c, pairs in zip(labels, env.members)})
