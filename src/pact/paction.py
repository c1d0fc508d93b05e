"""Partial actions of a finite group on a finite space.

A partial action assigns to each group element g an open domain X_g and a
homeomorphism theta_g : X_{g^-1} -> X_g, subject to
  (PA1) theta_{g^-1} inverts theta_g,
  (PA2) theta_g(theta_h(x)) = theta_{gh}(x) whenever the left side is defined,
  (PA3) theta_e is the identity on all of X.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .algebra import Group, Subgroup, is_subgroup_embedding
from .errors import InternalCheckError, ValidationError
from .finspace import (FinSpace, SpaceMap, _quotient_by_masks, _search_maps,
                       bit_indices, block_down_masks, equivalence_classes,
                       is_continuous, is_down_mask, is_open, is_open_map,
                       monotonicity_violation, product, spread, subspace)


@dataclass(frozen=True)
class PartialAction:
    """A partial action whose axioms have been checked, stored as index
    tables per element index: ``images[g][i]`` is the point index of
    theta_g(points[i]), -1 where theta_g is undefined, and
    ``domain_points[g]`` lists X_g's point indices in point order.

    Parsed input is built by :func:`validate_partial_action`, the full
    validator, which hands over the label tables it checked as the first
    values of the label views ``domains`` and ``thetas``.  The actions pact
    builds itself come from constructions that certify their tables
    instead: :func:`certified_global_action` on a generating set,
    :func:`diagonal_product` coordinate by coordinate, and the restrictions
    by re-indexing the parent's tables; their label views are built from
    the tables on first use.
    """

    group: Group
    space: FinSpace
    images: tuple[tuple[int, ...], ...]
    domain_points: tuple[tuple[int, ...], ...]

    @cached_property
    def domains(self) -> dict[str, frozenset[str]]:
        """X_g as a label set, per element label."""
        pts = self.space.points
        return {g: frozenset(map(pts.__getitem__, xs))
                for g, xs in zip(self.group.elements, self.domain_points)}

    @cached_property
    def thetas(self) -> dict[str, dict[str, str]]:
        """theta_g as a label table on X_{g^-1}, per element label."""
        pts, inverse_row = self.space.points, self.group.inverse_row
        return {g: {pts[x]: pts[image[x]] for x in self.domain_points[inverse_row[i]]}
                for i, (g, image) in enumerate(zip(self.group.elements, self.images))}

    def defined(self, g: str, x: str) -> bool:
        """Whether g.x exists, i.e. (g, x) lies in G*X."""
        i = self.space._index.get(x)
        return i is not None and self.images[self.group.index(g)][i] >= 0

    def gstar(self) -> list[tuple[str, str]]:
        """G*X as (g, x) pairs, in (element, point) order."""
        pts = self.space.points
        return [(g, pts[x]) for g, image in zip(self.group.elements, self.images)
                for x, y in enumerate(image) if y >= 0]

    def is_global(self) -> bool:
        return all(len(xs) == len(self.space) for xs in self.domain_points)

    def is_trivial(self) -> bool:
        """theta(g, x) = x wherever defined."""
        return all(y < 0 or y == x for image in self.images for x, y in enumerate(image))

    def _gstar_masks(self) -> tuple[list[int], int]:
        """The down-set masks of G x X (G discrete, pair (g, x) at index
        g * |X| + x) and the pair mask of G*X, read off ``images``."""
        n = len(self.space)
        gstar = sum(1 << (g * n + x) for g, image in enumerate(self.images)
                    for x, y in enumerate(image) if y >= 0)
        return block_down_masks(self.space.down, len(self.group)), gstar

    def gstar_is_open(self) -> bool:
        """Whether G*X is open in G x X.  With open domains and a finite
        discrete group this is automatic (every partial action here is
        nice); the direct computation on pair masks is kept as a
        cross-check."""
        down, gstar = self._gstar_masks()
        if not is_down_mask(down, gstar):
            raise InternalCheckError("G*X is not open despite open domains")
        return True

    def gstar_is_closed(self) -> bool:
        """Whether G*X is closed in G x X; for discrete finite G this is
        equivalent to every X_g being closed, and both routes are compared."""
        down, full = self.space.down, (1 << len(self.space)) - 1
        per_domain = all(is_down_mask(down, full & ~sum(1 << x for x in xs))
                         for xs in self.domain_points)
        pair_down, gstar = self._gstar_masks()
        direct = is_down_mask(pair_down, ((1 << len(pair_down)) - 1) & ~gstar)
        if per_domain != direct:
            raise InternalCheckError("G*X closedness disagrees with domain closedness")
        return direct


def _with_labels(pa: PartialAction, domains: Mapping[str, frozenset[str]],
                 thetas: Mapping[str, Mapping[str, str]]) -> PartialAction:
    """``pa`` with its label views set to tables already at hand."""
    pa.__dict__.update(domains=domains, thetas=thetas)
    return pa


@dataclass(frozen=True)
class OrbitSpace:
    base: PartialAction
    space: FinSpace
    projection: SpaceMap
    classes: tuple[frozenset[str], ...]


def validate_partial_action(group: Group, space: FinSpace,
                            domains: Mapping[str, Iterable[str]],
                            thetas: Mapping[str, Mapping[str, str]]) -> PartialAction:
    """Check every partial-action axiom; first violation wins, with witness.

    Monotonicity of theta_g and of its inverse is checked on down-set masks
    by :func:`monotonicity_violation`.  PA2 is checked twice, by exhaustive
    triple scan and by the domain identity theta_g(X_{g^-1} & X_h) =
    X_g & X_{gh}, both on index tables; the two must agree.  Witnesses
    follow the group's element order and the space's point order, so they
    do not depend on hashing.  The returned action carries those index
    tables (``images``, ``domain_points``).
    """
    inv = {g: group.inv(g) for g in group.elements}
    dom: dict[str, frozenset[str]] = {}
    for g in group.elements:
        if g not in domains:
            raise ValidationError("domain-keys", (g,), f"no domain for element {g!r}")
        d = frozenset(domains[g])
        if not space._index.keys() >= d:
            space.index(min(d.difference(space._index)))
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
        if not all(map(space._index.__contains__, table.values())):
            for y in table.values():
                space.index(y)
        the[g] = table
    for g in thetas:
        group.index(g)

    e = group.identity
    allpts = frozenset(space.points)
    if dom[e] != allpts:
        missing = sorted(allpts - dom[e])[0]
        raise ValidationError("pa3-domain", (missing,), "X_e must be the whole space")
    if list(map(the[e].__getitem__, space.points)) != list(space.points):
        x = next(x for x in space.points if the[e][x] != x)
        raise ValidationError("pa3-identity", (x,), "theta_e must be the identity")

    points, index, down = space.points, space._index, space.down
    mask = {g: space.mask_of(dom[g]) for g in group.elements}
    for g in group.elements:
        if not is_down_mask(down, mask[g]):
            raise ValidationError("domain-not-open", (g,) + tuple(sorted(dom[g])),
                                  f"X_{g!r} is not open")

    every = range(len(points))
    images: list[list[int]] = []
    for g in group.elements:
        tgt, table = dom[g], the[g]
        values = list(table.values())
        if len(set(values)) != len(values) or set(values) != set(tgt):
            raise ValidationError("theta-not-bijective", (g,),
                                  f"theta_{g!r} is not a bijection onto X_{g!r}")
        # theta_g and its inverse as index tables, -1 off their domains
        src_idx = list(map(index.__getitem__, table))
        tgt_idx = list(map(index.__getitem__, values))
        image = list(map(dict(zip(src_idx, tgt_idx)).get, every, repeat(-1)))
        back = list(map(dict(zip(tgt_idx, src_idx)).get, every, repeat(-1)))
        images.append(image)
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

    # From here on every check reads index tables: element indices, and each
    # domain as its point indices in point order, so every scan finds its
    # first violation in the same place under any hash seed.
    elems, rows, inverse_row = group.elements, group.rows, group.inverse_row
    dom_points = [sorted(map(index.__getitem__, dom[g])) for g in elems]
    for g, image in enumerate(images):
        xs = dom_points[inverse_row[g]]
        undo = images[inverse_row[g]]
        if list(map(undo.__getitem__, map(image.__getitem__, xs))) != xs:
            x = next(x for x in xs if undo[image[x]] != x)
            raise ValidationError("theta-inverse-mismatch", (elems[g], points[x]),
                                  f"theta_{inv[elems[g]]!r} does not invert theta_{elems[g]!r}")

    # PA2 by triple scan: for x in X_{h^-1} with theta_h(x) in X_{g^-1},
    # theta_g(theta_h(x)) must be theta_gh(x).  Per (g, h) the two sides are
    # compared as whole lists first; an undefined left side (-1) is no
    # violation, so only a mismatching pair is walked point by point.
    after_h = [list(map(image.__getitem__, dom_points[inverse_row[h]]))
             for h, image in enumerate(images)]
    pa2_scan: tuple | None = None
    for g, image in enumerate(images):
        for h in range(len(elems)):
            xs = dom_points[inverse_row[h]]
            lhs = list(map(image.__getitem__, after_h[h]))
            rhs = list(map(images[rows[g][h]].__getitem__, xs))
            if lhs != rhs:
                bad = next((x for x, a, b in zip(xs, lhs, rhs) if a >= 0 and a != b), None)
                if bad is not None:
                    pa2_scan = (elems[g], elems[h], points[bad])
                    break
        if pa2_scan:
            break
    # PA2 domain identity theta_g(X_{g^-1} & X_h) = X_g & X_gh, on index sets.
    dom_set = [frozenset(xs) for xs in dom_points]
    pa2_identity: tuple | None = None
    for g, image in enumerate(images):
        for h in range(len(elems)):
            lhs = set(map(image.__getitem__, dom_points[h]))
            lhs.discard(-1)
            if lhs != dom_set[g] & dom_set[rows[g][h]]:
                pa2_identity = (elems[g], elems[h])
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

    return _with_labels(PartialAction(group, space, tuple(map(tuple, images)),
                                      tuple(map(tuple, dom_points))), dom, the)


def global_action(group: Group, space: FinSpace,
                  thetas: Mapping[str, Mapping[str, str]]) -> PartialAction:
    """A global action (every domain is the whole space) given by label
    tables: the label edge in front of :func:`certified_global_action`.

    Tables that are not total on known points, or fail the certificate,
    go to the full validator, so the ValidationError and its witness are
    the validator's; if the validator passes instead, the certificate is
    wrong: InternalCheckError.
    """
    index = space._index
    try:
        images = tuple(tuple(index[thetas[g][x]] for x in space.points)
                       for g in group.elements)
    except KeyError:
        images = None
    total = images is not None and len(thetas) == len(group) and all(
        len(thetas[g]) == len(space) for g in group.elements)
    pa = _global_certificate(group, space, images) if total else None
    if pa is None:
        validate_partial_action(group, space,
                                {g: space.points for g in group.elements}, thetas)
        raise InternalCheckError("the global-action certificate failed "
                                 "but the full validator passed")
    allpts = frozenset(space.points)
    return _with_labels(pa, {g: allpts for g in group.elements},
                        {g: dict(thetas[g]) for g in group.elements})


def certified_global_action(group: Group, space: FinSpace,
                            images: Sequence[Sequence[int]]) -> PartialAction:
    """The global action whose theta_g is the index row ``images[g]``, for
    rows pact builds itself.

    The certificate checks that every row is a total table of point
    indices, that theta_e is the identity, that theta_s is monotone for s
    in the group's generating set S (``Group.generators``), and that
    theta_s . theta_g = theta_sg for s in S and every g.  Every element is
    a word in S, so induction on its length gives theta_g . theta_h =
    theta_gh for all g and h; hence theta_g . theta_{g^-1} = theta_e is the
    identity (PA1 and bijectivity), and each theta_g is a composite of
    monotone maps.  That is O(|S| |G| |X|) work against the validator's
    O(|G|^2 |X|).  A failed certificate on built rows is a construction
    bug: InternalCheckError.
    """
    pa = _global_certificate(group, space, tuple(map(tuple, images)))
    if pa is None:
        raise InternalCheckError("a built global action fails its certificate")
    return pa


def _global_certificate(group: Group, space: FinSpace,
                        images: tuple[tuple[int, ...], ...]) -> PartialAction | None:
    """The global action on the index rows ``images`` when they pass the
    certificate of :func:`certified_global_action`, else None."""
    n = len(space)
    every = set(range(n))
    if len(images) != len(group) or not all(
            len(image) == n and set(image) <= every for image in images):
        return None
    if images[group.index(group.identity)] != tuple(range(n)):
        return None
    down, full = space.down, (1 << n) - 1
    for s in group.generators:
        image_s, row = images[s], group.rows[s]
        if monotonicity_violation(down, full, image_s, down) is not None:
            return None
        for g, image in enumerate(images):
            if tuple([image_s[y] for y in image]) != images[row[g]]:
                return None
    return PartialAction(group, space, images, (tuple(range(n)),) * len(group))


def trivial_action(group: Group, space: FinSpace) -> PartialAction:
    """The full-domain action where every element acts as the identity."""
    return certified_global_action(group, space, (tuple(range(len(space))),) * len(group))


def restrict_global(pa: PartialAction, open_subset: Iterable[str]) -> PartialAction:
    """Restrict a global action to a nonempty open subset U:
    X_g = U & mu_g(U), theta_g = mu_g restricted.

    The index tables are the parent's rows re-indexed onto U: theta_g is
    mu_g where it lands in U and undefined elsewhere, and X_g is the image
    of theta_g.  The result is certified by :func:`_certify_restriction`
    instead of validated: the restriction of a global action to an open
    subset is a partial action (its domains are open because each mu_g is
    a homeomorphism), so only the re-indexing needs checking."""
    if not pa.is_global():
        raise ValidationError("not-global", (), "restriction needs a global action")
    u = frozenset(open_subset)
    if not u:
        raise ValidationError("empty-subset", (), "restriction needs a nonempty subset")
    if not is_open(pa.space, u):
        raise ValidationError("not-open", tuple(sorted(u)), "restriction subset must be open")
    sub = subspace(pa.space, u)
    _, images = _reindex(pa, sub)
    return _certify_restriction(pa.group, sub, images,
                                [tuple(sorted(y for y in image if y >= 0)) for image in images])


def _reindex(pa: PartialAction, sub: FinSpace
             ) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """The new index of each of pa's points in the subspace ``sub``, and
    pa's rows re-indexed onto it: theta_g where it lands in ``sub``, else -1."""
    old = list(map(pa.space.index, sub.points))
    new = dict(zip(old, range(len(old))))
    return new, [tuple(new.get(image[x], -1) for x in old) for image in pa.images]


def _certify_restriction(group: Group, space: FinSpace,
                         images: Sequence[tuple[int, ...]],
                         domain_points: Sequence[tuple[int, ...]]) -> PartialAction:
    """The restriction with these re-indexed tables, once each X_g is
    exactly where theta_{g^-1} is defined; a failure is a construction
    bug: InternalCheckError."""
    for label, xs, undo in zip(group.elements, domain_points,
                               map(images.__getitem__, group.inverse_row)):
        if xs != tuple(i for i, y in enumerate(undo) if y >= 0):
            raise InternalCheckError(f"re-indexed domain of {label!r} is not where "
                                     f"the inverse of theta_{label!r} is defined")
    return PartialAction(group, space, tuple(images), tuple(domain_points))


def restrict_to_subgroup(pa: PartialAction, sub: Subgroup) -> PartialAction:
    """res^G_K: forget the elements outside the subgroup."""
    if sub.parent != pa.group:
        raise ValidationError("group-mismatch", (), "subgroup belongs to a different group")
    return restrict_to_group(pa, sub.as_group())


def restrict_to_group(pa: PartialAction, k: Group) -> PartialAction:
    """res^G_K keyed by the group object ``k``, whose elements and products
    are those of a subgroup of pa's group, so that maps between the result
    and other actions of ``k`` compare groups equal."""
    if not is_subgroup_embedding(k, pa.group):
        raise ValidationError("not-a-subgroup", tuple(k.elements),
                              "the group is not a subgroup of the acting group")
    # K is closed under products and inverses, so the parent's axioms
    # restricted to K's members are K's: its rows are reused, in K's
    # element order, without re-validation.
    order = list(map(pa.group.index, k.elements))
    return PartialAction(k, pa.space, tuple(map(pa.images.__getitem__, order)),
                         tuple(map(pa.domain_points.__getitem__, order)))


def restrict_invariant(pa: PartialAction, invariant_open: Iterable[str]) -> PartialAction:
    """Restrict to an invariant open subset V: domains become V & X_g.

    After the openness and invariance checks, the index tables are the
    parent's rows re-indexed onto the subspace and certified instead of
    validated: each re-indexed domain V & X_g must be exactly where the
    re-indexed theta_{g^-1} is defined (:func:`_certify_restriction`),
    which also fails when a theta leaves V.  Restricting a partial action
    to an invariant open subspace keeps PA1-PA3, open domains and
    continuity, so nothing else needs checking; a failed certificate is a
    construction bug (InternalCheckError)."""
    v = frozenset(invariant_open)
    if not v:
        raise ValidationError("empty-subset", (), "restriction needs a nonempty subset")
    if not is_open(pa.space, v):
        raise ValidationError("not-open", tuple(sorted(v)), "subset must be open")
    if not is_invariant(pa, v, pa.group.whole):
        raise ValidationError("not-invariant", tuple(sorted(v)), "subset must be invariant")
    sub = subspace(pa.space, v)
    new, images = _reindex(pa, sub)
    return _certify_restriction(pa.group, sub, images,
                                [tuple(new[x] for x in xs if x in new) for xs in pa.domain_points])


def diagonal_product(a: PartialAction, b: PartialAction) -> PartialAction:
    """The diagonal partial action of the factors' group on A x B.

    Its index tables are built from the factors' (point (x_i, y_j) is
    i * |B| + j) and certified coordinate by coordinate
    (:func:`_certify_diagonal`) instead of validated.  The two coordinate
    projections of A x B are then G-maps with no check of their own: the
    certificate decodes each entry theta_g(i, j) to (theta^A_g(i),
    theta^B_g(j)), which is the equivariance of both coordinate maps, and
    U_(x,y) = U_x x U_y makes them monotone."""
    if a.group != b.group:
        raise ValidationError("group-mismatch", (), "factors must share a group")
    space = product(a.space, b.space)
    # block x reads point (x, y_j) at j, and -1 at -1, and the last block,
    # for x = -1, reads -1 everywhere
    width = len(b.space)
    blocks = [list(range(x * width, (x + 1) * width)) + [-1] for x in range(len(a.space))]
    blocks.append([-1] * (width + 1))
    images = tuple(tuple([block[y] for block in map(blocks.__getitem__, image_a)
                          for y in image_b])
                   for image_a, image_b in zip(a.images, b.images))
    domain_points = tuple(tuple([i * width + j for i in xs for j in ys])
                          for xs, ys in zip(a.domain_points, b.domain_points))
    _certify_diagonal(a, b, images, domain_points)
    return PartialAction(a.group, space, images, domain_points)


def _certify_diagonal(a: PartialAction, b: PartialAction,
                      images: Sequence[Sequence[int]],
                      domain_points: Sequence[Sequence[int]]) -> None:
    """Check the diagonal action's tables coordinate by coordinate: through
    divmod by |B|, entry p of images[g] must project onto
    (theta^A_g(i), theta^B_g(j)) for (i, j) = divmod(p, |B|), -1 where
    either is undefined, and domain_points[g] onto X^A_g x X^B_g in order.
    Each axiom (PA1-PA3, open domains, continuity of theta_g and its
    inverse) then holds in both coordinates because it holds in each
    factor, and the product topology is the coordinatewise order.  A
    failure is a construction bug: InternalCheckError."""
    width = len(b.space)
    # one divmod table: p decodes to (i, j), -1 to -1, the rest to None;
    # blocks of it read the factors' values as in diagonal_product
    pairs = [divmod(p, width) for p in range(len(a.space) * width)]
    pair_of = dict(enumerate(pairs))
    pair_of[-1] = -1
    blocks = [pairs[i * width:(i + 1) * width] + [-1] for i in range(len(a.space))]
    blocks.append([-1] * (width + 1))
    for g, (image, xs) in enumerate(zip(images, domain_points)):
        image_b = b.images[g]
        want = [block[j] for block in map(blocks.__getitem__, a.images[g]) for j in image_b]
        got = list(map(pair_of.get, image))
        if got != want:
            p = next((p for p, (u, v) in enumerate(zip(got, want)) if u != v),
                     min(len(got), len(want)))
            raise InternalCheckError(f"diagonal table of {a.group.elements[g]!r} does "
                                     f"not project onto its factors at point {p}")
        ys = b.domain_points[g]
        if (list(map(pair_of.get, xs))
                != [block[j] for block in map(blocks.__getitem__, a.domain_points[g])
                    for j in ys]):
            raise InternalCheckError(f"diagonal domain of {a.group.elements[g]!r} is "
                                     f"not the product of the factor domains")


def isotropy(pa: PartialAction, x: str) -> tuple[frozenset[str], Subgroup]:
    """(G^x, G_x): the defined set and the isotropy subgroup of x.

    G^x need not be a subgroup; G_x always is (asserted by
    :func:`isotropy_mask`).
    """
    i = pa.space.index(x)
    ghat = frozenset(g for g, image in zip(pa.group.elements, pa.images) if image[i] >= 0)
    return ghat, Subgroup(pa.group, isotropy_mask(pa, i))


def isotropy_mask(pa: PartialAction, i: int) -> int:
    """The element mask of G_x for the point x of index ``i``.  By PA1-PA3
    it is a subgroup, so a failure is a construction bug: InternalCheckError."""
    mask = sum(1 << g for g, image in enumerate(pa.images) if image[i] == i)
    if not pa.group.is_subgroup(mask):
        raise InternalCheckError(f"isotropy of {pa.space.points[i]!r} is not a subgroup")
    return mask


def fixed_points(pa: PartialAction, k: Subgroup) -> frozenset[str]:
    """X[K] = {x : K is contained in G_x}."""
    if k.parent != pa.group:
        raise ValidationError("group-mismatch", (), "subgroup belongs to a different group")
    images = [pa.images[g] for g in bit_indices(k.mask)]
    return frozenset(x for i, x in enumerate(pa.space.points)
                     if all(image[i] == i for image in images))


def orbit_classes(pa: PartialAction) -> list[int]:
    """Orbits G^x . x as point masks, ordered by least member; the orbit
    relation is verified to be an equivalence."""
    n = len(pa.space)
    bit = [1 << j for j in range(n)] + [0]  # an undefined entry, -1, adds nothing
    rel = [0] * n
    for image in pa.images:
        rel = [row | bit[j] for row, j in zip(rel, image)]
    return equivalence_classes(rel, "orbit relation", pa.space.points.__getitem__)


def orbit_space(pa: PartialAction) -> OrbitSpace:
    """The orbit space X/G with its (continuous, open, surjective) projection."""
    classes = orbit_classes(pa)
    qspace, proj = _quotient_by_masks(pa.space, classes)
    if not is_continuous(proj):
        raise InternalCheckError("orbit projection is not continuous")
    if not is_open_map(proj):
        raise InternalCheckError("orbit projection is not open")
    if len(set(proj.row)) != len(qspace):
        raise InternalCheckError("orbit projection is not surjective")
    return OrbitSpace(pa, qspace, proj, tuple(map(pa.space.set_of, classes)))


def is_invariant(pa: PartialAction, s: Iterable[str], k: Subgroup) -> bool:
    """theta_k(s) stays in S for k in K and s in S where defined."""
    if k.parent != pa.group:
        raise ValidationError("group-mismatch", (), "subgroup belongs to a different group")
    mask = pa.space.mask_of(s)
    xs = bit_indices(mask)
    return all(y < 0 or mask >> y & 1
               for g in bit_indices(k.mask) for y in map(pa.images[g].__getitem__, xs))


def is_G_map(f: SpaceMap, pa_x: PartialAction, pa_y: PartialAction) -> bool:
    """Equivariance over G*X: (g, f(x)) defined and eta_g(f(x)) = f(theta_g(x)).

    A discontinuous f is an error, not False: the morphisms here are
    continuous by definition, and conflating the two hides bugs.
    """
    if pa_x.group != pa_y.group:
        raise ValidationError("group-mismatch", (), "maps need actions of the same group")
    if f.source != pa_x.space or f.target != pa_y.space:
        raise ValidationError("space-mismatch", (), "map endpoints do not match the actions")
    if not is_continuous(f):
        raise ValidationError("not-continuous", (), "is_G_map needs a continuous map")
    # per g, over x in X_{g^-1}: eta_g(f(x)) (-1 when undefined) against
    # f(theta_g(x)), which is always defined
    fi = f.row
    inverse_row = pa_x.group.inverse_row
    for g, (image_x, image_y) in enumerate(zip(pa_x.images, pa_y.images)):
        xs = pa_x.domain_points[inverse_row[g]]
        if [image_y[fi[x]] for x in xs] != [fi[image_x[x]] for x in xs]:
            return False
    return True


def g_map_faults(columns: Sequence[Sequence[int]], source: FinSpace, target: FinSpace,
                 images_x: Sequence[Sequence[int]], images_y: Sequence[Sequence[int]]
                 ) -> tuple[int, int]:
    """The checks of :func:`is_G_map` on a whole table of index rows at once.

    ``columns`` are the table's column masks (``finspace.column_masks``),
    and ``images_x[g]``/``images_y[g]`` are theta_g and eta_g as index
    tables, -1 where undefined.  Returns two bitmasks over the rows: those
    that are not monotone, and those with eta_g(f(x)) != f(theta_g(x)) for
    some g and x in X_{g^-1}.  The work is O(target points) big-int
    operations per comparable pair of source points and O(points x target
    points) per element, not Python steps per row.
    """
    below = spread(columns, target.down)
    discontinuous = 0
    for y, down in enumerate(source.down):
        at_y = columns[y]
        for x in bit_indices(down & ~(1 << y)):
            # rows with f(y) = v but f(x) not below v
            under = below[x]
            for v, rows in enumerate(at_y):
                if rows:
                    discontinuous |= rows & ~under[v]
    non_equivariant = 0
    for image_x, image_y in zip(images_x, images_y):
        for x, x2 in enumerate(image_x):
            if x2 < 0:
                continue
            # rows with f(x) = v but f(theta_g(x)) != eta_g(v)
            moved = columns[x2]
            for v, rows in enumerate(columns[x]):
                if rows:
                    w = image_y[v]
                    non_equivariant |= rows & ~moved[w] if w >= 0 else rows
    return discontinuous, non_equivariant


def is_isovariant(f: SpaceMap, pa_x: PartialAction, pa_y: PartialAction) -> bool:
    """A G-map with G_x = G_{f(x)} at every point."""
    return is_G_map(f, pa_x, pa_y) and all(
        isotropy_mask(pa_x, i) == isotropy_mask(pa_y, j) for i, j in enumerate(f.row))


def enumerate_G_maps(pa_x: PartialAction, pa_y: PartialAction,
                     node_budget: int = 1_000_000,
                     max_maps: int = 4096) -> list[tuple[int, ...]]:
    """All G-maps X -> Y, as sorted index rows (``SpaceMap`` takes one).

    The monotone map search with the equivariance conditions folded into
    its propagation: assigning f(x) = y forces f(theta_g(x)) = eta_g(y) for
    every g defined at x, and prunes y outright when (g, y) is undefined.
    A forced pair that restates f(x) = y itself, as every pair of a trivial
    action does, or that several elements force alike is kept out; that
    changes neither the rows nor the node count.  The output is identical
    to filtering the monotone maps by is_G_map (the test suite
    cross-checks), just without materializing them.
    """
    if pa_x.group != pa_y.group:
        raise ValidationError("group-mismatch", (), "actions of different groups")
    grp = pa_x.group
    src, tgt = pa_x.space, pa_y.space
    n, m = len(src), len(tgt)
    unit = grp.index(grp.identity)
    nontrivial = [(image_x, image_y)
                  for g, (image_x, image_y) in enumerate(zip(pa_x.images, pa_y.images))
                  if g != unit]
    allowed = [(1 << m) - 1] * n
    forced: list[list[list[tuple[int, int]]]] = []
    for i in range(n):
        # the elements defined at i, grouped by theta_g(i): pairs from two
        # groups never coincide, so only a group of several elements needs a
        # set; a pair that restates f(i) = j itself forces nothing
        groups: dict[int, list[Sequence[int]]] = {}
        for image_x, image_y in nontrivial:
            i2 = image_x[i]
            if i2 >= 0:
                groups.setdefault(i2, []).append(image_y)
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for i2, rows in groups.items():
            if len(rows) == 1:
                for j, j2 in enumerate(rows[0]):
                    if j2 < 0:
                        allowed[i] &= ~(1 << j)
                    elif i2 != i or j2 != j:
                        pairs[j].append((i2, j2))
                continue
            for j, values in enumerate(zip(*rows)):
                if -1 in values:
                    allowed[i] &= ~(1 << j)
                else:
                    pairs[j].extend((i2, j2) for j2 in set(values) if i2 != i or j2 != j)
        forced.append(pairs)
    return _search_maps(src, tgt, allowed, forced, node_budget, max_maps)
