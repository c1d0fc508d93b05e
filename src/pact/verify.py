"""Claim registry: each structural proposition bound to an executable check.

Claims are *checked*, never trusted: the ones with known failure modes (the
product comparison, the trivial collapse) report ``fails`` with a replayable
witness instead of aborting, while trusted invariants (the axioms, the
equivalence-relation property of the enveloping relation) abort construction
as internal errors long before a claim runs.
"""
from __future__ import annotations

import json
import time
from itertools import repeat
from typing import Callable, Sequence

from . import algebra, envelope, homotopy
from .algebra import Group, Subgroup
from .bounds import DEFAULT_BOUNDS, Bounds
from .envelope import (EnvelopeResult, _map_checks, adjunction_maps, fixed_identities,
                       generated_intersection, iterated_twist_comparison,
                       lift_maps, product_comparison, recognize_globalization,
                       trivial_collapse)
from .errors import BoundExceeded, InternalCheckError, ValidationError
from .finspace import (FinSpace, SpaceMap, bit_indices, discrete_space, is_closed,
                       is_down_mask, is_open, is_open_map, is_T1,
                       split_pair_label, subspace)
from .homotopy import MapPoset, is_G_contractible, is_locally_G_contractible
from .instance import Instance
from .paction import (PartialAction, _check_axioms, diagonal_product, is_isovariant,
                      restrict_to_group, trivial_action)
from .report import (FAILS, HOLDS, INTERNAL_ERROR, PRECONDITION_UNMET,
                     SKIPPED_BOUNDS, ClaimReport, verdict)


class Run:
    """The constructions of one instance under one :class:`Bounds`, shared
    by the claims of one run.

    The methods take only a construction's inputs and hand ``bounds`` to
    every build, which reads its own limit there, so no claim names one.
    Each construction is built on its first request, and every later
    request with equal inputs gets the same object.  A build that raises
    stores nothing, so each claim that needs it raises again.
    Envelopes keep one entry per (action, group): ``globalize(pa)`` is the
    entry (pa, pa.group), the same object as ``twisted_product(pa,
    pa.group)``, built by whichever library function is asked first; both
    run one kernel on the same tables.  An envelope keeps its global action
    (``EnvelopeResult.as_global_action``), so one envelope per input also
    means one global action.  ``hom`` keeps one entry per hom-set: the
    poset of G-maps between two actions, whichever claim asks for it.
    The builders are read from their modules at call time, so a wrapper
    installed there sees every build.  Nothing outlives the run:
    :func:`run_all` drops it when it returns.
    """

    def __init__(self, bounds: Bounds) -> None:
        self.bounds = bounds
        self._built: dict[str, list[tuple[tuple, object]]] = {}

    def _once(self, kind: str, build: Callable, *args):
        entries = self._built.setdefault(kind, [])
        for key, value in entries:
            if key == args:
                return value
        value = build(*args, self.bounds)
        entries.append((args, value))
        return value

    def globalize(self, pa: PartialAction) -> EnvelopeResult:
        return self._once("envelope", lambda pa, _, bounds: envelope.globalize(pa, bounds),
                          pa, pa.group)

    def twisted_product(self, pa: PartialAction, big: Group) -> EnvelopeResult:
        return self._once("envelope", envelope.twisted_product, pa, big)

    def subgroups(self, group: Group) -> list[Subgroup]:
        """The subgroup lattice of ``group``."""
        return self._once("subgroups", algebra.all_subgroups, group)

    def hom(self, pa_x: PartialAction, pa_y: PartialAction) -> MapPoset:
        """The poset of G-maps from ``pa_x`` to ``pa_y``."""
        def build(pa_x, pa_y, bounds):
            return homotopy.enumerate_maps(pa_x.space, pa_y.space, (pa_x, pa_y), bounds)
        return self._once("hom", build, pa_x, pa_y)


Check = Callable[[Instance, Run], tuple[str, dict]]


def _onto_image(env: EnvelopeResult) -> tuple[SpaceMap, dict[str, bool]]:
    """The embedding X -> iota(X), onto its image as a subspace of the
    total space (whose points keep the total space's order), with its
    injective, continuous and inverse-continuous checks, also the embedding's."""
    emb = env.embedding_row
    rank = {c: i for i, c in enumerate(sorted(set(emb)))}
    onto = SpaceMap(env.base.space, subspace(env.total, env.embedding_image()),
                    tuple(map(rank.__getitem__, emb)))
    return onto, _map_checks(onto, ("injective", "continuous", "inverse-continuous"))[0]


def _claim_pa_axioms(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.pa
    _check_axioms(pa)
    witness = {
        "elements": len(pa.group),
        "points": len(pa.space),
        "triples_scanned": len(pa.group) ** 2 * len(pa.space),
        "gstar_open": pa.gstar_is_open(),
        "gstar_closed": pa.gstar_is_closed(),
    }
    return HOLDS, witness


def _claim_embedding(inst: Instance, run: Run) -> tuple[str, dict]:
    env = run.globalize(inst.embedded_pa)
    onto, checked = _onto_image(env)
    checks = {
        "injective": checked["injective"],
        "continuous": checked["continuous"],
        "open-onto-image": is_open_map(onto),
        "image-open": is_open(env.total, onto.target.points),
        "homeomorphism-onto-image": checked["continuous"] and checked["inverse-continuous"],
    }
    return verdict(checks, classes=len(env.total))


def _claim_recognition(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.globalize(pa)
    return recognize_globalization(env.as_global_action(), env.embedding_image(), run.bounds)


def _claim_twist_eq_glob(inst: Instance, run: Run) -> tuple[str, dict]:
    """G x_G X equals the globalization X_G.  The run keeps one envelope
    per (action, group), so both names read one envelope, and this loses
    nothing: globalize and twisted_product run one kernel on the same
    tables, so two builds could not differ.  The independent evidence is
    the test that the twisted product's classes are the orbits of the
    diagonal action (``test_twisted_classes_are_the_diagonal_orbits``)."""
    pa = inst.embedded_pa
    env_g = run.globalize(pa)
    env_t = run.twisted_product(pa, pa.group)
    # both are quotients of the same G x X with classes numbered and named
    # by least member: equal class tables mean equal partitions and labels
    same_classes = env_g.pair_class == env_t.pair_class
    checks = {
        "same-class-partition": same_classes,
        "same-projection": same_classes,
        "same-action": (env_g.total.points == env_t.total.points
                        and env_g.action_rows == env_t.action_rows),
    }
    return verdict(checks, classes=len(env_g.total), twisted_classes=len(env_t.total))


def _claim_iota_k(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.twisted_product(pa, inst.big)
    onto, checked = _onto_image(env)
    image = onto.target.points
    # the enveloping action restricted to K, keyed by K's own group object
    res_k = restrict_to_group(env.as_global_action(), pa.group)
    pair_down = env.product_space.down
    kstar_open = is_down_mask(pair_down, env.kstar)
    kstar_closed = is_down_mask(pair_down, ((1 << len(pair_down)) - 1) & ~env.kstar)
    checks = {
        "injective": checked["injective"],
        "k-isovariant": is_isovariant(env.embedding, pa, res_k),
        "homeomorphism-onto-image": checked["continuous"] and checked["inverse-continuous"],
        "image-open-iff-kstar-open": is_open(env.total, image) == kstar_open,
        "image-closed-iff-kstar-closed": is_closed(env.total, image) == kstar_closed,
    }
    return verdict(checks, kstar_open=kstar_open, kstar_closed=kstar_closed,
                   classes=len(env.total))


def _claim_preimage(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.twisted_product(pa, inst.big)
    image = set(env.embedding_row)
    preimage = [p for p, c in enumerate(env.pair_class) if c in image]
    kstar = bit_indices(env.kstar)
    holds = preimage == kstar
    pairs = env.product_space.points
    witness = {"kstar": [pairs[p] for p in kstar], "classes": len(env.total)}
    if not holds:
        witness["reason"] = "preimage of the embedded image differs from K*X"
        witness["difference"] = [pairs[p] for p in sorted(set(preimage) ^ set(kstar))]
    return (HOLDS if holds else FAILS), witness


def _claim_iterated_twist(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    inner = run.twisted_product(pa, pa.group)
    outer_1 = run.twisted_product(inner.as_global_action(), inst.big)
    return iterated_twist_comparison(inner, outer_1, run.twisted_product(pa, inst.big))


def _claim_adjunction(inst: Instance, run: Run) -> tuple[str, dict]:
    pa, big, bounds = inst.embedded_pa, inst.big, run.bounds
    if len(big) > bounds.hom_group or len(pa.space) > bounds.hom_space:
        return SKIPPED_BOUNDS, {"reason": "instance exceeds the hom-set bounds"}
    candidates: list[tuple[str, PartialAction]] = [
        ("pt", trivial_action(big, discrete_space(["y"])))]
    env = run.twisted_product(pa, big)
    if len(env.total) <= bounds.hom_space:
        candidates.append(("envelope", env.as_global_action()))
    ran = {}
    ok = True
    for name, pa_y in candidates:
        status, maps = adjunction_maps(env, pa_y, run.hom)
        ran[name] = {"g_maps": maps["g_maps"], "k_maps": maps["k_maps"], "status": status}
        ok = ok and status == HOLDS
    witness = {"targets": ran}
    if not ok:
        witness["reason"] = "adjunction bijection or naturality failed"
    return (HOLDS if ok else FAILS), witness


def split_diagonal_factors(pa: PartialAction
                           ) -> tuple[PartialAction, PartialAction, PartialAction] | None:
    """Recover the two factors of a diagonal-product action from the pair
    labels, with their diagonal product, or None when the instance does not
    carry a product structure.

    The labels are split once, into each point's index in the first and
    the second coordinate, each coordinate's labels in order of first
    appearance; the rest reads index tables.  A factor's down masks are
    ``pa``'s read off one slice, intersected over the other coordinate, and
    its domains and thetas are ``pa``'s projected; it must pass the axioms.
    The diagonal product rebuilt from the factors must equal ``pa``
    re-indexed: its down masks, domains and thetas are products of the
    factors', so that one comparison decides whether ``pa``'s are.  It also
    decides that each factor's masks, which nothing checks before, are a
    preorder's: they are ``pa``'s on a slice."""
    split = [split_pair_label(p) for p in pa.space.points]
    if None in split:
        return None
    coords = []
    for labels in zip(*split):
        names = list(dict.fromkeys(labels))
        index = {c: i for i, c in enumerate(names)}
        coords.append((names, list(map(index.__getitem__, labels))))
    (firsts, first), (seconds, second) = coords
    # each point is the pair label of its split, so this count makes the
    # points exactly the pairs of firsts x seconds
    if len(pa.space) != len(firsts) * len(seconds):
        return None

    def factor(names: list[str], own: list[int], other: list[int]) -> PartialAction:
        down = [(1 << len(names)) - 1] * len(names)
        for i, mask in enumerate(pa.space.down):
            down[own[i]] &= sum(1 << own[j] for j in bit_indices(mask) if other[j] == other[i])
        images = tuple(tuple(map({own[x]: own[y] for x, y in enumerate(image) if y >= 0}.get,
                                 range(len(names)), repeat(-1))) for image in pa.images)
        fpa = PartialAction(pa.group, FinSpace(tuple(names), tuple(down)), images,
                            tuple(tuple(sorted({own[x] for x in xs})) for xs in pa.domain_points))
        _check_axioms(fpa)
        return fpa

    try:
        pa_1 = factor(firsts, first, second)
        pa_2 = factor(seconds, second, first)
    except ValidationError:
        return None
    diag = diagonal_product(pa_1, pa_2)
    # pa's point index -> diag's, and -1 (undefined) -> -1
    at = [a * len(seconds) + b for a, b in zip(first, second)] + [-1]
    # theta_g's table is -1 exactly off X_{g^-1}, so equal tables mean equal domains
    same = ([diag.space.down[p] for p in at[:-1]]
            == [sum(1 << at[j] for j in bit_indices(mask)) for mask in pa.space.down]
            and all([row[p] for p in at[:-1]] == list(map(at.__getitem__, image))
                    for row, image in zip(diag.images, pa.images)))
    return (pa_1, pa_2, diag) if same else None


def _claim_product_comparison(inst: Instance, run: Run) -> tuple[str, dict]:
    split = split_diagonal_factors(inst.embedded_pa)
    if split is None:
        return PRECONDITION_UNMET, {"reason": "needs two factors: the instance is "
                                              "not a diagonal product"}
    pa_1, pa_2, diag = split
    return product_comparison(*(run.twisted_product(pa, inst.big)
                                for pa in (diag, pa_1, pa_2)))


def _claim_trivial_collapse(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    if not pa.is_trivial():
        return PRECONDITION_UNMET, {"reason": "the action is not trivial"}
    if not pa.is_global():
        return PRECONDITION_UNMET, {"reason": "the trivial action does not have "
                                              "full domains"}
    return trivial_collapse(run.twisted_product(pa, inst.big))


def _claim_t1(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    if not is_T1(pa.space):
        return PRECONDITION_UNMET, {"reason": "the base space is not T1"}
    env = run.twisted_product(pa, inst.big)
    t1 = is_T1(env.total)
    witness = {"classes": len(env.total)}
    if not t1:
        bad = next(c for c in env.total.points if not is_closed(env.total, {c}))
        witness["reason"] = "a singleton class is not closed"
        witness["non_closed_singleton"] = bad
    return (HOLDS if t1 else FAILS), witness


def first_split_pair(components: Sequence[int], images: Sequence[int]
                     ) -> tuple[int, int] | None:
    """The lexicographically least (i, j), i < j, with components[i] ==
    components[j] but images[i] != images[j], or None.

    One pass keeps the first member of each component and compares every
    later member against it.  That finds the least i: in a violating pair
    (i, j) whose i is not first, the first member f < i differs in image
    from i or from j, so (f, i) or (f, j) is a smaller violating pair.
    """
    first: dict[int, int] = {}
    best = None
    for j, comp in enumerate(components):
        i = first.setdefault(comp, j)
        if images[j] != images[i] and (best is None or i < best[0]):
            best = (i, j)
    return best


def _claim_homotopy_preservation(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    poset_x = run.hom(pa, pa)
    env = run.globalize(pa)
    gpa = env.as_global_action()
    poset_y = run.hom(gpa, gpa)
    lifted = list(map(poset_y.index_of, lift_maps(poset_x, env, env)))
    comp_x = poset_x.components
    comp_y = poset_y.components
    bad = first_split_pair(comp_x, [comp_y[k] for k in lifted])
    witness = {
        "g_maps": len(poset_x.rows),
        "components": len(set(comp_x)),
        "envelope_g_maps": len(poset_y.rows),
    }
    if bad:
        witness["reason"] = "a homotopic pair has non-homotopic envelopes"
        witness["pair"] = [SpaceMap(pa.space, pa.space, poset_x.rows[k]).as_dict()
                           for k in bad]
    return (FAILS if bad else HOLDS), witness


def _claim_g_contractible(inst: Instance, run: Run) -> tuple[str, dict]:
    """If X is G-contractible then so is its globalization."""
    pa = inst.embedded_pa
    base = is_G_contractible(pa, lambda: run.hom(pa, pa))
    if not base:
        return PRECONDITION_UNMET, {"reason": f"the space is not equivariantly "
                                              f"contractible ({base.reason})"}
    gpa = run.globalize(pa).as_global_action()
    lifted = is_G_contractible(gpa, lambda: run.hom(gpa, gpa))
    witness = {
        "fixed_point": base.fixed_point,
        "fence": base.fence_tables(),
        "envelope_fixed_point": lifted.fixed_point,
        "envelope_fence": lifted.fence_tables(),
    }
    if not lifted:
        witness["reason"] = lifted.reason or "globalization is not equivariantly contractible"
    return (HOLDS if lifted else FAILS), witness


def _claim_locally_g_contractible(inst: Instance, run: Run) -> tuple[str, dict]:
    """Holds on every instance (see is_locally_G_contractible); the witness
    checks run on X and on its globalization."""
    pa = inst.embedded_pa
    env = run.globalize(pa)
    return HOLDS, {"space": is_locally_G_contractible(pa),
                   "envelope": is_locally_G_contractible(env.as_global_action())}


def _claim_fixed_decomposition(inst: Instance, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.globalize(pa)
    reports = []
    ok = True
    for sub in run.subgroups(pa.group):
        decomposition, embedded_fixed = fixed_identities(pa, sub, env)
        ok = ok and decomposition["holds"] and embedded_fixed["holds"]
        reports.append({"subgroup": list(sub.sorted_members),
                        "decomposition": decomposition["holds"],
                        "embedded_fixed": embedded_fixed["holds"],
                        "fixed_in_total": decomposition["fixed_in_total"]})
    witness = {"subgroups": reports, "classes": len(env.total)}
    if not ok:
        witness["reason"] = "a fixed-point identity fails"
    return (HOLDS if ok else FAILS), witness


def _claim_generated_intersection(inst: Instance, run: Run) -> tuple[str, dict]:
    """Holds on every instance (see generated_intersection), whose checks
    run on the globalization."""
    pa = inst.embedded_pa
    env = run.globalize(pa)
    inner = generated_intersection(pa, env, run.subgroups(pa.group))
    return HOLDS, {"families_checked": inner["families_checked"]}


CLAIMS: dict[str, Check] = {
    "pa-axioms": _claim_pa_axioms,
    "embedding": _claim_embedding,
    "recognition": _claim_recognition,
    "twist-eq-glob": _claim_twist_eq_glob,
    "iota-k": _claim_iota_k,
    "preimage": _claim_preimage,
    "iterated-twist": _claim_iterated_twist,
    "adjunction": _claim_adjunction,
    "product-comparison": _claim_product_comparison,
    "trivial-collapse": _claim_trivial_collapse,
    "t1": _claim_t1,
    "homotopy-preservation": _claim_homotopy_preservation,
    "g-contractible": _claim_g_contractible,
    "locally-g-contractible": _claim_locally_g_contractible,
    "fixed-decomposition": _claim_fixed_decomposition,
    "generated-intersection": _claim_generated_intersection,
}


def claim_ids() -> list[str]:
    return list(CLAIMS)


def run_claim(claim_id: str, instance: Instance,
              bounds: Bounds = DEFAULT_BOUNDS) -> ClaimReport:
    """Run one registered claim, on constructions of its own (a fresh
    :class:`Run`); bound overruns become skipped-bounds, and a failed
    trusted invariant or a ValidationError becomes internal-error, so that
    one claim's bug neither hides the other claims' reports nor reads as
    bad input: a claim's inputs are a parsed instance and pact's own
    builds."""
    if claim_id not in CLAIMS:
        raise ValidationError("unknown-claim", (claim_id,),
                              f"no claim registered under {claim_id!r}")
    return _report(claim_id, instance, Run(bounds))


def _report(claim_id: str, instance: Instance, run: Run) -> ClaimReport:
    start = time.perf_counter()
    try:
        status, witness = CLAIMS[claim_id](instance, run)
    except BoundExceeded as exc:
        status, witness = SKIPPED_BOUNDS, {"reason": str(exc)}
    except (InternalCheckError, ValidationError) as exc:
        status, witness = INTERNAL_ERROR, {"reason": str(exc)}
    return ClaimReport(claim_id, instance.id, status, witness,
                       time.perf_counter() - start)


def run_all(instance: Instance, bounds: Bounds = DEFAULT_BOUNDS) -> list[ClaimReport]:
    """Every registered claim, in registry order, reported as
    :func:`run_claim` reports it.  The claims share one :class:`Run`, so
    each construction (envelope, global action, G-map poset, subgroup
    lattice) is built once for the whole registry; the run ends with the
    call."""
    run = Run(bounds)
    return [_report(cid, instance, run) for cid in CLAIMS]


def exit_code(reports: list[ClaimReport]) -> int:
    """3 when at least one claim hit an internal error, else 1 when at least
    one claim fails, else 0."""
    statuses = {rep.status for rep in reports}
    if INTERNAL_ERROR in statuses:
        return 3
    return 1 if FAILS in statuses else 0


def replay_witness(report: ClaimReport, instance: Instance,
                   bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Replay a report by deriving it again.

    The claim is re-run with :func:`run_claim` under ``bounds``, which must
    be the bounds the report was derived under, on a fresh :class:`Run`,
    never on the constructions that produced the report.  The report is
    accepted only when its status and witness are the ones derived again.
    The witnesses are compared in JSON form, so a report read back from
    ``check --json`` replays exactly as the one in memory.  This holds for
    every claim and status alike: a forged witness, whatever key it changes,
    adds or drops, does not replay.  An ``internal-error`` report never
    replays; a report on another instance, or of an unregistered claim,
    raises :class:`ValidationError`.
    """
    if report.instance_id != instance.id:
        raise ValidationError("instance-mismatch", (report.instance_id, instance.id),
                              "report refers to a different instance")
    again = run_claim(report.claim_id, instance, bounds)
    return (report.status != INTERNAL_ERROR and again.status == report.status
            and _json_text(again.witness) == _json_text(report.witness))


def _json_text(witness: dict) -> str:
    """The witness as JSON text with sorted keys.  One round trip first
    makes every key a string, so the keys sort, and ``true`` stays apart
    from ``1``."""
    return json.dumps(json.loads(json.dumps(witness)), sort_keys=True)
