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
                       pair_label, space_from_min_opens, split_pair_label,
                       subspace)
from .homotopy import MapPoset, is_G_contractible, is_locally_G_contractible
from .instance import Instance
from .paction import (PartialAction, diagonal_product, is_isovariant,
                      restrict_to_group, trivial_action, validate_partial_action)
from .report import (FAILS, HOLDS, INTERNAL_ERROR, PRECONDITION_UNMET,
                     SKIPPED_BOUNDS, ClaimReport)


class Run:
    """The constructions of one instance, shared by the claims of one run.

    Each is built on its first request, and every later request with equal
    arguments gets the same object.  A build that raises stores nothing,
    so each claim that needs it raises again.  ``globalize`` and
    ``twisted_product`` keep separate entries, so ``twist-eq-glob`` still
    compares two independent constructions.  An envelope keeps its global
    action (``EnvelopeResult.as_global_action``), so one envelope per input
    also means one global action.  ``hom`` keeps one entry per hom-set: the
    poset of G-maps between two actions, under one node budget and map
    cap, whichever claim asks for it.  The builders are read from their
    modules at call time, so a wrapper installed there sees every build.
    Nothing outlives the run: :func:`run_all` drops it when it returns.
    """

    def __init__(self) -> None:
        self._built: dict[str, list[tuple[tuple, object]]] = {}

    def _once(self, kind: str, build: Callable, *args):
        entries = self._built.setdefault(kind, [])
        for key, value in entries:
            if key == args:
                return value
        value = build(*args)
        entries.append((args, value))
        return value

    def globalize(self, pa: PartialAction, max_pairs: int) -> EnvelopeResult:
        return self._once("globalize", envelope.globalize, pa, max_pairs)

    def twisted_product(self, pa: PartialAction, big: Group,
                        max_pairs: int) -> EnvelopeResult:
        return self._once("twisted_product", envelope.twisted_product, pa, big, max_pairs)

    def subgroups(self, group: Group, max_order: int) -> list[Subgroup]:
        """The subgroup lattice of ``group``."""
        return self._once("subgroups", algebra.all_subgroups, group, max_order)

    def hom(self, pa_x: PartialAction, pa_y: PartialAction, bounds: Bounds) -> MapPoset:
        """The poset of G-maps from ``pa_x`` to ``pa_y``, under the bounds'
        ``map_nodes`` and ``max_maps``."""
        def build(pa_x, pa_y, node_budget, max_maps):
            return homotopy.enumerate_maps(pa_x.space, pa_y.space, equivariant=(pa_x, pa_y),
                                           node_budget=node_budget, max_maps=max_maps)
        return self._once("hom", build, pa_x, pa_y, bounds.map_nodes, bounds.max_maps)


Check = Callable[[Instance, Bounds, Run], tuple[str, dict]]


def _onto_image(env: EnvelopeResult) -> tuple[SpaceMap, dict[str, bool]]:
    """The embedding X -> iota(X), onto its image as a subspace of the
    total space (whose points keep the total space's order), with its
    injective, continuous and inverse-continuous checks, also the embedding's."""
    emb = env.embedding_row
    rank = {c: i for i, c in enumerate(sorted(set(emb)))}
    onto = SpaceMap(env.base.space, subspace(env.total, env.embedding_image()),
                    tuple(map(rank.__getitem__, emb)))
    return onto, _map_checks(onto, ("injective", "continuous", "inverse-continuous"))[0]


def _claim_pa_axioms(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.pa
    validate_partial_action(pa.group, pa.space, pa.domains, pa.thetas)
    witness = {
        "elements": len(pa.group),
        "points": len(pa.space),
        "triples_scanned": len(pa.group) ** 2 * len(pa.space),
        "gstar_open": pa.gstar_is_open(),
        "gstar_closed": pa.gstar_is_closed(),
    }
    return HOLDS, witness


def _claim_embedding(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    env = run.globalize(inst.embedded_pa, bounds.envelope_pairs)
    onto, checked = _onto_image(env)
    checks = {
        "injective": checked["injective"],
        "continuous": checked["continuous"],
        "open-onto-image": is_open_map(onto),
        "image-open": is_open(env.total, onto.target.points),
        "homeomorphism-onto-image": checked["continuous"] and checked["inverse-continuous"],
    }
    status = HOLDS if all(checks.values()) else FAILS
    witness = {"checks": checks, "classes": len(env.total)}
    if status == FAILS:
        witness["reason"] = next(k for k, v in checks.items() if not v)
    return status, witness


def _claim_recognition(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.globalize(pa, bounds.envelope_pairs)
    beta = env.as_global_action()
    phi, report = recognize_globalization(beta, env.embedding_image(),
                                          bounds.envelope_pairs)
    witness = {k: v for k, v in report.items() if k != "status"}
    if phi is not None and report["status"] == HOLDS:
        witness["map"] = phi.as_dict()
    return report["status"], witness


def _claim_twist_eq_glob(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env_g = run.globalize(pa, bounds.envelope_pairs)
    env_t = run.twisted_product(pa, pa.group, bounds.envelope_pairs)
    # both are quotients of the same G x X with classes numbered and named
    # by least member: equal class tables mean equal partitions and labels
    same_classes = env_g.pair_class == env_t.pair_class
    checks = {
        "same-class-partition": same_classes,
        "same-projection": same_classes,
        "same-action": (env_g.total.points == env_t.total.points
                        and env_g.action_rows == env_t.action_rows),
    }
    status = HOLDS if all(checks.values()) else FAILS
    witness = {"checks": checks, "classes": len(env_g.total),
               "twisted_classes": len(env_t.total)}
    if status == FAILS:
        witness["reason"] = next(k for k, v in checks.items() if not v)
    return status, witness


def _claim_iota_k(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.twisted_product(pa, inst.big, bounds.envelope_pairs)
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
    status = HOLDS if all(checks.values()) else FAILS
    witness = {"checks": checks, "kstar_open": kstar_open,
               "kstar_closed": kstar_closed, "classes": len(env.total)}
    if status == FAILS:
        witness["reason"] = next(k for k, v in checks.items() if not v)
    return status, witness


def _claim_preimage(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.twisted_product(pa, inst.big, bounds.envelope_pairs)
    image = set(env.embedding_row)
    preimage = sum(1 << p for p, c in enumerate(env.pair_class) if c in image)
    holds = preimage == env.kstar
    pairs = env.product_space.points
    witness = {"kstar": [pairs[p] for p in bit_indices(env.kstar)], "classes": len(env.total)}
    if not holds:
        witness["reason"] = "preimage of the embedded image differs from K*X"
        witness["difference"] = [pairs[p] for p in bit_indices(preimage ^ env.kstar)]
    return (HOLDS if holds else FAILS), witness


def _claim_iterated_twist(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa, n = inst.embedded_pa, bounds.envelope_pairs
    inner = run.twisted_product(pa, pa.group, n)
    outer_1 = run.twisted_product(inner.as_global_action(), inst.big, n)
    report = iterated_twist_comparison(inner, outer_1, run.twisted_product(pa, inst.big, n))
    witness = {k: v for k, v in report.items() if k != "status"}
    if report["status"] == FAILS:
        witness["reason"] = next(k for k, v in report["checks"].items() if not v)
    return report["status"], witness


def _claim_adjunction(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    big = inst.big
    if len(big) > bounds.hom_group or len(pa.space) > bounds.hom_space:
        return SKIPPED_BOUNDS, {"reason": "instance exceeds the hom-set bounds"}
    candidates: list[tuple[str, PartialAction]] = [
        ("pt", trivial_action(big, discrete_space(["y"])))]
    env = run.twisted_product(pa, big, bounds.envelope_pairs)
    if len(env.total) <= bounds.hom_space:
        candidates.append(("envelope", env.as_global_action()))
    ran = {}
    ok = True
    for name, pa_y in candidates:
        report = adjunction_maps(env, pa_y, lambda a, b: run.hom(a, b, bounds))
        ran[name] = {key: report[key] for key in ("g_maps", "k_maps", "status")}
        ok = ok and report["status"] == HOLDS
    witness = {"targets": ran}
    if not ok:
        witness["reason"] = "adjunction bijection or naturality failed"
    return (HOLDS if ok else FAILS), witness


def split_diagonal_factors(pa: PartialAction
                           ) -> tuple[PartialAction, PartialAction, PartialAction] | None:
    """Recover the two factors of a diagonal-product action from the pair
    labels, with their diagonal product, or None when the instance does not
    carry a product structure.

    The factors' opens, domains and thetas are read off the first and
    second coordinates, and the diagonal product rebuilt from them must
    equal ``pa`` label for label: its minimal opens, domains and thetas are
    products of the factors', so that one comparison decides whether
    ``pa``'s are."""
    pts = pa.space.points
    split = [split_pair_label(p) for p in pts]
    if any(s is None for s in split):
        return None
    firsts = list(dict.fromkeys(a for a, _ in split))
    seconds = list(dict.fromkeys(b for _, b in split))
    # each point is the pair label of its split, so this count makes the
    # points exactly the pairs of firsts x seconds
    if len(pts) != len(firsts) * len(seconds):
        return None

    def u1(p: str) -> set[str]:
        return {p2 for p2 in firsts
                if all(pa.space.leq(pair_label(p2, q), pair_label(p, q))
                       for q in seconds)}

    def u2(q: str) -> set[str]:
        return {q2 for q2 in seconds
                if all(pa.space.leq(pair_label(p, q2), pair_label(p, q))
                       for p in firsts)}

    def factor(k: int, space: FinSpace) -> PartialAction:
        # the domains and thetas read off coordinate k
        return validate_partial_action(
            pa.group, space,
            {g: {split_pair_label(p)[k] for p in xs} for g, xs in pa.domains.items()},
            {g: {split_pair_label(p)[k]: split_pair_label(q)[k] for p, q in theta.items()}
             for g, theta in pa.thetas.items()})

    try:
        pa_1 = factor(0, space_from_min_opens(firsts, {p: u1(p) for p in firsts}))
        pa_2 = factor(1, space_from_min_opens(seconds, {q: u2(q) for q in seconds}))
        diag = diagonal_product(pa_1, pa_2)
    except ValidationError:
        return None
    # theta_g's table is keyed by X_{g^-1}, so equal thetas mean equal domains
    same = (all(diag.space.min_open_of(p) == pa.space.min_open_of(p) for p in pts)
            and all(dict(diag.thetas[g]) == dict(pa.thetas[g]) for g in pa.group.elements))
    return (pa_1, pa_2, diag) if same else None


def _claim_product_comparison(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    split = split_diagonal_factors(inst.embedded_pa)
    if split is None:
        return PRECONDITION_UNMET, {"reason": "needs two factors: the instance is "
                                              "not a diagonal product"}
    pa_1, pa_2, diag = split
    report = product_comparison(*(run.twisted_product(pa, inst.big, bounds.envelope_pairs)
                                  for pa in (diag, pa_1, pa_2)))
    witness = {k: v for k, v in report.items() if k != "status"}
    return report["status"], witness


def _claim_trivial_collapse(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    if not pa.is_trivial():
        return PRECONDITION_UNMET, {"reason": "the action is not trivial"}
    if not pa.is_global():
        return PRECONDITION_UNMET, {"reason": "the trivial action does not have "
                                              "full domains"}
    report = trivial_collapse(run.twisted_product(pa, inst.big, bounds.envelope_pairs))
    witness = {k: v for k, v in report.items() if k != "status"}
    return report["status"], witness


def _claim_t1(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    if not is_T1(pa.space):
        return PRECONDITION_UNMET, {"reason": "the base space is not T1"}
    env = run.twisted_product(pa, inst.big, bounds.envelope_pairs)
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


def _claim_homotopy_preservation(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    poset_x = run.hom(pa, pa, bounds)
    env = run.globalize(pa, bounds.envelope_pairs)
    gpa = env.as_global_action()
    poset_y = run.hom(gpa, gpa, bounds)
    lifted = list(map(poset_y.index_of, lift_maps(poset_x, pa, pa, env, env)))
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


def _claim_g_contractible(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    """If X is G-contractible then so is its globalization."""
    pa = inst.embedded_pa
    base = is_G_contractible(pa, lambda: run.hom(pa, pa, bounds))
    if not base:
        return PRECONDITION_UNMET, {"reason": f"the space is not equivariantly "
                                              f"contractible ({base.reason})"}
    gpa = run.globalize(pa, bounds.envelope_pairs).as_global_action()
    lifted = is_G_contractible(gpa, lambda: run.hom(gpa, gpa, bounds))
    witness = {
        "fixed_point": base.fixed_point,
        "fence": base.fence_tables(),
        "envelope_fixed_point": lifted.fixed_point,
        "envelope_fence": lifted.fence_tables(),
    }
    if not lifted:
        witness["reason"] = lifted.reason or "globalization is not equivariantly contractible"
    return (HOLDS if lifted else FAILS), witness


def _claim_locally_g_contractible(inst: Instance, bounds: Bounds,
                                  run: Run) -> tuple[str, dict]:
    """Holds on every instance (see is_locally_G_contractible); the witness
    checks run on X and on its globalization."""
    pa = inst.embedded_pa
    env = run.globalize(pa, bounds.envelope_pairs)
    return HOLDS, {"space": is_locally_G_contractible(pa),
                   "envelope": is_locally_G_contractible(env.as_global_action())}


def _claim_fixed_decomposition(inst: Instance, bounds: Bounds, run: Run) -> tuple[str, dict]:
    pa = inst.embedded_pa
    env = run.globalize(pa, bounds.envelope_pairs)
    reports = []
    ok = True
    for sub in run.subgroups(pa.group, bounds.group_order):
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


def _claim_generated_intersection(inst: Instance, bounds: Bounds,
                                  run: Run) -> tuple[str, dict]:
    """Holds on every instance (see generated_intersection), whose checks
    run on the globalization."""
    pa = inst.embedded_pa
    env = run.globalize(pa, bounds.envelope_pairs)
    inner = generated_intersection(pa, env, run.subgroups(pa.group, bounds.group_order))
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
    trusted invariant becomes internal-error, so that one claim's bug
    neither hides the other claims' reports nor reads as bad input."""
    if claim_id not in CLAIMS:
        raise ValidationError("unknown-claim", (claim_id,),
                              f"no claim registered under {claim_id!r}")
    return _report(claim_id, instance, bounds, Run())


def _report(claim_id: str, instance: Instance, bounds: Bounds, run: Run) -> ClaimReport:
    start = time.perf_counter()
    try:
        status, witness = CLAIMS[claim_id](instance, bounds, run)
    except BoundExceeded as exc:
        status, witness = SKIPPED_BOUNDS, {"reason": str(exc)}
    except InternalCheckError as exc:
        status, witness = INTERNAL_ERROR, {"reason": str(exc)}
    return ClaimReport(claim_id, instance.id, status, witness,
                       time.perf_counter() - start)


def run_all(instance: Instance, bounds: Bounds = DEFAULT_BOUNDS) -> list[ClaimReport]:
    """Every registered claim, in registry order, reported as
    :func:`run_claim` reports it.  The claims share one :class:`Run`, so
    each construction (envelope, global action, G-map poset, subgroup
    lattice) is built once for the whole registry; the run ends with the
    call."""
    run = Run()
    return [_report(cid, instance, bounds, run) for cid in CLAIMS]


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
