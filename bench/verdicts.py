"""Known answers for every benchmarked instance, and the correctness gate.

The rule, from the mathematics rather than from recorded output: every claim
holds wherever its precondition is met, except ``product-comparison`` on
``z2-pair-sq`` (the comparison map is not bijective) and
``trivial-collapse`` on the fence (K = {0, 2} is a proper subgroup of Z4, so
the collapse map is not injective).  The table lists, per instance or
generated family, the claims whose precondition fails and the claims that
fail.  ``skipped-bounds`` is undecided, never wrong.
"""
from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from typing import Callable

HOLDS = "holds"
FAILS = "fails"
UNMET = "precondition-unmet"
SKIPPED = "skipped-bounds"

_NOT_PRODUCT = "product-comparison"     # the space carries no product structure
_NOT_TRIVIAL = "trivial-collapse"       # the action is not trivial and global
_NOT_T1 = "t1"                          # some point lies below another
_NOT_G_CONTRACTIBLE = "g-contractible"  # no fence from the identity to a constant

# instance id or family pattern -> (claims with unmet precondition, failing claims)
KNOWN: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "pt": (frozenset({_NOT_PRODUCT}), frozenset()),
    # X_1 = {a} only: neither global nor contractible (two discrete points).
    "z2-pair": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_G_CONTRACTIBLE}),
                frozenset()),
    "z4-from-z2-pair": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_G_CONTRACTIBLE}),
                        frozenset()),
    # The swap has no fixed point.
    "z2-swap": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_G_CONTRACTIBLE}),
                frozenset()),
    # A cone on the fixed point w, but w < a, b.
    "z2-wedge": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_T1}), frozenset()),
    # {a, b}^2 with the partial action of z2-pair on each factor.
    "z2-pair-sq": (frozenset({_NOT_TRIVIAL, _NOT_G_CONTRACTIBLE}),
                   frozenset({"product-comparison"})),
    # Rotations of (parts of) the circle: no fixed point, corners above arcs.
    "z4-circle": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_T1, _NOT_G_CONTRACTIBLE}),
                  frozenset()),
    "z4-half": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_T1, _NOT_G_CONTRACTIBLE}),
                frozenset()),
    "z4-arcs": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_T1, _NOT_G_CONTRACTIBLE}),
                frozenset()),
    "arc-z*": (frozenset({_NOT_PRODUCT, _NOT_TRIVIAL, _NOT_T1, _NOT_G_CONTRACTIBLE}),
               frozenset()),
    # Trivial global actions on connected, non-T1 spaces.
    "fence*-z2-in-z4": (frozenset({_NOT_PRODUCT, _NOT_T1}),
                        frozenset({"trivial-collapse"})),
    "cone*-z3": (frozenset({_NOT_PRODUCT, _NOT_T1}), frozenset()),
}


def expected_status(instance_id: str, claim_id: str) -> str:
    for pattern, (unmet, fails) in KNOWN.items():
        if fnmatch.fnmatchcase(instance_id, pattern):
            if claim_id in unmet:
                return UNMET
            return FAILS if claim_id in fails else HOLDS
    raise KeyError(f"no known answer for instance {instance_id!r}")


def canonical(report: dict) -> str:
    """A report's JSON without its timing, with sorted keys."""
    return json.dumps({k: v for k, v in report.items() if k != "elapsed_ms"},
                      sort_keys=True)


@dataclass
class Gate:
    """Tallies reports of one workload run against the known answers.

    ``replay(report_dict)`` returns whether ``pact.replay_witness`` accepts a
    ``fails`` report; it is called once per distinct report.  ``reference``
    maps instance id -> claim id -> report (without ``elapsed_ms``) for the
    drift check.
    """

    replay: Callable[[dict], bool]
    reference: dict[str, dict[str, dict]] | None = None
    attempted: int = 0
    decided: int = 0
    wrong_verdicts: int = 0
    report_drift: int = 0
    problems: list[str] = field(default_factory=list)
    _replayed: dict[str, bool] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.wrong_verdicts + self.report_drift

    def _wrong(self, message: str) -> None:
        self.wrong_verdicts += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def raised(self, instance_id: str, claim_id: str, error: str) -> None:
        """A claim, or the whole run of an instance, raised instead of reporting."""
        self.attempted += 1
        self._wrong(f"{instance_id}/{claim_id}: raised {error}")

    def check(self, report: dict) -> None:
        self.attempted += 1
        iid, cid, status = report["instance_id"], report["claim_id"], report["status"]
        if status == SKIPPED:
            return
        self.decided += 1
        want = expected_status(iid, cid)
        if status != want:
            self._wrong(f"{iid}/{cid}: {status}, known answer {want}")
        text = canonical(report)
        if status == FAILS:
            if text not in self._replayed:
                self._replayed[text] = bool(self.replay(report))
            if not self._replayed[text]:
                self._wrong(f"{iid}/{cid}: replay_witness rejects the witness")
        if self.reference is not None:
            ref = self.reference.get(iid, {}).get(cid)
            if ref is None or (ref["status"] != SKIPPED and canonical(ref) != text):
                self.report_drift += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{iid}/{cid}: report differs from the reference")
