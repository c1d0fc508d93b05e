"""Structured outcome of checking one claim on one instance."""
from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
PRECONDITION_UNMET = "precondition-unmet"
SKIPPED_BOUNDS = "skipped-bounds"
# a trusted invariant failed inside the claim: a bug in pact, not an answer
INTERNAL_ERROR = "internal-error"


def verdict(checks: dict[str, bool], **facts) -> tuple[str, dict]:
    """The verdict on named checks: holds iff every check passed, else fails
    with the first failed check as ``reason``.  The witness is ``checks``,
    then ``facts`` in order, then the reason."""
    witness = {"checks": checks, **facts}
    failed = next((name for name, ok in checks.items() if not ok), None)
    if failed is None:
        return HOLDS, witness
    witness["reason"] = failed
    return FAILS, witness


@dataclass
class ClaimReport:
    claim_id: str
    instance_id: str
    status: str
    witness: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "instance_id": self.instance_id,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }

    def render(self) -> str:
        reason = self.witness.get("reason")
        head = f"{self.status}: {reason}" if reason else self.status
        extras = []
        for key in ("source_classes", "target_points", "classes", "g_maps", "k_maps"):
            if key in self.witness:
                extras.append(f"{key}={self.witness[key]}")
        if self.status == FAILS:
            for key in ("unhit_targets", "collision", "pair",
                        "non_closed_singleton", "difference"):
                if self.witness.get(key):
                    extras.append(f"{key}={self.witness[key]}")
        tail = f" ({', '.join(extras)})" if extras else ""
        return f"{self.claim_id} [{self.instance_id}]: {head}{tail}"
