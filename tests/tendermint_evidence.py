"""The spec's evidence-validity predicates: the oracle for the clause-(i) count.

The Tendermint games pay through clause (i) of the evidence rule alone, which
`reorglab.tendermint.evidence_counts` counts directly; no game builds an
evidence message.  These predicates state both clauses over explicit evidence
messages, and the tests check the count against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from reorglab.tendermint import NIL, MsgKind, TendermintMsg


@dataclass(frozen=True)
class TmEvidence:
    kind: MsgKind  # kind of the attested message
    signer: int
    attested: TendermintMsg
    justification: tuple[TendermintMsg, ...] = ()


def prevote_evidence_valid(
    ev: TmEvidence,
    signer_prevote: Optional[TendermintMsg],
    proposal_value: Optional[int],
    proposal_vr: int,
    f: int,
) -> bool:
    """Validity of a signature over another validator's (rho, h) prevote.

    (i) the signer sent the same-value prevote itself; or (ii) the attested
    prevote is nil, the signer prevoted the proposal, and the nil-prevoter
    forwarded a 2f+1 lock proof for a conflicting block from a round at
    least vr.
    """
    a = ev.attested
    if a.kind is not MsgKind.PREVOTE:
        return False
    if signer_prevote is not None and signer_prevote.value == a.value:
        return True
    if a.value is not NIL:
        return False
    if signer_prevote is None or proposal_value is None:
        return False
    if signer_prevote.value != proposal_value:
        return False
    just = ev.justification
    if not just:
        return False
    rounds = {m.rho for m in just}
    values = {m.value for m in just}
    senders = {m.sender for m in just}
    if len(rounds) != 1 or len(values) != 1:
        return False
    (r_prime,) = rounds
    (b_pp,) = values
    return (
        all(m.kind is MsgKind.PREVOTE and m.height == a.height for m in just)
        and b_pp is not NIL
        and b_pp != proposal_value
        and r_prime >= proposal_vr
        and len(senders) >= 2 * f + 1
    )


def precommit_evidence_valid(
    ev: TmEvidence,
    signer_precommit: Optional[TendermintMsg],
    expected_rho: int,
    expected_height: int,
    f: int,
) -> bool:
    """Validity of a signature over a previous-round (or -height) precommit.

    The attested coordinates must match the round preceding the signer's
    prevote (the last round of the previous height when the signer is in
    round 1).  (i) the signer precommitted the same value then; or (ii) the
    precommitter forwarded the 2f+1 prevotes that justified it.
    """
    a = ev.attested
    if a.kind is not MsgKind.PRECOMMIT:
        return False
    if a.rho != expected_rho or a.height != expected_height:
        return False
    if signer_precommit is not None and signer_precommit.value == a.value:
        return True
    just = ev.justification
    senders = {m.sender for m in just}
    return (
        len(just) > 0
        and all(
            m.kind is MsgKind.PREVOTE
            and m.height == a.height
            and m.rho == a.rho
            and m.value == a.value
            for m in just
        )
        and len(senders) >= 2 * f + 1
    )
