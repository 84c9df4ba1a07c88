"""Seeded committee schedules: the sampled cross-check of the strong-simple game.

No game draws committees; the strong-simple game uses the closed-form
membership probability 1/epoch_length, and its tests check that figure
against these sampled schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Sequence

from reorglab.chain import Validator, ValidatorKind


class InsufficientValidators(Exception):
    pass


@dataclass
class CommitteeSchedule:
    """Per-slot leader and attestor set."""

    epoch_length: int
    committees: dict[int, list[Validator]]
    leaders: dict[int, Validator]
    seed: int = 0

    def committee(self, slot: int) -> list[Validator]:
        return self.committees[slot]

    def leader(self, slot: int) -> Validator:
        return self.leaders[slot]


def assign_committees(
    seed: int,
    n_validators: int,
    committee_size: int,
    epoch_length: int = 32,
    adversarial_slots: Sequence[int] = (),
    fixed_attestor_set: bool = False,
) -> CommitteeSchedule:
    """Deterministic stand-in for the RANDAO shuffle.

    Slots 0..epoch_length-1 get disjoint committees of `committee_size`
    drawn from a seeded shuffle, so each validator attests exactly once per
    epoch; the leader is the first committee member.  Slots listed in
    `adversarial_slots` get an adversarial leader, everyone else is rational.
    In fixed-attestor mode the same committee serves every slot.
    """
    adversarial = set(adversarial_slots)
    if fixed_attestor_set:
        if n_validators < committee_size:
            raise InsufficientValidators(
                f"{n_validators} validators < committee size {committee_size}"
            )
    elif n_validators < committee_size * epoch_length:
        raise InsufficientValidators(
            f"{n_validators} validators cannot fill {epoch_length} disjoint "
            f"committees of {committee_size}"
        )
    order = list(range(n_validators))
    Random(seed).shuffle(order)
    rational = _rational_validators(n_validators)
    shuffled = [rational[idx] for idx in order]

    committees: dict[int, list[Validator]] = {}
    for slot in range(epoch_length):
        start = 0 if fixed_attestor_set else slot * committee_size
        members = shuffled[start : start + committee_size]
        if slot in adversarial:
            members[0] = Validator(members[0].index, ValidatorKind.ADVERSARIAL)
        committees[slot] = members
    leaders = {slot: members[0] for slot, members in committees.items()}
    return CommitteeSchedule(epoch_length, committees, leaders, seed)


@lru_cache(maxsize=8)
def _rational_validators(n_validators: int) -> tuple[Validator, ...]:
    """Rational validators 0..n-1, built once per size: Validator is frozen,
    so schedules can share them, and building them dominated a draw."""
    return tuple(Validator(idx, ValidatorKind.RATIONAL) for idx in range(n_validators))
