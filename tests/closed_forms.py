"""The paper's pool payoff tables in closed form: oracles for the conditioned runs.

The package computes every cell of a payoff table from the settlement of
one conditioned run (`conditioned_run`).  The closed forms here restate the
paper's Tables 7 and 8 symbolically, so the tests can check the runs
against them on every cell the run can realize.  Table 1, the solo
attestor's payoffs in the simple game, is restated per uniform profile, so
the Nash check's played payoffs can be checked against it at any W.  The extended attack's
required length, which no game reads, is kept here too.
"""

from __future__ import annotations

from fractions import Fraction

from reorglab.games import GameConfig, SelfishMiningGame


def pool_payoff_simple(config: GameConfig, pool_action: str,
                       condition: str) -> tuple[Fraction, Fraction]:
    """Table 7: a pool's (slot t-1, slot t) payoff in the simple game.

    The pool's earlier committee keeps its votes' reward m*r only when the
    victim block survives (fail).  Its later committee earns m*r inside the
    adversary's block when it complied and the attack succeeded, and inside
    B_t's successor when it voted B_t, the attack failed and the adversary
    includes every vote (no credible exclusion threat).
    """
    paid = config.pool.members_per_slot * config.r
    prev = paid if condition == "fail" else Fraction(0)
    cur = paid if (condition, pool_action) == ("succeed", "C") or (
        (condition, pool_action) == ("fail", "NC") and not config.credibility_assumed
    ) else Fraction(0)
    return prev, cur


SIMPLE_UNIFORM = {"compliant-all": "C", "vote-bt-all": "NC", "abstain-all": "abstain"}


def simple_attestor_payoff(config: GameConfig, label: str, votes_for_b_t: int) -> Fraction:
    """Table 1: a solo slot-t attestor's payoff, given its label and the slot-t votes for B_t.

    The attack succeeds when fewer than `boost` attestors vote B_t (NC): the
    adversary then builds on B_{t-1} and outweighs B_t with the boost.  C
    pays r only on success, inside the adversary's block.  NC pays r only on
    failure, and only when the adversary includes every vote (no credible
    exclusion threat).  Abstaining pays nothing.
    """
    success = votes_for_b_t < config.boost
    if label == "C":
        return config.r if success else Fraction(0)
    if label == "NC" and not success and not config.credibility_assumed:
        return config.r
    return Fraction(0)


def simple_table1(config: GameConfig, profile: str) -> tuple[Fraction, dict[str, Fraction]]:
    """A uniform profile's one class: each member's base payoff, and its payoff deviating to each label."""
    played = SIMPLE_UNIFORM[profile]
    others = config.committee_size - 1 if played == "NC" else 0  # the other members' votes for B_t
    pay = lambda label: simple_attestor_payoff(config, label, others + (label == "NC"))
    return pay(played), {label: pay(label) for label in ("C", "NC", "abstain")}


def pool_slot_sets(game: SelfishMiningGame) -> tuple[list[int], list[int]]:
    """S_A: slots of the window whose next slot is adversarial; S_NA: the rest of 1..p-1."""
    s_a = [s for s in range(1, game.horizon) if s + 1 in game.adv_slots]
    s_na = [s for s in range(1, game.horizon) if s + 1 not in game.adv_slots]
    return s_a, s_na


def pool_payoff_selfish(game: SelfishMiningGame, pool_action: str, fork_result: str) -> Fraction:
    """Table 8: sum of m*r over the slot set that pays.

    succeed+C pays the slots preceding adversarial slots; any failure pays
    the slots preceding non-adversarial slots; succeed+NC pays nothing.
    """
    s_a, s_na = pool_slot_sets(game)
    paid = game.config.pool.members_per_slot * game.config.r
    if fork_result == "succeed":
        return paid * len(s_a) if pool_action == "C" else Fraction(0)
    return paid * len(s_na)


class HonestMajority(Exception):
    pass


def required_attack_length(p: int, committee_size: int, honest_per_slot: int) -> int:
    """Slots the extended attack must run against W_h honest attestors per slot.

    ceil(p * W / (W - 2 * W_h)); an honest majority per committee makes the
    attack impossible.
    """
    if 2 * honest_per_slot >= committee_size:
        raise HonestMajority(
            f"{honest_per_slot} honest attestors out of {committee_size} "
            "cannot be outvoted"
        )
    num = p * committee_size
    den = committee_size - 2 * honest_per_slot
    return -(-num // den)
