"""Adversary strategies and closed-form attack calculators.

Covers the private double-spend race (closed form and Monte Carlo), the
pure-PoS long-range replay, selfish mining with honest stakers in the loop,
split-stake eligibility invariance, and the future-timestamp mining game.
Denial-of-service, eclipse, and censorship scenarios have no mechanical
content at this layer and are deliberately absent.

The future-timestamp game is played on a ``BlockTree`` with blocks built
by ``forging``: the clock check of import, seed anchors and product fork
choice decide each of its checks, so a broken rule fails the game.

Monte Carlo helpers model each side of a race as aggregate exponential
event streams (one per block kind), which is exact for our forging rules:
individual producers merge into a single Poisson process per kind.  Where
only the final weights matter (the private double spend at frozen
difficulty, ``double_spend_win_rate``), each side's product depends only on
its Poisson block count per kind, so all trials come from one numpy draw.
Every loop whose path matters (trajectories and crossing times, the selfish
and public-network policies, the long-range replay) iterates one race
kernel, ``_race``, which merges such streams into a single sequence of
events.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chain import BlockKind, BlockTree, ImportResult, make_genesis
from .crypto import HashOracle
from .difficulty import FrozenRule, adjust
from .forging import (EligibilityError, MinerContext, PosEligibility, StakerContext,
                      build_pow_block, forge_pos_block, pos_lottery, pos_winner)
from . import stats
from .simnet import SimConfig, SimReport, run as run_sim


@dataclass(frozen=True, slots=True)
class AttackSetup:
    """A private-fork race: attacker (a, b) vs honest (c, d) power pairs.

    ``td_wc``/``td_sc`` are the chain weights at the common fork point and
    ``horizon`` is how long the attacker builds before revealing.
    """

    attacker_hash: float
    attacker_stake: float
    honest_hash: float
    honest_stake: float
    td_wc: float
    td_sc: float
    horizon: float

    def __post_init__(self):
        for name in ("attacker_hash", "attacker_stake", "honest_hash",
                     "honest_stake", "td_wc", "td_sc", "horizon"):
            value = getattr(self, name)
            # A NaN or infinite horizon would never reach the race's cut.
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.attacker_hash + self.honest_hash <= 0:
            raise ValueError("total hash power must be positive")
        if self.attacker_stake + self.honest_stake <= 0:
            raise ValueError("total stake must be positive")


@dataclass
class AttackOutcome:
    attacker_won: bool
    crossing_time: Optional[float]
    weight_trajectories: List[Tuple[float, float, float]]
    final_attacker_product: float
    final_honest_product: float
    max_product_ratio: float
    meta: dict = field(default_factory=dict)


def double_spend_feasible(setup: AttackSetup) -> Tuple[float, bool]:
    """Closed-form race check from the expected weight growth rates.

    Each side's td_w grows at its hash power and td_s at its stake power
    (rate times difficulty cancels), so comparing expected products at the
    horizon reduces to the sign of one expression.  Strictly positive means
    feasible: a tie loses to the first-seen honest chain.
    """
    a, b = setup.attacker_hash, setup.attacker_stake
    c, d = setup.honest_hash, setup.honest_stake
    lhs = (
        setup.td_sc * (a - c)
        + setup.td_wc * (b - d)
        + (a * b - c * d) * setup.horizon
    )
    return lhs, lhs > 0


def _race(rng, rates: List[float], horizon: float, now: float = 0.0):
    """Yield ``(time, stream index)`` for each event of merged exponential streams.

    Before every event each stream with a positive rate draws a delay, in
    index order; the earliest fires and ties go to the lowest index.  The
    race ends once the next event would land past ``horizon``.  ``rates`` is
    read afresh before every draw, so the caller may change it between events.
    """
    while True:
        best, winner = math.inf, -1
        for index, rate in enumerate(rates):
            if rate > 0:
                dt = rng.expovariate(rate)
                if dt < best:
                    best, winner = dt, index
        if winner < 0 or now + best > horizon:
            return
        now += best
        yield now, winner


def _grow_frozen(setup: AttackSetup, hash_power: float, stake: float,
                 d_w: float, d_s: float, rng):
    """One side of a private race at frozen difficulty: its final
    ``[td_w, td_s]`` and its ``(time, product)`` step after each block."""
    weights = [setup.td_wc, setup.td_sc]
    steps = []
    for now, kind in _race(rng, [hash_power / d_w, stake / d_s], setup.horizon):
        weights[kind] += (d_w, d_s)[kind]
        steps.append((now, weights[0] * weights[1]))
    return weights, steps


def _race_difficulties(setup: AttackSetup, t: float) -> Tuple[float, float]:
    # Pre-fork equilibrium: the whole network was producing each kind at
    # one block per 2t, so d = power * 2t.
    d_w = (setup.attacker_hash + setup.honest_hash) * 2.0 * t
    d_s = (setup.attacker_stake + setup.honest_stake) * 2.0 * t
    return d_w, d_s


def _merge_race(att: list, hon: list, att0: float, hon0: float):
    """Walk two product step-functions, returning the joint trajectory,
    the first strict-excess time, and the max attacker/honest ratio."""
    merged = []
    crossing = None
    max_ratio = att0 / hon0 if hon0 > 0 else math.inf
    i = j = 0
    a_val, h_val = att0, hon0
    while i < len(att) or j < len(hon):
        if j >= len(hon) or (i < len(att) and att[i][0] <= hon[j][0]):
            t, a_val = att[i]
            i += 1
        else:
            t, h_val = hon[j]
            j += 1
        merged.append((t, a_val, h_val))
        ratio = a_val / h_val if h_val > 0 else math.inf
        max_ratio = max(max_ratio, ratio)
        if crossing is None and a_val > h_val:
            crossing = t
    return merged, crossing, max_ratio


def _decimate(points: list, cap: int = 2048) -> list:
    if len(points) <= cap:
        return points
    stride = len(points) // cap + 1
    kept = points[::stride]
    if kept[-1] != points[-1]:
        kept.append(points[-1])
    return kept


def run_private_double_spend(
    config: SimConfig,
    setup: AttackSetup,
    rng_seed: int = 1,
) -> AttackOutcome:
    """Race a private attacker fork against the honest chain.

    Both sides start from the fork-point weights, with difficulty frozen at
    the pre-fork equilibrium.  The attacker reveals at the horizon; they win
    if their chain product strictly exceeds the honest one at that moment.
    ``crossing_time`` additionally reports the first instant of strict
    excess, which an adaptive attacker could have exploited.
    """
    d_w, d_s = _race_difficulties(setup, config.t)
    oracle = HashOracle(rng_seed)
    (att_w, att_s), att_points = _grow_frozen(setup, setup.attacker_hash, setup.attacker_stake,
                                              d_w, d_s, oracle.rng("attacker"))
    (hon_w, hon_s), hon_points = _grow_frozen(setup, setup.honest_hash, setup.honest_stake,
                                              d_w, d_s, oracle.rng("honest"))
    attacker, honest = att_w * att_s, hon_w * hon_s

    base = setup.td_wc * setup.td_sc
    merged, crossing, max_ratio = _merge_race(att_points, hon_points, base, base)

    lhs, feasible = double_spend_feasible(setup)
    return AttackOutcome(
        attacker_won=attacker > honest,
        crossing_time=crossing,
        weight_trajectories=_decimate(merged),
        final_attacker_product=attacker,
        final_honest_product=honest,
        max_product_ratio=max_ratio,
        meta={
            "attack": "private_double_spend",
            "lhs": lhs,
            "feasible": feasible,
            "d_w": d_w,
            "d_s": d_s,
            "rng_seed": rng_seed,
        },
    )


def double_spend_win_rate(
    config: SimConfig,
    setup: AttackSetup,
    trials: int = 200,
    rng_seed: int = 1,
) -> Tuple[float, np.ndarray]:
    """Seeded Monte Carlo over ``trials`` private double-spend races.

    Difficulty is frozen at the pre-fork equilibrium, so a side's final
    product is ``(td_wc + n_w * d_w) * (td_sc + n_s * d_s)`` with its PoW and
    PoS block counts ``n_w``, ``n_s`` Poisson over the horizon: the law of
    ``run_private_double_spend``'s frozen race, with every count of every
    trial taken from one draw.  Returns the win rate and the ``(trials, 4)``
    counts, per trial ``(attacker PoW, attacker PoS, honest PoW, honest PoS)``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    d_w, d_s = _race_difficulties(setup, config.t)
    rng = np.random.default_rng(HashOracle(rng_seed).derive_seed("double-spend"))
    rates = np.array([setup.attacker_hash / d_w, setup.attacker_stake / d_s,
                      setup.honest_hash / d_w, setup.honest_stake / d_s])
    counts = rng.poisson(setup.horizon * rates, size=(trials, 4))
    td_w = setup.td_wc + counts[:, 0::2] * d_w   # columns: attacker, honest
    td_s = setup.td_sc + counts[:, 1::2] * d_s
    products = td_w * td_s
    return int((products[:, 0] > products[:, 1]).sum()) / trials, counts


# ---------------------------------------------------------------------------
# Long-range attack


def lra_omega_bound(pow_blocks: int, pos_blocks: int, mean_d_w: float) -> float:
    """Extra per-block staking difficulty a pure-PoS replay must average.

    The replayed chain keeps the main chain's PoS block count but carries
    no fresh PoW, so each of its PoS blocks must outweigh the honest ones
    by more than pow_blocks * mean_d_w / pos_blocks to compensate.
    """
    if pos_blocks <= 0:
        raise ValueError("pos_blocks must be positive")
    if pow_blocks < 0 or mean_d_w < 0:
        raise ValueError("pow_blocks and mean_d_w must be non-negative")
    return pow_blocks * mean_d_w / pos_blocks


def run_long_range_attack(
    config: SimConfig,
    depth: int,
    attacker_stake_share: float,
    rng_seed: int = 1,
    report: Optional[SimReport] = None,
) -> AttackOutcome:
    """Replay history from ``depth`` blocks below the tip using old stake keys.

    The attacker holds ``attacker_stake_share`` of the voting power that was
    active at the fork point and no hash power, so their fork accumulates
    staking weight only.  Forged timestamps ride the seed chain and may run
    at most ``t_future`` past the reveal moment (the end of honest history).
    A reveal pits the replayed tip against the honest tip as they stand, so
    the outcome records whether the replay's product ever strictly exceeded
    the honest chain's final product.  The trajectory additionally tracks the
    honest product at matching past timestamps for plotting.
    """
    if not 0.0 <= attacker_stake_share <= 1.0:
        raise ValueError("attacker_stake_share must be in [0, 1]")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if report is None:
        report = run_sim(config)
    tree = report.tree
    chain = tree.canonical_chain()
    if depth >= len(chain):
        raise ValueError(f"depth {depth} exceeds chain length {len(chain) - 1}")

    attacker_stake = attacker_stake_share * config.total_stake
    fork_index = len(chain) - 1 - depth
    fork_block = chain[fork_index]
    fork_weight = tree.chain_weight(fork_block.id)
    phi = config.duration  # the attacker reveals at the end of honest history

    # Honest product as a step function of time, for like-for-like reads.
    honest_ts = [b.timestamp for b in chain]
    honest_products = [tree.chain_weight(b.id).product for b in chain]

    def honest_product_at(ts: float) -> float:
        idx = bisect.bisect_right(honest_ts, min(ts, phi)) - 1
        return honest_products[max(idx, 0)]

    # The replay's controller follows the verifier's rule: its first block
    # takes the tree's expected difficulty, and each next one steers on the
    # gap since the previous PoS block, which for the first gap is the last
    # one at or below the fork.  With none, the next block keeps the default.
    params = config.difficulty_params
    d_next = tree.expected_difficulty(fork_block.id, BlockKind.POS)
    last_pos, _ = tree.last_two_of_kind(fork_block.id, BlockKind.POS)
    last_pos_at = last_pos.timestamp if last_pos is not None else None

    rng = HashOracle(rng_seed).rng("lra", depth)
    td_s = fork_weight.td_s
    td_w = fork_weight.td_w
    forged = 0
    now = fork_block.timestamp
    final_honest = honest_products[-1]
    max_ratio = fork_weight.product / final_honest
    crossing = None
    trajectory = [(now, fork_weight.product, honest_product_at(now))]

    rates = [attacker_stake / d_next]
    for at, _ in _race(rng, rates, phi + config.t_future, now):
        td_s += d_next
        forged += 1
        if last_pos_at is not None:
            d_next = adjust(d_next, at - last_pos_at, params)
            rates[0] = attacker_stake / d_next
        last_pos_at = now = at
        product = td_w * td_s
        ratio = product / final_honest
        if ratio > max_ratio:
            max_ratio = ratio
        if crossing is None and product > final_honest:
            crossing = now
        trajectory.append((now, product, honest_product_at(now)))

    return AttackOutcome(
        attacker_won=crossing is not None,
        crossing_time=crossing,
        weight_trajectories=_decimate(trajectory),
        final_attacker_product=td_w * td_s,
        final_honest_product=final_honest,
        max_product_ratio=max_ratio,
        meta={
            "attack": "long_range",
            "depth": depth,
            "attacker_stake_share": attacker_stake_share,
            "blocks_forged": forged,
            "omega_bound": lra_omega_bound(
                report.pow_blocks,
                max(report.pos_blocks, 1),
                (report.td_w - 1.0) / max(report.pow_blocks, 1),
            ),
            "rng_seed": rng_seed,
        },
    )


# ---------------------------------------------------------------------------
# Public-network races: selfish mining here, the public double spend in
# ``slashing``.  Both race an attacker's and the honest miners' PoW streams
# and the stakers' PoS stream at the configured equilibrium difficulty.

ATTACKER, HONEST = 0, 1  # stream indices; the stakers' stream is 2


def _public_race(config: SimConfig, attacker_hash_share: float,
                 duration: Optional[float]) -> Tuple[float, float, List[float], float]:
    """Equilibrium ``d_w``, ``d_s``, the rates of the three streams, and the
    horizon: ``duration``, else the config's, which must be finite."""
    horizon = duration if duration is not None else config.duration
    if not math.isfinite(horizon):
        raise ValueError("duration must be finite")
    total_hash = config.total_hash
    if total_hash <= 0:
        raise ValueError("config must include miners")
    stake = config.total_stake
    d_w, d_s = config.equilibrium_difficulties
    if stake <= 0:
        d_s = math.inf
    rates = [
        attacker_hash_share * total_hash / d_w,
        (1.0 - attacker_hash_share) * total_hash / d_w,
        stake / d_s if stake > 0 else 0.0,
    ]
    return d_w, d_s, rates, horizon


@dataclass
class SelfishMiningReport:
    attacker_hash_share: float
    revenue_share: float          # attacker share of canonical PoW blocks
    attacker_canonical: int
    honest_canonical_pow: int
    honest_canonical_pos: int
    pos_interleave_losses: int    # abandoned despite a PoW lead, killed by PoS weight
    td_w: float                   # the public chain's final weights
    td_s: float
    meta: dict = field(default_factory=dict)


def run_selfish_mining(
    config: SimConfig,
    attacker_hash_share: float,
    rng_seed: int = 1,
    duration: Optional[float] = None,
    gamma: float = 0.0,
) -> SelfishMiningReport:
    """Lead-based block withholding against honest miners and stakers.

    The attacker privately extends their own fork and follows the classic
    policy, restated in chain-product terms: keep mining while strictly
    ahead, publish everything once a public block narrows the PoW lead to
    one, and race block-for-block when the products tie exactly (the
    published fork against the just-arrived public block; ``gamma`` is the
    fraction of honest hash power that mines on the attacker's branch
    during such a race).  Honest stakers forge only on the first-seen
    public tip, so every honest PoS block inflates the public product while
    the stake factor of the withheld fork stays frozen; a race or a lead is
    lost outright when that happens.  That structural disadvantage is what
    this scenario measures.

    Difficulty is frozen at the configured equilibrium for both sides,
    matching the constant-difficulty setting of the classic analysis.  With
    no stakers configured the run reduces to the textbook single-chain
    model and the revenue share approaches the closed form of
    ``selfish_mining_reference_share``.
    """
    if not 0.0 <= attacker_hash_share <= 1.0:
        raise ValueError("attacker_hash_share must be in [0, 1]")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    d_w, d_s, rates, horizon = _public_race(config, attacker_hash_share, duration)

    rng = HashOracle(rng_seed).rng("selfish", int(attacker_hash_share * 10**6))

    # Public chain weight, and the private fork relative to its fork point.
    pub_w, pub_s = 1.0, 1.0
    fork_w, fork_s = pub_w, pub_s   # weights at the private fork point
    lead = 0                        # attacker PoW blocks withheld
    behind_pow = 0                  # public PoW blocks since the fork point
    behind_pos = 0                  # public PoS blocks since the fork point
    racing = False                  # published fork racing the public branch

    attacker_canonical = 0
    honest_pow = 0
    honest_pos = 0
    pos_losses = 0

    def private_product() -> float:
        return (fork_w + lead * d_w) * fork_s

    def public_product() -> float:
        return pub_w * pub_s

    def reset_fork() -> None:
        nonlocal fork_w, fork_s, lead, behind_pow, behind_pos, racing
        fork_w, fork_s = pub_w, pub_s
        lead = 0
        behind_pow = 0
        behind_pos = 0
        racing = False

    def reveal(extra_pow: int = 0) -> None:
        # The withheld fork (plus any race-deciding block) replaces the
        # public branch built since the fork point.
        nonlocal pub_w, pub_s, attacker_canonical, honest_pow, honest_pos
        attacker_canonical += lead + extra_pow
        honest_pow -= behind_pow
        honest_pos -= behind_pos
        pub_w = fork_w + (lead + extra_pow) * d_w
        pub_s = fork_s
        reset_fork()

    def abandon() -> None:
        nonlocal pos_losses
        if lead > 0 and lead >= behind_pow:
            pos_losses += lead
        reset_fork()

    for _, stream in _race(rng, rates, horizon):
        if racing:
            if stream == ATTACKER:
                # Attacker extends the published fork and takes the race.
                reveal(extra_pow=1)
            elif stream == HONEST and rng.random() < gamma:
                # An honest miner decides the race on the attacker's branch.
                reveal()
                pub_w += d_w
                honest_pow += 1
                reset_fork()
            elif stream == HONEST:
                # The public branch pulls ahead; the fork is dead.
                pub_w += d_w
                honest_pow += 1
                behind_pow += 1
                abandon()
            else:
                # A staker forges on the first-seen public branch.
                pub_s += d_s
                honest_pos += 1
                behind_pos += 1
                abandon()
            continue

        if stream == ATTACKER:
            lead += 1
            continue
        # A public block lands (honest PoW or honest PoS).
        if stream == HONEST:
            pub_w += d_w
            honest_pow += 1
            behind_pow += 1
        else:
            pub_s += d_s
            honest_pos += 1
            behind_pos += 1
        if lead == 0:
            reset_fork()  # attacker keeps following the public tip
        elif private_product() < public_product():
            abandon()
        elif private_product() == public_product():
            # Dead heat: publish the fork and fight for the next block.
            racing = True
        elif lead - behind_pow <= 1:
            reveal()

    # Cash out any remaining winning lead at the horizon.
    if lead > 0:
        if not racing and private_product() > public_product():
            reveal()
        else:
            abandon()

    total_pow = attacker_canonical + honest_pow
    return SelfishMiningReport(
        attacker_hash_share=attacker_hash_share,
        revenue_share=attacker_canonical / total_pow if total_pow else 0.0,
        attacker_canonical=attacker_canonical,
        honest_canonical_pow=honest_pow,
        honest_canonical_pos=honest_pos,
        pos_interleave_losses=pos_losses,
        td_w=pub_w,
        td_s=pub_s,
        meta={
            "attack": "selfish_mining",
            "duration": horizon,
            "rng_seed": rng_seed,
            "stake": config.total_stake,
            "d_w": d_w,
        },
    )


def selfish_mining_comparison(config: SimConfig, attacker_hash_share: float, rng_seed: int = 1,
                              duration: Optional[float] = None) -> Dict[str, SelfishMiningReport]:
    """Paired run: full network vs a stakerless control on the same seed."""
    hybrid = run_selfish_mining(config, attacker_hash_share, rng_seed, duration)
    control = run_selfish_mining(replace(config, stakers=()), attacker_hash_share,
                                 rng_seed, duration)
    return {"hybrid": hybrid, "pow_only": control}


def selfish_mining_reference_share(alpha: float, gamma: float = 0.0) -> float:
    """Closed-form revenue share of the classic one-chain strategy."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must be in [0, 0.5)")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if alpha == 0.0:
        return 0.0
    num = alpha * (1.0 - alpha) ** 2 * (4.0 * alpha + gamma * (1.0 - 2.0 * alpha)) - alpha**3
    den = 1.0 - alpha * (1.0 + (2.0 - alpha) * alpha)
    return num / den


# ---------------------------------------------------------------------------
# Split-stake nothing-at-stake invariance


@dataclass
class SplitStakeReport:
    rounds: int
    k_splits: int
    ks_two_sample: float
    ks_two_sample_critical: float
    ks_single_vs_model: float
    ks_split_vs_model: float
    ks_model_critical: float
    indistinguishable: bool
    single_mean: float
    split_mean: float


def run_split_stake_nas(
    config: SimConfig,
    k_splits: int,
    rounds: int = 100_000,
    split_weights: Optional[Sequence[float]] = None,
    rng_seed: int = 1,
) -> SplitStakeReport:
    """Eligibility-delay invariance under stake splitting.

    One staker's voting power V is split across ``k_splits`` accounts (evenly,
    or per ``split_weights`` summing to V); each round draws a fresh anchor
    seed, every account signs it, and the set's delay is the minimum over its
    members.  The minimum of the per-account exponentials has the same rate
    V/d_s as the single account, so the two delay distributions must be
    statistically indistinguishable; detectors get no signal to act on.
    """
    if k_splits <= 0:
        raise ValueError("k_splits must be positive")
    if not config.stakers:
        raise ValueError("config must include at least one staker")
    voting = config.stakers[0][1]
    d_s = max(config.total_stake, voting) * 2.0 * config.t
    if split_weights is None:
        weights = [voting / k_splits] * k_splits
    else:
        weights = list(split_weights)
        if len(weights) != k_splits or any(w <= 0 for w in weights):
            raise ValueError("split_weights must be k positive values")
        if not math.isclose(sum(weights), voting, rel_tol=1e-9):
            raise ValueError("split_weights must sum to the staker's power")

    oracle = HashOracle(rng_seed)
    single_key = oracle.keypair(900_000)
    split_keys = [oracle.keypair(900_001 + i) for i in range(k_splits)]

    # One lottery per round: the single account first, then the split set.
    stakers = [(single_key, voting)] + list(zip(split_keys, weights))
    single = []
    split = []
    for round_index in range(rounds):
        anchor = oracle.hash("nas-round", round_index)
        (_, delay), *members = pos_lottery(oracle, anchor, d_s, stakers)
        single.append(delay)
        split.append(min(delay for _, delay in members))

    ks_two = stats.two_sample_ks(single, split)
    crit_two = stats.two_sample_ks_critical(len(single), len(split))
    rate = voting / d_s
    ks_single = stats.exponential_ks(single, rate)
    ks_split = stats.exponential_ks(split, rate)
    crit_one = stats.ks_critical(rounds)
    return SplitStakeReport(
        rounds=rounds,
        k_splits=k_splits,
        ks_two_sample=float(ks_two),
        ks_two_sample_critical=float(crit_two),
        ks_single_vs_model=float(ks_single),
        ks_split_vs_model=float(ks_split),
        ks_model_critical=float(crit_one),
        indistinguishable=bool(ks_two < crit_two),
        single_mean=float(sum(single) / rounds),
        split_mean=float(sum(split) / rounds),
    )


# ---------------------------------------------------------------------------
# Future-timestamp mining game


@dataclass
class FutureMiningTranscript:
    """Blow-by-blow replay of the four-player future-timestamp game."""

    t_a: float
    t_b: float
    t_x: float
    events: List[str]
    weight_terms: Dict[str, float]
    checks: Dict[str, bool]

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def run_future_mining_game(config: SimConfig, rng_seed: int = 1) -> FutureMiningTranscript:
    """Play the early-published-future-block game on block trees.

    Four players: staker Alice publishes her block at its forced timestamp
    t_a; staker Bob publishes his at time zero carrying future timestamp
    t_b; miners Charlie (ignores future blocks) and David (mines on
    anything) split the hash power evenly.  Timestamps t_a and t_b are the
    stakers' slots on the genesis seed; the miners' common solve time t_x
    is placed before both, as the game requires.  The network is one tree
    at frozen difficulty; Charlie's clock check is an import into a replica.
    """
    oracle = HashOracle(rng_seed)
    t_future = config.t_future
    stake_each, hash_each = 100.0, 1.0
    d_s = 2 * stake_each * 2.0 * config.t
    d_w = 2 * hash_each * 2.0 * config.t
    genesis = replace(make_genesis(oracle), seed=oracle.hash("game-seed"))
    tree = BlockTree(genesis, FrozenRule(d_w, d_s))

    def staker(account: int) -> Tuple[StakerContext, PosEligibility]:
        key = oracle.keypair(account)
        _, slot = pos_winner(oracle, genesis, d_s, [(key, stake_each)])
        return StakerContext(account, key), slot

    # The game needs t_x < min(t_a, t_b) and Bob's timestamp still in the
    # future (beyond the tolerance) when Charlie picks a parent at t_x.
    # Scan Bob's account index until the slots line up.
    alice, alice_slot = staker(1)
    t_a = alice_slot.eligible_at
    bob_account = 2
    while True:
        bob, bob_slot = staker(bob_account)
        t_b = bob_slot.eligible_at
        t_x = 0.5 * min(t_a, t_b)
        if t_b > t_x + t_future and abs(t_a - t_b) > 1e-9:
            break
        bob_account += 1
    charlie = MinerContext(bob_account + 1, hash_each)
    david = MinerContext(bob_account + 2, hash_each)

    events: List[str] = []
    terms: Dict[str, float] = {"W(B_0)": tree.chain_weight(genesis.id).product,
                               "d_w": d_w, "d_s": d_s}
    checks: Dict[str, bool] = {}

    # Bob forges without waiting for his slot; at t_x it is still beyond
    # Charlie's tolerance, while David's view takes it.
    b_s1b = forge_pos_block(oracle, tree, genesis.id, bob, bob_slot)
    checks["charlie_rejects_future_block"] = (
        tree.replica().import_block(b_s1b, t_x, t_future) is ImportResult.REJECTED_FUTURE)
    tree.import_block(b_s1b)
    events.append(
        f"t=0: Bob publishes PoS block B_s1b early, forced timestamp {t_b:.3f}; "
        f"Charlie keeps mining on B_0 (timestamp {t_b:.3f} is future to him), "
        "David switches to B_s1b"
    )

    b_w1c = build_pow_block(oracle, tree, genesis.id, charlie, 0.0)
    b_w1d = build_pow_block(oracle, tree, b_s1b.id, david, t_b + 1.0)
    tree.import_block(b_w1c)
    tree.import_block(b_w1d)
    events.append(
        f"t={t_x:.3f}: both miners solve; Charlie's B_w1c extends B_0 "
        f"(stamped 0.0), David's B_w1d extends B_s1b (stamped {t_b + 1.0:.3f})"
    )

    # Chain weights right after the double solve.  Additively, d beats c by
    # exactly the stake weight Bob contributed (the PoW terms cancel).
    chain_c, chain_d = tree.chain_weight(b_w1c.id), tree.chain_weight(b_w1d.id)
    terms["W(chain_c)@t_x"] = chain_c.product
    terms["W(chain_d)@t_x"] = chain_d.product
    additive_gap = (chain_d.td_w + chain_d.td_s) - (chain_c.td_w + chain_c.td_s)
    terms["additive_gap@t_x"] = additive_gap
    checks["chain_d_heavier_at_t_x"] = tree.canonical_tip == b_w1d.id
    checks["gap_is_bobs_stake_weight"] = math.isclose(additive_gap, d_s)
    events.append(
        f"t={t_x:.3f}: W(chain_d)={chain_d.product:.1f} > W(chain_c)={chain_c.product:.1f}; "
        "Charlie stays on his own branch"
    )

    # Alice's slot was drawn on the genesis seed, which B_s1b's seed
    # supersedes on David's branch, so only B_w1c can carry her block.
    try:
        forge_pos_block(oracle, tree, b_w1d.id, alice, alice_slot, now=t_a)
        checks["seed_conflict_blocks_reparent"] = False
    except EligibilityError:
        checks["seed_conflict_blocks_reparent"] = True
    b_s1a = forge_pos_block(oracle, tree, b_w1c.id, alice, alice_slot, now=t_a)
    checks["alice_block_counted_at_t_a"] = tree.import_block(b_s1a, t_a, t_future) in (
        ImportResult.EXTENDED_CANONICAL, ImportResult.SIDE_CHAIN, ImportResult.REORG)
    events.append(
        f"t={t_a:.3f}: Alice publishes B_s1a (timestamp {t_a:.3f}) on B_w1c; "
        "it cannot reference B_w1d because its seed conflicts with B_s1b"
    )

    chain_c_after = tree.chain_weight(b_s1a.id).product
    terms["W(chain_c)@t_a"] = chain_c_after
    terms["W(chain_d)@t_a"] = chain_d.product
    checks["parity_at_t_a"] = (chain_c_after == chain_d.product
                               and tree.canonical_tip == b_w1d.id)
    events.append(
        f"t={t_a:.3f}: W(chain_c)={chain_c_after:.1f} equals "
        f"W(chain_d)={chain_d.product:.1f}; the early publication bought nothing"
    )

    return FutureMiningTranscript(
        t_a=t_a, t_b=t_b, t_x=t_x, events=events,
        weight_terms=terms, checks=checks,
    )


# ---------------------------------------------------------------------------
# Reporting


def write_attack_report(outdir: str, payload: dict,
                        trajectories: Optional[List[Tuple[float, float, float]]] = None,
                        force: bool = False) -> List[str]:
    """Write attack_report.json (and optional trajectories.csv) to outdir."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    report_path = os.path.join(outdir, "attack_report.json")
    if os.path.exists(report_path) and not force:
        raise FileExistsError(f"{report_path} exists; pass force to overwrite")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    paths.append(report_path)
    if trajectories is not None:
        csv_path = os.path.join(outdir, "trajectories.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("time,attacker_product,honest_product\n")
            for when, att, hon in trajectories:
                fh.write(f"{when!r},{att!r},{hon!r}\n")
        paths.append(csv_path)
    return paths
