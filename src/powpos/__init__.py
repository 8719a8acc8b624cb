"""Hybrid PoW/PoS chain protocol library and deterministic simulator.

Two independent block lotteries (hash power and stake) extend one tree;
the canonical chain maximizes the product of accumulated PoW and PoS
difficulty.  This package provides the protocol rules (forging,
difficulty control, fork choice, genesis stake map), a discrete-event
network simulator, adversary scenarios, and slashing analysis, all
deterministic under a single run seed.
"""

from .chain import Block, BlockKind, BlockTree, ImportResult, WeightPair, make_genesis
from .crypto import Digest, HashOracle, KeyPair
from .difficulty import AdaptiveRule, DifficultyParams, FrozenRule, adjust, median_threshold
from .forging import (
    EligibilityError,
    MinerContext,
    PosEligibility,
    StakerContext,
    build_pow_block,
    forge_pos_block,
    pos_delay,
    pos_eligibility,
    pos_lottery,
    pow_solve_time,
    verify_pos_block,
)
from .ledger import Ledger
from .simnet import (
    ConfigError,
    LatencyModel,
    SimConfig,
    SimReport,
    baseline_config,
    orphan_proxy,
    parse_config_file,
    quick_config,
    run,
    write_artifacts,
)
from .attacks import (
    AttackOutcome,
    AttackSetup,
    double_spend_feasible,
    double_spend_win_rate,
    lra_omega_bound,
    run_future_mining_game,
    run_long_range_attack,
    run_private_double_spend,
    run_selfish_mining,
    run_split_stake_nas,
)
from .slashing import (
    Evidence,
    EvidenceKind,
    StakerPolicy,
    detect_all,
    detect_double_production,
    detect_weight_timestamp_violation,
    dunkle_n_bound,
    dunkle_settlement,
    run_public_double_spend,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRule",
    "AttackOutcome",
    "AttackSetup",
    "Block",
    "BlockKind",
    "BlockTree",
    "ConfigError",
    "Digest",
    "DifficultyParams",
    "EligibilityError",
    "Evidence",
    "EvidenceKind",
    "FrozenRule",
    "HashOracle",
    "ImportResult",
    "KeyPair",
    "LatencyModel",
    "Ledger",
    "MinerContext",
    "PosEligibility",
    "SimConfig",
    "SimReport",
    "StakerContext",
    "StakerPolicy",
    "WeightPair",
    "adjust",
    "baseline_config",
    "build_pow_block",
    "detect_all",
    "detect_double_production",
    "detect_weight_timestamp_violation",
    "double_spend_feasible",
    "double_spend_win_rate",
    "dunkle_n_bound",
    "dunkle_settlement",
    "forge_pos_block",
    "lra_omega_bound",
    "make_genesis",
    "median_threshold",
    "orphan_proxy",
    "parse_config_file",
    "pos_delay",
    "pos_eligibility",
    "pos_lottery",
    "pow_solve_time",
    "quick_config",
    "run",
    "run_future_mining_game",
    "run_long_range_attack",
    "run_private_double_spend",
    "run_public_double_spend",
    "run_selfish_mining",
    "run_split_stake_nas",
    "verify_pos_block",
    "write_artifacts",
]
