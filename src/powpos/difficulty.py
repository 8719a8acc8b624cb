"""Per-kind difficulty retargeting.

Work and stake difficulties adjust independently with the same multiplicative
controller.  Each kind targets a mean spacing of one block per ``target_gap``
seconds, so the two merged streams together target half that.  The controller
steers on the median of the target exponential spacing: for a mean gap of
``target_gap`` the median sits at ``target_gap * ln 2``.  A gap longer than
the median means blocks are too slow, so difficulty drops by ``1 / (1+alpha)``;
a shorter gap raises it by ``(1+alpha)``; a gap exactly on the median leaves it
unchanged.  Difficulty is clamped below at ``d_min``.

The decision variable is the observed timestamp gap between the last two
blocks of the same kind on the chain being extended.  With fewer than two such
ancestors the genesis default for that kind applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .chain import BlockKind, BlockTree


@dataclass(frozen=True, slots=True)
class DifficultyParams:
    """Controller constants shared by both kinds.

    ``target_gap`` is the per-kind mean spacing in seconds (twice the combined
    block-time target, since two kinds interleave).
    """

    target_gap: float
    alpha: float
    d_min: float = 1e-9
    d_genesis_w: float = 1.0
    d_genesis_s: float = 1.0

    def __post_init__(self) -> None:
        if self.target_gap <= 0:
            raise ValueError("target_gap must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.d_min <= 0:
            raise ValueError("d_min must be positive")

    def genesis_difficulty(self, kind: "BlockKind") -> float:
        from .chain import BlockKind

        return self.d_genesis_w if kind is BlockKind.POW else self.d_genesis_s


def median_threshold(params: DifficultyParams) -> float:
    """Median of the target spacing distribution: ``target_gap * ln 2``."""
    return params.target_gap * math.log(2.0)


def adjust(difficulty: float, observed_gap: float, params: DifficultyParams) -> float:
    """One controller step given the gap observed between same-kind blocks.

    A zero gap (simultaneous same-kind blocks) takes the too-fast branch.
    Negative gaps cannot arise from valid chains and are rejected.
    """
    if difficulty <= 0:
        raise ValueError("difficulty must be positive")
    if observed_gap < 0:
        raise ValueError("observed gap must be non-negative")
    thr = median_threshold(params)
    if observed_gap > thr:
        adjusted = difficulty / (1.0 + params.alpha)
    elif observed_gap < thr:
        adjusted = difficulty * (1.0 + params.alpha)
    else:
        adjusted = difficulty
    return max(adjusted, params.d_min)


class AdaptiveRule:
    """Protocol retargeting: next difficulty follows from chain history.

    The expected difficulty of a new block of some kind, given its parent,
    is ``adjust`` applied to the most recent same-kind ancestor's difficulty
    using the gap between the last two same-kind ancestors.  With fewer than
    two such ancestors the genesis default applies.
    """

    __slots__ = ("params",)

    def __init__(self, params: DifficultyParams):
        self.params = params

    def expected(self, tree: "BlockTree", parent_id: int, kind: "BlockKind") -> float:
        latest, previous = tree.last_two_of_kind(parent_id, kind)
        if latest is None or previous is None:
            return self.params.genesis_difficulty(kind)
        gap = latest.timestamp - previous.timestamp
        return adjust(latest.difficulty, gap, self.params)


class FrozenRule:
    """Constant difficulty per kind, used by attack analyses that freeze it."""

    __slots__ = ("d_w", "d_s")

    def __init__(self, d_w: float, d_s: float):
        if d_w <= 0 or d_s <= 0:
            raise ValueError("frozen difficulties must be positive")
        self.d_w = d_w
        self.d_s = d_s

    def expected(self, tree: "BlockTree", parent_id: int, kind: "BlockKind") -> float:
        from .chain import BlockKind

        return self.d_w if kind is BlockKind.POW else self.d_s
