"""Pure per-cell transition rules for the news and innovation diffusion models.

All functions here are referentially transparent: randomness enters only
through an explicit uniform draw ``p`` in [0, 1), supplied by the caller.
Only cells that can adopt (white / not-adopted) consume a draw; the other
transitions are deterministic functions of the neighborhood.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .grid import ADOPTION_CHARS, NEWS_CHARS, AdoptionState, CellState


@dataclass(frozen=True)
class NewsRuleParams:
    """Parameters of the three-state news rule.

    A white cell with ``m`` black neighbors adopts the news when
    ``p * m > adoption_threshold``, where the draw ``p`` is scaled by
    ``boost_factor`` whenever ``m < boost_below`` (weakly connected cells
    are more receptive).

    The type of a config's rule parameters selects its model; the class
    variables name the model, its seed cell's state and its ASCII alphabet,
    and ``stale[code]`` is the next state of a cell with no white neighbor:
    black news goes stale and grey news is forgotten.
    """

    name: ClassVar[str] = "news"
    seed_state: ClassVar[CellState] = CellState.BLACK
    chars: ClassVar[dict] = NEWS_CHARS
    stale: ClassVar[tuple | None] = (CellState.WHITE, CellState.WHITE, CellState.GREY)

    adoption_threshold: float = 1.0
    boost_factor: float = 1.5
    boost_below: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.adoption_threshold < math.inf:
            raise ValueError(f"adoption_threshold must be positive and finite, got {self.adoption_threshold}")
        if not 1 <= self.boost_factor < math.inf:
            raise ValueError(f"boost_factor must be >= 1 and finite, got {self.boost_factor}")
        if not 0 <= self.boost_below <= 8:
            raise ValueError("boost_below must be in [0, 8]")

    def adopts(self, p, m):
        """Vectorized :func:`adopts_news` over draws ``p`` and black-neighbor counts ``m``."""
        return np.where(m < self.boost_below, p * self.boost_factor, p) * m > self.adoption_threshold


@dataclass(frozen=True)
class InnovationRuleParams:
    """Parameters of the two-state innovation rule: adopt when ``p * m > threshold``.

    Adoption is permanent, so no state goes stale (``stale`` is None).
    """

    name: ClassVar[str] = "innovation"
    seed_state: ClassVar[AdoptionState] = AdoptionState.ADOPTED
    chars: ClassVar[dict] = ADOPTION_CHARS
    stale: ClassVar[tuple | None] = None

    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")

    def adopts(self, p, m):
        """Vectorized :func:`adopts_innovation` over draws ``p`` and adopted-neighbor counts ``m``."""
        return p * m > self.threshold


DEFAULT_NEWS_PARAMS = NewsRuleParams()
DEFAULT_INNOVATION_PARAMS = InnovationRuleParams()

# Manifest and ``--model`` name -> rule parameter class.
MODELS = {cls.name: cls for cls in (NewsRuleParams, InnovationRuleParams)}


def adopts_news(m: int, p: float, params: NewsRuleParams = DEFAULT_NEWS_PARAMS) -> bool:
    """Whether a white cell with ``m`` black neighbors and draw ``p`` turns black.

    Strict inequality: the boosted product must exceed the threshold. The
    boost scales the comparison only; ``p`` itself is never stored anywhere.
    """
    p_eff = p * params.boost_factor if m < params.boost_below else p
    return p_eff * m > params.adoption_threshold


def adopts_innovation(
    m: int, p: float, params: InnovationRuleParams = DEFAULT_INNOVATION_PARAMS
) -> bool:
    """Whether a not-adopted cell with ``m`` adopted neighbors and draw ``p`` adopts."""
    return p * m > params.threshold


def next_news_state(
    current: CellState,
    neighbors: np.ndarray,
    p: float,
    params: NewsRuleParams = DEFAULT_NEWS_PARAMS,
) -> CellState:
    """One synchronous-update transition of a single news-model cell.

    - white turns black iff :func:`adopts_news` fires for its black-neighbor
      count (``p`` must be a fresh draw for this cell at this step);
    - black turns grey iff no neighbor is white (the news has saturated its
      vicinity and goes stale);
    - grey turns white iff no neighbor is white (well-known information is
      forgotten).

    An empty neighborhood satisfies the no-white condition vacuously.
    """
    nb = np.asarray(neighbors)
    if current == CellState.WHITE:
        m = int(np.count_nonzero(nb == CellState.BLACK))
        return CellState.BLACK if adopts_news(m, p, params) else CellState.WHITE
    has_white = bool(np.any(nb == CellState.WHITE))
    if current == CellState.BLACK:
        return CellState.BLACK if has_white else CellState.GREY
    return CellState.GREY if has_white else CellState.WHITE


def next_innovation_state(
    current: AdoptionState,
    neighbors: np.ndarray,
    p: float,
    params: InnovationRuleParams = DEFAULT_INNOVATION_PARAMS,
) -> AdoptionState:
    """One transition of a single innovation-model cell; adoption is permanent."""
    if current == AdoptionState.ADOPTED:
        return AdoptionState.ADOPTED
    m = int(np.count_nonzero(np.asarray(neighbors) == AdoptionState.ADOPTED))
    return AdoptionState.ADOPTED if adopts_innovation(m, p, params) else AdoptionState.NOT_ADOPTED
