"""The two models' rule parameters and the news adoption test.

Each model is described by its rule parameter class: its name, seed state,
ASCII alphabet, whether its states go stale, and a vectorized adoption
test ``adopts(p, m)`` over draws ``p`` and seed-state neighbor counts ``m``
that :func:`newsca.engine.step` applies. The news test is written once, as
the scalar :func:`adopts_news`; :func:`news_cutoffs` turns it into the exact
cutoff table the vectorized test compares draws with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .grid import ADOPTION_CHARS, NEWS_CHARS, AdoptionState, CellState

# The largest value ``rng.random()`` returns. Adoption tests are monotone in
# the draw, so a cell that does not adopt at this draw can never adopt.
MAX_DRAW = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class NewsRuleParams:
    """Parameters of the three-state news rule.

    A white cell with ``m`` black neighbors adopts the news when
    ``p * m > adoption_threshold``, where the draw ``p`` is scaled by
    ``boost_factor`` whenever ``m < boost_below`` (weakly connected cells
    are more receptive).

    The type of a config's rule parameters selects its model; the class
    variables name the model, its seed cell's state and its ASCII alphabet,
    and ``stale`` says that a cell with no white neighbor goes one state
    staler: black news goes stale (grey) and grey news is forgotten (white).
    """

    name: ClassVar[str] = "news"
    seed_state: ClassVar[CellState] = CellState.BLACK
    chars: ClassVar[dict] = NEWS_CHARS
    stale: ClassVar[bool] = True

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
        """Vectorized :func:`adopts_news` over draws ``p`` in [0, MAX_DRAW]
        and black-neighbor counts ``m``, by the cutoff table :func:`news_cutoffs`."""
        return p >= news_cutoffs(self).take(m)


@dataclass(frozen=True)
class InnovationRuleParams:
    """Parameters of the two-state innovation rule: adopt when ``p * m > threshold``.

    Adoption is permanent, so no state goes stale (``stale`` is False).
    """

    name: ClassVar[str] = "innovation"
    seed_state: ClassVar[AdoptionState] = AdoptionState.ADOPTED
    chars: ClassVar[dict] = ADOPTION_CHARS
    stale: ClassVar[bool] = False

    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")

    def adopts(self, p, m):
        """Whether a not-adopted cell with draw ``p`` and ``m`` adopted neighbors adopts."""
        return p * m > self.threshold


# Manifest and ``--model`` name -> rule parameter class.
MODELS = {cls.name: cls for cls in (NewsRuleParams, InnovationRuleParams)}


def adopts_news(m: int, p: float, params: NewsRuleParams = NewsRuleParams()) -> bool:
    """Whether a white cell with ``m`` black neighbors and draw ``p`` turns black.

    Strict inequality: the boosted product must exceed the threshold. The
    boost scales the comparison only; ``p`` itself is never stored anywhere.
    """
    p_eff = p * params.boost_factor if m < params.boost_below else p
    return p_eff * m > params.adoption_threshold


@lru_cache(maxsize=16)
def news_cutoffs(params: NewsRuleParams) -> np.ndarray:
    """``q[m]``, m = 0..8: the smallest draw at which :func:`adopts_news`
    fires for a white cell with ``m`` black neighbors, or ``inf`` if it
    fires at no draw up to MAX_DRAW.

    The test is monotone in the draw and the threshold is positive, so
    ``adopts_news(m, p)`` equals ``p >= q[m]`` for every draw ``p`` in
    [0, MAX_DRAW]. Each cutoff is found by bisecting the bit patterns of
    the doubles in that range, which ascend with their values.
    """
    def double(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    q = np.full(9, math.inf)
    top = int(np.float64(MAX_DRAW).view(np.int64))
    for m in range(9):
        if not adopts_news(m, MAX_DRAW, params):
            continue
        lo, hi = 0, top  # 0.0 never adopts, MAX_DRAW does
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if adopts_news(m, double(mid), params):
                hi = mid
            else:
                lo = mid
        q[m] = double(hi)
    q.flags.writeable = False
    return q
