"""The two models: their cell states, alphabets, rule parameters and adoption tests.

Everything that tells one model from the other lives here; the lattice in
:mod:`newsca.grid` knows no model. Each model is described by its rule
parameter class: its name, its cell states and the seed cell's state, its
ASCII alphabet, whether its states go stale, and its adoption test, written
once as the scalar ``adopts(m, p)`` over a seed-state neighbor count ``m``
and a draw ``p``. Both models code the empty cell (white / not adopted) as
0. The per-cell oracle applies the test directly; :func:`cutoffs` turns it
into the exact cutoff table that :func:`newsca.engine.step` compares draws
with, for either model.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .grid import shown

# The largest value ``rng.random()`` returns. Adoption tests are monotone in
# the draw, so a cell that does not adopt at this draw can never adopt.
MAX_DRAW = float(np.nextafter(1.0, 0.0))


def require_number(name: str, value, integral: bool = False):
    """``value`` as a Python number; ValueError naming ``name`` unless it is a
    real number, or with ``integral`` an integer. A bool is neither. A numpy
    scalar is accepted and returned as the Python number it holds, so that
    equal parameters hash alike and compute in double precision."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, got {shown(value)}")
    return value.item() if isinstance(value, np.generic) else value


def store_numbers(obj, names: tuple[str, ...], integral: bool = False) -> None:
    """Pass each field ``names`` of the frozen dataclass ``obj`` through
    :func:`require_number` and store what it returns."""
    for name in names:
        object.__setattr__(obj, name, require_number(name, getattr(obj, name), integral))


class CellState(IntEnum):
    """News-model cell state."""

    WHITE = 0  # no information: never reached, or forgotten
    GREY = 1   # stale news, retained as information
    BLACK = 2  # fresh news


# News-model ASCII alphabet (one character per cell).
NEWS_CHARS = {CellState.WHITE: ".", CellState.GREY: "o", CellState.BLACK: "#"}


@dataclass(frozen=True)
class NewsRuleParams:
    """Parameters of the three-state news rule.

    A white cell with ``m`` black neighbors adopts the news when its draw
    times ``m`` exceeds ``adoption_threshold``, the draw being scaled by
    ``boost_factor`` whenever ``m < boost_below`` (weakly connected cells
    are more receptive); :meth:`adopts` is that rule.

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
        store_numbers(self, ("adoption_threshold", "boost_factor"))
        store_numbers(self, ("boost_below",), integral=True)
        if not 0 < self.adoption_threshold < math.inf:
            raise ValueError(f"adoption_threshold must be positive and finite, got {shown(self.adoption_threshold)}")
        if not 1 <= self.boost_factor < math.inf:
            raise ValueError(f"boost_factor must be >= 1 and finite, got {shown(self.boost_factor)}")
        if not 0 <= self.boost_below <= 8:
            raise ValueError(f"boost_below must be in [0, 8], got {shown(self.boost_below)}")

    def adopts(self, m: int, p: float) -> bool:
        """Whether a white cell with ``m`` black neighbors and draw ``p`` turns black.

        Strict inequality: the boosted product must exceed the threshold. The
        boost scales the comparison only; ``p`` itself is never stored anywhere.
        """
        p_eff = p * self.boost_factor if m < self.boost_below else p
        return p_eff * m > self.adoption_threshold


class AdoptionState(IntEnum):
    """Innovation-model cell state. ADOPTED is absorbing."""

    NOT_ADOPTED = 0
    ADOPTED = 1


# Innovation-model ASCII alphabet (one character per cell).
ADOPTION_CHARS = {AdoptionState.NOT_ADOPTED: ".", AdoptionState.ADOPTED: "#"}


@dataclass(frozen=True)
class InnovationRuleParams:
    """Parameters of the two-state innovation rule: a cell adopts when its
    draw times its count of adopted neighbors exceeds ``threshold`` (:meth:`adopts`).

    Adoption is permanent, so no state goes stale (``stale`` is False).
    """

    name: ClassVar[str] = "innovation"
    seed_state: ClassVar[AdoptionState] = AdoptionState.ADOPTED
    chars: ClassVar[dict] = ADOPTION_CHARS
    stale: ClassVar[bool] = False

    threshold: float = 1.0

    def __post_init__(self) -> None:
        store_numbers(self, ("threshold",))
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {shown(self.threshold)}")

    def adopts(self, m: int, p: float) -> bool:
        """Whether a not-adopted cell with ``m`` adopted neighbors and draw ``p`` adopts."""
        return p * m > self.threshold


# Manifest and ``--model`` name -> rule parameter class.
MODELS = {cls.name: cls for cls in (NewsRuleParams, InnovationRuleParams)}


@lru_cache(maxsize=16)
def cutoffs(params: NewsRuleParams | InnovationRuleParams) -> np.ndarray:
    """``q[m]``, m = 0..8: the smallest draw at which ``params.adopts`` fires
    for a code-0 cell with ``m`` seed-state neighbors, or ``inf`` if it
    fires at no draw up to MAX_DRAW.

    Both tests are monotone in the draw and their thresholds are positive,
    so ``params.adopts(m, p)`` equals ``p >= q[m]`` for every draw ``p`` in
    [0, MAX_DRAW]. Each cutoff is found by bisecting the bit patterns of
    the doubles in that range, which ascend with their values.
    """
    def double(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    q = np.full(9, math.inf)
    top = int(np.float64(MAX_DRAW).view(np.int64))
    for m in range(9):
        if not params.adopts(m, MAX_DRAW):
            continue
        lo, hi = 0, top  # 0.0 never adopts, MAX_DRAW does
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if params.adopts(m, double(mid)):
                hi = mid
            else:
                lo = mid
        q[m] = double(hi)
    q.flags.writeable = False
    return q
