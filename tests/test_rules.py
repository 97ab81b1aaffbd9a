import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newsca import (
    AdoptionState,
    CellState,
    InnovationRuleParams,
    NewsRuleParams,
)
from newsca.reference import next_innovation_state, next_news_state

W, G, B = CellState.WHITE, CellState.GREY, CellState.BLACK
adopts_news = NewsRuleParams().adopts
adopts_innovation = InnovationRuleParams().adopts


def nb(*states):
    return np.array(states, dtype=np.uint8)


class TestAdoptsNews:
    @pytest.mark.parametrize(
        "m,p,expected",
        [
            (0, 0.99, False),   # zero black neighbors can never adopt
            (2, 0.4, True),     # boosted: 0.4 * 1.5 * 2 = 1.2 > 1
            (2, 0.3, False),    # boosted: 0.3 * 1.5 * 2 = 0.9
            (8, 0.2, True),     # unboosted: 1.6 > 1
            (1, 0.7, True),     # boosted: 1.05 > 1
            (1, 0.6, False),    # boosted: 0.9
        ],
    )
    def test_examples(self, m, p, expected):
        assert adopts_news(m, p) is expected

    def test_threshold_is_strict(self):
        # 0.25 * 4 is exactly 1.0, which must not fire
        assert adopts_news(4, 0.25) is False
        assert adopts_news(4, 0.2500001) is True

    def test_boost_applies_only_below_three(self):
        # same p, m=2 boosted (3p) vs m=3 unboosted (3p): identical products
        assert adopts_news(2, 0.34) == adopts_news(3, 0.34)
        assert adopts_news(3, 0.2) is False  # 0.6, no boost

    @given(p=st.floats(0, 1, exclude_max=True), m=st.integers(0, 7))
    def test_monotone_in_m(self, p, m):
        if adopts_news(m, p):
            assert adopts_news(m + 1, p)

    @given(
        m=st.integers(0, 8),
        p1=st.floats(0, 1, exclude_max=True),
        p2=st.floats(0, 1, exclude_max=True),
    )
    def test_monotone_in_p(self, m, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        if adopts_news(m, lo):
            assert adopts_news(m, hi)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NewsRuleParams(adoption_threshold=0)
        with pytest.raises(ValueError):
            NewsRuleParams(boost_factor=0.5)
        with pytest.raises(ValueError):
            NewsRuleParams(boost_below=9)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NewsRuleParams(adoption_threshold=value)
            with pytest.raises(ValueError):
                NewsRuleParams(boost_factor=value)


class TestAdoptsInnovation:
    @pytest.mark.parametrize(
        "m,p,expected",
        [(0, 0.9, False), (5, 0.25, True), (8, 0.1, False)],
    )
    def test_examples(self, m, p, expected):
        assert adopts_innovation(m, p) is expected

    def test_threshold_is_strict(self):
        assert adopts_innovation(4, 0.25) is False  # exactly 1.0

    def test_custom_threshold(self):
        params = InnovationRuleParams(threshold=0.5)
        assert params.adopts(1, 0.6) is True
        for value in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                InnovationRuleParams(threshold=value)


class TestNextNewsState:
    def test_black_goes_grey_when_no_white_around(self):
        assert next_news_state(B, nb(G, G, G, G, G, G, G, G), 0.0) == G
        assert next_news_state(B, nb(B, B, G, G, B, G, B, G), 0.0) == G

    def test_black_stays_black_next_to_white(self):
        assert next_news_state(B, nb(G, G, G, W, G, G, G, G), 0.99) == B

    def test_grey_forgets_when_no_white_around(self):
        assert next_news_state(G, nb(G, G, G, G, G, G, G, G), 0.0) == W
        assert next_news_state(G, nb(B, G, B, G, G, G, B, G), 0.0) == W

    def test_grey_stays_grey_next_to_white(self):
        assert next_news_state(G, nb(W, G, G, G, G, G, G, G), 0.0) == G

    def test_white_with_no_black_stays_white(self):
        assert next_news_state(W, nb(W, W, G, G, W, W, G, W), 0.99) == W

    def test_white_adopts_on_lucky_draw(self):
        around = nb(B, W, W, W, W, W, W, W)  # m = 1, boosted
        assert next_news_state(W, around, 0.7) == B
        assert next_news_state(W, around, 0.6) == W

    def test_empty_neighborhood_is_vacuous(self):
        empty = nb()
        assert next_news_state(B, empty, 0.0) == G
        assert next_news_state(G, empty, 0.0) == W
        assert next_news_state(W, empty, 0.99) == W

    @given(
        current=st.sampled_from([W, G, B]),
        states=st.lists(st.sampled_from([0, 1, 2]), min_size=0, max_size=8),
        p=st.floats(0, 1, exclude_max=True),
    )
    def test_only_legal_transitions(self, current, states, p):
        allowed = {W: {W, B}, B: {B, G}, G: {G, W}}
        result = next_news_state(current, np.array(states, dtype=np.uint8), p)
        assert result in allowed[current]

    @given(
        states=st.lists(st.sampled_from([0, 1, 2]), min_size=0, max_size=8),
        p=st.floats(0, 1, exclude_max=True),
    )
    def test_pure(self, states, p):
        around = np.array(states, dtype=np.uint8)
        for current in (W, G, B):
            assert next_news_state(current, around, p) == next_news_state(current, around, p)


class TestNextInnovationState:
    def test_adopted_is_absorbing(self):
        around = nb(0, 0, 0, 0, 0, 0, 0, 0)
        assert next_innovation_state(AdoptionState.ADOPTED, around, 0.0) == AdoptionState.ADOPTED

    def test_isolated_cell_never_adopts(self):
        around = nb(0, 0, 0, 0, 0, 0, 0, 0)
        result = next_innovation_state(AdoptionState.NOT_ADOPTED, around, 0.99)
        assert result == AdoptionState.NOT_ADOPTED

    def test_adopts_with_enough_support(self):
        around = nb(1, 1, 1, 1, 1, 0, 0, 0)  # m = 5
        assert next_innovation_state(AdoptionState.NOT_ADOPTED, around, 0.25) == AdoptionState.ADOPTED
