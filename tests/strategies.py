"""Hypothesis settings and strategies shared by the property tests."""

from hypothesis import settings
from hypothesis import strategies as st

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def braid_words(draw, nodes=True):
    """(word, n_strands) on 2 to 4 strands, up to 12 letters, nodes allowed
    unless `nodes` is False."""
    n = draw(st.integers(2, 4))
    letter = st.sampled_from([sgn * i for i in range(1, n) for sgn in (1, -1)])
    if nodes:
        letter = letter | st.tuples(st.just("node"), st.integers(1, n - 1))
    return draw(st.lists(letter, min_size=1, max_size=12)), n
