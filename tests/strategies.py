"""Hypothesis settings and strategies shared by the property tests."""

import numpy as np
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


@st.composite
def spline_pieces(draw):
    """1 to 6 pieces (t, z) of numpy arrays, t strictly increasing and z
    complex.  Pieces of 2 to 4 samples, which take the closed form or the
    shortest sweep, mix with pieces of up to 60.  Hypothesis draws the
    sizes and a seed; the seed draws steps over four decades, values over
    six, and signed zeros in about a tenth of the parts (element by
    element, hypothesis took 30 ms per example)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 4) | st.integers(5, 60))
        t = rng.uniform(-10.0, 10.0) + np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-3.0, 1.0, n - 1)])
        parts = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        zeros = rng.random((2, n)) < 0.1
        parts[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        z = np.empty(n, dtype=complex)
        z.real, z.imag = parts
        pieces.append((t, z))
    return pieces


@st.composite
def rigid_motions(draw):
    """(rotation, shift, lift, scale) for curve samples (z, t) ->
    (scale * (rotation * z + shift), scale * t + lift): a rotation of the
    z plane, a translation in z, a height shift and a positive scale."""
    rotation = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    shift = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    return rotation, shift, draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 10.0))
